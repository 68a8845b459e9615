package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"adaptivetoken/internal/protocol"
)

// Three envelopes the golden-bytes, allocation and benchmark tests share.
var (
	tokenEnv = Envelope{From: 0, To: 1, Proto: &protocol.Message{
		Kind: protocol.MsgToken, From: 0, To: 1, Round: 300,
		ReturnTo: protocol.None, Requester: protocol.None, Epoch: 2, Attach: "seq=7",
		Served: []protocol.ServedRec{{Requester: 4, ReqSeq: 9}, {Requester: 5, ReqSeq: 1}},
	}}
	searchEnv = Envelope{From: 3, To: 11, Proto: &protocol.Message{
		Kind: protocol.MsgSearch, From: 3, To: 11,
		Requester: 3, ReqSeq: 17, Window: 4, OriginStamp: 129, Hops: 2,
	}}
	appEnv = Envelope{From: 2, To: 0, App: &AppData{Seq: 7, Node: 2, Kind: "k", Payload: "hello"}}
)

// decodeOne decodes the single frame in b and requires the stream to end
// there.
func decodeOne(b []byte) (Envelope, error) {
	fr := newFrameReader(bytes.NewReader(b))
	var e Envelope
	if err := fr.next(&e); err != nil {
		return e, err
	}
	if err := fr.next(new(Envelope)); err != io.EOF {
		return e, fmt.Errorf("after the frame: %v, want EOF", err)
	}
	return e, nil
}

// frameOf wraps a raw payload in a length prefix.
func frameOf(payload []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	return append(b, payload...)
}

func TestFrameRoundTrip(t *testing.T) {
	envs := []Envelope{tokenEnv, appEnv, searchEnv}
	var stream []byte
	for _, e := range envs {
		var err error
		if stream, err = appendFrame(stream, e); err != nil {
			t.Fatal(err)
		}
	}
	fr := newFrameReader(bytes.NewReader(stream))
	for i, want := range envs {
		var got Envelope
		if err := fr.next(&got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
	}
	if err := fr.next(new(Envelope)); err != io.EOF {
		t.Fatalf("after last frame: %v, want EOF", err)
	}
}

// fillDistinct sets every field reachable from v to a distinct non-zero
// value. A kind it does not know fails the test, so a new field of a new
// shape forces this walker — and with it the codec — to be revisited.
func fillDistinct(t *testing.T, v reflect.Value, next *int) {
	t.Helper()
	*next++
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*next))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(fmt.Sprint("s", *next))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(t, v.Field(i), next)
		}
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(t, v.Elem(), next)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), next)
		}
	default:
		t.Fatalf("fillDistinct: %s has kind %s; teach the walker and the codec about it", v.Type(), v.Kind())
	}
}

// TestFrameCodecCoversEveryField round-trips envelopes in which every field
// of Envelope, protocol.Message, protocol.ServedRec and AppData holds a
// distinct non-zero value: a field added to any of them without being
// encoded comes back zero and fails the comparison.
func TestFrameCodecCoversEveryField(t *testing.T) {
	var full Envelope
	n := 0
	fillDistinct(t, reflect.ValueOf(&full).Elem(), &n)
	proto, app := full, full
	proto.App, app.Proto = nil, nil
	for _, want := range []Envelope{proto, app} {
		buf, err := appendFrame(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeOne(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip lost a field:\n got  %+v\n      %+v %+v\n want %+v\n      %+v %+v",
				got, got.Proto, got.App, want, want.Proto, want.App)
		}
	}
}

// TestFrameGoldenBytes pins the wire layout: a change to these bytes is a
// change of protocol between ring members.
func TestFrameGoldenBytes(t *testing.T) {
	for _, c := range []struct {
		name string
		env  Envelope
		wire string
	}{
		{"token", tokenEnv, "0000001b" + // length 27
			"01" + "00" + "02" + // tag proto, From 0, To 1
			"02" + "00" + "02" + "ac02" + // Kind token, From 0, To 1, Round 300
			"01" + "01" + "00" + "00" + "00" + // ReturnTo -1, Requester -1, ReqSeq, Window, OriginStamp
			"00" + "00" + "02" + // flags, Hops, Epoch 2
			"05" + "7365713d37" + // Attach "seq=7"
			"02" + "0809" + "0a01"}, // Served {4,9} {5,1}
		{"search", searchEnv, "00000012" + // length 18
			"01" + "06" + "16" + // tag proto, From 3, To 11
			"06" + "06" + "16" + "00" + // Kind search, From 3, To 11, Round
			"00" + "06" + "11" + "08" + "8101" + // ReturnTo, Requester 3, ReqSeq 17, Window 4, OriginStamp 129
			"00" + "04" + "00" + // flags, Hops 2, Epoch
			"00" + "00"}, // Attach "", Served none
		{"app", appEnv, "0000000d" + // length 13
			"02" + "04" + "00" + // tag app, From 2, To 0
			"07" + "04" + // Seq 7, Node 2
			"01" + "6b" + // Kind "k"
			"05" + "68656c6c6f"}, // Payload "hello"
	} {
		got, err := appendFrame(nil, c.env)
		if err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(got) != c.wire {
			t.Errorf("%s: wire bytes\n got  %x\n want %s", c.name, got, c.wire)
		}
		want, _ := hex.DecodeString(c.wire)
		back, err := decodeOne(want)
		if err != nil || !reflect.DeepEqual(back, c.env) {
			t.Errorf("%s: golden bytes decode to %+v (%v), want %+v", c.name, back, err, c.env)
		}
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	fr := newFrameReader(bytes.NewReader(hdr[:]))
	if err := fr.next(new(Envelope)); err != ErrFrameTooLarge {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	// Oversize payloads must be refused on the write side too, leaving the
	// batch buffer as it was.
	big := Envelope{To: 1, App: &AppData{Payload: strings.Repeat("x", MaxFrame)}}
	batch, err := appendFrame(nil, appEnv)
	if err != nil {
		t.Fatal(err)
	}
	after, err := appendFrame(batch, big)
	if err != ErrFrameTooLarge {
		t.Fatalf("append oversize: got %v, want ErrFrameTooLarge", err)
	}
	if len(after) != len(batch) {
		t.Fatalf("failed append left %d bytes in the batch, want %d", len(after), len(batch))
	}
}

func TestFrameTruncated(t *testing.T) {
	for _, e := range []Envelope{tokenEnv, searchEnv, appEnv} {
		full, err := appendFrame(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		// Cut the stream short.
		for cut := 1; cut < len(full); cut++ {
			fr := newFrameReader(bytes.NewReader(full[:cut]))
			if err := fr.next(new(Envelope)); err == nil {
				t.Fatalf("truncation at %d bytes decoded successfully", cut)
			}
		}
		// Cut the payload short under a length prefix that agrees.
		payload := full[4:]
		for cut := 0; cut < len(payload); cut++ {
			if _, err := decodeOne(frameOf(payload[:cut])); err == nil {
				t.Fatalf("payload cut to %d bytes decoded successfully", cut)
			}
		}
	}
}

// TestFrameRejectsMalformed feeds the reader one well-framed payload per
// rejection rule.
func TestFrameRejectsMalformed(t *testing.T) {
	token, _ := appendFrame(nil, tokenEnv)
	token = token[4:]
	const flagsAt, attachAt, servedAt = 13, 16, 22 // offsets into the token payload
	mutate := func(at int, b byte) []byte {
		p := append([]byte(nil), token...)
		p[at] = b
		return p
	}
	if token[flagsAt] != 0 || token[attachAt] != 5 || token[servedAt] != 2 {
		t.Fatalf("token payload layout moved: % x", token)
	}
	overlong := append(bytes.Repeat([]byte{0x80}, 10), 0x02) // an 11-byte varint
	for _, c := range []struct {
		name    string
		payload []byte
	}{
		{"empty payload", nil},
		{"unknown tag", mutate(0, 3)},
		{"zero tag", mutate(0, 0)},
		{"old JSON frame", []byte(`{"from":0,"to":1,"proto":{"Kind":1,"From":0,"To":1}}`)},
		{"undefined flag bit", mutate(flagsAt, 0x04)},
		{"all flag bits", mutate(flagsAt, 0xff)},
		{"string length beyond the frame", mutate(attachAt, 12)},
		{"served count beyond the frame", mutate(servedAt, 3)},
		{"trailing byte", append(append([]byte(nil), token...), 0)},
		{"varint longer than 64 bits", append([]byte{tagProto}, overlong...)},
	} {
		if e, err := decodeOne(frameOf(c.payload)); err == nil {
			t.Errorf("%s: decoded to %+v", c.name, e)
		}
	}
	// The defined flag bits do decode.
	e, err := decodeOne(frameOf(mutate(flagsAt, flagsDefined)))
	if err != nil || !e.Proto.HasToken || !e.Proto.Want {
		t.Fatalf("defined flags: %+v, %v", e.Proto, err)
	}
}

// TestFrameCodecAllocs pins the codec's allocation budget: encoding into a
// warm buffer allocates nothing; decoding allocates only what the envelope
// keeps.
func TestFrameCodecAllocs(t *testing.T) {
	buf := make([]byte, 0, 256)
	for _, e := range []Envelope{tokenEnv, searchEnv, appEnv} {
		if n := testing.AllocsPerRun(100, func() {
			buf, _ = appendFrame(buf[:0], e)
		}); n != 0 {
			t.Errorf("encode into a warm buffer: %v allocs/op, want 0", n)
		}
	}
	for _, c := range []struct {
		name string
		env  Envelope
		max  float64
	}{
		{"search", searchEnv, 1}, // the Message
		{"token", tokenEnv, 3},   // the Message, Attach, Served
		{"app", appEnv, 3},       // the AppData, Kind, Payload
		{"bare app", Envelope{App: &AppData{}}, 1},
	} {
		frame, err := appendFrame(nil, c.env)
		if err != nil {
			t.Fatal(err)
		}
		src := bytes.NewReader(frame)
		fr := newFrameReader(src)
		var e Envelope
		if n := testing.AllocsPerRun(100, func() {
			src.Reset(frame)
			if err := fr.next(&e); err != nil {
				t.Fatal(err)
			}
		}); n > c.max {
			t.Errorf("decode %s: %v allocs/op, want <= %v", c.name, n, c.max)
		}
	}
}

// FuzzFrameCodec round-trips arbitrary envelope content through the frame
// codec and feeds arbitrary bytes to the reader. The codec is exact: every
// envelope decodes back identical, invalid UTF-8 included. No input may
// crash the decoder, and nothing it decodes may be larger than the bytes
// it was decoded from.
func FuzzFrameCodec(f *testing.F) {
	f.Add(int64(0), int64(1), int64(3), "payload", true, []byte{})
	f.Add(int64(2), int64(0), int64(9), "", false, []byte{0, 0, 0, 2, '{', '}'})
	f.Add(int64(1), int64(1), int64(-7), "x\x00y\xffz", true, []byte{0xff, 0xff, 0xff, 0xff})
	for _, e := range []Envelope{tokenEnv, searchEnv, appEnv} {
		frame, _ := appendFrame(nil, e)
		f.Add(int64(-1), int64(1<<40), int64(5), "\xc3\x28", false, frame)
	}
	f.Fuzz(func(t *testing.T, from, to, num int64, payload string, app bool, raw []byte) {
		e := Envelope{From: int(from), To: int(to)}
		if app {
			e.App = &AppData{Seq: uint64(num), Node: int(from), Kind: payload, Payload: payload}
		} else {
			m := &protocol.Message{
				Kind: protocol.MsgKind(num), From: int(from), To: int(to),
				Round: uint64(num), ReturnTo: int(-to), Requester: int(from ^ to),
				ReqSeq: uint64(from), Window: int(num >> 3), OriginStamp: uint64(to),
				HasToken: from&1 != 0, Want: to&1 != 0,
				Hops: int(num & 0xff), Epoch: uint64(-num), Attach: payload,
			}
			for i := 0; i+1 < len(raw) && i < 8; i += 2 {
				m.Served = append(m.Served, protocol.ServedRec{Requester: int(int8(raw[i])), ReqSeq: uint64(raw[i+1]) << 7})
			}
			e.Proto = m
		}
		buf, err := appendFrame(nil, e)
		if err != nil {
			if len(payload) < MaxFrame/4 {
				t.Fatalf("encode failed on small envelope: %v", err)
			}
			return
		}
		got, err := decodeOne(buf)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if !reflect.DeepEqual(got, e) {
			t.Fatalf("decode(encode(e)) != e:\n got  %+v %+v %+v\n want %+v %+v %+v",
				got, got.Proto, got.App, e, e.Proto, e.App)
		}

		// Arbitrary bytes: the reader must error or decode, never panic,
		// never size anything beyond the bytes it was given, and whatever
		// it accepts must itself round-trip exactly.
		fr := newFrameReader(bytes.NewReader(raw))
		for {
			var in Envelope
			if err := fr.next(&in); err != nil {
				break
			}
			if err := in.Validate(); err != nil {
				t.Fatalf("decoder produced an invalid envelope: %v", err)
			}
			size := 0
			if in.Proto != nil {
				size = len(in.Proto.Attach) + minServedRec*len(in.Proto.Served)
			} else {
				size = len(in.App.Kind) + len(in.App.Payload)
			}
			if size > len(raw) {
				t.Fatalf("decoded %d bytes of content from %d bytes of input", size, len(raw))
			}
			re, err := appendFrame(nil, in)
			if err != nil {
				t.Fatalf("re-encode of decoded frame failed: %v", err)
			}
			back, err := decodeOne(re)
			if err != nil || !reflect.DeepEqual(back, in) {
				t.Fatalf("decoded frame does not round-trip: %+v vs %+v (%v)", back, in, err)
			}
		}
	})
}

// benchToken is a token whose rotation-GC record is full-sized.
func benchToken() Envelope {
	e := tokenEnv
	m := *e.Proto
	m.Served = make([]protocol.ServedRec, 16)
	for i := range m.Served {
		m.Served[i] = protocol.ServedRec{Requester: i, ReqSeq: uint64(1000 + i)}
	}
	e.Proto = &m
	return e
}

func BenchmarkFrameEncode(b *testing.B) {
	for _, c := range []struct {
		name string
		env  Envelope
	}{{"search", searchEnv}, {"token16", benchToken()}} {
		b.Run(c.name, func(b *testing.B) {
			buf := make([]byte, 0, 512)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf, _ = appendFrame(buf[:0], c.env)
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}

func BenchmarkFrameDecode(b *testing.B) {
	for _, c := range []struct {
		name string
		env  Envelope
	}{{"search", searchEnv}, {"token16", benchToken()}} {
		b.Run(c.name, func(b *testing.B) {
			frame, err := appendFrame(nil, c.env)
			if err != nil {
				b.Fatal(err)
			}
			src := bytes.NewReader(frame)
			fr := newFrameReader(src)
			var e Envelope
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Reset(frame)
				if err := fr.next(&e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
