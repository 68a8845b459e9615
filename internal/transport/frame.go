package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"adaptivetoken/internal/protocol"
)

// Wire framing for the TCP transport: every envelope travels as one
// length-prefixed frame —
//
//	+----------------+-----------------------+
//	| length (4B BE) | payload (binary, len) |
//	+----------------+-----------------------+
//
// The explicit prefix lets the reader size its buffer exactly and discard
// a partial frame on connection death (receive atomicity — a torn write is
// never half-delivered), lets the writer batch many frames into one flush,
// and cuts a corrupt or hostile peer off by the length bound before it can
// balloon memory.
//
// The payload is a fixed field sequence with no names and no
// self-description (DESIGN.md §14 has the table): a tag byte, the envelope's
// From and To, then every field of the protocol.Message or AppData in
// struct order. Unsigned fields are uvarints, signed ones zig-zag varints,
// the two booleans share one flags byte, strings are a uvarint length plus
// raw bytes, and Served is a uvarint count plus the (requester, seq) pairs of
// its non-zero entries in requester order, a zig-zag varint and a uvarint
// each. All members of a ring run one build: there is no version
// negotiation, and a peer speaking another format is cut off at its first
// frame.

// MaxFrame bounds one frame's payload. Envelopes are small (a protocol
// message or an application payload); anything near the bound is a corrupt
// or hostile stream.
const MaxFrame = 1 << 20

// ErrFrameTooLarge reports a frame whose declared length exceeds MaxFrame.
var ErrFrameTooLarge = fmt.Errorf("transport: frame exceeds %d bytes", MaxFrame)

// errMalformed reports a payload that is not one well-formed envelope.
var errMalformed = errors.New("transport: malformed frame")

// Payload tags. Any other first byte — the '{' of a JSON-era frame
// included — is a framing violation.
const (
	tagProto = 1
	tagApp   = 2
)

// Bits of the protocol.Message flags byte.
const (
	flagHasToken = 1 << iota
	flagWant
	flagsDefined = flagHasToken | flagWant
)

// minServedPair is the fewest bytes one encoded (requester, seq) pair
// occupies; it bounds a declared Served count by the bytes that remain.
const minServedPair = 2

// vectors recycles one endpoint's satisfaction vectors
// (protocol.Message.Served), each ring entries long. A vector has one owner,
// the message carrying the token, so once Send has encoded a token its vector
// is free: Send keeps it here, and the decoder refills it for the next token
// the endpoint reads. A ring hands every node the token as often as it takes
// it, so an endpoint keeps one.
type vectors struct {
	ring int
	free chan []uint64
}

func newVectors(ring int) *vectors {
	return &vectors{ring: ring, free: make(chan []uint64, 1)}
}

// put keeps v for reuse if it is ring entries long and there is room.
func (vs *vectors) put(v []uint64) {
	if len(v) != vs.ring {
		return
	}
	select {
	case vs.free <- v:
	default:
	}
}

// get returns a zero vector of ring entries.
func (vs *vectors) get() []uint64 {
	select {
	case v := <-vs.free:
		clear(v)
		return v
	default:
		return make([]uint64, vs.ring)
	}
}

// appendFrame encodes e as one frame appended to buf (reusing its
// capacity) and returns the extended slice. On error buf is returned
// unextended.
func appendFrame(buf []byte, e Envelope) ([]byte, error) {
	if err := e.Validate(); err != nil {
		return buf, err
	}
	start := len(buf)
	b := append(buf, 0, 0, 0, 0) // length, patched below
	if m := e.Proto; m != nil {
		b = append(b, tagProto)
		b = binary.AppendVarint(b, int64(e.From))
		b = binary.AppendVarint(b, int64(e.To))
		b = binary.AppendVarint(b, int64(m.Kind))
		b = binary.AppendVarint(b, int64(m.From))
		b = binary.AppendVarint(b, int64(m.To))
		b = binary.AppendUvarint(b, m.Round)
		b = binary.AppendVarint(b, int64(m.ReturnTo))
		b = binary.AppendVarint(b, int64(m.Requester))
		b = binary.AppendUvarint(b, m.ReqSeq)
		b = binary.AppendVarint(b, int64(m.Window))
		b = binary.AppendUvarint(b, m.OriginStamp)
		var flags byte
		if m.HasToken {
			flags |= flagHasToken
		}
		if m.Want {
			flags |= flagWant
		}
		b = append(b, flags)
		b = binary.AppendVarint(b, int64(m.Hops))
		b = binary.AppendUvarint(b, m.Epoch)
		b = appendString(b, m.Attach)
		k := 0
		for _, seq := range m.Served {
			if seq != 0 {
				k++
			}
		}
		b = binary.AppendUvarint(b, uint64(k))
		for j, seq := range m.Served {
			if seq != 0 {
				b = binary.AppendVarint(b, int64(j))
				b = binary.AppendUvarint(b, seq)
			}
		}
	} else {
		a := e.App
		b = append(b, tagApp)
		b = binary.AppendVarint(b, int64(e.From))
		b = binary.AppendVarint(b, int64(e.To))
		b = binary.AppendUvarint(b, a.Seq)
		b = binary.AppendVarint(b, int64(a.Node))
		b = appendString(b, a.Kind)
		b = appendString(b, a.Payload)
	}
	n := len(b) - start - 4
	if n > MaxFrame {
		return buf, ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// payloadDecoder walks one frame payload. The first violation sticks in
// bad and every later read yields zero, so a decode reads straight through
// and checks once at the end.
type payloadDecoder struct {
	b   []byte
	bad bool
}

func (d *payloadDecoder) byte() byte {
	if len(d.b) == 0 {
		d.bad = true
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *payloadDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 { // truncated, or longer than 64 bits
		d.bad = true
		d.b = nil
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *payloadDecoder) int() int {
	v, n := binary.Varint(d.b)
	if n <= 0 || int64(int(v)) != v {
		d.bad = true
		d.b = nil
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

func (d *payloadDecoder) string() string {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.bad = true
		d.b = nil
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// decodePayload decodes one frame payload into e. It allocates only what e
// keeps — the AppData and the strings; the Message box comes from NewProto
// and a Served vector from vs, sized by the ring, never by the frame — and
// nothing it returns aliases payload. Truncation, an unknown tag, undefined
// flag bits, a length or count beyond the remaining bytes, a served
// requester off the ring, requesters not strictly ascending, a zero seq and
// trailing bytes all fail.
func decodePayload(payload []byte, e *Envelope, vs *vectors) error {
	d := payloadDecoder{b: payload}
	tag := d.byte()
	*e = Envelope{From: d.int(), To: d.int()}
	switch tag {
	case tagProto:
		m := NewProto()
		*m = protocol.Message{
			Kind:        protocol.MsgKind(d.int()),
			From:        d.int(),
			To:          d.int(),
			Round:       d.uvarint(),
			ReturnTo:    d.int(),
			Requester:   d.int(),
			ReqSeq:      d.uvarint(),
			Window:      d.int(),
			OriginStamp: d.uvarint(),
		}
		flags := d.byte()
		if flags&^flagsDefined != 0 {
			return errMalformed
		}
		m.HasToken = flags&flagHasToken != 0
		m.Want = flags&flagWant != 0
		m.Hops = d.int()
		m.Epoch = d.uvarint()
		m.Attach = d.string()
		if n := d.uvarint(); n > 0 {
			if n > uint64(min(len(d.b)/minServedPair, vs.ring)) {
				return errMalformed
			}
			m.Served = vs.get()
			for prev := -1; n > 0; n-- {
				j, seq := d.int(), d.uvarint()
				if j <= prev || j >= vs.ring || seq == 0 {
					return errMalformed
				}
				m.Served[j], prev = seq, j
			}
		}
		e.Proto = m
	case tagApp:
		e.App = &AppData{
			Seq:     d.uvarint(),
			Node:    d.int(),
			Kind:    d.string(),
			Payload: d.string(),
		}
	default:
		return errMalformed
	}
	if d.bad || len(d.b) != 0 {
		return errMalformed
	}
	return nil
}

// readBuffer sizes each connection's read buffer: a socket read takes in a
// batch of small frames at a time, and an idle link holds no more than this.
const readBuffer = 4 << 10

// frameReader decodes frames off one connection, reusing its payload
// buffer across frames up to maxKeptBuf and taking Served vectors from vs.
type frameReader struct {
	r   *bufio.Reader
	hdr [4]byte // a field, not a local: a local would escape through io.ReadFull
	buf []byte
	vs  *vectors
}

func newFrameReader(r io.Reader, vs *vectors) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, readBuffer), vs: vs}
}

// next reads one frame and decodes it into e. Any framing violation
// (oversized or truncated frame, malformed payload) is returned as an
// error; the caller must drop the connection — after a violation the
// stream offset can no longer be trusted.
func (fr *frameReader) next(e *Envelope) error {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(fr.hdr[:])
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		return err
	}
	err := decodePayload(fr.buf, e, fr.vs)
	if cap(fr.buf) > maxKeptBuf {
		fr.buf = nil
	}
	return err
}
