package transport

import (
	"reflect"
	"testing"
	"time"

	"adaptivetoken/internal/protocol"
)

func protoEnv(to int, kind protocol.MsgKind) Envelope {
	return Envelope{To: to, Proto: &protocol.Message{Kind: kind, To: to}}
}

func TestEnvelopeValidate(t *testing.T) {
	if (Envelope{}).Validate() == nil {
		t.Error("empty envelope must fail")
	}
	both := Envelope{Proto: &protocol.Message{}, App: &AppData{}}
	if both.Validate() == nil {
		t.Error("both payloads must fail")
	}
	if protoEnv(0, protocol.MsgToken).Validate() != nil {
		t.Error("proto envelope should pass")
	}
	if (Envelope{App: &AppData{}}).Validate() != nil {
		t.Error("app envelope should pass")
	}
}

// TestFreeProtoZeroes: a freed box keeps no reference to the Served
// vector or the Attach string it carried. Only this test reads a box
// after its free.
func TestFreeProtoZeroes(t *testing.T) {
	m := NewProto()
	*m = protocol.Message{Kind: protocol.MsgToken, To: 3, Attach: "seq=7",
		Served: []uint64{0, 2}}
	FreeProto(m)
	if !reflect.DeepEqual(*m, protocol.Message{}) {
		t.Fatalf("freed box still holds %+v", *m)
	}
}

func TestChannelNetworkDelivery(t *testing.T) {
	cn, err := NewChannelNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	if err := cn.Endpoint(0).Send(protoEnv(2, protocol.MsgToken)); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-cn.Endpoint(2).Recv():
		if e.From != 0 || e.Proto == nil || e.Proto.Kind != protocol.MsgToken {
			t.Fatalf("delivered %+v", e)
		}
	case <-time.After(time.Second):
		t.Fatal("timeout")
	}
}

func TestChannelNetworkOrderPreserved(t *testing.T) {
	cn, err := NewChannelNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	for i := 0; i < 100; i++ {
		env := Envelope{To: 1, App: &AppData{Seq: uint64(i)}}
		if err := cn.Endpoint(0).Send(env); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		select {
		case e := <-cn.Endpoint(1).Recv():
			if e.App.Seq != uint64(i) {
				t.Fatalf("order broken at %d: got %d", i, e.App.Seq)
			}
		case <-time.After(time.Second):
			t.Fatal("timeout")
		}
	}
}

func TestChannelNetworkPartition(t *testing.T) {
	cn, err := NewChannelNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	cn.Isolate(1, true)
	if err := cn.Endpoint(0).Send(protoEnv(1, protocol.MsgToken)); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-cn.Endpoint(1).Recv():
		t.Fatalf("partitioned node received %+v", e)
	case <-time.After(50 * time.Millisecond):
	}
	// Heal and resend.
	cn.Isolate(1, false)
	if err := cn.Endpoint(0).Send(protoEnv(1, protocol.MsgToken)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-cn.Endpoint(1).Recv():
	case <-time.After(time.Second):
		t.Fatal("healed partition should deliver")
	}
}

func TestChannelNetworkErrors(t *testing.T) {
	if _, err := NewChannelNetwork(0); err == nil {
		t.Error("empty network must fail")
	}
	cn, _ := NewChannelNetwork(2)
	if err := cn.Endpoint(0).Send(protoEnv(9, protocol.MsgToken)); err == nil {
		t.Error("out-of-range destination must fail")
	}
	if err := cn.Endpoint(0).Send(Envelope{To: 1}); err == nil {
		t.Error("invalid envelope must fail")
	}
	cn.Close()
	if err := cn.Endpoint(0).Send(protoEnv(1, protocol.MsgToken)); err == nil {
		t.Error("closed network must fail")
	}
	// Double close is fine.
	if err := cn.Close(); err != nil {
		t.Error(err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	a, err := NewTCP(0, []string{"127.0.0.1:0", ""})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCP(1, []string{"", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// Exchange the dynamically assigned addresses.
	if err := a.SetPeerAddr(1, b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.SetPeerAddr(0, a.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := a.SetPeerAddr(9, "x"); err == nil {
		t.Error("out-of-range peer must fail")
	}

	if err := a.Send(Envelope{To: 1, Proto: &protocol.Message{Kind: protocol.MsgToken, To: 1, Round: 42, Attach: "seq"}}); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-b.Recv():
		if e.Proto == nil || e.Proto.Round != 42 || e.Proto.Attach != "seq" || e.From != 0 {
			t.Fatalf("got %+v", e)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout")
	}

	// Reply direction exercises lazy dialing the other way.
	if err := b.Send(Envelope{To: 0, App: &AppData{Seq: 7, Payload: "pong"}}); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-a.Recv():
		if e.App == nil || e.App.Seq != 7 {
			t.Fatalf("got %+v", e)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout")
	}
}

func TestTCPSelfSendLoopsBack(t *testing.T) {
	a, err := NewTCP(0, []string{"127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(Envelope{To: 0, App: &AppData{Payload: "me"}}); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-a.Recv():
		if e.App.Payload != "me" {
			t.Fatalf("got %+v", e)
		}
	case <-time.After(time.Second):
		t.Fatal("timeout")
	}
}

func TestTCPErrors(t *testing.T) {
	if _, err := NewTCP(5, []string{"127.0.0.1:0"}); err == nil {
		t.Error("id outside addrs must fail")
	}
	a, err := NewTCP(0, []string{"127.0.0.1:0", "127.0.0.1:1"}) // port 1: unreachable
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// A dead peer no longer fails the send: the envelope queues and the
	// writer goroutine retries the dial with backoff until Close.
	if err := a.Send(protoEnv(1, protocol.MsgToken)); err != nil {
		t.Errorf("send to dead peer must enqueue, got %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().DialRetries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never attempted (and failed) a dial to the dead peer")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := a.Send(Envelope{To: 1}); err == nil {
		t.Error("invalid envelope must fail")
	}
	if err := a.Send(Envelope{To: 7, App: &AppData{}}); err == nil {
		t.Error("out-of-range peer must fail")
	}
}

func TestTCPCloseIdempotent(t *testing.T) {
	a, err := NewTCP(0, []string{"127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Error(err)
	}
	if err := a.Close(); err != nil {
		t.Error(err)
	}
	if err := a.Send(Envelope{To: 0, App: &AppData{}}); err == nil {
		t.Error("send after close must fail")
	}
}

func TestMailboxCloseWithBacklog(t *testing.T) {
	m := newMailbox()
	for i := 0; i < 10; i++ {
		m.put(Envelope{To: 0, App: &AppData{Seq: uint64(i)}})
	}
	// Nobody reading: close must not deadlock.
	done := make(chan struct{})
	go func() {
		m.close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("mailbox close deadlocked with backlog")
	}
	if m.put(Envelope{}) {
		t.Error("put after close must fail")
	}
}
