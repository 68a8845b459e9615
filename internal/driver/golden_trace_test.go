package driver_test

import (
	"fmt"
	"os"
	"testing"

	"adaptivetoken/internal/driver"
	"adaptivetoken/internal/host"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/workload"
)

// The event core was rewritten from a container/heap of closure events to a
// flat typed 4-ary heap (PR 4). These digests were recorded from the
// original engine on fig9-shape workloads; the test pins the refactored
// engine to the exact same trace — same event order, same step contents —
// at two seeds per variant. Every digest that hashes a satisfaction record
// was re-recorded once when the record began hashing as its (requester, seq)
// pairs in requester order, a form that does not depend on how the token
// stores it. Regenerate (only for a deliberate semantic
// change) with GOLDEN_TRACE_PRINT=1 go test -run TestGoldenTrace ./internal/driver/.
var goldenTraces = map[string]uint64{
	"ring/seed1":      0x34d2ed08efc866c9,
	"ring/seed2":      0x13b7a29cc1058410,
	"linear/seed1":    0x595e5c99b3ab991c,
	"linear/seed2":    0xa1532f908a38ce89,
	"binsearch/seed1": 0x2fc942e54d997894,
	"binsearch/seed2": 0x784b308c6c816329,
	// Recorded at 59e6a73, before Node was split hot/cold: the two shipped
	// configurations that write state the figure variants leave alone
	// (TestGoldenTraceWrittenState).
	"adaptive/seed1": 0xc754858911da8bc5,
	"attach/seed1":   0xd21675eba5fc7a6e,
}

// traceDigest folds every observed step and fault event into an FNV-1a hash.
// Everything order- or content-dependent lands in the digest: event times,
// step kinds, full message payloads, timer arms, grant flags.
type traceDigest struct{ h uint64 }

func newTraceDigest() *traceDigest { return &traceDigest{h: 0xcbf29ce484222325} }

func (d *traceDigest) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.h ^= v & 0xff
		d.h *= 0x100000001b3
		v >>= 8
	}
}

func (d *traceDigest) msg(m protocol.Message) {
	d.u64(uint64(m.Kind))
	d.u64(uint64(int64(m.From)))
	d.u64(uint64(int64(m.To)))
	d.u64(m.Round)
	d.u64(uint64(int64(m.ReturnTo)))
	d.u64(uint64(int64(m.Requester)))
	d.u64(m.ReqSeq)
	d.u64(uint64(int64(m.Window)))
	d.u64(m.OriginStamp)
	if m.HasToken {
		d.u64(1)
	}
	if m.Want {
		d.u64(2)
	}
	d.u64(uint64(int64(m.Hops)))
	d.u64(m.Epoch)
	d.u64(uint64(len(m.Attach)))
	// The record hashes as a set: its (requester, seq) pairs in requester
	// order, one for each requester it shows served.
	k := 0
	for _, seq := range m.Served {
		if seq != 0 {
			k++
		}
	}
	d.u64(uint64(k))
	for j, seq := range m.Served {
		if seq != 0 {
			d.u64(uint64(j))
			d.u64(seq)
		}
	}
}

func (d *traceDigest) OnStep(s host.Step) {
	d.u64(0x51e9)
	d.u64(uint64(s.At))
	d.u64(uint64(s.Kind))
	d.u64(uint64(int64(s.Node)))
	if s.Msg != nil {
		d.msg(*s.Msg)
	}
	d.u64(uint64(s.Timer))
	if s.Effects.Granted {
		d.u64(0x6a)
	}
	d.u64(uint64(len(s.Effects.Msgs)))
	for _, m := range s.Effects.Msgs {
		d.msg(m)
	}
	d.u64(uint64(len(s.Effects.Timers)))
	for _, tm := range s.Effects.Timers {
		d.u64(uint64(tm.Delay))
		d.u64(uint64(tm.Kind))
		d.u64(tm.Gen)
	}
}

func (d *traceDigest) OnFault(f host.FaultEvent) {
	d.u64(0xfa17)
	d.u64(uint64(f.At))
	d.u64(uint64(f.Kind))
	d.msg(f.Msg)
	d.u64(uint64(f.Delay))
	d.u64(uint64(int64(f.Node)))
}

// TestGoldenTrace runs fig9-shape workloads (fixed load, mean request gap
// 10) for each figure variant at two seeds and asserts the full observed
// trace hashes to the digest recorded before the event-core rewrite:
// equal-time FIFO order, message payloads and timer arms are all pinned.
func TestGoldenTrace(t *testing.T) {
	print := os.Getenv("GOLDEN_TRACE_PRINT") != ""
	variants := []protocol.Variant{protocol.RingToken, protocol.LinearSearch, protocol.BinarySearch}
	for _, v := range variants {
		for _, seed := range []uint64{1, 2} {
			key := fmt.Sprintf("%s/seed%d", v, seed)
			cfg := protocol.Config{Variant: v, N: 64}
			if v != protocol.RingToken {
				cfg.TrapGC = protocol.GCRotation
			}
			dig := newTraceDigest()
			r, err := driver.New(cfg, driver.Options{Seed: seed, Observer: dig})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if _, err := r.RunWorkload(workload.Poisson{N: cfg.N, MeanGap: 10}, 1500, 5_000_000); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if print {
				fmt.Printf("\t%q: %#016x,\n", key, dig.h)
				continue
			}
			want, ok := goldenTraces[key]
			if !ok {
				t.Fatalf("%s: no golden digest recorded", key)
			}
			if dig.h != want {
				t.Errorf("%s: trace digest %#016x, want %#016x — event order or step contents diverged from the pre-rewrite engine", key, dig.h, want)
			}
		}
	}
}

// attachWriter is the digest plus an application in the style of tobcast:
// every grant rewrites the token's attachment to the next sequence number, so
// the attachment rides every token message from the first grant on. The
// digest proper folds in only an attachment's length; this one adds its bytes.
type attachWriter struct {
	*traceDigest
	r       *driver.Runner
	seq     int
	carried string // the attachment on the last token message sent
	err     error
}

func (a *attachWriter) OnStep(s host.Step) {
	a.traceDigest.OnStep(s)
	for _, m := range s.Effects.Msgs {
		for _, c := range []byte(m.Attach) {
			a.u64(uint64(c))
		}
		if m.Kind.Expensive() {
			a.carried = m.Attach
		}
	}
	if s.Effects.Granted {
		a.seq++
		if err := a.r.Node(s.Node).SetAttachment(fmt.Sprintf("seq=%d", a.seq)); err != nil && a.err == nil {
			a.err = err
		}
	}
}

// TestGoldenTraceWrittenState pins, against digests recorded before the
// split, the traces of the two configurations whose nodes write what the
// figure variants never do: an AdaptiveSpeed ring, where every idle hop
// rewrites holdCur (kept in the hot part for that reason), and a ring whose
// application keeps a non-empty attachment on the token, which every arrival
// stores into the lazily allocated cold part.
func TestGoldenTraceWrittenState(t *testing.T) {
	print := os.Getenv("GOLDEN_TRACE_PRINT") != ""
	check := func(key string, got uint64) {
		t.Helper()
		if print {
			fmt.Printf("\t%q: %#016x,\n", key, got)
		} else if want := goldenTraces[key]; got != want {
			t.Errorf("%s: trace digest %#016x, want %#016x", key, got, want)
		}
	}

	adaptive := protocol.Config{
		Variant: protocol.BinarySearch, N: 64, TrapGC: protocol.GCRotation,
		AdaptiveSpeed: true, MinHold: 1, MaxHold: 256,
	}
	dig := newTraceDigest()
	r, err := driver.New(adaptive, driver.Options{Seed: 1, Observer: dig})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunWorkload(workload.Poisson{N: 64, MeanGap: 500}, 300, 5_000_000); err != nil {
		t.Fatal(err)
	}
	check("adaptive/seed1", dig.h)

	app := &attachWriter{traceDigest: newTraceDigest()}
	app.r, err = driver.New(protocol.Config{Variant: protocol.BinarySearch, N: 64, TrapGC: protocol.GCRotation},
		driver.Options{Seed: 1, Observer: app})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.r.RunWorkload(workload.Poisson{N: 64, MeanGap: 10}, 1500, 5_000_000); err != nil {
		t.Fatal(err)
	}
	if app.err != nil {
		t.Fatal(app.err)
	}
	if want := fmt.Sprintf("seq=%d", app.seq); app.seq == 0 || app.carried != want {
		t.Fatalf("the token carries %q after %d grants, want %q", app.carried, app.seq, want)
	}
	check("attach/seed1", app.h)
}
