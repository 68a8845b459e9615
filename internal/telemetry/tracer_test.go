package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"

	"adaptivetoken/internal/host"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
)

// step builds a minimal host.Step for tracer tests.
func step(at sim.Time, kind host.StepKind, node int) host.Step {
	return host.Step{At: at, Kind: kind, Node: node}
}

func deliver(at sim.Time, m protocol.Message) host.Step {
	return host.Step{At: at, Kind: host.StepDeliver, Node: m.To, Msg: &m}
}

func TestTracerSpans(t *testing.T) {
	tr := NewTracer(Config{N: 4, Capacity: 128})

	// Node 2 requests at t=10; token hops 0→1→2; node 2 granted at t=30.
	tr.OnStep(step(0, host.StepBootstrap, 0))
	tr.OnStep(step(10, host.StepRequest, 2))
	tok := protocol.Message{Kind: protocol.MsgToken, From: 0, To: 1}
	tr.OnStep(deliver(20, tok))
	tok2 := protocol.Message{Kind: protocol.MsgToken, From: 1, To: 2}
	grant := deliver(30, tok2)
	grant.Effects.Granted = true
	tr.OnStep(grant)

	var waits, resps, hops []Record
	tr.Records(func(r Record) {
		switch r.Kind {
		case RecWaitSpan:
			waits = append(waits, r)
		case RecRespSpan:
			resps = append(resps, r)
		case RecHop:
			hops = append(hops, r)
		}
	})
	if len(waits) != 1 || waits[0].Node != 2 || waits[0].Dur() != 20 {
		t.Fatalf("wait spans %+v, want one span node 2 dur 20", waits)
	}
	if len(resps) != 1 || resps[0].Dur() != 20 {
		t.Fatalf("resp spans %+v, want one span dur 20", resps)
	}
	if len(hops) != 2 {
		t.Fatalf("hops %+v, want 2", hops)
	}
	if h := tr.WaitHist(); h.Sum() != 20 {
		t.Fatalf("wait hist sum %d, want 20", h.Sum())
	}
	if h := tr.HopsHist(); h.Count() != 1 {
		t.Fatalf("hops hist count %d, want 1", h.Count())
	}
	st := tr.Stats()
	if st.Grants != 1 || st.Requests != 1 || st.Dropped != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestTracerHoldSpan(t *testing.T) {
	tr := NewTracer(Config{N: 2, Capacity: 64})
	tr.OnStep(step(0, host.StepBootstrap, 0))
	// Node 0 ships the token at t=7 → hold span [0,7].
	send := step(7, host.StepTimer, 0)
	send.Effects.Msgs = []protocol.Message{{Kind: protocol.MsgToken, From: 0, To: 1}}
	tr.OnStep(send)
	var holds []Record
	tr.Records(func(r Record) {
		if r.Kind == RecHoldSpan {
			holds = append(holds, r)
		}
	})
	if len(holds) != 1 || holds[0].Dur() != 7 || holds[0].Node != 0 {
		t.Fatalf("hold spans %+v, want one span node 0 dur 7", holds)
	}
	if h := tr.HoldHist(); h.Sum() != 7 {
		t.Fatalf("hold hist sum %d, want 7", h.Sum())
	}
}

func TestTracerRingWrapAround(t *testing.T) {
	tr := NewTracer(Config{N: 1, Capacity: 8})
	for i := 0; i < 20; i++ {
		tr.OnStep(step(sim.Time(i), host.StepRequest, 0))
	}
	st := tr.Stats()
	if st.Recorded != 8 {
		t.Fatalf("recorded %d, want 8 (ring capacity)", st.Recorded)
	}
	if st.Dropped != st.Total-8 {
		t.Fatalf("dropped %d, total %d", st.Dropped, st.Total)
	}
	// The survivors are the newest 8, oldest first.
	var ats []sim.Time
	tr.Records(func(r Record) { ats = append(ats, r.At) })
	if len(ats) != 8 || ats[0] >= ats[7] {
		t.Fatalf("ring order wrong: %v", ats)
	}
}

// TestTracerOnStepAmortizedZeroAlloc checks the enabled-tracing cost model:
// once the ring and per-node state are allocated, recording an event is
// allocation-free (the ring overwrites in place).
func TestTracerOnStepAmortizedZeroAlloc(t *testing.T) {
	tr := NewTracer(Config{N: 4, Capacity: 64})
	tr.OnStep(step(0, host.StepBootstrap, 0))
	var at sim.Time
	allocs := testing.AllocsPerRun(500, func() {
		at++
		tr.OnStep(step(at, host.StepRequest, int(at)%4))
	})
	if allocs != 0 {
		t.Fatalf("warm OnStep allocates %.1f/op, want 0", allocs)
	}
}

func TestTracerFaultAndSample(t *testing.T) {
	tr := NewTracer(Config{N: 2, Capacity: 16})
	tr.OnFault(host.FaultEvent{At: 5, Kind: host.FaultDrop,
		Msg: protocol.Message{Kind: protocol.MsgSearch, To: 1}})
	tr.Sample(10, 3, 17, 1)
	var fault, sample *Record
	tr.Records(func(r Record) {
		rc := r
		switch r.Kind {
		case RecFault:
			fault = &rc
		case RecSample:
			sample = &rc
		}
	})
	if fault == nil || fault.Node != 1 || host.FaultKind(fault.A) != host.FaultDrop {
		t.Fatalf("fault record %+v", fault)
	}
	if sample == nil || sample.A != 3 || sample.B != 17 || sample.Node != 1 {
		t.Fatalf("sample record %+v", sample)
	}
	if pts := tr.Series(); len(pts) != 1 || pts[0].Ready != 3 || pts[0].InFlight != 17 {
		t.Fatalf("series %+v", pts)
	}
}

func TestWriteChromeTraceValid(t *testing.T) {
	tr := NewTracer(Config{N: 2, Capacity: 64})
	tr.OnStep(step(0, host.StepBootstrap, 0))
	tr.OnStep(step(1, host.StepRequest, 1))
	g := deliver(5, protocol.Message{Kind: protocol.MsgToken, From: 0, To: 1})
	g.Effects.Granted = true
	tr.OnStep(g)
	tr.Sample(6, 0, 2, 1)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, 2); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	phases := map[string]int{}
	names := map[string]int{}
	for _, ev := range parsed.TraceEvents {
		phases[ev["ph"].(string)]++
		names[ev["name"].(string)]++
	}
	if phases["M"] == 0 || phases["X"] == 0 || phases["i"] == 0 || phases["C"] == 0 {
		t.Fatalf("missing phases: %v", phases)
	}
	for _, want := range []string{"wait", "responsiveness", "hop", "grant", "ready", "holder"} {
		if names[want] == 0 {
			t.Errorf("no %q events in trace: %v", want, names)
		}
	}
}
