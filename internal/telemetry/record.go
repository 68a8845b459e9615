// Package telemetry is the observability subsystem: a low-overhead ring
// tracer that records typed span and event records off the host.Observer
// seam, streaming histograms for the latencies the paper measures, a
// Prometheus text exporter with an HTTP server (/metrics, /healthz,
// /debug/pprof/*), and timeline export as Chrome/Perfetto trace_event
// JSON.
//
// The tracer attaches wherever an Observer does — the simulation driver
// (driver.Options.Observer), a live runtime (node.WithObserver), or a whole
// cluster (core.WithObserver / core.WithMetricsAddr) — and derives the
// paper's quantities from the step stream alone: request→grant wait spans,
// Definition 3 responsiveness intervals, token hold spans, token hops and
// forwards-per-grant. With no tracer attached the host's observer-off
// zero-allocation fast path is untouched; with one attached, steady-state
// recording is an index into a preallocated ring — O(1) amortized
// allocations per event (see DESIGN.md §9).
package telemetry

import "adaptivetoken/internal/sim"

// RecKind discriminates ring records.
type RecKind uint8

const (
	// RecWaitSpan is a completed request→grant wait at Node
	// (Start..At; matches metrics.Waits).
	RecWaitSpan RecKind = iota + 1
	// RecRespSpan is a completed Definition 3 responsiveness interval:
	// some node was ready from Start until the grant at At (matches
	// metrics.Responsiveness).
	RecRespSpan
	// RecHoldSpan is a completed token possession at Node: from the
	// token's arrival (or bootstrap) at Start to the step that sent it
	// onward at At.
	RecHoldSpan
	// RecRequest is an issued (non-coalesced) request at Node.
	RecRequest
	// RecGrant is a grant to Node; A carries the token forwards since
	// the previous grant.
	RecGrant
	// RecHop is a token-bearing message delivery: A = from, Node = to,
	// B = message kind.
	RecHop
	// RecProbe is a cheap (search/probe/want) message delivery:
	// A = from, Node = to, B = message kind.
	RecProbe
	// RecRecovery is a recovery-round message delivery: A = from,
	// Node = to, B = message kind.
	RecRecovery
	// RecFault is an injected fault: A = host.FaultKind, B = message
	// kind (drop/dup/delay) and Node the paused/resumed node.
	RecFault
	// RecSample is a periodic series point: A = ready count,
	// B = in-flight events, Node = current holder (-1 unknown).
	RecSample
)

// String returns the record kind's export name.
func (k RecKind) String() string {
	switch k {
	case RecWaitSpan:
		return "wait"
	case RecRespSpan:
		return "responsiveness"
	case RecHoldSpan:
		return "hold"
	case RecRequest:
		return "request"
	case RecGrant:
		return "grant"
	case RecHop:
		return "hop"
	case RecProbe:
		return "probe"
	case RecRecovery:
		return "recovery"
	case RecFault:
		return "fault"
	case RecSample:
		return "sample"
	}
	return "unknown"
}

// Record is one ring entry: a fixed-size value type so the ring is a flat
// preallocated array and recording never allocates. Field meaning is
// per-kind (see the RecKind constants); Start is set only for spans.
type Record struct {
	At    sim.Time
	Start sim.Time
	A, B  int64
	Node  int32
	Kind  RecKind
}

// Dur returns the span duration (0 for instant records).
func (r Record) Dur() sim.Time {
	switch r.Kind {
	case RecWaitSpan, RecRespSpan, RecHoldSpan:
		return r.At - r.Start
	}
	return 0
}
