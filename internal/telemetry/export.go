package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"adaptivetoken/internal/host"
	"adaptivetoken/internal/protocol"
)

// WriteJSONL writes every ring record as one JSON object per line, oldest
// first: the raw timeline for ad-hoc tooling (jq, spreadsheets).
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var err error
	t.Records(func(r Record) {
		if err != nil {
			return
		}
		_, err = fmt.Fprintf(bw, `{"at":%d,"kind":%q,"node":%d,"start":%d,"a":%d,"b":%d}`+"\n",
			r.At, r.Kind, r.Node, r.Start, r.A, r.B)
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// chromeEvent is one trace_event entry of the Chrome/Perfetto JSON format.
// Only the fields a given phase uses are populated.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   *int64         `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object flavor of the format; Perfetto and
// chrome://tracing both load it.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the ring as Chrome trace_event JSON, loadable in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing. Layout: one
// thread lane per node carrying its wait/hold spans, hops and probes; one
// "cluster" lane (tid = n) carrying responsiveness spans, grants and
// faults; and counter tracks for the sampled ready/in-flight series.
// Timestamps are simulated (or protocol) time units, displayed as
// microseconds. n is the ring size used for the cluster lane and thread
// naming.
func (t *Tracer) WriteChromeTrace(w io.Writer, n int) error {
	tr := chromeTrace{DisplayTimeUnit: "ms"}
	tr.TraceEvents = append(tr.TraceEvents,
		chromeEvent{Name: "process_name", Phase: "M",
			Args: map[string]any{"name": "adaptivetoken"}})
	for i := 0; i < n; i++ {
		tr.TraceEvents = append(tr.TraceEvents,
			chromeEvent{Name: "thread_name", Phase: "M", TID: i,
				Args: map[string]any{"name": fmt.Sprintf("node %d", i)}})
	}
	tr.TraceEvents = append(tr.TraceEvents,
		chromeEvent{Name: "thread_name", Phase: "M", TID: n,
			Args: map[string]any{"name": "cluster"}})
	t.Records(func(r Record) {
		tr.TraceEvents = append(tr.TraceEvents, toChrome(r, n)...)
	})
	return json.NewEncoder(w).Encode(tr)
}

// toChrome renders one ring record as trace events.
func toChrome(r Record, n int) []chromeEvent {
	ts := int64(r.At)
	switch r.Kind {
	case RecWaitSpan, RecHoldSpan:
		d := int64(r.Dur())
		return []chromeEvent{{Name: r.Kind.String(), Phase: "X",
			TS: int64(r.Start), Dur: &d, TID: int(r.Node)}}
	case RecRespSpan:
		d := int64(r.Dur())
		return []chromeEvent{{Name: r.Kind.String(), Phase: "X",
			TS: int64(r.Start), Dur: &d, TID: n,
			Args: map[string]any{"granted_to": r.Node}}}
	case RecRequest:
		return []chromeEvent{{Name: "request", Phase: "i", TS: ts,
			TID: int(r.Node), Scope: "t"}}
	case RecGrant:
		return []chromeEvent{{Name: "grant", Phase: "i", TS: ts,
			TID: n, Scope: "p",
			Args: map[string]any{"node": r.Node, "forwards": r.A}}}
	case RecHop, RecProbe, RecRecovery:
		return []chromeEvent{{Name: r.Kind.String(), Phase: "i", TS: ts,
			TID: int(r.Node), Scope: "t",
			Args: map[string]any{"from": r.A, "msg": protocol.MsgKind(r.B).String()}}}
	case RecFault:
		return []chromeEvent{{Name: "fault", Phase: "i", TS: ts,
			TID: n, Scope: "p",
			Args: map[string]any{"fault": host.FaultKind(r.A).String(),
				"msg": protocol.MsgKind(r.B).String(), "node": r.Node}}}
	case RecSample:
		return []chromeEvent{
			{Name: "ready", Phase: "C", TS: ts,
				Args: map[string]any{"ready": r.A}},
			{Name: "in-flight", Phase: "C", TS: ts,
				Args: map[string]any{"in-flight": r.B}},
			{Name: "holder", Phase: "C", TS: ts,
				Args: map[string]any{"holder": r.Node}},
		}
	}
	return nil
}

// SeriesPoint is one sampled point of the periodic sim-time series.
type SeriesPoint struct {
	T        int64 `json:"t"`
	Ready    int64 `json:"ready"`
	InFlight int64 `json:"in_flight"`
	Holder   int32 `json:"holder"`
}

// Series extracts the sampled (RecSample) series from the ring, oldest
// first.
func (t *Tracer) Series() []SeriesPoint {
	var out []SeriesPoint
	t.Records(func(r Record) {
		if r.Kind == RecSample {
			out = append(out, SeriesPoint{T: int64(r.At), Ready: r.A, InFlight: r.B, Holder: r.Node})
		}
	})
	return out
}
