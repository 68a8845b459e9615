package telemetry

import (
	"strconv"
	"time"

	"adaptivetoken/internal/metrics"
	"adaptivetoken/internal/transport"
)

// Exporter renders one process's observability state as Prometheus text:
// the per-kind message counters (one series for every metrics.KindSlot
// kind, present or not, so scrapers see a stable schema), the tracer's
// event counters and latency histograms, and process uptime. It is the
// standard /metrics source for ringnode and core.WithMetricsAddr.
type Exporter struct {
	// Tracer supplies span histograms and event counters; optional.
	Tracer *Tracer
	// Messages returns the current per-kind dispatch counts (sorted);
	// called once per scrape. Optional.
	Messages func() []metrics.KindCount
	// Node is this process's ring position, exported as a gauge label
	// (use -1 for an aggregate endpoint covering a whole cluster).
	Node int
	// Shard, when non-empty, adds a shard="<Shard>" label to every series
	// the exporter writes — one ring of a multi-ring deployment. Several
	// exporters with distinct Shard values can share one PromWriter; the
	// writer deduplicates the HELP/TYPE headers.
	Shard string
	// Start anchors the uptime gauge; zero means "when the exporter was
	// first scraped".
	Start time.Time
	// Transport returns the hardened TCP endpoint's counter snapshot;
	// called once per scrape. Optional — the transport series are emitted
	// at zero when nil (zero-overlay: in-process channel clusters expose
	// the same schema as TCP deployments, so one scrape config and one
	// dashboard cover both).
	Transport func() transport.Stats
}

// WriteMetrics encodes the current state onto p. It has the signature
// NewServer expects.
func (e *Exporter) WriteMetrics(p *PromWriter) {
	if e.Start.IsZero() {
		e.Start = time.Now()
	}
	sl := e.shardLabel()
	p.Gauge("adaptivetoken_node_info",
		"Ring position of this process (value is always 1).",
		1, append([]Label{{Key: "node", Value: nodeLabel(e.Node)}}, sl...)...)
	p.Gauge("adaptivetoken_uptime_seconds",
		"Seconds since this exporter started.",
		time.Since(e.Start).Seconds(), sl...)

	if e.Messages != nil {
		p.CounterVec("adaptivetoken_messages_total",
			"Protocol messages dispatched, by kind (includes the dropped/duplicated/delayed fault counters).",
			CompleteKinds(e.Messages()), "kind", sl...)
	}

	if tr := e.Tracer; tr != nil {
		st := tr.Stats()
		p.Counter("adaptivetoken_grants_total",
			"Token grants observed.", float64(st.Grants), sl...)
		p.Counter("adaptivetoken_requests_total",
			"Issued (non-coalesced) token requests observed.", float64(st.Requests), sl...)
		p.Counter("adaptivetoken_faults_total",
			"Injected faults observed.", float64(st.Faults), sl...)
		p.Counter("adaptivetoken_trace_records_total",
			"Trace records written to the ring buffer.", float64(st.Total), sl...)
		p.Counter("adaptivetoken_trace_dropped_total",
			"Trace records lost to ring wrap-around.", float64(st.Dropped), sl...)

		resp := tr.RespHist()
		p.Histogram("adaptivetoken_responsiveness_time_units",
			"Definition 3 responsiveness intervals, in protocol time units.", &resp, sl...)
		wait := tr.WaitHist()
		p.Histogram("adaptivetoken_wait_time_units",
			"Request-to-grant waiting time, in protocol time units.", &wait, sl...)
		hold := tr.HoldHist()
		p.Histogram("adaptivetoken_token_hold_time_units",
			"Token possession time per holder, in protocol time units.", &hold, sl...)
		hops := tr.HopsHist()
		p.Histogram("adaptivetoken_token_forwards_per_grant",
			"Token-bearing message deliveries between consecutive grants.", &hops, sl...)
	}

	var ts transport.Stats
	if e.Transport != nil {
		ts = e.Transport()
	}
	p.Gauge("adaptivetoken_transport_queue_depth",
		"Encoded frames waiting in bounded per-peer outbound queues right now.",
		float64(ts.QueueDepth), sl...)
	p.Counter("adaptivetoken_transport_enqueued_total",
		"Envelopes Send accepted for a remote peer, each one outbound frame.", float64(ts.Enqueued), sl...)
	p.Counter("adaptivetoken_transport_frames_total",
		"Frames written to peer sockets.", float64(ts.Frames), sl...)
	p.Counter("adaptivetoken_transport_flushes_total",
		"Socket writes (each flushing one batch of frames).", float64(ts.Flushes), sl...)
	p.Counter("adaptivetoken_transport_batched_writes_total",
		"Socket writes that carried more than one frame.", float64(ts.BatchedWrites), sl...)
	p.Counter("adaptivetoken_transport_dropped_backpressure_total",
		"Cheap envelopes dropped at a full bounded queue (drop policy).",
		float64(ts.DroppedBackpressure), sl...)
	p.Counter("adaptivetoken_transport_dropped_write_error_total",
		"Envelopes discarded when a peer connection broke mid-batch (at-most-once).",
		float64(ts.DroppedWriteError), sl...)
	p.Counter("adaptivetoken_transport_dropped_encode_total",
		"Envelopes the frame encoder refused (payload over the frame bound).",
		float64(ts.DroppedEncode), sl...)
	p.Counter("adaptivetoken_transport_reconnects_total",
		"Peer connections re-established after a write or read failure.",
		float64(ts.Reconnects), sl...)
	p.Counter("adaptivetoken_transport_dial_retries_total",
		"Failed dial attempts retried with jittered backoff.",
		float64(ts.DialRetries), sl...)
}

// shardLabel returns the shard label set (empty when unsharded).
func (e *Exporter) shardLabel() []Label {
	if e.Shard == "" {
		return nil
	}
	return []Label{{Key: "shard", Value: e.Shard}}
}

// CompleteKinds overlays counts onto the full fast-slot schema: the result
// has one entry per metrics.SlotKinds kind (zero when absent) plus any
// extra kinds, sorted.
func CompleteKinds(counts []metrics.KindCount) []metrics.KindCount {
	slots := metrics.SlotKinds()
	out := make([]metrics.KindCount, 0, len(slots)+len(counts))
	i, j := 0, 0
	for i < len(slots) || j < len(counts) {
		switch {
		case j >= len(counts) || (i < len(slots) && slots[i] < counts[j].Kind):
			out = append(out, metrics.KindCount{Kind: slots[i]})
			i++
		case i >= len(slots) || counts[j].Kind < slots[i]:
			out = append(out, counts[j])
			j++
		default: // equal
			out = append(out, counts[j])
			i++
			j++
		}
	}
	return out
}

// nodeLabel renders the ring position, with -1 standing for a whole
// cluster endpoint.
func nodeLabel(n int) string {
	if n == -1 {
		return "cluster"
	}
	return strconv.Itoa(n)
}
