package telemetry

import (
	"strings"
	"testing"

	"adaptivetoken/internal/transport"
)

func render(t *testing.T, e *Exporter) string {
	t.Helper()
	var sb strings.Builder
	p := NewPromWriter(&sb)
	e.WriteMetrics(p)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestExporterTransportZeroOverlay: with no Transport source wired, the
// transport series are still present at zero — an in-process cluster's
// /metrics has the same schema as a TCP node's, so scrape configs and
// dashboards never special-case the deployment style.
func TestExporterTransportZeroOverlay(t *testing.T) {
	out := render(t, &Exporter{Node: 3})
	for _, want := range []string{
		"adaptivetoken_transport_queue_depth 0",
		"adaptivetoken_transport_enqueued_total 0",
		"adaptivetoken_transport_frames_total 0",
		"adaptivetoken_transport_flushes_total 0",
		"adaptivetoken_transport_batched_writes_total 0",
		"adaptivetoken_transport_dropped_backpressure_total 0",
		"adaptivetoken_transport_dropped_write_error_total 0",
		"adaptivetoken_transport_dropped_encode_total 0",
		"adaptivetoken_transport_reconnects_total 0",
		"adaptivetoken_transport_dial_retries_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("zero-overlay exposition missing %q", want)
		}
	}
}

// TestExporterTransportValues: a wired Transport source lands its snapshot
// in the exposition, with the shard label applied like every other series.
func TestExporterTransportValues(t *testing.T) {
	e := &Exporter{
		Node:  0,
		Shard: "2",
		Transport: func() transport.Stats {
			return transport.Stats{
				Enqueued:            100,
				Frames:              90,
				Flushes:             40,
				BatchedWrites:       12,
				DroppedBackpressure: 7,
				DroppedWriteError:   3,
				DroppedEncode:       6,
				Reconnects:          2,
				DialRetries:         5,
				QueueDepth:          4,
			}
		},
	}
	out := render(t, e)
	for _, want := range []string{
		`adaptivetoken_transport_queue_depth{shard="2"} 4`,
		`adaptivetoken_transport_enqueued_total{shard="2"} 100`,
		`adaptivetoken_transport_batched_writes_total{shard="2"} 12`,
		`adaptivetoken_transport_dropped_backpressure_total{shard="2"} 7`,
		`adaptivetoken_transport_dropped_write_error_total{shard="2"} 3`,
		`adaptivetoken_transport_dropped_encode_total{shard="2"} 6`,
		`adaptivetoken_transport_reconnects_total{shard="2"} 2`,
		`adaptivetoken_transport_dial_retries_total{shard="2"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}
