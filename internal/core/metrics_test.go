package core

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"adaptivetoken/internal/metrics"
	"adaptivetoken/internal/telemetry"
)

func scrape(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestClusterMetricsEndpoint is the acceptance check for the live /metrics
// endpoint: Prometheus-parseable output with a counter for every fast-slot
// message kind and a responsiveness histogram, plus working /healthz and
// /debug/pprof/profile.
func TestClusterMetricsEndpoint(t *testing.T) {
	c := newCluster(t, 3, WithMetricsAddr("127.0.0.1:0"))
	addr := c.MetricsAddr()
	if addr == "" {
		t.Fatal("no metrics address")
	}

	// Generate some traffic so the histograms fill.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		m := c.Mutex(i)
		if err := m.Lock(ctx); err != nil {
			t.Fatalf("lock %d: %v", i, err)
		}
		if err := m.Unlock(); err != nil {
			t.Fatal(err)
		}
	}

	base := "http://" + addr
	code, body := scrape(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, kind := range metrics.SlotKinds() {
		want := fmt.Sprintf("adaptivetoken_messages_total{kind=%q}", kind)
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing series %s", want)
		}
	}
	for _, want := range []string{
		"# TYPE adaptivetoken_messages_total counter",
		"# TYPE adaptivetoken_responsiveness_time_units histogram",
		`adaptivetoken_responsiveness_time_units_bucket{le="+Inf"}`,
		"adaptivetoken_grants_total",
		`adaptivetoken_node_info{node="cluster"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The three grants above must be visible in the histogram count.
	if !strings.Contains(body, "adaptivetoken_responsiveness_time_units_count") {
		t.Error("/metrics missing responsiveness count")
	}

	if code, body := scrape(t, base+"/healthz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := scrape(t, base+"/debug/pprof/profile?seconds=1"); code != http.StatusOK || len(body) == 0 {
		t.Fatalf("/debug/pprof/profile = %d (%d bytes)", code, len(body))
	}

	// The tracer is exposed for timeline export.
	if c.Tracer() == nil {
		t.Fatal("nil tracer with metrics enabled")
	}
	grants := 0
	c.Tracer().Records(func(r telemetry.Record) {
		if r.Kind == telemetry.RecGrant {
			grants++
		}
	})
	if grants == 0 {
		t.Error("tracer holds no grant records")
	}
}

// TestClusterMetricsAddrInUse: a busy port fails construction cleanly.
func TestClusterMetricsAddrInUse(t *testing.T) {
	c := newCluster(t, 2, WithMetricsAddr("127.0.0.1:0"))
	if _, err := NewCluster(2, WithMetricsAddr(c.MetricsAddr())); err == nil {
		t.Fatal("expected address-in-use error")
	}
}

// TestClusterNoMetricsByDefault: without the option there is no endpoint,
// no tracer, and the observer-off fast path stays intact.
func TestClusterNoMetricsByDefault(t *testing.T) {
	c := newCluster(t, 2)
	if c.MetricsAddr() != "" || c.Tracer() != nil {
		t.Fatal("metrics endpoint present without WithMetricsAddr")
	}
}
