package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// freePorts reserves n distinct loopback ports by listening and closing.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// TestThreeNodeRingEndToEnd runs three ringnode instances in-process on
// loopback: each takes the lock and publishes through the total order.
func TestThreeNodeRingEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up a real TCP ring")
	}
	addrs := freePorts(t, 3)
	peers := addrs[0] + "," + addrs[1] + "," + addrs[2]

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for id := 0; id < 3; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[id] = run([]string{
				"-id", fmt.Sprint(id),
				"-peers", peers,
				"-locks", "2",
				"-pubs", "2",
				"-wait", "600ms",
				"-timeout", "30s",
			})
		}()
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Errorf("node %d: %v", id, err)
		}
	}
}

// TestThreeNodeRingWithFaultsAndObserver re-runs the ring with a lossy
// fault plan injected via -faults and step tracing via -observe: the
// protocol's own timeouts must repair the injected loss end to end.
func TestThreeNodeRingWithFaultsAndObserver(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up a real TCP ring")
	}
	addrs := freePorts(t, 3)
	peers := addrs[0] + "," + addrs[1] + "," + addrs[2]

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for id := 0; id < 3; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[id] = run([]string{
				"-id", fmt.Sprint(id),
				"-peers", peers,
				"-locks", "1",
				"-pubs", "1",
				"-wait", "600ms",
				"-timeout", "30s",
				"-observe",
				"-faults", fmt.Sprintf(`{"seed":%d,"drop_cheap":0.1,"jitter_prob":0.2,"jitter_max":2}`, 40+id),
			})
		}()
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Errorf("node %d: %v", id, err)
		}
	}
}

func TestRunArgValidation(t *testing.T) {
	if err := run([]string{"-peers", "onlyone:1"}); err == nil {
		t.Error("single peer must fail")
	}
	if err := run([]string{"-id", "9", "-peers", "a:1,b:2"}); err == nil {
		t.Error("id out of range must fail")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bad flag must fail")
	}
	if err := run([]string{"-peers", "a:1,b:2", "-faults", "{not json"}); err == nil {
		t.Error("malformed -faults must fail")
	}
	// Pause faults need simulated time; the live path must reject them
	// before it ever touches the network.
	err := run([]string{"-peers", "a:1,b:2", "-faults",
		`{"pauses":[{"node":0,"at":1,"dur":5}]}`})
	if err == nil || !strings.Contains(err.Error(), "pauses") {
		t.Errorf("pause plan accepted: %v", err)
	}
}

// TestThreeNodeRingServesMetrics runs the ring with -metrics-addr and
// scrapes each node's live /metrics and /healthz mid-run.
func TestThreeNodeRingServesMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up a real TCP ring")
	}
	// One call, so no metrics port can repeat a ring port.
	ports := freePorts(t, 6)
	addrs, maddrs := ports[:3], ports[3:]
	peers := addrs[0] + "," + addrs[1] + "," + addrs[2]

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for id := 0; id < 3; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[id] = run([]string{
				"-id", fmt.Sprint(id),
				"-peers", peers,
				"-locks", "2",
				"-pubs", "1",
				"-wait", "1500ms",
				"-timeout", "30s",
				"-metrics-addr", maddrs[id],
			})
		}()
	}

	// Scrape each node while it sits in its settle window.
	for id, maddr := range maddrs {
		var body string
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get("http://" + maddr + "/metrics")
			if err == nil {
				data, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr == nil && resp.StatusCode == http.StatusOK {
					body = string(data)
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d metrics never came up at %s: %v", id, maddr, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
		for _, want := range []string{
			`adaptivetoken_messages_total{kind="token"}`,
			"# TYPE adaptivetoken_responsiveness_time_units histogram",
			fmt.Sprintf(`adaptivetoken_node_info{node="%d"} 1`, id),
		} {
			if !strings.Contains(body, want) {
				t.Errorf("node %d /metrics missing %q", id, want)
			}
		}
		resp, err := http.Get("http://" + maddr + "/healthz")
		if err != nil {
			t.Fatalf("node %d healthz: %v", id, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("node %d healthz status %d", id, resp.StatusCode)
		}
	}

	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Errorf("node %d: %v", id, err)
		}
	}
}
