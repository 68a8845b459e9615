package driver

import (
	"fmt"
	"strings"
	"testing"

	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
)

// FuzzChurnSchedule decodes fuzz bytes into a bounded, always-valid churn
// schedule — joins, graceful leaves and fail-stop crashes over an 8-node
// ring booted with a partial view — and runs it under the token census.
// The decoder keeps every schedule inside the engine's contract (node 0 is
// never removed, at least two members survive, no node is re-admitted after
// departing), so any failure is a churn-engine bug, not an invalid input:
// after the last event a probe request from node 0 must be served (token
// loss from a crash must be detected and repaired by the §5 recovery
// election), the token census must stay clean throughout, and exactly one
// token must remain once the run settles.
// Run open-ended with `go test -fuzz FuzzChurnSchedule ./internal/driver/`;
// the seed corpus covers each op and some mixed bursts.
func FuzzChurnSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x04})                         // one join
	f.Add([]byte{0x01, 0x01})                         // one graceful leave
	f.Add([]byte{0x02, 0x02})                         // one crash
	f.Add([]byte{0x02, 0x01, 0x00, 0x04, 0x01, 0x02}) // crash, join, leave
	f.Add([]byte{0x00, 0x24, 0x00, 0x8d, 0x02, 0x03, 0x02, 0x0a, 0x01, 0x06})
	f.Add([]byte{0x01, 0x03, 0x02, 0x06, 0x00, 0x45, 0x02, 0x01, 0x00, 0x05, 0x01, 0x04})

	f.Fuzz(func(t *testing.T, data []byte) {
		const (
			n       = 8
			maxOps  = 12
			maxTime = sim.Time(120_000)
		)
		cfg := protocol.Config{
			Variant:         protocol.LinearSearch,
			N:               n,
			HoldIdle:        3,
			ResearchTimeout: 150,
			RecoveryTimeout: 150,
		}
		r, err := New(cfg, Options{Seed: 1, CSTime: 2, InitialMembers: []int{0, 1, 2, 3}})
		if err != nil {
			t.Fatal(err)
		}

		// Schedule-time membership model. Leaves are deferred by the engine
		// until the leaver is token-safe, so the live view can transiently
		// exceed this model — never undershoot it — which keeps the ≥2-member
		// floor sound. A departed (or departing) node is never re-admitted:
		// its commit time is not statically known, so re-joining it could
		// race its own deferred leave.
		member := make([]bool, n)
		gone := make([]bool, n)
		live := 0
		for _, m := range []int{0, 1, 2, 3} {
			member[m] = true
			live++
		}
		var sched []string
		at := sim.Time(10)
		for i := 0; i+1 < len(data) && len(sched) < maxOps; i += 2 {
			op, arg := data[i], data[i+1]
			at += 20 + sim.Time(arg%60)
			node := 1 + int(arg)%(n-1) // node 0 is never a churn target
			switch op % 3 {
			case 0:
				if member[node] || gone[node] {
					continue
				}
				if err := r.Join(at, node); err != nil {
					t.Fatal(err)
				}
				member[node] = true
				live++
				sched = append(sched, fmt.Sprintf("join %d@%d", node, at))
			case 1:
				if !member[node] || gone[node] || live <= 2 {
					continue
				}
				if err := r.Leave(at, node); err != nil {
					t.Fatal(err)
				}
				member[node] = false
				gone[node] = true
				live--
				sched = append(sched, fmt.Sprintf("leave %d@%d", node, at))
			case 2:
				if !member[node] || gone[node] || live <= 2 {
					continue
				}
				if err := r.Crash(at, node); err != nil {
					t.Fatal(err)
				}
				member[node] = false
				gone[node] = true
				live--
				sched = append(sched, fmt.Sprintf("crash %d@%d", node, at))
			}
		}

		// The probe: one request from node 0 (never removed) after the final
		// event. If a crash lost the token, serving this request requires the
		// full detect-elect-regenerate path.
		probeAt := at + 600
		if err := r.Request(probeAt, 0); err != nil {
			t.Fatal(err)
		}

		for r.Engine().Now() < maxTime {
			next := r.Engine().Now() + 5_000
			if next > maxTime {
				next = maxTime
			}
			r.Engine().RunUntil(next)
			if r.InvariantErr() != nil {
				break
			}
			if r.Waits.Outstanding() == 0 && r.Engine().Now() >= probeAt && !r.heldWork() {
				break
			}
		}

		desc := strings.Join(sched, ", ")
		if desc == "" {
			desc = "(no events)"
		}
		if err := r.InvariantErr(); err != nil {
			t.Fatalf("schedule [%s]: token census: %v", desc, err)
		}
		if out := r.Waits.Outstanding(); out != 0 {
			t.Fatalf("schedule [%s]: probe request unserved at t=%d", desc, r.Engine().Now())
		}
		if c := r.TokenCount(); c != 1 {
			t.Fatalf("schedule [%s]: token count = %d after settling", desc, c)
		}
	})
}
