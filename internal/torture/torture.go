// Package torture is the randomized fault-injection explorer: it sweeps
// seeds × fault mixes × protocol variants, asserting on every run that
//
//   - the single-token safety invariant holds (driver check),
//   - every issued request is eventually served (liveness), and
//   - for the spec-modeled configurations, the execution trace is included
//     in the corresponding TRS system (internal/conformance).
//
// A failing scenario is captured as a replayable artifact — the scenario
// parameters plus the recorded fault schedule — and greedily shrunk to a
// minimal counterexample before being written out (artifact.go, shrink.go).
package torture

import (
	"fmt"
	"sort"

	"adaptivetoken/internal/conformance"
	"adaptivetoken/internal/driver"
	"adaptivetoken/internal/faults"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
	"adaptivetoken/internal/workload"
)

// planSalt decorrelates the fault injector's RNG from the scenario seed
// (which also drives the engine and workload RNGs).
const planSalt = 0x9e3779b97f4a7c15

// Scenario fully specifies one torture run; together with the recorded
// fault schedule it is a replayable counterexample.
type Scenario struct {
	Variant  string  `json:"variant"` // "ring", "linear" or "binsearch"
	Mix      string  `json:"mix"`     // named fault mix, see Mixes
	N        int     `json:"n"`
	Requests int     `json:"requests"`
	Seed     uint64  `json:"seed"`
	MeanGap  float64 `json:"mean_gap"`
	CSTime   int64   `json:"cs_time"`
	MaxTime  int64   `json:"max_time"`
}

// withDefaults fills unset workload parameters.
func (sc Scenario) withDefaults() Scenario {
	if sc.N == 0 {
		sc.N = 6
	}
	if sc.Requests == 0 {
		sc.Requests = 16
	}
	if sc.MeanGap == 0 {
		sc.MeanGap = 25
	}
	if sc.CSTime == 0 {
		sc.CSTime = 2
	}
	if sc.MaxTime == 0 {
		sc.MaxTime = 30_000
	}
	return sc
}

// Mix is a named fault policy plus the checks it is compatible with.
type Mix struct {
	Name string
	// Conformance runs the spec trace checker (requires a modeled config:
	// GCNone, no recovery).
	Conformance bool
	// Crash kills one node and enables the §5 recovery extension; the
	// config is then outside the spec systems, so only safety (token
	// count) and liveness of the surviving nodes are checked.
	Crash bool
	// Churn schedules membership events (join/leave/crash) through the
	// fault plan and runs the churn engine; with Conformance also set, the
	// trace is checked by the stutter-rule churn checker
	// (conformance.NewChurn) instead of the fixed-ring one.
	Churn bool
	// Buggy plants Config.BuggyElection: every recovery decider mints
	// locally instead of funneling through the coordinator election.
	Buggy bool
	// Expected-to-fail mixes (the planted bugs) are excluded from sweeps.
	Unsafe bool
	// Members derives the initial membership view (nil = the full ring).
	Members func(sc Scenario) []int
	// Live runs the scenario on real concurrent runtimes over a channel
	// transport (wall clocks, goroutine scheduling) instead of the
	// simulation driver; see live.go.
	Live bool
	// Shards, when > 0, runs the scenario on a sharded cluster of that
	// many rings (Scenario.N members each) instead of one ring; see
	// shard.go. Faults apply only to the shards Faulty selects, and the
	// single-token census is checked per shard.
	Shards int
	// Faulty selects which shards of a sharded mix receive the fault plan
	// (nil = none).
	Faulty func(sc Scenario) []int
	// Plan derives the deterministic fault policy from the scenario.
	Plan func(sc Scenario) faults.Plan
}

// mixes is the registry of named fault mixes.
var mixes = map[string]Mix{
	"clean": {
		Name: "clean", Conformance: true,
		Plan: func(sc Scenario) faults.Plan {
			return faults.Plan{Seed: sc.Seed ^ planSalt}
		},
	},
	"lossy": {
		Name: "lossy", Conformance: true,
		Plan: func(sc Scenario) faults.Plan {
			return faults.Plan{
				Seed:      sc.Seed ^ planSalt,
				DropCheap: 0.3, DupCheap: 0.2,
				JitterProb: 0.15, JitterMax: 4,
			}
		},
	},
	"pause": {
		Name: "pause", Conformance: true,
		Plan: func(sc Scenario) faults.Plan {
			// One seed-derived freeze window; deliveries and timers at
			// the node queue up and drain at resume.
			return faults.Plan{
				Seed: sc.Seed ^ planSalt,
				Pauses: []faults.Pause{{
					Node: int(sc.Seed % uint64(sc.N)),
					At:   int64(2 + sc.Seed%40),
					Dur:  int64(60 + sc.Seed%120),
				}},
				JitterProb: 0.1, JitterMax: 3,
			}
		},
	},
	"crash": {
		Name: "crash", Crash: true,
		Plan: func(sc Scenario) faults.Plan {
			return faults.Plan{Seed: sc.Seed ^ planSalt}
		},
	},
	// token-dup-bug breaks the §4.4 safe subset on purpose: it duplicates
	// token-bearing messages, which no checker should let pass. It exists
	// so the harness can prove it catches, shrinks and replays a real
	// safety bug; sweeps never include it.
	"token-dup-bug": {
		Name: "token-dup-bug", Unsafe: true,
		Plan: func(sc Scenario) faults.Plan {
			return faults.Plan{Seed: sc.Seed ^ planSalt, Unsafe: true, DupToken: 0.3}
		},
	},

	// The churn scenario families: deterministic membership events derived
	// from the scenario seed, driven through the fault plan so every event
	// is recorded, replayed and ddmin-shrunk like any other fault. All of
	// them run under the stutter-rule churn conformance checker, and the
	// driver's per-epoch census machine-checks single-token safety on every
	// applied step throughout.
	"join-storm": {
		Name: "join-storm", Conformance: true, Churn: true,
		Members: func(sc Scenario) []int { return joinStormInitial(sc) },
		Plan: func(sc Scenario) faults.Plan {
			return faults.Plan{Seed: sc.Seed ^ planSalt, Churn: joinStormEvents(sc)}
		},
	},
	"leave-storm": {
		Name: "leave-storm", Conformance: true, Churn: true,
		Plan: func(sc Scenario) faults.Plan {
			v := churnVictims(sc.Seed, sc.N, 2)
			var ev []faults.ChurnEvent
			for i, node := range v {
				ev = append(ev, faults.ChurnEvent{
					Op: faults.ChurnLeave, Node: node,
					At: int64(60+sc.Seed%60) + int64(i)*140,
				})
			}
			return faults.Plan{Seed: sc.Seed ^ planSalt, Churn: ev}
		},
	},
	"crash-regen": {
		Name: "crash-regen", Conformance: true, Churn: true,
		Plan: func(sc Scenario) faults.Plan {
			v := churnVictims(sc.Seed, sc.N, 1)
			return faults.Plan{Seed: sc.Seed ^ planSalt, Churn: []faults.ChurnEvent{
				{Op: faults.ChurnCrash, Node: v[0], At: int64(30 + sc.Seed%80)},
			}}
		},
	},
	// churn-mix composes all three event kinds in one run: a joiner enters
	// while one node drains away gracefully and another fail-stops.
	"churn-mix": {
		Name: "churn-mix", Conformance: true, Churn: true,
		Members: func(sc Scenario) []int { return churnMixInitial(sc) },
		Plan: func(sc Scenario) faults.Plan {
			if sc.N < 4 {
				return faults.Plan{Seed: sc.Seed ^ planSalt}
			}
			v := churnVictims(sc.Seed, sc.N-1, 2) // victims from the initial view
			return faults.Plan{Seed: sc.Seed ^ planSalt, Churn: []faults.ChurnEvent{
				{Op: faults.ChurnJoin, Node: sc.N - 1, At: int64(40 + sc.Seed%40)},
				{Op: faults.ChurnLeave, Node: v[0], At: int64(160 + sc.Seed%60)},
				{Op: faults.ChurnCrash, Node: v[1], At: int64(300 + sc.Seed%80)},
			}}
		},
	},
	// churn-lossy composes membership churn with the lossy link: cheap
	// drops and jitter while nodes leave and crash. Dropped recovery
	// traffic is retried by the re-armed suspicion timers; dropped data
	// traffic by the re-search timer.
	"churn-lossy": {
		Name: "churn-lossy", Conformance: true, Churn: true,
		Plan: func(sc Scenario) faults.Plan {
			v := churnVictims(sc.Seed, sc.N, 2)
			var ev []faults.ChurnEvent
			if len(v) == 2 {
				ev = []faults.ChurnEvent{
					{Op: faults.ChurnLeave, Node: v[0], At: int64(80 + sc.Seed%60)},
					{Op: faults.ChurnCrash, Node: v[1], At: int64(260 + sc.Seed%80)},
				}
			}
			return faults.Plan{
				Seed: sc.Seed ^ planSalt, Churn: ev,
				DropCheap: 0.15, DupCheap: 0.1,
				JitterProb: 0.1, JitterMax: 3,
			}
		},
	},
	// churn-regen-bug is the planted regeneration bug: BuggyElection makes
	// every recovery decider mint locally, so when the bootstrap holder
	// dies with the parked token and two suspicion timers decide in the
	// same window, two tokens are minted under the SAME epoch — which the
	// per-epoch census must catch on the very step the second mint applies.
	// Sweeps never include it; the harness proves it catches, shrinks and
	// replays the violation.
	"churn-regen-bug": {
		Name: "churn-regen-bug", Churn: true, Buggy: true, Unsafe: true,
		Plan: func(sc Scenario) faults.Plan {
			return faults.Plan{Seed: sc.Seed ^ planSalt, Churn: []faults.ChurnEvent{
				{Op: faults.ChurnCrash, Node: 0, At: 1},
			}}
		},
	},

	// The live-* mixes run on real concurrent runtimes over the channel
	// transport. Their workload is a single causal chain (see live.go), so
	// the shared injector's dispatch sequence — and with it the recorded
	// schedule — stays deterministic and replayable despite wall clocks.
	"live-clean": {
		Name: "live-clean", Live: true, Conformance: true,
		Plan: func(sc Scenario) faults.Plan {
			return faults.Plan{Seed: sc.Seed ^ planSalt}
		},
	},
	// live-lossy stays inside the deterministic-chain subset: cheap drops
	// stall the chain until the re-search timer (still one chain) and
	// jitter delays reorder nothing; duplication would fork the chain and
	// is left to the simulator's mixes.
	"live-lossy": {
		Name: "live-lossy", Live: true, Conformance: true,
		Plan: func(sc Scenario) faults.Plan {
			return faults.Plan{
				Seed:       sc.Seed ^ planSalt,
				DropCheap:  0.25,
				JitterProb: 0.15, JitterMax: 3,
			}
		},
	},
	// live-token-dup-bug is the planted live safety bug: the first
	// token-bearing dispatch is duplicated, which the conformance checker
	// attached to the live hosts must reject.
	"live-token-dup-bug": {
		Name: "live-token-dup-bug", Live: true, Conformance: true, Unsafe: true,
		Plan: func(sc Scenario) faults.Plan {
			return faults.Plan{Seed: sc.Seed ^ planSalt, Unsafe: true, DupToken: 1.0}
		},
	},

	// The live-* churn mixes run membership events on real concurrent
	// runtimes (see live_churn.go): events apply at deterministic chain
	// positions, and conformance runs the stutter discipline with
	// harness-driven segment re-pins. Plans stay clean — probabilistic
	// faults would entangle with the wall clock; the churn IS the fault.
	"live-join": {
		Name: "live-join", Live: true, Conformance: true, Churn: true,
		Plan: func(sc Scenario) faults.Plan {
			return faults.Plan{Seed: sc.Seed ^ planSalt}
		},
	},
	"live-leave": {
		Name: "live-leave", Live: true, Conformance: true, Churn: true,
		Plan: func(sc Scenario) faults.Plan {
			return faults.Plan{Seed: sc.Seed ^ planSalt}
		},
	},
	// live-crash-regen fail-stops the parked token holder on real wall
	// clocks: the §5 suspicion timers, probe round and election run on
	// real timers, and the post-repair chain is rule-checked again.
	"live-crash-regen": {
		Name: "live-crash-regen", Live: true, Conformance: true, Churn: true, Crash: true,
		Plan: func(sc Scenario) faults.Plan {
			return faults.Plan{Seed: sc.Seed ^ planSalt}
		},
	},
}

// joinStormInitial is the join-storm starting view: the ring minus the two
// highest ids, which join mid-run. Below 4 nodes there is no room to carve
// out joiners, so the full ring starts (and the storm is empty).
func joinStormInitial(sc Scenario) []int {
	if sc.N < 4 {
		return nil
	}
	m := make([]int, sc.N-2)
	for i := range m {
		m[i] = i
	}
	return m
}

// joinStormEvents staggers the two carved-out nodes back in.
func joinStormEvents(sc Scenario) []faults.ChurnEvent {
	if sc.N < 4 {
		return nil
	}
	return []faults.ChurnEvent{
		{Op: faults.ChurnJoin, Node: sc.N - 2, At: int64(40 + sc.Seed%50)},
		{Op: faults.ChurnJoin, Node: sc.N - 1, At: int64(180 + sc.Seed%60)},
	}
}

// churnMixInitial starts churn-mix one node short; that node joins mid-run.
func churnMixInitial(sc Scenario) []int {
	if sc.N < 4 {
		return nil
	}
	m := make([]int, sc.N-1)
	for i := range m {
		m[i] = i
	}
	return m
}

// churnVictims picks up to k distinct victims in [1, n) (never node 0, the
// bootstrap holder), seed-deterministically.
func churnVictims(seed uint64, n, k int) []int {
	out := make([]int, 0, k)
	used := make(map[int]bool)
	for i := 0; len(out) < k && i < 4*k+8; i++ {
		v := 1 + int((seed+uint64(i)*2654435761)%uint64(n-1))
		if !used[v] {
			used[v] = true
			out = append(out, v)
		}
	}
	return out
}

// MixNames returns all registered mix names, sorted.
func MixNames() []string {
	out := make([]string, 0, len(mixes))
	for name := range mixes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SweepMixes are the safe simulation mixes a sweep runs by default.
func SweepMixes() []string {
	return []string{
		"clean", "lossy", "pause", "crash",
		"join-storm", "leave-storm", "crash-regen", "churn-mix", "churn-lossy",
	}
}

// SweepVariants are the spec-modeled variants a sweep runs by default.
func SweepVariants() []string { return []string{"ring", "linear", "binsearch"} }

// SweepLiveMixes are the safe live-transport mixes; pair them with
// SweepLiveVariants in a separate sweep (live scenarios need a search
// variant, so the default ring variant is excluded).
func SweepLiveMixes() []string {
	return []string{"live-clean", "live-lossy", "live-join", "live-leave", "live-crash-regen"}
}

// SweepLiveVariants are the variants live scenarios support: linear
// search, whose gimme crawl reaches a parked token directly and keeps the
// run a single deterministic causal chain (see liveConfigFor).
func SweepLiveVariants() []string { return []string{"linear"} }

// parseVariant maps a scenario variant name to the protocol constant.
func parseVariant(s string) (protocol.Variant, error) {
	for _, v := range []protocol.Variant{
		protocol.RingToken, protocol.LinearSearch, protocol.BinarySearch,
		protocol.DirectedSearch, protocol.PushProbe, protocol.Combined,
	} {
		if v.String() == s {
			return v, nil
		}
	}
	return 0, fmt.Errorf("torture: unknown variant %q", s)
}

// configFor builds the protocol configuration a scenario runs under.
func configFor(sc Scenario, mix Mix) (protocol.Config, error) {
	v, err := parseVariant(sc.Variant)
	if err != nil {
		return protocol.Config{}, err
	}
	cfg := protocol.Config{Variant: v, N: sc.N, HoldIdle: 3}
	if v != protocol.RingToken {
		cfg.ResearchTimeout = 150
	}
	if mix.Crash || mix.Churn {
		cfg.RecoveryTimeout = 150
	}
	cfg.BuggyElection = mix.Buggy
	return cfg, nil
}

// Report is the outcome of one torture run.
type Report struct {
	Scenario Scenario
	Grants   int
	Steps    int // conformance-checked steps (0 when the checker is off)
	Schedule faults.Schedule
	// Shards carries the per-shard recorded schedules of a sharded mix
	// (Schedule is then empty).
	Shards []faults.Schedule
	Err    error
}

// Run executes one scenario. With replay nil the fault policy of the
// scenario's mix decides (and records) every fault; with a schedule, the
// recorded decisions are applied verbatim and no randomness is drawn —
// the mechanism behind artifact replay and counterexample shrinking.
func Run(sc Scenario, replay *faults.Schedule) Report {
	sc = sc.withDefaults()
	rep := Report{Scenario: sc}
	mix, ok := mixes[sc.Mix]
	if !ok {
		rep.Err = fmt.Errorf("torture: unknown mix %q (have %v)", sc.Mix, MixNames())
		return rep
	}
	if mix.Shards > 0 {
		if replay != nil {
			rep.Err = fmt.Errorf("torture: sharded mix %q replays per-shard schedules; use Failure.Reproduce or RunShardReplay", sc.Mix)
			return rep
		}
		return runShard(sc, mix, nil)
	}
	if mix.Live {
		return runLive(sc, mix, replay)
	}
	cfg, err := configFor(sc, mix)
	if err != nil {
		rep.Err = err
		return rep
	}

	var inj *faults.Injector
	if replay != nil {
		inj = faults.Replay(*replay)
		rep.Schedule = *replay
	} else {
		inj, err = faults.NewInjector(mix.Plan(sc))
		if err != nil {
			rep.Err = err
			return rep
		}
	}

	var members []int
	if mix.Members != nil {
		members = mix.Members(sc)
	}
	if mix.Churn && members == nil {
		// Full-ring start, but the churn engine (and its snapshot, which
		// the churn checker re-pins from) must still be on — even when a
		// shrink candidate has dropped every membership event.
		members = make([]int, sc.N)
		for i := range members {
			members[i] = i
		}
	}

	opts := driver.Options{
		Seed: sc.Seed, CSTime: sim.Time(sc.CSTime), Faults: inj,
		InitialMembers: members,
	}
	type finisher interface {
		Finish() error
		Steps() int
	}
	var chk finisher
	var churnChk *conformance.ChurnChecker
	if mix.Conformance {
		if mix.Churn {
			churnChk, err = conformance.NewChurn(cfg, members)
			chk = churnChk
		} else {
			var fixed *conformance.Checker
			fixed, err = conformance.New(cfg)
			chk = fixed
		}
		if err != nil {
			rep.Err = err
			return rep
		}
		opts.Observer = chk.(driver.Observer)
	}
	r, err := driver.New(cfg, opts)
	if err != nil {
		rep.Err = err
		return rep
	}
	if churnChk != nil {
		churnChk.Bind(r.ChurnSnapshot)
	}

	switch {
	case mix.Churn:
		err = runChurn(r, sc, inj.Churn())
	case mix.Crash:
		err = runCrash(r, sc)
	default:
		_, err = r.RunWorkload(workload.Poisson{N: sc.N, MeanGap: sc.MeanGap},
			sc.Requests, sim.Time(sc.MaxTime))
	}
	rep.Grants = r.Grants()
	if replay == nil {
		rep.Schedule = r.FaultSchedule()
	}

	switch {
	case err != nil:
		rep.Err = err
	case r.InvariantErr() != nil:
		rep.Err = r.InvariantErr()
	case r.ChurnErr() != nil:
		rep.Err = r.ChurnErr()
	case chk != nil:
		if cerr := chk.Finish(); cerr != nil {
			rep.Err = fmt.Errorf("torture: conformance: %w", cerr)
		}
		rep.Steps = chk.Steps()
	}
	return rep
}

// runChurn drives a churn-mix scenario: the injector's membership events
// fire on their own schedule while a Poisson request load runs over the
// nodes that survive to the end (a crash victim's requests are never
// issued — they would die with it). One final probe request lands after
// the last churn event so the run always exercises — and must re-commit —
// a stable epoch after the final burst; per-epoch single-token safety is
// machine-checked by the driver census on every applied step along the way.
func runChurn(r *driver.Runner, sc Scenario, events []faults.ChurnEvent) error {
	crashed := make(map[int]bool)
	var lastChurn sim.Time
	for _, e := range events {
		if e.Op == faults.ChurnCrash {
			crashed[e.Node] = true
		}
		if sim.Time(e.At) > lastChurn {
			lastChurn = sim.Time(e.At)
		}
	}
	rng := sim.NewRNG(sc.Seed ^ 0xa5a5a5a5a5a5a5a5)
	reqs := workload.Take(workload.Poisson{N: sc.N, MeanGap: sc.MeanGap}, rng, sc.Requests)
	var lastAt sim.Time
	issued := 0
	for _, q := range reqs {
		if crashed[q.Node] {
			continue
		}
		if err := r.Request(q.At, q.Node); err != nil {
			return err
		}
		issued++
		if q.At > lastAt {
			lastAt = q.At
		}
	}
	probeAt := lastAt + 500
	if lastChurn+500 > probeAt {
		probeAt = lastChurn + 500
	}
	probe := 0
	for crashed[probe] {
		probe++
	}
	if probe < sc.N {
		if err := r.Request(probeAt, probe); err != nil {
			return err
		}
		issued++
		lastAt = probeAt
	}

	maxTime := sim.Time(sc.MaxTime)
	for r.Engine().Now() < maxTime {
		next := r.Engine().Now() + 5_000
		if next > maxTime {
			next = maxTime
		}
		r.Engine().RunUntil(next)
		if r.ChurnErr() != nil {
			break
		}
		if r.Waits.Outstanding() == 0 && r.Engine().Now() >= lastAt && r.Engine().Now() >= lastChurn {
			break
		}
	}
	if err := r.ChurnErr(); err != nil {
		return err
	}
	if out := r.Waits.Outstanding(); out > 0 {
		return fmt.Errorf("torture: churn mix: %d of %d requests unserved at t=%d",
			out, issued, r.Engine().Now())
	}
	if c := r.TokenCount(); c > 1 {
		return fmt.Errorf("torture: churn mix: %d tokens after settling", c)
	}
	return nil
}

// runCrash drives a crash-mix scenario: one seed-derived victim dies early,
// requests from the other nodes must all still be served (via the §5
// recovery extension if the token dies with the victim), and at most one
// token may remain once the run settles.
func runCrash(r *driver.Runner, sc Scenario) error {
	victim := 1 + int(sc.Seed%uint64(sc.N-1)) // never node 0 (the bootstrapper)
	killAt := sim.Time(10 + sc.Seed%30)
	if err := r.Kill(killAt, victim); err != nil {
		return err
	}
	rng := sim.NewRNG(sc.Seed ^ 0xa5a5a5a5a5a5a5a5)
	reqs := workload.Take(workload.Poisson{N: sc.N, MeanGap: sc.MeanGap}, rng, sc.Requests)
	var lastAt sim.Time
	issued := 0
	for _, q := range reqs {
		if q.Node == victim {
			continue // the dead node never asks
		}
		if err := r.Request(q.At, q.Node); err != nil {
			return err
		}
		issued++
		lastAt = q.At
	}
	maxTime := sim.Time(sc.MaxTime)
	for r.Engine().Now() < maxTime {
		next := r.Engine().Now() + 5_000
		if next > maxTime {
			next = maxTime
		}
		r.Engine().RunUntil(next)
		if r.Waits.Outstanding() == 0 && r.Engine().Now() >= lastAt {
			break
		}
	}
	if out := r.Waits.Outstanding(); out > 0 {
		return fmt.Errorf("torture: crash mix: %d of %d live requests unserved at t=%d",
			out, issued, r.Engine().Now())
	}
	if c := r.TokenCount(); c > 1 {
		return fmt.Errorf("torture: crash mix: %d tokens after settling", c)
	}
	return nil
}

// SweepConfig parameterizes a sweep; zero values select the defaults.
type SweepConfig struct {
	Variants []string // default SweepVariants()
	Mixes    []string // default SweepMixes()
	Seeds    int      // seeds per variant×mix, default 9 (3×4×9 = 108 scenarios)
	N        int
	Requests int
	// ArtifactDir, when set, receives a shrunk replayable artifact per
	// failing scenario.
	ArtifactDir string
}

// SweepResult summarizes a sweep.
type SweepResult struct {
	Scenarios int
	Failures  []Failure
	Artifacts []string
}

// Sweep explores seeds × mixes × variants, collecting (and, with an
// artifact directory, shrinking and persisting) every failure. logf, when
// non-nil, receives one progress line per scenario.
func Sweep(cfg SweepConfig, logf func(format string, a ...any)) (SweepResult, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if len(cfg.Variants) == 0 {
		cfg.Variants = SweepVariants()
	}
	if len(cfg.Mixes) == 0 {
		cfg.Mixes = SweepMixes()
	}
	if cfg.Seeds == 0 {
		cfg.Seeds = 9
	}
	var res SweepResult
	for _, mixName := range cfg.Mixes {
		mix, ok := mixes[mixName]
		if !ok {
			return res, fmt.Errorf("torture: unknown mix %q (have %v)", mixName, MixNames())
		}
		if mix.Unsafe {
			return res, fmt.Errorf("torture: mix %q is a planted bug; sweeps only run safe mixes", mixName)
		}
		for _, variant := range cfg.Variants {
			for seed := uint64(1); seed <= uint64(cfg.Seeds); seed++ {
				sc := Scenario{
					Variant: variant, Mix: mixName, Seed: seed,
					N: cfg.N, Requests: cfg.Requests,
				}
				rep := Run(sc, nil)
				res.Scenarios++
				if rep.Err == nil {
					logf("ok   %-9s %-6s seed=%-3d grants=%d steps=%d",
						variant, mixName, seed, rep.Grants, rep.Steps)
					continue
				}
				logf("FAIL %-9s %-6s seed=%-3d: %v", variant, mixName, seed, rep.Err)
				f := Failure{Scenario: rep.Scenario, Schedule: rep.Schedule, Shards: rep.Shards, Err: rep.Err.Error()}
				if cfg.ArtifactDir != "" {
					f = Shrink(f)
					path, werr := WriteArtifact(cfg.ArtifactDir, f)
					if werr != nil {
						return res, werr
					}
					logf("     shrunk to %d fault actions, artifact: %s",
						len(f.Schedule.Actions), path)
					res.Artifacts = append(res.Artifacts, path)
				}
				res.Failures = append(res.Failures, f)
			}
		}
	}
	return res, nil
}
