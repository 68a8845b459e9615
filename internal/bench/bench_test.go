package bench

import (
	"math"
	"strings"
	"testing"
)

// quick returns CI-sized options: enough samples for the curve shapes to be
// stable, small enough to run in seconds.
func quick() Options {
	return Options{Seed: 1, Requests: 500, MaxTime: 3_000_000}
}

func y(t *testing.T, tbl Table, x float64, series string) float64 {
	t.Helper()
	for _, p := range tbl.Points {
		if p.X == x {
			v, ok := p.Y[series]
			if !ok {
				t.Fatalf("series %q missing at x=%g", series, x)
			}
			return v
		}
	}
	t.Fatalf("no point at x=%g", x)
	return 0
}

// TestFigure9Shape asserts the paper's headline result: under fixed load,
// the ring's responsiveness approaches the request gap while BinarySearch
// stays within the log-n band and wins at scale.
func TestFigure9Shape(t *testing.T) {
	tbl, err := Run("fig9", quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.Format())
	if len(tbl.Points) != 9 {
		t.Fatalf("points = %d", len(tbl.Points))
	}
	// Ring approaches the mean gap (10) from below as n grows.
	ringBig := y(t, tbl, 1000, "ring")
	if ringBig < 8 || ringBig > 16 {
		t.Errorf("ring responsiveness at n=1000 = %.1f, want ≈10", ringBig)
	}
	// BinarySearch stays within ~1.5·log2(n) everywhere and beats the
	// ring for n ≥ 64.
	for _, p := range tbl.Points {
		bin := p.Y["binsearch"]
		bound := 1.5 * math.Log2(p.X)
		if bin > bound {
			t.Errorf("binsearch at n=%g = %.1f exceeds 1.5·log2 = %.1f", p.X, bin, bound)
		}
		if p.X >= 64 && bin >= p.Y["ring"] {
			t.Errorf("binsearch (%.1f) should beat ring (%.1f) at n=%g", bin, p.Y["ring"], p.X)
		}
	}
}

// TestFigure10Shape asserts the crossover picture at n=100: both protocols
// match under saturation; as load lightens the ring degrades toward n/2
// while BinarySearch converges to ≈ log n from below.
func TestFigure10Shape(t *testing.T) {
	tbl, err := Run("fig10", quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.Format())
	logN := math.Log2(100)
	// Light load: ring near n/2, binsearch near (and not far above) log n.
	ring := y(t, tbl, 500, "ring")
	bin := y(t, tbl, 500, "binsearch")
	if ring < 35 {
		t.Errorf("ring at gap 500 = %.1f, want → 50", ring)
	}
	if bin > 1.3*logN {
		t.Errorf("binsearch at gap 500 = %.1f, want ≈ log2(100) = %.1f", bin, logN)
	}
	// Heavy load: the hybrid matches the ring (within a small factor).
	if rb, bb := y(t, tbl, 1, "ring"), y(t, tbl, 1, "binsearch"); bb > 3*rb+3 {
		t.Errorf("saturated binsearch (%.1f) should track ring (%.1f)", bb, rb)
	}
	// Ring responsiveness is monotone-ish in the gap: light ≫ heavy.
	if y(t, tbl, 1, "ring") >= ring {
		t.Error("ring responsiveness should grow with the request gap")
	}
}

// TestAblationTrapGCShape asserts the §4.4 cleanup story: rotation GC
// eliminates nearly all vacuous deliveries relative to no GC.
func TestAblationTrapGCShape(t *testing.T) {
	tbl, err := Run("trapgc", quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.Format())
	if len(tbl.Points) != 3 { // none, rotation, inverse
		t.Fatalf("unexpected table shape")
	}
	none := tbl.Points[0].Y["bounces/grant"]
	rot := tbl.Points[1].Y["bounces/grant"]
	if rot > none/4 {
		t.Errorf("rotation GC bounces/grant = %.2f, want ≪ none = %.2f", rot, none)
	}
	if tbl.Points[1].Y["wait-mean"] > tbl.Points[0].Y["wait-mean"] {
		t.Errorf("rotation GC should not worsen waits: %.1f vs %.1f",
			tbl.Points[1].Y["wait-mean"], tbl.Points[0].Y["wait-mean"])
	}
}

// TestAblationDirectedShape: directed search trades more cheap messages per
// request while keeping waits comparable under light load.
func TestAblationDirectedShape(t *testing.T) {
	tbl, err := Run("directed", quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.Format())
	// At the lightest load, directed uses ≈ 2× the cheap messages of
	// delegated (each probe is answered).
	d := y(t, tbl, 500, "delegated-cheap/req")
	dir := y(t, tbl, 500, "directed-cheap/req")
	if dir < d {
		t.Errorf("directed (%.1f msgs/req) should cost at least delegated (%.1f)", dir, d)
	}
}

// TestAblationSpeedShape: longer idle holds slash token traffic and cost
// some waiting; the adaptive policy gets the traffic saving at a fraction
// of the wait penalty.
func TestAblationSpeedShape(t *testing.T) {
	tbl, err := Run("speed", quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.Format())
	msgs0 := y(t, tbl, 0, "token-msgs/req")
	msgs64 := y(t, tbl, 64, "token-msgs/req")
	if msgs64 >= msgs0 {
		t.Errorf("hold 64 should reduce token traffic: %.1f vs %.1f", msgs64, msgs0)
	}
	adaptive := y(t, tbl, -1, "token-msgs/req")
	if adaptive >= msgs0 {
		t.Errorf("adaptive speed should reduce token traffic: %.1f vs %.1f", adaptive, msgs0)
	}
}

// TestAblationThrottleShape verifies the gimme/token ratio stays bounded
// across loads (§4.4's one-outstanding-request argument).
func TestAblationThrottleShape(t *testing.T) {
	tbl, err := Run("throttle", quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.Format())
	for _, p := range tbl.Points {
		if p.Y["ratio"] > 2.0 {
			t.Errorf("gimme/token ratio at gap %g = %.2f, want bounded", p.X, p.Y["ratio"])
		}
	}
}

// TestAblationPushRuns sanity-checks the push experiment end to end.
func TestAblationPushRuns(t *testing.T) {
	tbl, err := Run("push", quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.Format())
	if len(tbl.Points) != 2 {
		t.Fatalf("points = %d", len(tbl.Points))
	}
	for _, p := range tbl.Points {
		if p.Y["pull-wait"] <= 0 || p.Y["push-wait"] <= 0 {
			t.Error("waits must be positive")
		}
	}
}

// TestFairnessShape: max possessions by one node while waiting stays within
// a small multiple of log N.
func TestFairnessShape(t *testing.T) {
	tbl, err := Run("fairness", quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.Format())
	for _, p := range tbl.Points {
		if p.Y["max-by-one-mean"] > 3*p.Y["log2(n)"]+3 {
			t.Errorf("mean max-by-one at n=%g = %.1f vs log2 = %.1f",
				p.X, p.Y["max-by-one-mean"], p.Y["log2(n)"])
		}
	}
}

// TestSaturationShape: under all-ready saturation the hybrid tracks the
// ring.
func TestSaturationShape(t *testing.T) {
	tbl, err := Run("saturation", quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.Format())
	for _, p := range tbl.Points {
		if p.Y["binsearch"] > 4*p.Y["ring"]+4 {
			t.Errorf("saturated binsearch (%.1f) far from ring (%.1f) at n=%g",
				p.Y["binsearch"], p.Y["ring"], p.X)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{
		Name:   "demo",
		XLabel: "x",
		Series: []string{"a", "b"},
		Points: []Point{{X: 1, Y: map[string]float64{"a": 2, "b": 3}}},
	}
	txt := tbl.Format()
	if !strings.Contains(txt, "# demo") || !strings.Contains(txt, "2.00") {
		t.Errorf("format:\n%s", txt)
	}
	csv := tbl.CSV()
	if !strings.HasPrefix(csv, "x,a,b\n1,2,3\n") {
		t.Errorf("csv: %q", csv)
	}
}

func TestLookupAndIDs(t *testing.T) {
	for _, id := range IDs() {
		if _, ok := lookup(id); !ok {
			t.Errorf("lookup(%q) failed", id)
		}
	}
	if _, err := Run("nope", quick()); err == nil {
		t.Error("unknown id must fail")
	}
}

// TestAllCoversRegistry: All, Run and IDs walk one table, so All runs
// exactly the listed ids minus fig9big (listed and runnable, but too heavy
// for a sweep).
func TestAllCoversRegistry(t *testing.T) {
	tables, err := All(Options{Seed: 1, Requests: 64, MaxTime: 640_000})
	if err != nil {
		t.Fatal(err)
	}
	listed := false
	for _, id := range IDs() {
		if id == "fig9big" {
			listed = true
			continue
		}
		if _, ok := tables[id]; !ok {
			t.Errorf("All() is missing listed experiment %q", id)
		}
		delete(tables, id)
	}
	if !listed {
		t.Error("fig9big not listed by IDs()")
	}
	for id := range tables {
		t.Errorf("All() ran %q, which IDs() does not list (or which must stay out of All)", id)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Requests == 0 || o.MaxTime == 0 {
		t.Errorf("defaults not applied: %+v", o)
	}
	if o.Seed != 0 {
		t.Errorf("seed rewritten to %d; it must be used as given", o.Seed)
	}
	p := PaperOptions()
	if p.Requests < 10*DefaultOptions().Requests/2 {
		t.Error("paper options should be much larger")
	}
}

// TestDelaySensitivityShape: the log-vs-linear gap survives jittery
// delivery delays — the claim does not depend on the constant-delay cost
// model.
func TestDelaySensitivityShape(t *testing.T) {
	tbl, err := Run("jitter", quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.Format())
	models := []string{"constant", "uniform", "exponential"}
	if len(tbl.Points) != len(models) {
		t.Fatalf("points = %d", len(tbl.Points))
	}
	for _, p := range tbl.Points {
		if p.Y["binsearch-wait"]*3 > p.Y["ring-wait"] {
			t.Errorf("model %s: binsearch (%.1f) should beat ring (%.1f) by ≥3x",
				models[int(p.X)], p.Y["binsearch-wait"], p.Y["ring-wait"])
		}
	}
}

// TestTailLatencyShape: the advantage is even larger at the tail — the
// ring's p99 wait approaches N (a full rotation) while binsearch's stays
// log-scale.
func TestTailLatencyShape(t *testing.T) {
	tbl, err := Run("tails", quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.Format())
	p := tbl.Points[len(tbl.Points)-1] // lightest load
	if p.Y["ring-p99"] < 80 {
		t.Errorf("ring p99 = %.0f, want ≈ N = 100", p.Y["ring-p99"])
	}
	if p.Y["binsearch-p99"] > 30 {
		t.Errorf("binsearch p99 = %.0f, want log-scale", p.Y["binsearch-p99"])
	}
}

// TestMessageCostShape is Lemma 6 as a curve: under light load the search
// cost per request equals ⌈log₂n⌉ — the halving search never wastes a hop.
func TestMessageCostShape(t *testing.T) {
	tbl, err := Run("msgcost", Options{Seed: 1, Requests: 300, MaxTime: 50_000_000})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.Format())
	for _, p := range tbl.Points {
		if p.Y["search/req"] > p.Y["log2(n)"]+0.5 {
			t.Errorf("n=%g: %.2f search msgs/req exceeds log2 = %.2f",
				p.X, p.Y["search/req"], p.Y["log2(n)"])
		}
	}
}
