// Package metrics implements the measurements of the paper's evaluation:
// responsiveness (Definition 3), per-request waiting time, message counts
// by kind, and the Theorem 3 fairness accounting (token possessions while a
// request waits).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds order statistics over a set of float samples.
type Summary struct {
	Count              int
	Mean               float64
	Std                float64
	Min, Max           float64
	P50, P90, P95, P99 float64
	SumOfSquareDev     float64
}

// Summarize computes summary statistics of samples (which it sorts a copy
// of). An empty input yields a zero Summary.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	cp := make([]float64, len(samples))
	copy(cp, samples)
	sort.Float64s(cp)

	var sum float64
	for _, v := range cp {
		sum += v
	}
	mean := sum / float64(len(cp))
	var dev float64
	for _, v := range cp {
		d := v - mean
		dev += d * d
	}
	std := 0.0
	if len(cp) > 1 {
		std = math.Sqrt(dev / float64(len(cp)-1))
	}
	return Summary{
		Count:          len(cp),
		Mean:           mean,
		Std:            std,
		Min:            cp[0],
		Max:            cp[len(cp)-1],
		P50:            percentile(cp, 0.50),
		P90:            percentile(cp, 0.90),
		P95:            percentile(cp, 0.95),
		P99:            percentile(cp, 0.99),
		SumOfSquareDev: dev,
	}
}

// percentile returns the p-quantile of sorted samples using nearest-rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f std=%.2f min=%.0f p50=%.0f p90=%.0f p95=%.0f p99=%.0f max=%.0f",
		s.Count, s.Mean, s.Std, s.Min, s.P50, s.P90, s.P95, s.P99, s.Max)
}

// Responsiveness tracks Definition 3: "the maximum time period during which
// at least one node requires the token and until the token is given to a
// ready node". It records one sample per interval: an interval opens when
// the ready count rises from zero (or immediately after a grant that leaves
// ready nodes behind) and closes when any ready node is granted the token.
type Responsiveness struct {
	samples    []float64
	hist       Histogram
	readyCount int
	open       bool
	start      int64
}

// RequestArrived records that a node became ready at time t.
func (r *Responsiveness) RequestArrived(t int64) {
	r.readyCount++
	if !r.open {
		r.open = true
		r.start = t
	}
}

// Granted records that the token was given to a ready node at time t,
// closing the current interval. The granted node is no longer ready.
func (r *Responsiveness) Granted(t int64) {
	if r.open {
		r.samples = append(r.samples, float64(t-r.start))
		r.hist.Observe(t - r.start)
	}
	if r.readyCount > 0 {
		r.readyCount--
	}
	if r.readyCount > 0 {
		r.open = true
		r.start = t
	} else {
		r.open = false
	}
}

// ReadyCount returns the number of currently ready nodes.
func (r *Responsiveness) ReadyCount() int { return r.readyCount }

// Samples returns a copy of the recorded interval lengths.
func (r *Responsiveness) Samples() []float64 {
	cp := make([]float64, len(r.samples))
	copy(cp, r.samples)
	return cp
}

// Summary summarizes the recorded intervals.
func (r *Responsiveness) Summary() Summary { return Summarize(r.samples) }

// Hist returns the streaming log₂ histogram of the recorded intervals —
// the mergeable, allocation-free view exporters scrape while a run is
// still in flight (the exact samples stay authoritative for Summary).
func (r *Responsiveness) Hist() *Histogram { return &r.hist }

// Waits tracks per-request waiting time: from a node becoming ready to that
// same node receiving the token.
type Waits struct {
	pending map[int]int64 // node → request time
	samples []float64
	hist    Histogram
}

// NewWaits returns an empty tracker.
func NewWaits() *Waits { return &Waits{pending: make(map[int]int64)} }

// Requested records that node became ready at time t. A duplicate request
// from an already-waiting node keeps the original time.
func (w *Waits) Requested(node int, t int64) {
	if _, dup := w.pending[node]; !dup {
		w.pending[node] = t
	}
}

// Granted records that node received the token at time t. Grants to nodes
// with no pending request are ignored.
func (w *Waits) Granted(node int, t int64) {
	start, ok := w.pending[node]
	if !ok {
		return
	}
	delete(w.pending, node)
	w.samples = append(w.samples, float64(t-start))
	w.hist.Observe(t - start)
}

// Outstanding returns the number of unanswered requests.
func (w *Waits) Outstanding() int { return len(w.pending) }

// Samples returns a copy of the recorded waits.
func (w *Waits) Samples() []float64 {
	cp := make([]float64, len(w.samples))
	copy(cp, w.samples)
	return cp
}

// Summary summarizes the recorded waits.
func (w *Waits) Summary() Summary { return Summarize(w.samples) }

// Hist returns the streaming log₂ histogram of the recorded waits.
func (w *Waits) Hist() *Histogram { return &w.hist }

// Fast counter slots: the protocol message kinds plus the host's fault
// counters, laid out in a fixed array so the per-dispatch increment on the
// simulation hot path is an array index, not a map probe on a formatted
// string. Snapshot is the map view for reporting.
const (
	slotToken = iota
	slotTokenReturn
	slotSearch
	slotProbe
	slotProbeReply
	slotWantQuery
	slotWantReply
	slotRecoveryProbe
	slotRecoveryReply
	slotDropped
	slotDuplicated
	slotDelayed
	numSlots
)

// slotNames maps fast slots to their reporting keys — the same strings
// protocol.MsgKind.String() renders, so snapshots are unchanged.
var slotNames = [numSlots]string{
	"token", "token-return", "search", "probe", "probe-reply",
	"want-query", "want-reply", "recovery-probe", "recovery-reply",
	"dropped", "duplicated", "delayed",
}

// KindSlot resolves a protocol message kind number (protocol.MsgKind's
// underlying value) to its fast slot, or -1. Defined here so the metrics
// package stays import-free of internal/protocol; internal/host wraps it
// with the typed kind.
func KindSlot(kind int) int {
	switch {
	case kind >= 1 && kind <= 7: // MsgToken..MsgWantReply
		return slotToken + kind - 1
	case kind == 100: // MsgRecoveryProbe
		return slotRecoveryProbe
	case kind == 101: // MsgRecoveryReply
		return slotRecoveryReply
	default:
		return -1
	}
}

// Messages counts protocol messages by kind.
type Messages struct {
	slots [numSlots]int64
}

// NewMessages returns an empty counter set.
func NewMessages() *Messages { return &Messages{} }

// IncSlot adds one message to a fast slot previously resolved with
// KindSlot. Out-of-range slots are ignored.
func (m *Messages) IncSlot(slot int) {
	if slot >= 0 && slot < numSlots {
		m.slots[slot]++
	}
}

// IncDropped counts one fault-dropped message.
func (m *Messages) IncDropped() { m.slots[slotDropped]++ }

// IncDuplicated counts one fault-duplicated message.
func (m *Messages) IncDuplicated() { m.slots[slotDuplicated]++ }

// IncDelayed counts one fault-delayed message.
func (m *Messages) IncDelayed() { m.slots[slotDelayed]++ }

// Total returns the count over all kinds.
func (m *Messages) Total() int64 {
	var t int64
	for _, v := range m.slots {
		t += v
	}
	return t
}

// Snapshot returns a copy of the per-kind counts, safe to retain and
// mutate. Used by the driver's Summarize and the fault layer's stats.
func (m *Messages) Snapshot() map[string]int64 {
	out := make(map[string]int64, numSlots)
	for i, v := range m.slots {
		if v != 0 {
			out[slotNames[i]] = v
		}
	}
	return out
}

// KindCount is one (kind, count) pair of a sorted snapshot.
type KindCount struct {
	Kind  string
	Count int64
}

// SnapshotSorted returns the per-kind counts as a slice sorted by kind
// name — the deterministic counterpart of Snapshot for every output that
// gets diffed (golden traces, bench JSON, the Prometheus exporter).
// Allocation is bounded: exactly one slice, sized up front; the slots are
// visited in slotOrder, so nothing is sorted.
func (m *Messages) SnapshotSorted() []KindCount {
	out := make([]KindCount, 0, numSlots)
	for _, i := range slotOrder {
		if v := m.slots[i]; v != 0 {
			out = append(out, KindCount{Kind: slotNames[i], Count: v})
		}
	}
	return out
}

// slotOrder lists the fast slots by ascending slot name, precomputed so
// SnapshotSorted emits sorted output without sorting.
var slotOrder = func() [numSlots]int {
	var ord [numSlots]int
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord[:], func(a, b int) bool { return slotNames[ord[a]] < slotNames[ord[b]] })
	return ord
}()

// SlotKinds returns the names of every fast counter slot (the protocol
// message kinds plus the fault counters), sorted. Exporters that must emit
// a series for every KindSlot kind — present or not — iterate this.
func SlotKinds() []string {
	out := make([]string, numSlots)
	for i, idx := range slotOrder {
		out[i] = slotNames[idx]
	}
	return out
}

// Fairness tracks Theorem 3's accounting: while some node's request is
// outstanding, how many times each other node possessed the token, and how
// many possessions occurred in total.
type Fairness struct {
	waitingSince map[int]int64       // waiting node → request time
	possessions  map[int]map[int]int // waiting node → (holder → count)
	totals       map[int]int         // waiting node → total possessions by others
	MaxPerNode   []float64           // samples: max possessions by a single other node per completed wait
	TotalOthers  []float64           // samples: total possessions by others per completed wait
}

// NewFairness returns an empty tracker.
func NewFairness() *Fairness {
	return &Fairness{
		waitingSince: make(map[int]int64),
		possessions:  make(map[int]map[int]int),
		totals:       make(map[int]int),
	}
}

// Requested records node starting to wait at time t.
func (f *Fairness) Requested(node int, t int64) {
	if _, dup := f.waitingSince[node]; dup {
		return
	}
	f.waitingSince[node] = t
	f.possessions[node] = make(map[int]int)
	f.totals[node] = 0
}

// Possessed records holder taking possession of the token. Every currently
// waiting node other than the holder accumulates the possession.
func (f *Fairness) Possessed(holder int) {
	for waiter := range f.waitingSince {
		if waiter == holder {
			continue
		}
		f.possessions[waiter][holder]++
		f.totals[waiter]++
	}
}

// Granted records that node's wait ended; its accumulated possession counts
// become samples.
func (f *Fairness) Granted(node int) {
	if _, ok := f.waitingSince[node]; !ok {
		return
	}
	maxBy := 0
	for _, c := range f.possessions[node] {
		if c > maxBy {
			maxBy = c
		}
	}
	f.MaxPerNode = append(f.MaxPerNode, float64(maxBy))
	f.TotalOthers = append(f.TotalOthers, float64(f.totals[node]))
	delete(f.waitingSince, node)
	delete(f.possessions, node)
	delete(f.totals, node)
}

// MaxSummary summarizes the per-wait maximum possessions by a single node
// (Theorem 3 bounds this by log N).
func (f *Fairness) MaxSummary() Summary { return Summarize(f.MaxPerNode) }

// TotalSummary summarizes the per-wait total possessions by other nodes
// (Theorem 3 bounds this by N, plus search overhead).
func (f *Fairness) TotalSummary() Summary { return Summarize(f.TotalOthers) }
