package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"adaptivetoken/internal/host"
	"adaptivetoken/internal/protocol"
)

// span is one timed interval of the traced pass. The spans of one request
// share Request; Parent names the span of the same request that caused it.
// Times are nanoseconds since the pass began.
type span struct {
	Name    string `json:"name"`
	Request string `json:"request,omitempty"`
	Parent  string `json:"parent,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	// Self is the duration minus the part its children cover.
	Self int64 `json:"self_ns"`
}

// spanLog keeps spans in memory until the pass ends. A nil log drops them,
// which is what an untraced pass holds.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) since(t time.Time) int64 { return int64(t.Sub(l.t0)) }

func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// timed records fn as one span.
func (l *spanLog) timed(name, parent string, fn func() error) error {
	if l == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	l.add(span{Name: name, Parent: parent, Start: l.since(start), End: l.since(time.Now())})
	return err
}

// fillSelf computes every span's self time: its duration minus the union of
// its children's intervals, clipped to the span.
func fillSelf(spans []span) {
	type key struct{ request, name string }
	children := map[key][]int{}
	for i, s := range spans {
		if s.Parent != "" {
			k := key{s.Request, s.Parent}
			children[k] = append(children[k], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		p.Self = p.End - p.Start
		kids := children[key{p.Request, p.Name}]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), p.Start
		for _, c := range kids {
			lo, hi := spans[c].Start, spans[c].End
			if lo < edge {
				lo = edge
			}
			if hi > p.End {
				hi = p.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		p.Self -= covered
	}
}

// write emits the log as JSON lines.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	fillSelf(l.spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// acquireTrace is one traced acquire: the instants, in nanoseconds since the
// tracer began, at which it crossed each boundary between layers. Zero
// means the boundary was never seen (a request granted on the spot sends no
// search and waits for no token).
type acquireTrace struct {
	node, seq, searchHops                          int
	due, call, request, lastSearch, tokenSent, got int64
	ret                                            int64
}

// msgKey identifies a message between the step that sent it and the step
// that delivered it. Equal keys (a re-issued search) pair up first in,
// first out.
type msgKey struct {
	kind              protocol.MsgKind
	from, to          int
	round, reqSeq     uint64
	requester, window int
	hops              int
}

func keyOf(m *protocol.Message) msgKey {
	return msgKey{m.Kind, m.From, m.To, m.Round, m.ReqSeq, m.Requester, m.Window, m.Hops}
}

// liveTracer is the benchmark's host.Observer on a live ring. Every node's
// host calls it under that node's runtime lock, several at once, so it
// serializes on its own mutex; the wait for that mutex is part of the
// tracing overhead the report states.
type liveTracer struct {
	mu     sync.Mutex
	t0     time.Time
	open   map[int]*acquireTrace // by requesting node; a node has one request out at a time
	seq    map[int]int
	done   []acquireTrace
	sent   map[msgKey][]int64
	hops   samples
	counts stepCounter
}

func newLiveTracer() *liveTracer {
	return &liveTracer{
		t0:   time.Now(),
		open: map[int]*acquireTrace{},
		seq:  map[int]int{},
		sent: map[msgKey][]int64{},
	}
}

func (t *liveTracer) now() int64 { return int64(time.Since(t.t0)) }

// begin is called by the load loop just before Mutex.Lock on node, for a
// request that was due at due.
func (t *liveTracer) begin(node int, due time.Time) {
	now := t.now()
	t.mu.Lock()
	t.seq[node]++
	t.open[node] = &acquireTrace{node: node, seq: t.seq[node], due: int64(due.Sub(t.t0)), call: now}
	t.mu.Unlock()
}

// reset forgets what the warm-up left behind.
func (t *liveTracer) reset() {
	t.mu.Lock()
	t.done, t.hops, t.counts = nil, nil, stepCounter{}
	t.mu.Unlock()
}

// end is called by the load loop once Lock has returned; a failed Lock
// leaves no trace.
func (t *liveTracer) end(node int, ok bool) {
	now := t.now()
	t.mu.Lock()
	if a := t.open[node]; a != nil && ok {
		a.ret = now
		t.done = append(t.done, *a)
	}
	delete(t.open, node)
	t.mu.Unlock()
}

func tokenBearing(k protocol.MsgKind) bool {
	return k == protocol.MsgToken || k == protocol.MsgTokenReturn
}

func (t *liveTracer) OnStep(s host.Step) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts.OnStep(s)
	switch s.Kind {
	case host.StepRequest:
		if a := t.open[s.Node]; a != nil {
			a.request = now
		}
	case host.StepDeliver:
		k := keyOf(s.Msg)
		if q := t.sent[k]; len(q) > 0 {
			t.hops = append(t.hops, float64(now-q[0]))
			if len(q) == 1 {
				delete(t.sent, k)
			} else {
				t.sent[k] = q[1:]
			}
		}
		if s.Msg.Kind == protocol.MsgSearch {
			if a := t.open[s.Msg.Requester]; a != nil && a.request != 0 && a.got == 0 {
				a.lastSearch = now
				a.searchHops++
			}
		}
	}
	if s.Effects.Granted {
		if a := t.open[s.Node]; a != nil && a.request != 0 {
			a.got = now
		}
	}
	for i := range s.Effects.Msgs {
		m := &s.Effects.Msgs[i]
		k := keyOf(m)
		t.sent[k] = append(t.sent[k], now)
		if tokenBearing(m.Kind) {
			if a := t.open[m.To]; a != nil && a.request != 0 && a.got == 0 {
				a.tokenSent = now
			}
		}
	}
}

func (t *liveTracer) OnFault(host.FaultEvent) {}

// stages are the children of an acquire span, in the order a request
// crosses them. They tile the acquire, so its self time is what no stage
// claims.
var stages = []string{"queue", "issue", "search", "token_wait", "return", "wake"}

// edges returns the instants bounding the stages, made monotone: a boundary
// never seen collapses its stage to nothing, and a token already on its way
// by rotation while the search still hops does not make a stage run
// backwards.
func (a *acquireTrace) edges() [7]int64 {
	e := [7]int64{a.due, a.call, a.request, a.lastSearch, a.tokenSent, a.got, a.ret}
	for i := 1; i < len(e); i++ {
		if e[i] < e[i-1] {
			e[i] = e[i-1]
		}
	}
	return e
}

// report reduces the traced acquires to the per-layer numbers and, when a
// span log is attached, writes each acquire's span tree into it.
func (t *liveTracer) report(rep *report, log *spanLog) {
	t.mu.Lock()
	defer t.mu.Unlock()
	stage := make([]samples, len(stages))
	var hops float64
	offset := int64(0)
	if log != nil {
		offset = log.since(t.t0)
	}
	for i := range t.done {
		a := &t.done[i]
		e := a.edges()
		hops += float64(a.searchHops)
		for j := range stages {
			stage[j] = append(stage[j], float64(e[j+1]-e[j]))
		}
		if log == nil {
			continue
		}
		id := fmt.Sprintf("n%d/%d", a.node, a.seq)
		log.add(span{Name: "acquire", Request: id, Start: offset + e[0], End: offset + e[len(stages)]})
		for j, name := range stages {
			log.add(span{Name: name, Request: id, Parent: "acquire", Start: offset + e[j], End: offset + e[j+1]})
		}
	}
	n := len(t.done)
	if n == 0 {
		rep.violate("the traced pass completed no acquire")
		return
	}
	us := func(ns float64) float64 { return ns / 1e3 }
	for j, name := range stages {
		rep.set("trace."+name+"_us_p50", us(stage[j].median()))
	}
	rep.set("trace.search_hops_mean", hops/float64(n))
	rep.note("trace.search_us_p50", "n=%d acquires", n)
	h := t.hops.sorted()
	p50, _ := h.quantile(0.5)
	tail, pct := h.tail()
	rep.set("trace.hop_us_p50", us(p50))
	rep.set("trace.hop_us_p99", us(tail))
	rep.note("trace.hop_us_p99", "p%g of n=%d hops", pct, len(h))
	rep.set("driver.deliver_steps", float64(t.counts.deliver))
	rep.set("driver.timer_steps", float64(t.counts.timer))
	rep.set("driver.request_steps", float64(t.counts.request))
	rep.set("driver.grants", float64(t.counts.grants))
}
