package driver

// The token census: the simulator's one single-token safety check, the
// paper's Theorem 1 (one token, so mutual exclusion) extended by §5's
// regeneration under a new epoch. It is always on, and its first violation
// is InvariantErr. The rule, checked after every applied step and at every
// crash:
//
//   - (a) per epoch, live holders plus token-bearing messages in flight
//     number at most one ("tokens in epoch"). Distinct epochs may coexist: a
//     regenerated token overtaking a stale one is the §5 design.
//   - (b) while no node has died and no token above epoch 0 exists, the
//     total is exactly one ("token count"): nothing may lose or duplicate
//     the bootstrap token.
//   - (c) RunWorkload succeeds only if exactly one token remains.
//
// The data is the current holders, each under the epoch it was counted in,
// plus the token-bearing messages in flight, by epoch. A node's HasToken
// and Epoch change only inside an applied step, so re-reading the stepping
// node keeps the census exact at O(live tokens) per step, with no map and
// no allocation on the token path.

import (
	"fmt"

	"adaptivetoken/internal/sim"
)

// holder is one live node counted as holding a token of epoch.
type holder struct {
	node  int
	epoch uint64
}

// wire counts the token-bearing messages of one epoch in flight.
type wire struct {
	epoch uint64
	n     int
}

type census struct {
	holders  []holder
	wires    []wire
	inFlight int // token-bearing messages in flight, all epochs
	// exact is rule (b)'s precondition: no node has died and no token
	// above epoch 0 has existed.
	exact bool
	err   error // first violation
}

func newCensus() census {
	return census{
		holders: make([]holder, 0, 4),
		wires:   make([]wire, 0, 4),
		exact:   true,
	}
}

// tokens returns live holders plus token-bearing messages in flight.
func (c *census) tokens() int { return len(c.holders) + c.inFlight }

// flight adds d token-bearing messages of epoch to the wire: +1 when one
// is put on it, -1 when it arrives or is swallowed. A new epoch takes the
// place of one with nothing in flight, so the wires never outnumber the
// most epochs in flight at once.
func (c *census) flight(epoch uint64, d int) {
	c.inFlight += d
	free := -1
	for i := range c.wires {
		if c.wires[i].epoch == epoch {
			c.wires[i].n += d
			return
		}
		if c.wires[i].n == 0 {
			free = i
		}
	}
	if free < 0 {
		free = len(c.wires)
		c.wires = append(c.wires, wire{})
	}
	c.wires[free] = wire{epoch: epoch, n: d}
	c.regenerated(epoch)
}

// hold re-counts node after one of its steps: it holds a token of epoch,
// or (has false) none.
func (c *census) hold(node int, has bool, epoch uint64) {
	i := 0
	for i < len(c.holders) && c.holders[i].node != node {
		i++
	}
	counted := i < len(c.holders)
	if counted && has && c.holders[i].epoch == epoch || !counted && !has {
		return
	}
	if counted {
		c.holders[i] = c.holders[len(c.holders)-1]
		c.holders = c.holders[:len(c.holders)-1]
	}
	if has {
		c.holders = append(c.holders, holder{node: node, epoch: epoch})
		c.regenerated(epoch)
	}
}

// regenerated ends rule (b) once a token above epoch 0 exists.
func (c *census) regenerated(epoch uint64) {
	if epoch > 0 {
		c.exact = false
	}
}

// crash takes node's token, if any, to the grave and ends rule (b).
func (c *census) crash(node int) {
	c.hold(node, false, 0)
	c.exact = false
}

// check records the first violation of rules (a) and (b) at time now. The
// common case, rule (b) holding, stays small enough to inline.
func (c *census) check(now sim.Time) {
	if !c.exact || c.tokens() != 1 {
		c.checkRules(now)
	}
}

func (c *census) checkRules(now sim.Time) {
	if c.err != nil {
		return
	}
	if c.exact {
		c.err = fmt.Errorf("driver: token count %d at t=%d", c.tokens(), now)
		return
	}
	// Every epoch with a token has a holder or a message in flight.
	for _, h := range c.holders {
		c.checkEpoch(h.epoch, now)
	}
	for _, w := range c.wires {
		c.checkEpoch(w.epoch, now)
	}
}

// checkEpoch applies rule (a) to one epoch.
func (c *census) checkEpoch(epoch uint64, now sim.Time) {
	n := 0
	for _, h := range c.holders {
		if h.epoch == epoch {
			n++
		}
	}
	for _, w := range c.wires {
		if w.epoch == epoch {
			n += w.n
		}
	}
	if n > 1 && c.err == nil {
		c.err = fmt.Errorf("driver: %d tokens in epoch %d at t=%d", n, epoch, now)
	}
}

// end applies rule (c) to a finished run.
func (c *census) end(now sim.Time) error {
	if c.err == nil && c.tokens() != 1 {
		c.err = fmt.Errorf("driver: token count %d at the end of the run, t=%d", c.tokens(), now)
	}
	return c.err
}
