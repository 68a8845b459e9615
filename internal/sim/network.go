package sim

// DelayModel computes the delivery delay of a message from one node to
// another. The paper's cost model charges a constant per message; richer
// models support sensitivity experiments.
type DelayModel interface {
	// Delay returns the in-flight time for a message from src to dst.
	Delay(rng *RNG, src, dst int) Time
}

// ConstantDelay delivers every message after exactly D time units — the
// paper's "constant time cost with the rules that result in message
// passing".
type ConstantDelay struct {
	D Time
}

// Delay implements DelayModel.
func (c ConstantDelay) Delay(*RNG, int, int) Time { return c.D }

// UniformDelay delivers after a uniform delay in [Min, Max].
type UniformDelay struct {
	Min, Max Time
}

// Delay implements DelayModel.
func (u UniformDelay) Delay(rng *RNG, _, _ int) Time {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + Time(rng.Intn(int(u.Max-u.Min)+1))
}

// ExponentialDelay delivers after an exponential delay with the given mean,
// at least 1.
type ExponentialDelay struct {
	Mean float64
}

// Delay implements DelayModel.
func (e ExponentialDelay) Delay(rng *RNG, _, _ int) Time {
	return rng.ExpTime(e.Mean)
}
