package bench

import (
	"adaptivetoken/internal/driver"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/telemetry"
	"adaptivetoken/internal/workload"
)

// A traced run (tokensim -trace) is one fig9-style point — BinarySearch on
// 100 nodes under the figures' Poisson load of mean gap 10, critical
// sections of length 0 as in every figure — with the telemetry tracer
// attached and the ready/in-flight/holder series sampled every
// traceSampleEvery time units.
const (
	traceVariant     = protocol.BinarySearch
	traceN           = 100
	traceMeanGap     = 10.0
	traceSampleEvery = 50
)

// TraceRun executes the traced run at the options' seed and scale with a
// telemetry.Tracer observing every step and fault; the tracer's ring is
// sized to hold the whole run (64 records per request, at least the default
// capacity). It returns the run summary (Variant and N name the traced
// point) and the tracer holding the recorded timeline.
func TraceRun(opts Options) (driver.Result, *telemetry.Tracer, error) {
	opts = opts.withDefaults()
	tr := telemetry.NewTracer(telemetry.Config{
		N:        traceN,
		Capacity: max(opts.Requests*64, telemetry.DefaultCapacity),
	})
	r, err := driver.New(figureConfig(traceVariant, traceN), driver.Options{Seed: opts.Seed, Observer: tr})
	if err != nil {
		return driver.Result{}, nil, err
	}
	// Periodic series sampling: a self-rescheduling sim event. The sampler
	// keeps rescheduling past the last request; RunWorkload's quiescence
	// check terminates on served requests, not on an empty event heap.
	var sample func()
	sample = func() {
		tr.Sample(r.Engine().Now(), r.Resp.ReadyCount(), r.Engine().Pending(), r.Holder())
		r.Engine().After(traceSampleEvery, sample)
	}
	if err := r.Engine().At(0, sample); err != nil {
		return driver.Result{}, nil, err
	}
	end, err := r.RunWorkload(workload.Poisson{N: traceN, MeanGap: traceMeanGap}, opts.Requests, opts.MaxTime)
	if err != nil {
		return driver.Result{}, nil, err
	}
	return r.Summarize(end), tr, nil
}
