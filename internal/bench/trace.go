package bench

import (
	"io"

	"adaptivetoken/internal/driver"
	"adaptivetoken/internal/metrics"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
	"adaptivetoken/internal/telemetry"
	"adaptivetoken/internal/workload"
)

// TraceOptions configures one traced simulation run (tokensim -trace): a
// single fig9-style point executed with the telemetry tracer attached and a
// periodic ready/in-flight/holder series sampled alongside.
type TraceOptions struct {
	// Variant selects the protocol; zero value means BinarySearch (the
	// paper's headline variant).
	Variant protocol.Variant
	// N is the ring size; 0 means 100 (the fig9/fig10 reference point).
	N int
	// MeanGap is the Poisson mean request gap; 0 means 10 (fig9 load).
	MeanGap float64
	// Seed, Requests and MaxTime mean what they do in Options.
	Seed     uint64
	Requests int
	MaxTime  sim.Time
	// CSTime is the critical-section length; the figures run with 0 (the
	// grantee releases instantly), which keeps the token in flight at
	// nearly every sampling instant.
	CSTime sim.Time
	// SampleEvery is the series sampling period in simulated time units;
	// 0 means 50.
	SampleEvery sim.Time
	// Capacity is the tracer ring size in records; 0 sizes it to hold the
	// whole run (64 records per request, at least the default capacity).
	Capacity int
}

func (o TraceOptions) withDefaults() TraceOptions {
	if o.Variant == 0 {
		o.Variant = protocol.BinarySearch
	}
	if o.N <= 0 {
		o.N = 100
	}
	if o.MeanGap <= 0 {
		o.MeanGap = 10
	}
	if o.Requests <= 0 {
		o.Requests = DefaultOptions().Requests
	}
	if o.MaxTime <= 0 {
		o.MaxTime = DefaultOptions().MaxTime
	}
	if o.SampleEvery <= 0 {
		o.SampleEvery = 50
	}
	if o.Capacity <= 0 {
		o.Capacity = o.Requests * 64
		if o.Capacity < telemetry.DefaultCapacity {
			o.Capacity = telemetry.DefaultCapacity
		}
	}
	return o
}

// TraceRun executes one run with a telemetry.Tracer observing every step and
// fault, sampling the ready-count/in-flight/holder series every
// opts.SampleEvery time units. It returns the run summary and the tracer
// holding the recorded timeline.
func TraceRun(opts TraceOptions) (driver.Result, *telemetry.Tracer, error) {
	opts = opts.withDefaults()
	tr := telemetry.NewTracer(telemetry.Config{N: opts.N, Capacity: opts.Capacity})
	r, err := driver.New(figureConfig(opts.Variant, opts.N), driver.Options{
		Seed:     opts.Seed,
		CSTime:   opts.CSTime,
		Observer: tr,
	})
	if err != nil {
		return driver.Result{}, nil, err
	}
	// Periodic series sampling: a self-rescheduling sim event. The sampler
	// keeps rescheduling past the last request; RunWorkload's quiescence
	// check terminates on served requests, not on an empty event heap.
	var sample func()
	sample = func() {
		tr.Sample(r.Engine().Now(), r.Resp.ReadyCount(), r.Engine().Pending(), r.Holder())
		r.Engine().After(opts.SampleEvery, sample)
	}
	if err := r.Engine().At(0, sample); err != nil {
		return driver.Result{}, nil, err
	}
	end, err := r.RunWorkload(workload.Poisson{N: opts.N, MeanGap: opts.MeanGap}, opts.Requests, opts.MaxTime)
	if err != nil {
		return driver.Result{}, nil, err
	}
	return r.Summarize(end), tr, nil
}

// TraceSummary is the digest of a traced run: the tracer's counters, the
// run's responsiveness summary, and the sampled sim-time series.
type TraceSummary struct {
	Variant        string                  `json:"variant"`
	N              int                     `json:"n"`
	MeanGap        float64                 `json:"mean_gap"`
	Records        uint64                  `json:"records"`
	DroppedRecords uint64                  `json:"dropped_records"`
	Grants         int64                   `json:"grants"`
	Requests       int64                   `json:"requests"`
	Faults         int64                   `json:"faults"`
	Responsiveness metrics.Summary         `json:"responsiveness"`
	Waits          metrics.Summary         `json:"waits"`
	Series         []telemetry.SeriesPoint `json:"series"`
}

// Summarize digests a traced run.
func (o TraceOptions) Summarize(res driver.Result, tr *telemetry.Tracer) TraceSummary {
	o = o.withDefaults()
	st := tr.Stats()
	return TraceSummary{
		Variant:        o.Variant.String(),
		N:              o.N,
		MeanGap:        o.MeanGap,
		Records:        st.Total,
		DroppedRecords: st.Dropped,
		Grants:         st.Grants,
		Requests:       st.Requests,
		Faults:         st.Faults,
		Responsiveness: res.Responsiveness,
		Waits:          res.Waits,
		Series:         tr.Series(),
	}
}

// WriteTrace writes the traced run as Chrome trace_event JSON, loadable in
// Perfetto or chrome://tracing.
func (o TraceOptions) WriteTrace(w io.Writer, tr *telemetry.Tracer) error {
	o = o.withDefaults()
	return tr.WriteChromeTrace(w, o.N)
}
