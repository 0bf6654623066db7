package db

import (
	"time"

	"rocksmash/internal/vitals"
)

// Vitals bridges the store to the internal/vitals time-series sampler:
// every DB runs one background sampler, at Options.VitalsInterval, whose
// snapshot closure is VitalsSample (Metrics() and a timestamp) followed by
// one anomaly-detector evaluation. The write and read hot paths never see a
// vitals instruction.

// Vitals returns the time-series sampler. The sampler remains readable (but
// frozen) after Close.
func (d *DB) Vitals() *vitals.Sampler { return d.vit }

// startVitals launches the sampler; the caller has fully initialized d. The
// sampler's snapshot closure also feeds each sample to the anomaly
// detector, so detection ticks at exactly the vitals cadence with no
// goroutine of its own. The first sample is taken before startVitals
// returns.
func (d *DB) startVitals() {
	d.vit = vitals.NewSampler(d.opts.VitalsInterval, vitals.DefaultHistory, func() vitals.Sample {
		s := d.VitalsSample()
		d.flightObserve(s)
		return s
	})
	d.vit.Start()
}

// VitalsSample is the current Metrics with the time it was taken — the same
// point the background sampler records. Exported so harnesses and tuners can
// pin samples to their own boundaries (phase edges) and vitals.Derive exact
// windows between them, independent of the sampler's cadence.
func (d *DB) VitalsSample() vitals.Sample {
	return vitals.Sample{UnixNano: time.Now().UnixNano(), Metrics: d.Metrics()}
}
