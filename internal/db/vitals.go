package db

import (
	"time"

	"rocksmash/internal/vitals"
)

// Vitals bridges the store to the internal/vitals time-series sampler:
// when Options.VitalsInterval > 0, the DB runs one background sampler
// whose snapshot closure is VitalsSample: Metrics() and a timestamp. With
// the interval at 0 (the default) nothing starts: d.vit stays nil,
// Vitals() returns nil, and the write and read hot paths never see a
// vitals instruction.

// Vitals returns the time-series sampler, or nil when
// Options.VitalsInterval is 0. The sampler remains readable (but frozen)
// after Close.
func (d *DB) Vitals() *vitals.Sampler { return d.vit }

// startVitals launches the sampler; the caller has fully initialized d.
// With the flight recorder on, the sampler's snapshot closure also feeds
// each sample to the anomaly detector, so detection ticks at exactly the
// vitals cadence with no goroutine of its own.
func (d *DB) startVitals() {
	if d.opts.VitalsInterval <= 0 {
		return
	}
	d.vit = vitals.NewSampler(d.opts.VitalsInterval, d.opts.VitalsHistory, func() vitals.Sample {
		s := d.VitalsSample()
		d.flightObserve(s) // does nothing with the recorder off
		return s
	})
}

// stopVitals halts the sampler goroutine; safe when vitals never started.
func (d *DB) stopVitals() {
	if d.vit != nil {
		d.vit.Stop()
	}
}

// VitalsSample is the current Metrics with the time it was taken — the same
// point the background sampler records. Exported so harnesses and tuners can
// pin samples to their own boundaries (phase edges) and vitals.Derive exact
// windows between them, independent of the sampler's cadence (or with
// sampling off entirely).
func (d *DB) VitalsSample() vitals.Sample {
	return vitals.Sample{UnixNano: time.Now().UnixNano(), Metrics: d.Metrics()}
}
