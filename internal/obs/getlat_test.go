package obs

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"rocksmash/internal/db"
)

// TestSampledGetLatencyMatchesTimed checks the Get latency a store reports
// from its timed sample — one Get in 64 reads the clock — against a store
// that times every Get, each through GetProfiled. The stores hold the same
// keys, some in a flushed table and some in the memtable, so the
// distribution has two modes; they take the same random key sequence, so
// the sample is not aliased with the ticker, and their calls interleave,
// each store going first half the time, so both run under the same
// conditions. Each quantile of the sample must lie between the fully timed
// run's quantiles four binomial standard errors of a sample this size
// either side, widened by one histogram bucket. The count must be every Get, exactly, and the
// Prometheus summary must carry the same figures.
func TestSampledGetLatencyMatchesTimed(t *testing.T) {
	const (
		keys    = 2000
		flushed = 1400
		gets    = 64 * 1000
	)
	key := func(i int) []byte { return []byte(fmt.Sprintf("lat-%05d", i)) }
	open := func() *db.DB {
		o := db.DefaultOptions()
		o.Policy = db.PolicyLocalOnly
		d, err := db.OpenAt(t.TempDir(), o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		val := make([]byte, 100)
		for i := 0; i < keys; i++ {
			if i == flushed {
				if err := d.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Put(key(i), val); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	sampled, timed := open(), open()

	rng := rand.New(rand.NewSource(42))
	full := make([]time.Duration, 0, gets)
	for n := 0; n < gets; n++ {
		k := key(rng.Intn(keys))
		get := func() {
			if _, err := sampled.Get(k); err != nil {
				t.Fatal(err)
			}
		}
		// The store read second finds the key's bytes in the CPU caches; a
		// coin, not n's parity, picks it, since the ticker times every 64th.
		first := rng.Intn(2) == 0
		if first {
			get()
		}
		_, p, err := timed.GetProfiled(k)
		if err != nil {
			t.Fatal(err)
		}
		full = append(full, time.Duration(p.TotalNanos))
		if !first {
			get()
		}
	}
	slices.Sort(full)

	m := sampled.Metrics()
	lat := m.GetLat
	if lat.Count != gets || m.ReadAmp.TimedGets != gets/64 {
		t.Fatalf("sampled store: GetLat.Count %d, %d timed; want %d and %d", lat.Count, m.ReadAmp.TimedGets, gets, gets/64)
	}
	if tl := timed.Metrics().GetLat; tl.Count != gets {
		t.Fatalf("timed store: GetLat.Count %d, want %d", tl.Count, gets)
	}
	n := float64(m.ReadAmp.TimedGets)
	at := func(q float64) time.Duration {
		i := int(math.Round(q * float64(len(full)-1)))
		return full[max(0, min(i, len(full)-1))]
	}
	for _, c := range []struct {
		q   float64
		got time.Duration
	}{{0.5, lat.P50}, {0.9, lat.P90}, {0.99, lat.P99}} {
		se := 4 * math.Sqrt(c.q*(1-c.q)/n)
		lo, hi := at(c.q-se), at(c.q+se)
		if c.got < lo-lo/16 || c.got > hi+hi/16 {
			t.Errorf("sampled p%g = %s, outside the timed run's p%.1f..p%.1f = %s..%s",
				100*c.q, c.got, 100*(c.q-se), 100*min(1, c.q+se), lo, hi)
		}
	}

	var sb strings.Builder
	WriteProm(&sb, m)
	prom := map[string]float64{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if name, v, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "rocksmash_get_latency_seconds") {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			prom[name] = f
		}
	}
	for name, want := range map[string]float64{
		`rocksmash_get_latency_seconds{quantile="0.5"}`:  lat.P50.Seconds(),
		`rocksmash_get_latency_seconds{quantile="0.9"}`:  lat.P90.Seconds(),
		`rocksmash_get_latency_seconds{quantile="0.99"}`: lat.P99.Seconds(),
		`rocksmash_get_latency_seconds_count`:            gets,
		`rocksmash_get_latency_seconds_sum`:              lat.Mean.Seconds() * gets,
	} {
		if got, ok := prom[name]; !ok || math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
}
