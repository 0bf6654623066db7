package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"rocksmash/internal/event"
	"rocksmash/internal/vitals"
)

// tmpPrefix marks an in-progress (or crash-abandoned) bundle directory.
// Listing ignores these: a bundle only exists once the one atomic rename
// at the end of WriteBundle commits it.
const tmpPrefix = ".tmp-"

// BundleConfig bounds postmortem dumping.
type BundleConfig struct {
	// Dir is the directory bundles are written under ("" disables).
	Dir string
	// MaxBundles caps retained bundle directories; the oldest are pruned.
	MaxBundles int
	// MaxEventBytes soft-caps the events.jsonl file; the oldest entries
	// are dropped first.
	MaxEventBytes int64
}

// BundleInputs is everything a self-contained postmortem needs.
type BundleInputs struct {
	Incident Incident
	// Active is the set of detector rules active at the trigger.
	Active []string
	// Counts is fires-per-rule so far.
	Counts map[string]int64
	// Events is the flight ring at the trigger, oldest first.
	Events []Entry
	// Vitals is the retained sample history.
	Vitals []vitals.Sample
	// MetricsJSON is the marshalled Metrics() snapshot.
	MetricsJSON []byte
	// StatsText is the DumpStats() report.
	StatsText string
	// ManifestText is the level shape: files, bytes and tier per level.
	ManifestText string
}

// BundleManifest is the bundle's incident.json: the trigger plus the
// captured-window span, so tools can verify the ring demonstrably holds
// the moments preceding the incident.
type BundleManifest struct {
	Incident Incident `json:"incident"`
	Active   []string `json:"active,omitempty"`
	// EventsFrom/EventsTo span the captured event ring (unix nanos);
	// EventCount and EventsDroppedByCap record truncation.
	EventsFrom         int64            `json:"events_from,omitempty"`
	EventsTo           int64            `json:"events_to,omitempty"`
	EventCount         int              `json:"event_count"`
	EventsDroppedByCap int              `json:"events_dropped_by_cap,omitempty"`
	VitalsFrom         int64            `json:"vitals_from,omitempty"`
	VitalsTo           int64            `json:"vitals_to,omitempty"`
	VitalsCount        int              `json:"vitals_count"`
	Counts             map[string]int64 `json:"counts,omitempty"`
	WrittenUnixNano    int64            `json:"written_unix_nano"`
}

// crashAfterFiles simulates a crash mid-bundle for the atomicity sweep:
// when > 0, the write of the crashAfterFiles-th file (1-based) fails,
// leaving the tmp directory half-written exactly as a real crash would.
var crashAfterFiles int

var errCrashPoint = fmt.Errorf("flight: simulated crash point")

func bundleName(inc Incident) string {
	return fmt.Sprintf("incident-%d-%s", inc.UnixNano/int64(time.Millisecond), inc.Rule)
}

// WriteBundle dumps a postmortem directory for inc and returns its path.
// All files land in a hidden temp directory first; one atomic rename
// commits the bundle, so a crash at any point leaves either no bundle or a
// complete one — never a half-written directory that lists as an incident.
// Retention (MaxBundles) is pruned after a successful commit. WriteBundle
// is not safe for concurrent use with itself; the engine serializes dumps
// on the detector tick goroutine.
func WriteBundle(cfg BundleConfig, in BundleInputs) (string, error) {
	if cfg.Dir == "" {
		return "", fmt.Errorf("flight: bundle dir not configured")
	}
	name := bundleName(in.Incident)
	final := filepath.Join(cfg.Dir, name)
	tmp := filepath.Join(cfg.Dir, tmpPrefix+name)
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}

	eventsFile, droppedByCap, from, to := encodeEvents(in.Events, cfg.MaxEventBytes)
	man := BundleManifest{
		Incident:           in.Incident,
		Active:             in.Active,
		Counts:             in.Counts,
		EventsFrom:         from,
		EventsTo:           to,
		EventCount:         len(in.Events) - droppedByCap,
		EventsDroppedByCap: droppedByCap,
		VitalsCount:        len(in.Vitals),
		WrittenUnixNano:    time.Now().UnixNano(),
	}
	if len(in.Vitals) > 0 {
		man.VitalsFrom = in.Vitals[0].UnixNano
		man.VitalsTo = in.Vitals[len(in.Vitals)-1].UnixNano
	}
	manJSON, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return "", err
	}
	vitJSON, err := json.Marshal(struct {
		Samples []vitals.Sample `json:"samples"`
	}{in.Vitals})
	if err != nil {
		return "", err
	}
	var goroutines, heap bytes.Buffer
	if p := pprof.Lookup("goroutine"); p != nil {
		p.WriteTo(&goroutines, 1)
	}
	pprof.WriteHeapProfile(&heap)

	for i, f := range []struct {
		name string
		data []byte
	}{
		{"incident.json", manJSON},
		{"events.jsonl", eventsFile},
		{"vitals.json", vitJSON},
		{"metrics.json", in.MetricsJSON},
		{"stats.txt", []byte(in.StatsText)},
		{"manifest.txt", []byte(in.ManifestText)},
		{"goroutines.txt", goroutines.Bytes()},
		{"heap.pprof", heap.Bytes()},
	} {
		if i+1 == crashAfterFiles {
			return "", errCrashPoint
		}
		if err := os.WriteFile(filepath.Join(tmp, f.name), f.data, 0o644); err != nil {
			return "", err
		}
	}

	// The commit point: everything above is invisible until this rename.
	if err := os.Rename(tmp, final); err != nil {
		return "", err
	}
	pruneBundles(cfg.Dir, cfg.MaxBundles)
	return final, nil
}

// encodeEvents renders the ring as events.jsonl — one event.Record line per
// entry, so bundle traces decode with the same tooling as live traces —
// dropping the oldest lines first to stay within maxBytes (<= 0 means
// uncapped). It returns the file, the first kept entry's index (how many
// were dropped) and the kept entries' time span.
func encodeEvents(events []Entry, maxBytes int64) (file []byte, dropped int, from, to int64) {
	lines := make([][]byte, len(events))
	total := int64(0)
	dropped = len(events)
	for i := len(events) - 1; i >= 0; i-- {
		// An entry that fails to encode keeps its place and writes nothing.
		line, _ := event.Encode(events[i].UnixNano, events[i].Type, events[i].Data)
		if line != nil {
			total += int64(len(line)) + 1
		}
		if maxBytes > 0 && total > maxBytes {
			break
		}
		lines[i], dropped = line, i
	}
	var b bytes.Buffer
	b.Grow(int(total))
	for _, line := range lines[dropped:] {
		if line != nil {
			b.Write(line)
			b.WriteByte('\n')
		}
	}
	if kept := events[dropped:]; len(kept) > 0 {
		from, to = kept[0].UnixNano, kept[len(kept)-1].UnixNano
	}
	return b.Bytes(), dropped, from, to
}

// BundleMeta is one committed bundle, as listed.
type BundleMeta struct {
	Dir      string         `json:"dir"`
	Manifest BundleManifest `json:"manifest"`
}

// ListBundles returns the committed bundles under dir, oldest first.
// In-progress or crash-abandoned temp directories and any directory
// without a parseable incident.json are ignored — a half-written bundle
// is never reported as an incident.
func ListBundles(dir string) ([]BundleMeta, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []BundleMeta
	for _, e := range ents {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "incident-") {
			continue
		}
		man, err := ReadBundleManifest(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		out = append(out, BundleMeta{Dir: filepath.Join(dir, e.Name()), Manifest: man})
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Manifest.Incident.UnixNano < out[j].Manifest.Incident.UnixNano
	})
	return out, nil
}

// ReadBundleManifest parses a bundle directory's incident.json.
func ReadBundleManifest(dir string) (BundleManifest, error) {
	var man BundleManifest
	data, err := os.ReadFile(filepath.Join(dir, "incident.json"))
	if err != nil {
		return man, err
	}
	if err := json.Unmarshal(data, &man); err != nil {
		return man, err
	}
	if man.Incident.Rule == "" {
		return man, fmt.Errorf("flight: %s: incident.json missing rule", dir)
	}
	return man, nil
}

// pruneBundles removes the oldest committed bundles beyond keep, plus any
// stale temp directories left behind by crashes (identifiable because the
// single-writer contract means no dump is in flight during a prune).
func pruneBundles(dir string, keep int) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	var committed []string
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			os.RemoveAll(filepath.Join(dir, e.Name()))
			continue
		}
		if strings.HasPrefix(e.Name(), "incident-") {
			committed = append(committed, e.Name())
		}
	}
	if keep <= 0 || len(committed) <= keep {
		return
	}
	// Bundle names embed the trigger's unix-milli timestamp, so the
	// lexicographic sort of equal-width numeric prefixes is chronological.
	sort.Strings(committed)
	for _, name := range committed[:len(committed)-keep] {
		os.RemoveAll(filepath.Join(dir, name))
	}
}
