package db

import (
	"sync/atomic"
	"time"

	"rocksmash/internal/event"
	"rocksmash/internal/histogram"
	"rocksmash/internal/readprof"
	"rocksmash/internal/sstable"
	"rocksmash/internal/storage"
)

// latencies holds the engine's always-on per-operation histograms. Recording
// is lock-free and allocation-free (atomic bucket increments), so these stay
// enabled regardless of whether an EventListener is attached.
type latencies struct {
	get      *histogram.H // DB.Get / DB.GetAt
	put      *histogram.H // DB.Write commit latency (includes stall time)
	flush    *histogram.H // whole flushMemtable units
	compact  *histogram.H // whole doCompaction units
	localGet *histogram.H // local-tier read requests
	localPut *histogram.H // local-tier object creations
	cloudGet *histogram.H // cloud-tier read requests
	cloudPut *histogram.H // cloud-tier object creations
}

func newLatencies() *latencies {
	return &latencies{
		get:      histogram.New(),
		put:      histogram.New(),
		flush:    histogram.New(),
		compact:  histogram.New(),
		localGet: histogram.New(),
		localPut: histogram.New(),
		cloudGet: histogram.New(),
		cloudPut: histogram.New(),
	}
}

// Event fire helpers. Each checks the nil-listener fast path inline so call
// sites stay one line and unset listeners cost a predicted branch and zero
// allocations. Listeners run outside d.mu and the commit pipeline's queue
// lock (see package event for the listener contract).

func (d *shared) evFlushBegin(reason string) {
	if l := d.listener; l != nil {
		l.OnFlushBegin(event.FlushBegin{Reason: reason})
	}
}

func (d *shared) evFlushEnd(table uint64, bytes int64, tier storage.Tier, dur time.Duration) {
	if l := d.listener; l != nil {
		l.OnFlushEnd(event.FlushEnd{Table: table, Bytes: bytes, Tier: tier.String(), Duration: dur})
	}
}

func (d *shared) evCompactionBegin(e event.CompactionBegin) {
	if l := d.listener; l != nil {
		l.OnCompactionBegin(e)
	}
}

func (d *shared) evCompactionEnd(e event.CompactionEnd) {
	if l := d.listener; l != nil {
		l.OnCompactionEnd(e)
	}
}

func (d *shared) evTableUploaded(table uint64, tier storage.Tier, bytes int64, attempts int, dur time.Duration, pending bool) {
	if l := d.listener; l != nil {
		l.OnTableUploaded(event.TableUploaded{
			Table: table, Tier: tier.String(), Bytes: bytes, Attempts: attempts, Duration: dur,
			Pending: pending,
		})
	}
}

func (d *shared) evTableDeleted(table uint64, tier storage.Tier) {
	if l := d.listener; l != nil {
		l.OnTableDeleted(event.TableDeleted{Table: table, Tier: tier.String()})
	}
}

func (d *shared) evCommitGroup(e event.CommitGroup) {
	if l := d.listener; l != nil {
		l.OnCommitGroup(e)
	}
}

func (d *shared) evCloudRetry(op, object string, attempt int, err error) {
	if l := d.listener; l != nil {
		l.OnCloudRetry(event.CloudRetry{Op: op, Object: object, Attempt: attempt, Err: err.Error()})
	}
}

func (d *shared) evBreakerState(tier, from, to string) {
	if l := d.listener; l != nil {
		l.OnBreakerState(event.BreakerState{From: from, To: to, Tier: tier})
	}
}

func (d *shared) evCorruptionDetected(artifact, object string, file uint64, err error) {
	if l := d.listener; l != nil {
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		l.OnCorruptionDetected(event.CorruptionDetected{
			Artifact: artifact, Object: object, File: file, Err: msg,
		})
	}
}

func (d *shared) evCorruptionRepaired(artifact, object string, file uint64, source string, dur time.Duration) {
	if l := d.listener; l != nil {
		l.OnCorruptionRepaired(event.CorruptionRepaired{
			Artifact: artifact, Object: object, File: file, Source: source, Duration: dur,
		})
	}
}

func (d *shared) evViewBuilt(level, members, entries int, dur time.Duration) {
	if l := d.listener; l != nil {
		l.OnViewBuilt(event.ViewBuilt{Level: level, Members: members, Entries: entries, Duration: dur})
	}
}

// timedFetch wraps a block-fetch function, accumulating time spent blocked
// on fetches into ns. Compaction uses it to separate read wait from merge
// CPU in CompactionEnd stage timings; it is only installed when a listener
// is attached.
func timedFetch(f sstable.FetchFunc, ns *atomic.Int64) sstable.FetchFunc {
	return func(fileNum uint64, hd sstable.Handle, prof *readprof.Profile) ([]byte, error) {
		start := time.Now()
		body, err := f(fileNum, hd, prof)
		ns.Add(time.Since(start).Nanoseconds())
		return body, err
	}
}
