# Developer entry points. `make check` is the full gate: vet plus the test
# suite under the race detector (the I/O pipeline paths are concurrent).

GO ?= go

.PHONY: all build test race vet bench shardcheck vitalscheck scrubcheck scancheck flightcheck benchsmoke check

all: build

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Keyspace-sharding matrix: the sharded facade's merge/fan-out paths are
# concurrent, so run the shard suite under the race detector explicitly.
shardcheck:
	$(GO) test -race -count=1 -run 'Shard' ./internal/db ./internal/cache ./internal/pcache

# Vitals/observability suite: the sampler, the stats read surfaces, and the
# exposition endpoints are all concurrent with the engine — race-run them.
vitalscheck:
	$(GO) test -race -count=1 -run 'Vitals|Dump|Stats|LevelWriteAmp|Derive|Ring|Sampler|Windows|Prom' ./internal/db ./internal/vitals ./internal/obs

# Self-healing local-tier suite: corruption scrub/repair, disk-full
# degradation, and the local crash-point sweep — concurrent with the engine's
# background scrubber and drainer, so race-run it.
scrubcheck:
	$(GO) test -race -count=1 -run 'LocalFault|Scrub|Corrupt|Quarantine|Mirror|Spill|LocalDegraded|SyncFail|WriteBudget' ./internal/db ./internal/wal ./internal/storage ./internal/pcache

# Range-scan suite: sorted-view sidecars, the view-backed iterator, the
# loser-tree merge, and the scan model equivalence traces — view builds and
# invalidation run concurrently with scans, so race-run them.
scancheck:
	$(GO) test -race -count=1 -run 'View|Scan|Merging' ./internal/db ./internal/sstable ./internal/manifest

# Flight-recorder suite: the event ring tap, detector hysteresis, bundle
# commit, and the health/incident surfaces all run concurrently with the
# engine and the vitals sampler — race-run them end to end.
flightcheck:
	$(GO) test -race -count=1 -run 'Flight|Incident|Detector|Bundle|Doctor|Health|Recorder|Ring|Rotat' ./internal/flight ./internal/event ./internal/db ./internal/obs

# The repo's benchmark (bench/, its own module, outside `go test ./...`) is
# the one external consumer of db.Open/db.Options/db.Metrics: vet it and run
# its 1/50-scale smoke test so an API break shows up here, not in the ledger.
benchsmoke:
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...

check: build vet test race shardcheck vitalscheck scrubcheck scancheck flightcheck benchsmoke
