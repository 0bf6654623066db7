# Developer entry points. `make check` is the full gate: vet plus the test
# suite under the race detector (the I/O pipeline paths are concurrent).

GO ?= go

.PHONY: all build test race vet bench benchsmoke fuzzsmoke check ab

all: build

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Every package under the race detector: the sharded facade, the vitals
# sampler, the scrubber and drainer, scan-time view builds and the flight
# recorder all run concurrently with the engine, and this one run covers
# them all.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The repo's benchmark (bench/, its own module, outside `go test ./...`) is
# the one external consumer of db.Open/db.Options/db.Metrics: vet it and run
# its 1/50-scale smoke test so an API break shows up here, not in the ledger.
benchsmoke:
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...

# Interleaved pairs of the repository's benchmark, parent commit against the
# working tree, alternating which side runs first (ab.sh says how to read
# the table it prints): make ab W="fill get_hot recover" N=5. No W means all
# six workloads.
N ?= 5
ab:
	bash ab.sh -n $(N) $(W)

# Ten seconds of native fuzzing on each decoder target: the block decoder
# (arbitrary bytes in, no panic, point seek == iterator seek), the table
# index build (no panic, every rejection ErrCorrupt, accepts exactly the
# index Builder writes, ordinal search == linear scan == block iterator
# seek), the table footer decoder (no panic, every error ErrCorrupt, no
# accepted handle outside the table), the WAL record decoder (no panic, no
# record whose checksum fails, writer output round-trips), the batch decoder
# recovery runs over every WAL byte (no panic, no op outside the payload,
# Set/Delete output round-trips), the recovered run's sort (arbitrary
# key, seq and kind tuples come out of Finish in keys.Compare order) and the
# live memtable's skiplist (such tuples inserted from two goroutines iterate
# in keys.Compare order both ways and seek where a sorted copy does). The
# seed corpora (committed under each package's testdata/fuzz, and the
# footer and skiplist targets' f.Add seeds) are replayed by plain `go test`
# already; this looks for new inputs. The index and WAL seeds are whole
# blocks, and each skiplist input takes a fresh arena chunk, so
# minimizing a new input is capped to keep the budget on fuzzing.
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz FuzzBlockSeek -fuzztime 10s ./internal/block
	$(GO) test -run '^$$' -fuzz FuzzIndexDecode -fuzztime 10s -fuzzminimizetime 1s ./internal/sstable
	$(GO) test -run '^$$' -fuzz FuzzFooterDecode -fuzztime 10s ./internal/sstable
	$(GO) test -run '^$$' -fuzz FuzzRecordReader -fuzztime 10s -fuzzminimizetime 1s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzBatchIterate -fuzztime 10s ./internal/batch
	$(GO) test -run '^$$' -fuzz FuzzRunOrder -fuzztime 10s -fuzzminimizetime 1s ./internal/memtable
	$(GO) test -run '^$$' -fuzz FuzzSkiplistOrder -fuzztime 10s -fuzzminimizetime 1s ./internal/skiplist

check: build vet test race benchsmoke
