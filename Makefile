# Developer entry points. `make check` is the full gate: vet plus the test
# suite under the race detector (the I/O pipeline paths are concurrent).

GO ?= go

.PHONY: all build test race vet bench benchsmoke fuzzsmoke check

all: build

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Every package under the race detector: the sharded facade, the vitals
# sampler, the scrubber and drainer, view builds and the flight recorder all
# run concurrently with the engine, and this one run covers them all.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The repo's benchmark (bench/, its own module, outside `go test ./...`) is
# the one external consumer of db.Open/db.Options/db.Metrics: vet it and run
# its 1/50-scale smoke test so an API break shows up here, not in the ledger.
benchsmoke:
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...

# Ten seconds of native fuzzing on the block decoder (arbitrary bytes in, no
# panic, point seek == iterator seek). The committed seed corpus under
# internal/block/testdata/fuzz is replayed by plain `go test` already; this
# looks for new inputs.
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz FuzzBlockSeek -fuzztime 10s ./internal/block

check: build vet test race benchsmoke
