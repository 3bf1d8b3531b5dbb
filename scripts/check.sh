#!/usr/bin/env sh
# Full verification gate: build, vet, the race-enabled test suite, and a
# short-budget fuzz smoke over the committed seed corpora plus a few
# seconds of fresh exploration per target.
# CI and pre-commit both run this; keep it the single source of truth.
set -eu
cd "$(dirname "$0")/.."

go build ./...
go vet ./...

# Project-invariant static analysis: lock ordering, determinism in
# simclock-charged packages, storage error discipline, context flow.
# Zero findings is the bar; see DESIGN.md §9 for suppression rules.
sh ./scripts/lint.sh

go test -race ./...

# Microbenchmark smoke: one iteration each, so broken benchmarks fail
# the gate without costing real measurement time.
BENCHTIME=1x sh ./scripts/bench.sh

# Experiment smoke: the restore I/O, replicated-index, erasure-coding,
# ingest and restore fast-path sweeps are sub-second, so run each whole
# as a does-it-still-run check for its BENCH_<exp>.json artifact (written
# to a scratch directory and discarded; CI uploads the real ones).
ART="$(mktemp -d)"
trap 'rm -rf "$ART"' EXIT
for exp in restoreio repl ec ingest restorefast; do
	go run ./cmd/slimbench -exp "$exp" -out "$ART" >/dev/null
done

# Fuzz smoke: seed corpora always run as part of `go test`; the short
# -fuzz bursts below look for fresh counterexamples without blocking the
# gate for long. FUZZTIME=0s skips the bursts (corpora still ran above).
FUZZTIME="${FUZZTIME:-5s}"
if [ "$FUZZTIME" != "0s" ]; then
	go test -run=NONE -fuzz='^FuzzPartition$' -fuzztime "$FUZZTIME" ./internal/chunker/
	go test -run=NONE -fuzz='^FuzzStreamSkip$' -fuzztime "$FUZZTIME" ./internal/chunker/
	go test -run=NONE -fuzz='^FuzzRecipeRoundTrip$' -fuzztime "$FUZZTIME" ./internal/recipe/
	go test -run=NONE -fuzz='^FuzzRecipeDecode$' -fuzztime "$FUZZTIME" ./internal/recipe/
	go test -run=NONE -fuzz='^FuzzReplRecord$' -fuzztime "$FUZZTIME" ./internal/kvstore/
	go test -run=NONE -fuzz='^FuzzECDecode$' -fuzztime "$FUZZTIME" ./internal/ec/
fi
