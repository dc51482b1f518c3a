#!/bin/sh
# check.sh — the full local gate, in the order CI would run it:
# build everything, vet, the gofmt gate, the dead-package guard (every
# package under internal/ must be imported by the non-test code of some
# package in ./..., so code only its own tests exercise cannot linger),
# then the performance guard
# (bench_guard.sh fails if the 2-worker cached campaign regresses below
# the 1-worker row, if churn masking falls below flush-the-world
# under churn, if the UDP cache row stops beating the UDP per-probe
# baseline, if the Large replica's bytes/router exceeds the
# committed ceiling, or if the Large wire codec exceeds its
# snapshot-relative budget) — run
# first because its throughput ratios are timing-sensitive and the
# compile-heavy coverage/race phases below leave a single-CPU box in a
# throttled window that skews them. Then the perfbench module's vet and
# smoke test: perfbench is a separate module that `go build ./...` skips,
# and its TestSmoke runs every workload at Small, so a change to the API
# it compiles against fails here rather than only in a benchmark run.
# Then the test suite with coverage
# aggregation (per-package floors on the engine and data-plane packages guard against
# silently shedding tests; the suite is not -short, so it includes the
# race tier: TestRaceTier shells out to `go test -race` over the
# concurrency-heavy packages), then short native-fuzz smokes over churn
# masking, the snapshot wire decoder, the bootstrap link-map replay, the
# distributed coordinator's and worker's inbound frame paths, engine
# equivalence over generated worlds and the dataset reader. Then the distributed smoke: a real 2-process
# campaign over a Unix socket byte-compared to serial. Last, REPORT.md
# regenerated with the same binary and byte-compared to the committed
# file.
#
# Usage: ./scripts/check.sh
set -eux

go build ./...
go vet ./...
unformatted=$(gofmt -l cmd examples internal perfbench ./*.go)
if [ -n "$unformatted" ]; then
    echo "check: FAIL — not gofmt-clean: $unformatted"
    exit 1
fi

dead=$(go list ./internal/... | grep -vxF "$(go list -f '{{join .Imports "\n"}}' ./...)" || true)
if [ -n "$dead" ]; then
    echo "check: FAIL — no non-test importer in ./...: $dead"
    exit 1
fi

./scripts/bench_guard.sh

(cd perfbench && go vet . && go test .)

# Full suite with an aggregated coverage profile, then per-package floors
# on the engine packages and the data plane. The suite runs the race tier (TestRaceTier). The floors sit safely under the measured values
# (netsim ~75%, campaign ~90%, topo ~99%, router ~53%, packet ~72% by
# function) — they catch wholesale test loss, not incremental drift.
COVOUT=$(mktemp)
trap 'rm -f "$COVOUT"' EXIT
go test -coverprofile="$COVOUT" ./...

check_floor() {
    pkg="$1"
    floor="$2"
    pct=$(go tool cover -func="$COVOUT" |
        awk -v pre="wormhole/internal/$pkg/" '
            index($1, pre) == 1 { split($NF, a, "%"); sum += a[1]; n++ }
            END { if (n) printf "%.1f", sum / n; else print "0" }')
    echo "coverage: internal/$pkg ~${pct}% by function (floor ${floor}%)"
    awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p + 0 >= f + 0) }' || {
        echo "check: FAIL — internal/$pkg coverage ${pct}% below floor ${floor}%"
        exit 1
    }
}
check_floor netsim 50
check_floor campaign 85
check_floor topo 85
check_floor router 45
check_floor packet 60

# Native-fuzz smokes: ten seconds each of the churn-masking differential
# fuzzer (a cached fabric against the cache-off oracle under
# gen.BuildChurnPlan schedules), the wire-format reader fuzzer, the
# snapshot decoder fuzzer (section payloads mutated and re-sealed past
# their checksums), the link-map replay differential (link maps of
# consecutive runs of traces against AddTrace over the traces one by
# one), the coordinator and worker inbound-path fuzzers, the
# engine differential (drawn generator Params and campaign configs, every
# engine against the cache-off serial run on a fresh build) and the JSONL
# dataset reader behind `wormhole analyze`.
# Regressions in the masking rule surface here long before a campaign
# happens to probe the right flow or churn the right link; a
# blob or frame that panics or hangs a decoder surfaces before a real
# peer sends one.
go test ./internal/wirefmt/ -run='^$' -fuzz=FuzzReader -fuzztime=10s
go test ./internal/gen/ -run='^$' -fuzz=FuzzDecodeWire -fuzztime=10s
go test ./internal/topo/ -run='^$' -fuzz=FuzzLinkMapReplay -fuzztime=10s
# The masking, inbound, engine and dataset fuzzers' inputs are whole probe
# sequences, sessions, campaigns and datasets; bound the minimization of
# each new input so the smokes spend their time mutating.
go test ./internal/netsim/ -run='^$' -fuzz=FuzzChurnMasking -fuzztime=10s -fuzzminimizetime=100x
go test ./internal/campaign/ -run='^$' -fuzz=FuzzCoordinatorInbound -fuzztime=10s -fuzzminimizetime=100x
go test ./internal/campaign/ -run='^$' -fuzz=FuzzServeWorkerInbound -fuzztime=10s -fuzzminimizetime=100x
go test ./internal/campaign/ -run='^$' -fuzz=FuzzEngineEquivalence -fuzztime=10s -fuzzminimizetime=100x
go test ./internal/tracefile/ -run='^$' -fuzz=FuzzTracefileRead -fuzztime=10s -fuzzminimizetime=100x

# Distributed smoke: a 2-worker multi-process campaign over a Unix
# socket must byte-match the serial engine's dataset at the Large rung.
# This is the one gate that exercises real OS worker processes (the
# wormhole binary re-execing itself) — the unit tier drives the same
# protocol with goroutine workers.
DISTDIR=$(mktemp -d)
trap 'rm -f "$COVOUT"; rm -rf "$DISTDIR"' EXIT
go build -o "$DISTDIR/wormhole" ./cmd/wormhole
"$DISTDIR/wormhole" campaign -scale large -dist 2 -out "$DISTDIR/dist.jsonl" >/dev/null
"$DISTDIR/wormhole" campaign -scale large -workers 1 -out "$DISTDIR/serial.jsonl" >/dev/null
cmp "$DISTDIR/dist.jsonl" "$DISTDIR/serial.jsonl"
echo "check: distributed campaign byte-identical to serial at large"

# REPORT.md is the output of one command. Regenerating it must reproduce
# the committed file byte for byte, which also checks that all 18
# experiments stay deterministic end to end at the Large rung.
"$DISTDIR/wormhole" experiments -scale large -seed 42 -md "$DISTDIR/REPORT.md" >/dev/null
cmp "$DISTDIR/REPORT.md" REPORT.md
echo "check: REPORT.md regenerated byte-identical"

# Opt-in Giga acceptance: WORMHOLE_GIGA=1 ./scripts/check.sh also runs
# the ~10⁶-router end-to-end test (the bench guard above already ran its
# build/memory gate under the same switch).
if [ "${WORMHOLE_GIGA:-}" != "" ]; then
    go test -run TestGigaScale -v .
fi
