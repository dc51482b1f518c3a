#!/bin/sh
# bench_guard.sh — the performance regression gate.
#
# Runs the Small campaign bench at 1 and 2 workers (per-probe baseline
# and cached rows for ICMP and UDP Paris, plus churned ICMP rows) and the
# Large scale row, and enforces these properties:
#
#  1. Scaling: the 2-worker cache-on row must not regress below the
#     1-worker row beyond a small noise tolerance. Adding a worker must
#     never make the cached campaign slower — the sharded bootstrap and
#     the pooled replicas' warm caches have to pull their weight even on
#     a single-CPU box.
#
#  2. Churn: under an identical churn schedule, the delta row (masking)
#     must not fall below the flush-the-world baseline at 2 workers.
#     Masking exists to keep every replica's pristine cache state, and
#     the replica pool, warm across topology events: a fail/repair cycle
#     only hides what crossed the failed AS until the repair, where
#     flush-world drops every cache and rebuilds every pooled replica on
#     every event; if flushing everything is just as fast, the masking
#     machinery is dead weight. Gated at 2 workers because that is where
#     flush-world pays twice — cold caches on every replica and a rebuilt
#     pool — and where the measured margin is widest (structural, not
#     noise).
#
#  3. Memory: the bytes/router footprint of one retained replica at the
#     Large (~10⁴ router) rung must stay under a committed ceiling. The struct-of-arrays arenas exist to keep replica cost
#     flat; per-object cloning creeping back in shows up here first.
#
#  4. UDP cache: the UDP cache row must beat the UDP per-probe baseline
#     by a real margin at 1 worker. Like every cached row, it is timed
#     after an untimed warm-up run on the same pooled replicas, so its
#     timed runs replay the flow cache's memo (the committed rows read 0
#     cache misses per run). The gate therefore guards warm UDP replay
#     against per-probe simulation; it cannot see the UDP cold path
#     (each port-cycle slot's first probe runs live), and it would stay
#     green if that path regressed. No gate covers the UDP cold path
#     until perfbench gains a UDP workload.
#
#  5. Wire codec: encoding the Large fabric to the versioned snapshot
#     wire blob must stay within ENCODE_FACTOR× of the in-process
#     structural snapshot. The codec is the distributed
#     engine's world transfer; it exists to be memcpy-grade (length-
#     prefixed sections carved from the same arenas Snapshot copies),
#     and reflection or per-object serialization creeping in would
#     show up here long before campaigns visibly drag.
#
#  6. Giga (opt-in via WORMHOLE_GIGA=1): the ~10⁶-router lazy rung must
#     build inside its wall-clock budget with only a sliver of the stub
#     universe resident, and the retained replica must stay
#     under its own bytes/RESIDENT-router ceiling. The ceiling is far
#     above Large's: the Giga resident set is almost entirely the
#     transit core, and a core router's BGP/LDP state scales with the
#     ~10³ core-AS aggregates it holds routes and labels for — measured
#     ~110 k bytes each, versus Large's stub-dominated ~4.7 k. The gate
#     catches replicas silently re-acquiring universe-sized state (the
#     descriptor table, the span index, or worse, materialized stubs).
#     Opt-in because the build alone takes ~25 s.
#
# ICMP Paris's cold path, the flow cache's frontier fast-forward, has no
# row of its own here: with the cache off the fabric is the per-probe
# oracle, so a "cold path" row would equal the baseline. Its cost is
# guarded end to end by perfbench's large-cold workload.
#
# Tolerances: the 2w cache-on row must reach TOLERANCE% of 1w (97%
# absorbs scheduler jitter at runs=8 on a loaded box; the pre-fix
# inversion was -37%). The churned delta row must reach CHURN_FLOOR%
# of the churned flush-world row at 2 workers (100%: delta must at
# least match the baseline — it wins by masking, which keeps the pool
# and every replica's pristine cache state warm). The UDP cache row must
# reach UDP_FLOOR% of the UDP per-probe baseline at 1 worker.
# The Large replica must stay under MEM_CEILING heap bytes per router.
#
# Usage: ./scripts/bench_guard.sh   (repo root; also run by check.sh)
set -eu

TOLERANCE=97
CHURN_FLOOR=100
UDP_FLOOR=150
# Heap bytes per router for one retained Large replica: measured ~4.7k
# with the fabric-wide arenas (was >20k with per-object cloning); 7k
# leaves headroom for real feature growth while catching any return of
# per-router heap objects.
MEM_CEILING=7000
# Wire-codec budget: Large encode_ms + decode_ms must stay within this
# factor of snapshot_ms (measured ~1.5×: encode well under 1× — the blob
# writer linearizes the same arenas Snapshot copies — and decode about
# 1×, a snapshot-shaped arena carve from the blob).
ENCODE_FACTOR=2
# Wall-clock budget for the Giga lazy build (ms).
GIGA_BUILD_MS=60000
# Heap bytes per RESIDENT router for one retained Giga replica: the
# resident set is the BGP/LDP-rich core (~110k measured, see gate 6's
# comment); 160k leaves growth headroom while catching any return of
# per-replica universe-sized state.
GIGA_MEM_CEILING=160000
OUT=.bench_guard.json
OUT_MEM=.bench_guard_mem.json
OUT_GIGA=.bench_guard_giga.json
trap 'rm -f "$OUT" "$OUT_MEM" "$OUT_GIGA"' EXIT

# campaign_gates runs the bench matrix once and evaluates the three
# throughput gates. runs=8: each gate divides two noisy throughputs, and
# at runs=4 single-CPU scheduler jitter produced false failures (observed
# spread ±20% per row); eight runs per row damps the per-invocation
# noise. The rows are measured sequentially, so host-level CPU
# throttling that sets in mid-measurement skews the late (2-worker) rows
# low — the caller retries once before believing a failure.
campaign_gates() {
    # -dist "": the throughput gates key on the in-process rows only; the
    # wire codec has its own gate against the Large scales row below.
    go run ./cmd/wormhole bench -scale small -runs 8 -workers 1,2 -dist "" -out "$OUT"

    # The report's campaign rows carry "workers", "method", "flow_cache",
    # "churn", "churn_flush_world", and "probes_per_sec" in a stable field
    # order; key the rates on all five.
    awk -v tol="$TOLERANCE" -v chfloor="$CHURN_FLOOR" -v udpfloor="$UDP_FLOOR" '
    /"workers":/       { gsub(/[^0-9]/, ""); w = $0 }
    /"method": "icmp"/ { m = "icmp" }
    /"method": "udp"/  { m = "udp" }
    /"flow_cache": true/  { cached = 1 }
    /"flow_cache": false/ { cached = 0 }
    /"churn": true/    { churn = 1 }
    /"churn": false/   { churn = 0 }
    /"churn_flush_world": true/  { flush = 1 }
    /"churn_flush_world": false/ { flush = 0 }
    /"probes_per_sec":/ {
        gsub(/[^0-9.]/, "")
        rate[w "," m "," cached "," churn "," flush] = $0 + 0
    }
    END {
        if (!(("1,icmp,1,0,0") in rate) || !(("2,icmp,1,0,0") in rate)) {
            print "bench_guard: missing cache-on rows for workers 1 and 2"
            exit 1
        }
        pct = 100 * rate["2,icmp,1,0,0"] / rate["1,icmp,1,0,0"]
        printf "bench_guard: cache-on %.0f probes/s at 1w, %.0f at 2w (%.1f%%, floor %d%%)\n", \
            rate["1,icmp,1,0,0"], rate["2,icmp,1,0,0"], pct, tol
        if (pct < tol) {
            print "bench_guard: FAIL — 2-worker campaign regressed below 1 worker"
            exit 1
        }
        if (!(("2,icmp,1,1,0") in rate) || !(("2,icmp,1,1,1") in rate)) {
            print "bench_guard: missing churn rows for the invalidation gate"
            exit 1
        }
        churnpct = 100 * rate["2,icmp,1,1,0"] / rate["2,icmp,1,1,1"]
        printf "bench_guard: churn %.0f probes/s flush-world, %.0f delta at 2w (%.1f%%, floor %d%%)\n", \
            rate["2,icmp,1,1,1"], rate["2,icmp,1,1,0"], churnpct, chfloor
        if (churnpct < chfloor) {
            print "bench_guard: FAIL — masking fell below flush-the-world under churn"
            exit 1
        }
        if (!(("1,udp,0,0,0") in rate) || !(("1,udp,1,0,0") in rate)) {
            print "bench_guard: missing udp rows for the udp cache gate"
            exit 1
        }
        udppct = 100 * rate["1,udp,1,0,0"] / rate["1,udp,0,0,0"]
        printf "bench_guard: udp cache %.0f probes/s per-probe, %.0f cached (%.1f%%, floor %d%%)\n", \
            rate["1,udp,0,0,0"], rate["1,udp,1,0,0"], udppct, udpfloor
        if (udppct < udpfloor) {
            print "bench_guard: FAIL — udp cache no longer beats the udp per-probe baseline"
            exit 1
        }
    }
' "$OUT"
}

# A genuine regression (the pre-fix inversion was -37%) fails both
# attempts; a transient throttled window fails at most one.
if ! campaign_gates; then
    echo "bench_guard: retrying the campaign gates once (transient load?)"
    campaign_gates
fi

# Memory gate: build the Large rung once (no campaign) and check the
# retained-replica footprint reported in the scales row.
go run ./cmd/wormhole bench -scales large -scales-only -out "$OUT_MEM"

awk -v ceiling="$MEM_CEILING" '
    /"bytes_per_router":/ {
        gsub(/[^0-9.]/, "")
        bpr = $0 + 0
        found = 1
    }
    END {
        if (!found) {
            print "bench_guard: missing bytes_per_router in the scales row"
            exit 1
        }
        printf "bench_guard: large replica %.0f bytes/router (ceiling %d)\n", bpr, ceiling
        if (bpr > ceiling) {
            print "bench_guard: FAIL — replica bytes/router exceeded the committed ceiling"
            exit 1
        }
    }
' "$OUT_MEM"

# Wire-codec gate: same Large scales row — encode plus decode must stay
# within ENCODE_FACTOR× of the structural snapshot.
awk -v factor="$ENCODE_FACTOR" '
    /"snapshot_ms":/ { v = $0; gsub(/[^0-9.]/, "", v); snap = v + 0 }
    /"encode_ms":/   { v = $0; gsub(/[^0-9.]/, "", v); enc = v + 0; found = 1 }
    /"decode_ms":/   { v = $0; gsub(/[^0-9.]/, "", v); dec = v + 0 }
    END {
        if (!found || snap <= 0) {
            print "bench_guard: missing encode_ms/snapshot_ms in the scales row"
            exit 1
        }
        printf "bench_guard: large wire codec encode %.1fms + decode %.1fms vs snapshot %.1fms (budget %dx)\n", \
            enc, dec, snap, factor
        if (enc + dec > factor * snap) {
            print "bench_guard: FAIL — wire encode+decode exceeded its snapshot-relative budget"
            exit 1
        }
    }
' "$OUT_MEM"

# Giga gate, opt-in: build the lazy ~10⁶ rung (no campaign) and check
# the build budget, the resident-router heap ceiling, and that the lazy
# builder actually deferred the stub universe.
if [ "${WORMHOLE_GIGA:-}" != "" ]; then
    go run ./cmd/wormhole bench -scales giga -scales-only -out "$OUT_GIGA"

    awk -v ceiling="$GIGA_MEM_CEILING" -v budget="$GIGA_BUILD_MS" '
        /"build_ms":/         { v = $0; gsub(/[^0-9.]/, "", v); build = v + 0 }
        /"resident_routers":/ { v = $0; gsub(/[^0-9]/, "", v); resident = v + 0 }
        /"routers":/          { v = $0; gsub(/[^0-9]/, "", v); total = v + 0 }
        /"bytes_per_router":/ { v = $0; gsub(/[^0-9.]/, "", v); bpr = v + 0; found = 1 }
        END {
            if (!found) {
                print "bench_guard: missing giga scales row"
                exit 1
            }
            printf "bench_guard: giga build %.0fms (budget %dms), %d of %d routers resident, %.0f bytes/resident-router (ceiling %d)\n", \
                build, budget, resident, total, bpr, ceiling
            if (build > budget) {
                print "bench_guard: FAIL — giga build exceeded its wall-clock budget"
                exit 1
            }
            if (bpr > ceiling) {
                print "bench_guard: FAIL — giga replica exceeded the bytes/resident-router ceiling"
                exit 1
            }
            if (resident * 50 > total) {
                print "bench_guard: FAIL — giga build materialized too much of the universe (laziness broken)"
                exit 1
            }
        }
    ' "$OUT_GIGA"
fi
