#!/usr/bin/env bash
# Hardened check: configure with -Werror + ASan/UBSan (the "sanitize" preset
# in CMakePresets.json), build everything, and run the full test suite under
# the sanitizers, then the chaos tier (ctest label `chaos`) with the fixed CI
# seed set so the sanitizer pass over the fault schedules is pinned and
# reproducible. Usage: scripts/check.sh [preset]   (default: sanitize)
set -euo pipefail
cd "$(dirname "$0")/.."

preset="${1:-sanitize}"

cmake --preset "$preset"
cmake --build --preset "$preset" -j "$(nproc)"
ctest --preset "$preset" -j "$(nproc)"

# Chaos tier: the same fixed seeds the suite registered at discovery time,
# made explicit so the pin survives any future default change. Every sweep
# reads its seed list from the one variable CHEETAH_SWEEP_SEEDS.
# scripts/chaos.sh hunts with larger seed ranges. The determinism tests in
# this tier double as engine-fingerprint guards: each sweep replays one run
# under the reference heap engine and requires a byte-identical schedule and
# history versus the default timer wheel.
CHEETAH_SWEEP_SEEDS=1,2,3 ctest --preset "$preset" -L chaos -j "$(nproc)"
builddir=build
[[ "$preset" == "sanitize" ]] && builddir=build-sanitize
# Pinned regression seeds from the RE-META resume path: BaseNetChaos seed 27
# died of a use-after-free (its pending put revoked during the resume's
# MetaX persist), and OWCombined seed 16 read back an object whose revoked
# record a racing resume had written again.
CHEETAH_SWEEP_SEEDS=16,27 "$builddir/tests/chaos_sweep_test" \
  --gtest_filter='*BaseNetChaosSeed27:*OWCombinedSeed16'

# QoS tier: the scheduler/admission unit tests plus the chaos-with-QoS run
# (ctest label `qos`), then the overload figure at reduced scale — the fig21
# binary asserts its own acceptance criteria (foreground p99 isolation,
# background completion after load drops) and exits non-zero on regression.
ctest --preset "$preset" -L qos -j "$(nproc)"
CHEETAH_BENCH_SMOKE=1 "$builddir/bench/fig21_overload"

# Integrity tier: the bit-rot/LSE/gray-corruption sweep (ctest label
# `integrity`, pinned seeds) proving zero corrupt bytes reach clients and all
# at-rest damage is repaired, then the scrub-overhead bench at reduced scale —
# it asserts foreground GET p99 with scrubbing stays within 2x of scrub-off
# and that an injected bit-rot burst is fully repaired before its audit pass.
CHEETAH_SWEEP_SEEDS=1,2 ctest --preset "$preset" -L integrity -j "$(nproc)"
CHEETAH_BENCH_SMOKE=1 "$builddir/bench/scrub_overhead"

# EC/tiering tier: storage-class placement, demotion, degraded-read, and
# demotion-race tests plus the EC chunk-loss chaos sweep (ctest label `ec`,
# pinned seeds), then the storage-class frontier bench at reduced scale — it
# asserts every cold object demotes, EC storage overhead stays <= 1.6x, and
# the inline put path beats the replica put path on latency. Seed 9 is a
# pinned regression: a verification that snapshotted a put before its RE-DATA
# resume revoked it with the stale extents after the put was acked. Seed 17
# is another: two overlapping deletes of one object were both acked. ctest
# only knows the seeds registered at discovery time, so seeds 9 and 17 also
# run through the binary directly.
CHEETAH_SWEEP_SEEDS=1,2,9,17 ctest --preset "$preset" -L ec -j "$(nproc)"
CHEETAH_SWEEP_SEEDS=9 "$builddir/tests/ec_sweep_test" --gtest_filter='*Seed9'
CHEETAH_SWEEP_SEEDS=17 "$builddir/tests/ec_sweep_test" --gtest_filter='*Seed17'
CHEETAH_BENCH_SMOKE=1 "$builddir/bench/ec_tradeoffs"

# Membership/migration tier: failure-detector units, live drain/migration
# tests, and the migration chaos sweep (ctest label `migrate`, pinned seeds —
# larger hunts via CHEETAH_SWEEP_SEEDS), then the resize-under-fire bench at
# reduced scale — it asserts zero failed foreground ops while the cluster
# doubles and a node drains, foreground p99 within 2x of steady state, a
# completed drain, and a clean full audit afterwards.
CHEETAH_SWEEP_SEEDS=1,2 ctest --preset "$preset" -L migrate -j "$(nproc)"
CHEETAH_BENCH_SMOKE=1 "$builddir/bench/resize_under_fire"

# Perf tier: simulator engine internals (timer wheel vs reference heap,
# InlineFn, Arena, AnyMsg, callback lifecycle; ctest label `perf`), then the
# engine microbench at reduced scale — it asserts the legacy/heap/wheel
# fingerprints are bit-identical and that the wheel clears a conservative
# throughput floor over the legacy priority_queue loop.
ctest --preset "$preset" -L perf -j "$(nproc)"
CHEETAH_BENCH_SMOKE=1 "$builddir/bench/sim_engine_speed"

# Bench tier: the repository benchmark (perfbench/) compiles ../src through
# its own CMake project, so a change to the storage model or the message
# types can break it while everything above stays green. Its self-test
# builds it and runs every workload at smoke size, checking each run's
# correctness gate, that repeated runs agree, and that tracing leaves the
# fingerprint unchanged.
python3 perfbench/selftest.py

# Regression seeds: faulted_open at full size on seeds that once lost an
# acked object (a PG rebuild freed the blocks of a put whose MetaX write was
# still waiting for its WAL fsync). Each run must pass its audit.
bench_bin="${CARGO_TARGET_DIR:-.bench_build}/cheetah_perf"
for seed in 2 30 32 34; do
  result="$("$bench_bin" --workload faulted_open --seed "$seed" 2>/dev/null | tail -n 1)" || true
  if ! grep -q '"correct": true' <<<"$result"; then
    echo "faulted_open seed $seed failed its audit: ${result:0:400}" >&2
    exit 1
  fi
done

# Heap-peak profiler smoke: the Release bench binary at a tenth of put_storm
# under scripts/heap_peak.sh must exit cleanly and report at least one call
# site at its live-heap peak.
heap_report="$(scripts/heap_peak.sh "$bench_bin" --workload put_storm --scale 0.1 2>&1)" || {
  echo "heap_peak.sh failed: $(tail -c 400 <<<"$heap_report")" >&2
  exit 1
}
if ! grep -q '^site 1: ' <<<"$heap_report"; then
  echo "heap_peak.sh reported no call site: $(tail -c 400 <<<"$heap_report")" >&2
  exit 1
fi
