#!/usr/bin/env bash
# Chaos hunt: runs every chaos sweep (chaos, migration, EC, integrity)
# for a range of seeds and prints a replay command for every failing
# (sweep, seed). The simulator is fully deterministic, so one seed + the
# printed schedule reproduces a failure byte-for-byte.
#
# Every sweep run prints "sweep=<binary>/<test> seed=<n> history=<hash>"
# (a hash of its schedule and history); the hunt collects those lines in
# chaos-hashes.txt, so two builds' hunts compare with one diff.
#
# Usage: scripts/chaos.sh [--seeds N] [--from K] [--preset default|sanitize]
#   --seeds N    run seeds FROM..FROM+N-1 (default 10)
#   --from K     start at seed K instead of 1 (resume a hunt)
#   --preset P   CMake preset to build/run under (default: default)
set -euo pipefail
cd "$(dirname "$0")/.."

seeds=10
from=1
preset=default
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seeds) seeds="$2"; shift 2 ;;
    --from) from="$2"; shift 2 ;;
    --preset) preset="$2"; shift 2 ;;
    *) echo "usage: scripts/chaos.sh [--seeds N] [--from K] [--preset default|sanitize]" >&2
       exit 2 ;;
  esac
done

sweeps=(chaos_sweep_test migration_sweep_test ec_sweep_test integrity_sweep_test)
builddir=build
[[ "$preset" == "sanitize" ]] && builddir=build-sanitize
if [[ ! -f "$builddir/CMakeCache.txt" ]]; then
  cmake --preset "$preset"
fi
cmake --build --preset "$preset" -j "$(nproc)" --target "${sweeps[@]}"

# One ctest invocation only covers the default seed set (test names are fixed
# at discovery time), so the hunt drives the gtest binaries directly with one
# seed per run — a failure then pins that sweep and seed exactly.
failed=()
hashes=chaos-hashes.txt
: >"$hashes"
log="$(mktemp)"
trap 'rm -f "$log"' EXIT
for ((s = from; s < from + seeds; s++)); do
  for sweep in "${sweeps[@]}"; do
    echo "== $sweep seed $s =="
    if ! CHEETAH_SWEEP_SEEDS="$s" "$builddir/tests/$sweep" --gtest_brief=1 | tee "$log"; then
      failed+=("CHEETAH_SWEEP_SEEDS=$s $builddir/tests/$sweep")
    fi
    grep '^sweep=' "$log" >>"$hashes" || true
  done
done
echo "history hashes: $hashes"

echo
if [[ ${#failed[@]} -eq 0 ]]; then
  echo "chaos hunt clean: ${#sweeps[@]} sweeps, seeds $from..$((from + seeds - 1))"
else
  echo "chaos hunt found ${#failed[@]} failing run(s); replay with:"
  for run in "${failed[@]}"; do
    echo "  $run"
  done
  exit 1
fi
