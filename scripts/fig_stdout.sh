#!/usr/bin/env bash
# Runs every bench binary of a build at CHEETAH_BENCH_SCALE=0.1 and writes
# each one's stdout to <outdir>/<bench>.out, so two builds compare with one
# `diff -r`. Benches run in virtual time, so the same source gives
# byte-identical output; a diff means a behavior change. sim_engine_speed
# and micro_components are skipped: they print host timings.
#
# Usage: scripts/fig_stdout.sh <builddir> <outdir>
#   e.g. scripts/fig_stdout.sh build /tmp/figs-new
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: scripts/fig_stdout.sh <builddir> <outdir>" >&2
  exit 2
fi
benchdir="$(cd "$1/bench" && pwd)"
mkdir -p "$2"
outdir="$(cd "$2" && pwd)"

# Benches drop obs/*.obs.json and other artifacts into their cwd; keep them
# out of both the caller's tree and the output directory.
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

count=0
for bin in "$benchdir"/*; do
  name="$(basename "$bin")"
  [[ -f "$bin" && -x "$bin" ]] || continue
  case "$name" in
    sim_engine_speed | micro_components) continue ;;
  esac
  echo "== $name"
  CHEETAH_BENCH_SCALE=0.1 "$bin" >"$outdir/$name.out"
  count=$((count + 1))
done
echo "wrote $count bench outputs to $outdir"
