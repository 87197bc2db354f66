#!/usr/bin/env bash
# Live-heap high-water-mark profile of one command:
#
#   scripts/heap_peak.sh .bench_build/cheetah_perf --workload put_storm --seed 1
#
# Builds scripts/heap_peak.c into a temporary LD_PRELOAD library, runs the
# command under it, and after the command exits prints the call stacks that
# held the most live heap bytes at the process's live-heap peak (to within
# 1 MiB), each symbolized with addr2line. Only
# heap blocks count: what malloc and friends hand out, not mmap'd memory or
# the allocator's own slack, so the peak sits below the process's peak RSS.
# Frames need debug info (-g) to get file:line; without it addr2line prints
# function names only.
#
# Environment: HEAP_PEAK_TOP (stacks reported, default 20). Each stack keeps
# 16 frames.
# The command's own output passes through; the report follows on stdout, and
# the exit status is the command's.
set -euo pipefail

if [[ $# -eq 0 ]]; then
  echo "usage: $0 <command> [args...]" >&2
  exit 2
fi

here="$(cd "$(dirname "$0")" && pwd)"
work="$(mktemp -d "${TMPDIR:-/tmp}/heap_peak.XXXXXX")"
trap 'rm -rf "$work"' EXIT

cc -O2 -shared -fPIC -o "$work/heap_peak.so" "$here/heap_peak.c" -ldl -lpthread

status=0
HEAP_PEAK_RAW="$work/raw.txt" LD_PRELOAD="$work/heap_peak.so" "$@" || status=$?
if [[ ! -s "$work/raw.txt" ]]; then
  echo "heap_peak: the command wrote no profile (did it exit through exit()?)" >&2
  exit $(( status != 0 ? status : 1 ))
fi

python3 - "$work/raw.txt" <<'PY'
import collections
import subprocess
import sys

sites = []
with open(sys.argv[1]) as f:
    header = f.readline().split()
    for line in f:
        parts = line.split()
        if parts[0] == "site":
            sites.append((int(parts[2]), int(parts[3]), []))
        elif parts[0] == "frame":
            sites[-1][2].append((parts[1], parts[2]))
stats = dict(zip(header[0::2], header[1::2]))
peak = int(stats["peak"])

# One addr2line call per object file; -i expands inlined frames.
names = {}
by_module = collections.defaultdict(set)
for _, _, frames in sites:
    for module, offset in frames:
        by_module[module].add(offset)
for module, offsets in by_module.items():
    offsets = sorted(offsets)
    try:
        out = subprocess.run(["addr2line", "-f", "-C", "-i", "-a", "-e", module] + offsets,
                             capture_output=True, text=True, check=True).stdout.splitlines()
    except (OSError, subprocess.CalledProcessError):
        out = []
    current = None
    i = 0
    while i < len(out):
        if out[i].startswith("0x"):
            current = (module, "0x%x" % int(out[i], 16))
            names[current] = []
            i += 1
            continue
        func = out[i]
        where = out[i + 1] if i + 1 < len(out) else "??"
        where = where.split(" (discriminator")[0]
        names[current].append(func if where.startswith("??") else "%s  at %s" % (func, where))
        i += 2

mib = 1024.0 * 1024.0
print("heap_peak: live-heap peak %.1f MiB (snapshot at %.1f MiB), %s allocations, %s stacks"
      % (peak / mib, int(stats["at_snapshot"]) / mib, stats["allocations"], stats["stacks"]))
for rank, (live, blocks, frames) in enumerate(sites, 1):
    print("site %d: %.2f MiB in %d blocks (%.1f%% of peak)"
          % (rank, live / mib, blocks, 100.0 * live / peak if peak else 0.0))
    # Frames below main are the same for every stack.
    for module, offset in frames:
        key = (module, "0x%x" % int(offset, 16))
        chain = names.get(key) or ["?? %s+%s" % (module, offset)]
        for name in chain:
            print("    " + name)
        if chain[-1].startswith("main "):
            break
PY
exit "$status"
