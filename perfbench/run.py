#!/usr/bin/env python3
"""Repository benchmark: runs one workload for a host-time budget and prints
every metric by name with its unit, then one JSON result line.

    python3 perfbench/run.py --workload put_storm --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call builds perfbench/ (which compiles
the system from ../src) into $CARGO_TARGET_DIR, default .bench_build. Each
repetition is one cheetah_perf process: a fresh cluster, the seeded workload,
audit and checks. Repetitions continue until --seconds have passed (at least
three, fewer only if a repetition would overrun the time limit). Virtual-time
metrics and the fingerprint must agree across every repetition of a seed;
host-time metrics are the median over the untraced repetitions.

With --trace 1 the repetitions alternate untraced and traced, and the result
holds the per-layer metrics instead: counts and ratios from the registry,
virtual-time self times from the tracer, host phase times, and
obs.trace_overhead (traced over untraced measured-window CPU time). The spans
of the last traced repetition are written to <build>/traces/.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_REPS = 3
# A run must end well inside 180 s; no repetition starts past this point.
HARD_LIMIT_S = 150.0
# Host-time metrics: medians over repetitions, never compared for equality.
HOST_E2E = ("setup_s", "host_s", "peak_rss_mib")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    out = build_dir()
    cmds = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", out, "--target", "cheetah_perf", "-j", "4"])
    for cmd in cmds:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                           text=True)
        if r.returncode != 0:
            fail("build failed: %s\n%s" % (" ".join(cmd), r.stderr[-4000:]))
    return os.path.join(out, "cheetah_perf")


def run_once(binary, args, traced, trace_out):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--scale", repr(args.scale), "--trace", "1" if traced else "0"]
    if traced:
        cmd += ["--trace-out", trace_out]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=HARD_LIMIT_S)
    if r.returncode != 0 or not r.stdout.strip():
        fail("%s exited %d\n%s" % (" ".join(cmd), r.returncode, r.stderr[-4000:]))
    rep = json.loads(r.stdout.strip().splitlines()[-1])
    rep["stderr"] = r.stderr
    return rep


def median(values):
    return statistics.median(values) if values else 0.0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiplies every op count (the self-test uses a small scale)")
    args = p.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("no BENCHMARK.json at " + ROOT)
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    trace_out = os.path.join(build_dir(), "traces",
                             "%s-seed%d.json" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)

    reps = []
    start = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        want_more = elapsed < args.seconds or len(reps) < MIN_REPS
        if not want_more or elapsed + 1.5 * longest > HARD_LIMIT_S:
            break
        traced = bool(args.trace) and len(reps) % 2 == 1
        t0 = time.monotonic()
        reps.append(run_once(binary, args, traced, trace_out))
        longest = max(longest, time.monotonic() - t0)
    if args.trace and len(reps) < 2:
        fail("no time for a traced repetition")

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    first = reps[0]
    problems = []
    for r in reps:
        if not r["correct"]:
            problems += r["violations"]
        if r["fingerprint"] != first["fingerprint"]:
            problems.append("fingerprint %s != %s: the run is not deterministic"
                            % (r["fingerprint"], first["fingerprint"]))
        for name, value in r["e2e"].items():
            if name not in HOST_E2E and value != first["e2e"][name]:
                problems.append("vt metric %s differs across repetitions" % name)
    for line in first["stderr"].splitlines():
        if line.startswith("  +") or line.startswith("nemesis"):
            print(line)
    for msg in problems:
        print("VIOLATION: " + msg)

    values = {}
    if args.trace:
        # Counts and vt self times repeat exactly; host phases are medians
        # over the traced repetitions, whose spans the trace file holds.
        values.update(traced[0]["layer"])
        for name in values:
            if name.startswith("host."):
                values[name] = median([r["layer"][name] for r in traced])
        values["obs.trace_overhead"] = (median([r["layer"]["host.run_s"] for r in traced]) /
                                        median([r["e2e"]["host_s"] for r in plain]))
        values["obs.untraced_host_s"] = median([r["e2e"]["host_s"] for r in plain])
    else:
        values.update(first["e2e"])
        for name in HOST_E2E:
            values[name] = median([r["e2e"][name] for r in plain])
        for name in ("put", "get", "delete"):
            values["samples." + name] = first["layer"]["workload.%s_samples" % name]

    units = {m["name"]: m["unit"] for m in declared}
    for name in sorted(values):
        print("metric %-40s %.10g %s" % (name, values[name], units.get(name, "")))
    print("repetitions %d (%d traced) fingerprint %s" % (len(reps), len(traced),
                                                         first["fingerprint"]))
    metrics = {}
    for m in declared:
        v = values.get(m["name"])
        if v is None or not math.isfinite(v):
            fail("metric %s missing or not finite" % m["name"])
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    result = {"correct": not problems, "attempted": first["attempted"],
              "failed": first["failed"], "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
