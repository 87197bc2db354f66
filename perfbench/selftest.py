#!/usr/bin/env python3
"""Self-test of the repository benchmark, at smoke size.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs perfbench/run.py twice untraced
and once traced with the same seed, and checks that:
  - each run passes its correctness gate and prints a result line;
  - every declared end-to-end and per-layer metric is printed and finite;
  - the two untraced runs give identical virtual-time metrics and
    fingerprints, and the traced run the same fingerprint (tracing must not
    perturb the simulation).
It also checks that run.py fails, without printing a result, in a directory
holding only BENCHMARK.json and the benchmark's own files. Exits non-zero on
the first failure.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SMOKE = ["--seconds", "1", "--scale", "0.05"]
HOST_METRICS = {"setup_s", "host_s", "peak_rss_mib"}


def check(cond, msg):
    if not cond:
        print("selftest FAILED: " + msg)
        sys.exit(1)


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--trace", str(trace)] + SMOKE
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def parse(workload, trace, declared):
    r = run(workload, trace)
    check(r.returncode == 0, "%s trace=%d exited %d:\n%s" % (workload, trace, r.returncode,
                                                            r.stderr[-3000:]))
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(result["correct"], "%s trace=%d incorrect:\n%s" % (workload, trace, r.stdout[-3000:]))
    check(result["attempted"] >= 1, "%s attempted no ops" % workload)
    printed = {l.split()[1] for l in lines if l.startswith("metric ")}
    for m in declared:
        check(m["name"] in printed, "%s: metric %s not printed" % (workload, m["name"]))
        value = result["metrics"][m["name"]]["value"]
        check(isinstance(value, (int, float)) and math.isfinite(value),
              "%s: metric %s = %r" % (workload, m["name"], value))
        check(result["metrics"][m["name"]]["unit"] == m["unit"],
              "%s: metric %s has the wrong unit" % (workload, m["name"]))
    fingerprint = [l for l in lines if l.startswith("repetitions ")][-1].split()[-1]
    return result, fingerprint


def check_bare_directory():
    """run.py must fail where only the benchmark's own files exist."""
    bare = os.path.join(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"),
                        "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "put_storm",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(r.returncode != 0, "run.py succeeded without the system's sources")
    check("\"metrics\"" not in r.stdout, "run.py printed a result without the system's sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        a, fa = parse(name, 0, spec["end_to_end"])
        b, fb = parse(name, 0, spec["end_to_end"])
        check(fa == fb, "%s: fingerprints differ across runs (%s vs %s)" % (name, fa, fb))
        for m in spec["end_to_end"]:
            if m["name"] not in HOST_METRICS:
                check(a["metrics"][m["name"]] == b["metrics"][m["name"]],
                      "%s: vt metric %s differs across runs" % (name, m["name"]))
        check((a["attempted"], a["failed"]) == (b["attempted"], b["failed"]),
              "%s: op counts differ across runs" % name)
        _, ft = parse(name, 1, spec["per_layer"])
        check(ft == fa, "%s: tracing changed the fingerprint (%s vs %s)" % (name, ft, fa))
        print("selftest %-14s ok  fingerprint %s" % (name, fa))
    check_bare_directory()
    print("selftest bare directory ok")
    print("selftest passed")


if __name__ == "__main__":
    main()
