#!/usr/bin/env python3
"""Build and run the simulator's host-cost benchmark for one workload.

    python3 perfbench/run.py --workload paper|des|observed --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/ (a dune project of
its own, linked against the simulator's library) into .bench_build/,
then runs the chosen workload and prints, as the last line of stdout,
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.  See perfbench/README.md.

One end-to-end metric is measured here, from outside the benchmark
process: peak_rss_mb, the peak resident set of the measuring process
(wait4 rusage; its short-lived set-up probes are smaller).
"""

import argparse
import json
import os
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "perfbench.exe")
OUT_DIR = os.path.join(ROOT, BUILD_DIR, "perfbench-out")
EXPECTED_DIR = os.path.join(ROOT, "perfbench", "expected")
EXTRA_UNITS = {"node_iters_per_s": "1/s"}
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Build the benchmark (and the library it links) from source.

    dune's shared cache is off so that the build reads and writes only
    inside the checkout."""
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "./perfbench/perfbench.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
            env=dict(os.environ, DUNE_CACHE="disabled"),
            timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (dune exit %d)" % r.returncode)


def run_child(args, timeout):
    """Run the benchmark binary; return its stdout lines and rusage."""
    p = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=sys.stderr, text=True)
    timer = threading.Timer(timeout, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        _, status, rusage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
        p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        fail("%s exited with %d" % (" ".join(args[:2]), p.returncode))
    lines = out.splitlines()
    if not lines:
        fail("no output from the benchmark binary")
    return lines, rusage


def result_line(lines):
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("unparsable result line: %r" % lines[-1][:200])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % a.workload)
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--expected", EXPECTED_DIR, "--out", OUT_DIR]

    args = common + ["--seconds", str(a.seconds), "--trace", str(a.trace)]
    lines, rusage = run_child(args, RUN_TIMEOUT)
    r = result_line(lines)
    for line in lines[:-1]:
        print(line)
    values = dict(r["metrics"])
    if not a.trace:
        values["peak_rss_mb"] = rusage.ru_maxrss * 1024 / 1e6

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail("metrics missing from the run: %s" % missing)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    # Reported by name but not in the result line: node_iters_per_s is
    # (node-iterations per pass) / wall_s, and failed_frac reads 0.
    attempted, failed = r["attempted"], r["failed"]
    for name, m in metrics.items():
        print("%-28s %.6g %s" % (name, m["value"], m["unit"]))
    for name in sorted(set(values) - set(metrics)):
        print("%-28s %.6g %s" % (name, values[name], EXTRA_UNITS.get(name, "")))
    print("%-28s %.6g (%d of %d operations failed)" % (
        "failed_frac", failed / max(attempted, 1), failed, attempted))
    print(json.dumps({"correct": attempted >= 1 and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
