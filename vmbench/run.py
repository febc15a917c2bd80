#!/usr/bin/env python3
"""Build and run the vmgrid benchmark.

Run from the root of a checkout:

  python3 vmbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 vmbench/run.py --check [--seed <n>]

The first call configures and builds the library (../src) and the benchmark
program into .bench_build/ at the checkout root; later calls rebuild only what
changed. The program's stdout is passed through unchanged: its last line
is the JSON result, and the exit code is the program's.

--check runs every workload at reduced size twice untraced and once
traced, and fails unless all three runs of a workload simulate the same
outcome (identical digests), pass the correctness gate, and report exactly
the metrics BENCHMARK.json lists.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
OUT_DIR = os.path.join(BUILD, "out")
BINARY = os.path.join(CMAKE_DIR, "vmbench")
WORKLOADS = ["sessions_exact", "sessions_fluid", "failover_churn", "kernel_jobs"]
BASELINE_SEED = 1


def build():
    """Configure once, then build incrementally. Returns True on success."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # A configure that failed leaves a cache but no build system behind.
    if not any(os.path.exists(os.path.join(CMAKE_DIR, f)) for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", CMAKE_DIR, "--target", "vmbench", "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                sys.stderr.write("vmbench: build failed (%s)\n" % " ".join(cmd[:2]))
                return False
    return True


def run_vmbench(args, capture=False):
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY] + args + ["--out", OUT_DIR]
    if capture:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return subprocess.run(cmd)


def check(seed):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {"0": [m["name"] for m in spec["end_to_end"]],
                "1": [m["name"] for m in spec["per_layer"]]}
    ok = True
    for w in WORKLOADS:
        digests = []
        runs_ok = True
        for trace in ("0", "0", "1"):
            res = run_vmbench(["--workload", w, "--seed", str(seed), "--seconds", "0",
                              "--trace", trace, "--size", "small"], capture=True)
            m = re.search(r"^digest (\w+)", res.stdout, re.MULTILINE)
            digests.append(m.group(1) if m else None)
            if res.returncode != 0 or m is None:
                sys.stdout.write(res.stdout)
                runs_ok = False
                continue
            names = list(json.loads(res.stdout.strip().splitlines()[-1])["metrics"])
            if names != expected[trace]:
                print("%s: --trace %s reports %s, BENCHMARK.json lists %s"
                      % (w, trace, names, expected[trace]))
                runs_ok = False
        # The traced invocation also fails by itself when a traced
        # repetition's digest differs from the untraced one.
        good = runs_ok and digests[0] is not None and len(set(digests)) == 1
        ok = ok and good
        print("%-16s %s  digests %s" % (w, "ok  " if good else "FAIL", " ".join(map(str, digests))))
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", choices=["0", "1"])
    p.add_argument("--check", action="store_true")
    a = p.parse_args()
    if a.check:
        if not build():
            return 2
        return 0 if check(BASELINE_SEED if a.seed is None else a.seed) else 1
    if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
        p.error("--workload, --seed, --seconds and --trace are required")
    if a.seed < 0 or not 0 <= a.seconds <= 600:
        p.error("--seed must be >= 0 and --seconds within 0..600")
    if not build():
        return 2
    sys.stdout.flush()
    return run_vmbench(["--workload", a.workload, "--seed", str(a.seed),
                       "--seconds", str(a.seconds), "--trace", a.trace]).returncode


if __name__ == "__main__":
    sys.exit(main())
