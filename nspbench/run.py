#!/usr/bin/env python3
"""Builds the nspbench harness from source and runs one workload.

    python3 nspbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 nspbench/run.py --selftest

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout root; the first run configures
and compiles the repository's src/ libraries plus the harness, later runs
only check that the build is current. The last line of standard output
is the harness's JSON result. Without the library sources next to this
directory the run fails with a non-zero exit and prints no result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["solve-paper", "solve-large", "solve-decomposed", "serve-sweep"]
RUN_TIMEOUT_S = 170


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(bdir, targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("nspbench: library sources (src/) not found next to %s" % HERE.name)
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(bdir), "-j", jobs, "--target"] + targets,
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the harness's own unit tests")
    a = ap.parse_args()
    bdir = build_dir()
    try:
        if a.selftest:
            build(bdir, ["nspbench_tests"])
            sys.exit(subprocess.run([str(bdir / "nspbench_tests")]).returncode)
        if not a.workload:
            ap.error("--workload is required")
        build(bdir, ["nspbench"])
    except subprocess.CalledProcessError as e:
        sys.exit("nspbench: build failed (%s)" % e)

    work = bdir / "work"
    cmd = [str(bdir / "nspbench"), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace), "--work-dir", str(work)]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("nspbench: %s did not finish within %d s" % (a.workload, RUN_TIMEOUT_S))
    out = res.stdout.rstrip("\n")
    lines = out.split("\n") if out else []
    if res.returncode != 0 or not lines:
        sys.stderr.write(out + "\n")
        sys.exit("nspbench: harness exited with %d" % res.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out + "\n")
        sys.exit("nspbench: harness printed no result line")
    if not isinstance(result, dict) or "metrics" not in result:
        sys.exit("nspbench: malformed result line")
    print(out)


if __name__ == "__main__":
    main()
