#!/usr/bin/env python3
"""Builds and runs one workload of the sstreaming wall-clock benchmark.

    python3 perfbench/run.py --workload yahoo_drain --seed 1 --seconds 15 --trace 0

Configures and builds perfbench/ (which compiles the engine from src/) as a
Release build under .bench_build/perfbench, runs the perfbench binary, and
prints its report. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; metrics holds exactly the
end_to_end metrics of BENCHMARK.json (--trace 0) or its per_layer metrics
(--trace 1). See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD_DIR = os.path.join(REPO, ".bench_build", "perfbench")
WORK_DIR = os.path.join(REPO, ".bench_build", "perfbench-work")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    make = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
            "-j", "4"]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def source_identity():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(REPO, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, REPO).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR, "--commit", source_identity()]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("perfbench exited with code %d" % proc.returncode)
    report = json.loads(lines[-1])

    metrics = {}
    for metric in declared:
        measured = report["metrics"].get(metric["name"])
        if measured is None:
            fail("metric %s was not measured" % metric["name"])
        if measured["unit"] != metric["unit"]:
            fail("metric %s measured in %s, declared in %s" %
                 (metric["name"], measured["unit"], metric["unit"]))
        metrics[metric["name"]] = measured

    for line in lines[:-1]:
        print(line)
    print("provenance: " + json.dumps(report["provenance"], sort_keys=True))
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
