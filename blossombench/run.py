#!/usr/bin/env python3
"""Builds the BlossomTree engine and the benchmark binary from source, runs
one workload and prints its result.

    python3 blossombench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 blossombench/run.py --self-test

Run it from anywhere inside a checkout: the build goes to
<checkout>/.bench_build/blossombench and ingest_disk writes its scratch
files under it. Build output goes to stderr; stdout carries the binary's
table and, as its last line, one JSON object whose metric names are checked
against BENCHMARK.json (the end_to_end set for --trace 0, the per_layer set
for --trace 1). The exit status is non-zero when the build fails, a result
differs from the navigational oracle, or the output is malformed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "blossombench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            # Leave no half-configured tree behind for the next attempt.
            shutil.rmtree(BUILD, ignore_errors=True)
            return None
    jobs = str(max(1, min(4, usable_cpus())))
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        return None
    path = os.path.join(BUILD, target)
    return path if os.path.exists(path) else None


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(line, trace):
    """Returns an error message, or None when `line` is a well-formed result
    carrying exactly the metrics BENCHMARK.json promises."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "unexpected result keys %s" % sorted(result)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a positive integer"
    spec = load_benchmark_json()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"]: m["unit"] for m in wanted}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != names:
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(names) - set(got)), sorted(set(got) - set(names)))
    return None


def self_test():
    """Builds and runs the benchmark's own tests, and checks that
    layers.json only names metrics BENCHMARK.json defines."""
    spec = load_benchmark_json()
    defined = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    named = set()
    for layer in layers["layers"]:
        named.update(layer["metrics"])
        for effect in layer["moves"]:
            named.add(effect["metric"])
    unknown = sorted(named - defined)
    if unknown:
        log("layers.json names undefined metrics: %s" % unknown)
        return 1
    binary = build("blossombench_test")
    if binary is None:
        log("could not build blossombench_test (is GTest installed?)")
        return 1
    return subprocess.run([binary], cwd=BUILD,
                          timeout=RUN_TIMEOUT_S).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")

    binary = build("blossombench")
    if binary is None:
        log("build failed")
        return 1
    workdir = os.path.join(BUILD, "work-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode == 2:
        log("blossombench rejected its arguments")
        return 2
    error = check_result(lines[-1], args.trace == 1)
    if error is not None:
        log(lines[-1])
        log("malformed result: " + error)
        return 1
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
