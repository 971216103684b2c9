#!/usr/bin/env python3
"""Builds the benchmark runner (Release) and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The runner is built from perfbench/ against
the repository's libraries in $CARGO_TARGET_DIR (default .bench_build); the
first run configures and builds it, later runs only check it is up to date.
Build output goes to stderr. The runner's output goes to stdout, whose last
line is the result object; a copy of it is kept in
.bench_out/result-<workload>-seed<n>-trace<t>.json. Exits non-zero, printing
no result, when the build fails, the runner fails or its metrics disagree
with BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("soak-sharded", "wire-uds", "chaos-repl", "mc-repl")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    result = subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench_runner",
         "-j", jobs], stdout=sys.stderr)
    if result.returncode != 0:
        fail("build failed")
    return build_dir / "perfbench_runner"


def check_metrics(result, trace):
    """The runner's metrics must be exactly BENCHMARK.json's, with its units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        fail(f"metrics disagree with BENCHMARK.json: missing {missing}, "
             f"unlisted {extra}, unit mismatch {units}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    runner = build(build_dir)
    command = [str(runner), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               args.trace]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"runner did not finish within {RUN_TIMEOUT_S}s")
    if proc.returncode != 0:
        fail(f"runner exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("runner printed no result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("runner's last line is not a JSON object")
    check_metrics(result, args.trace == "1")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(lines[-1] + "\n")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
