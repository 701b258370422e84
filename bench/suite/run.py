#!/usr/bin/env python3
"""Build graphct_bench from this checkout and run one workload.

    python3 bench/suite/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR/suite
(default .bench_build/suite); scratch files go to a tmp/ directory beside it
and are removed when the run ends. Every line the benchmark prints is passed
through; the last one is the result line, checked here against the metric
lists in BENCHMARK.json. Exits non-zero when the build fails, an output check
fails, or the result line does not match BENCHMARK.json.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SOURCE = os.path.join(ROOT, "bench", "suite")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build incrementally; compiler output to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "graphct_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def expected_metrics(args):
    """Names the result line must carry: end_to_end untraced, per_layer traced."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    traced = "--trace" in args and args[args.index("--trace") + 1] != "0"
    return {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}


def main(args):
    try:
        wanted = expected_metrics(args)
    except (OSError, ValueError, KeyError, IndexError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2
    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(out_dir, "suite")
    if not build(build_dir):
        log("build failed")
        return 2

    tmp = os.path.join(out_dir, "tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        proc = subprocess.run([os.path.join(build_dir, "graphct_bench")] + args,
                              stdout=subprocess.PIPE, text=True, env=env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if not lines:
        log("the benchmark printed nothing")
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
        got = set(result["metrics"])
    except (ValueError, KeyError, TypeError):
        log(f"malformed result line: {lines[-1]}")
        return 1
    if got != wanted:
        log(f"result metrics {sorted(got)} do not match BENCHMARK.json {sorted(wanted)}")
        return 1
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
