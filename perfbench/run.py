#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload search|serve_zipf|serve_rpc_cold \
        --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark (perfbench/src) and the muffin
library it measures are built in Release mode into $CARGO_TARGET_DIR, or
.bench_build when that is unset; the first run configures and compiles,
later runs only check that the build is current. The benchmark's own
output is passed through; its last line is the JSON result. The exit
status is nonzero when the build fails, a correctness check fails, or the
run does not finish within its time limit.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.join(ROOT, path) if not os.path.isabs(path) else path
    # Relative to the root keeps the unix socket paths the serving
    # workload creates under the build directory short.
    return os.path.relpath(path, ROOT)


def build(out):
    os.makedirs(os.path.join(ROOT, out), exist_ok=True)
    log_path = os.path.join(ROOT, out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", "perfbench", "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "muffin_perfbench", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed (see %s)\n" % log_path)
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["search", "serve_zipf", "serve_rpc_cold"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        return 1
    command = [os.path.join(out, "muffin_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out]
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = stdout.rstrip("\n").splitlines()
    if process.returncode != 0 or not lines:
        # Everything but a result line, so a failed run reports no metrics.
        sys.stdout.write("\n".join(l for l in lines if not l.startswith("{")))
        sys.stdout.write("\n")
        sys.stderr.write("perfbench: benchmark exited with status %d\n"
                         % process.returncode)
        return process.returncode or 1
    result = json.loads(lines[-1])
    if not result.get("correct") or not result.get("metrics"):
        sys.stderr.write("perfbench: malformed result line\n")
        return 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
