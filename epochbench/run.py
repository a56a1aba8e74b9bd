#!/usr/bin/env python3
"""Whole-epoch benchmark entry point.

Builds the harness (and the Phoenix libraries it links) from source,
then runs one workload in its own process:

    python3 epochbench/run.py --workload zonekill-10k --seed 1 \
        --seconds 30 --trace 0

The last line of standard output is the harness's JSON result. Build
output goes to standard error. The build tree is $CARGO_TARGET_DIR when
set, else .bench_build, relative to the repository root. Traced runs
also write their spans to <build>/traces/<workload>-seed<N>.json.
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s, or 900 s when it also builds from cold.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("epochbench: Phoenix sources (src/) not found")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out_dir, "--target", "epoch_bench",
                    "-j", "4"], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(out_dir, "epoch_bench")


def pin_to_fastest_cpu():
    """Pin this process, and so the harness it starts, to one CPU.

    The vCPUs of a shared host are not equally loaded: on the VM this
    benchmark was written on, a short compute loop ran up to 50% slower on
    one vCPU than on another, and a single-threaded run stays on whichever
    vCPU it starts on. Pinning every run to the vCPU that is fastest right
    now keeps runs comparable. Returns the chosen CPU, or None.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None

    def probe():
        samples = []
        for _ in range(9):
            t0 = time.perf_counter()
            s = 0
            for i in range(60_000):
                s += i * i
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = probe()
    fastest = min(speed, key=speed.get)
    os.sched_setaffinity(0, {fastest})
    return fastest


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--nodes", type=int, default=0,
                        help="override the workload's node count")
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as err:
        sys.exit(f"epochbench: build failed: {err}")

    cpu = pin_to_fastest_cpu()
    if cpu is not None:
        print(f"epochbench: pinned to cpu {cpu}", file=sys.stderr)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.nodes:
        cmd += ["--nodes", str(args.nodes)]
    if args.trace == "1":
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"epochbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(result.stdout)
    if result.returncode != 0 or not result.stdout.strip():
        sys.exit(result.returncode or 1)


if __name__ == "__main__":
    main()
