#!/usr/bin/env python3
"""Builds the pcw library and the perfbench binary from source, then runs
one benchmark workload.

    python3 perfbench/run.py --workload snapshot-write --seed 1 --seconds 20 --trace 0

Build trees go under $CARGO_TARGET_DIR (default: .bench_build in the
current directory); the workload's scratch files go under that tree too
and are removed when the run ends. Build output goes to stderr. The
binary's stdout passes through unchanged: its last line is the result
JSON. Exits non-zero, printing no result, if the build or run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def cmake(args):
    subprocess.run(["cmake", *args], check=True, stdout=sys.stderr, stderr=sys.stderr)


def configure(source, tree, extra):
    if os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        return
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    cmake(["-S", source, "-B", tree, *generator, "-DCMAKE_BUILD_TYPE=Release", *extra])


def build():
    """Builds (incrementally) libpcw.a, then the benchmark against it."""
    jobs = str(min(4, os.cpu_count() or 1))
    lib = os.path.join(build_dir(), "pcw")
    configure(ROOT, lib, ["-DPCW_BUILD_TESTS=OFF", "-DPCW_BUILD_BENCH=OFF",
                          "-DPCW_BUILD_EXAMPLES=OFF", "-DPCW_BUILD_TOOLS=OFF"])
    cmake(["--build", lib, "--target", "pcw", "-j", jobs])
    bench = os.path.join(build_dir(), "perfbench")
    configure(HERE, bench, ["-DPCW_BUILD_DIR=" + lib])
    cmake(["--build", bench, "-j", jobs])
    return os.path.join(bench, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["snapshot-write", "restart-read", "serve-mixed"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], required=True)
    p.add_argument("--tiny", action="store_true", help="seconds-long smoke size")
    p.add_argument("--corrupt", choices=["readback", "span"],
                   help="break one read-back value or one span; the run must count a failure")
    args = p.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    # A short relative data dir keeps the pcwd Unix socket path well
    # under the 108-byte sun_path limit wherever the checkout lives.
    data_dir = os.path.relpath(os.path.join(build_dir(), "data-" + args.workload))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--data-dir", data_dir]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: run failed with code {proc.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
