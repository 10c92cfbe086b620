#!/usr/bin/env python3
"""Builds the rtlsat benchmark from source and runs one workload.

Run from the repository root:

    python3 rtlbench/run.py --workload search --seed 1 --seconds 25 --trace 0
    python3 rtlbench/run.py --selftest        # counter sums and determinism
    python3 rtlbench/run.py --make-oracle     # regenerate rtlbench/oracle.tsv

The build goes to $CARGO_TARGET_DIR (default .bench_build) under rtlbench/,
with its output on stderr. The last line of stdout is the JSON result; the
exit code is nonzero when a verdict was wrong or the build failed.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("rtlbench: the rtlsat sources (src/) are missing")
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "rtlbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure + generator, stdout=sys.stderr).returncode != 0:
            sys.exit("rtlbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", build_dir, "--target", "rtlbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("rtlbench: build failed")
    return build_root, os.path.join(build_dir, "rtlbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--make-oracle", action="store_true")
    args = parser.parse_args()

    build_root, binary = build()
    oracle = os.path.join(HERE, "oracle.tsv")
    if args.make_oracle:
        cmd = [binary, "--make-oracle", oracle]
    elif args.selftest:
        cmd = [binary, "--selftest", "--oracle", oracle]
    elif args.workload:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--oracle", oracle]
        if args.trace:
            spans_dir = os.path.join(build_root, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            cmd += ["--spans", os.path.join(
                spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    else:
        parser.error("one of --workload, --selftest, --make-oracle is required")

    sys.stdout.flush()
    timeout = None if args.make_oracle else RUN_TIMEOUT_S
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("rtlbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
