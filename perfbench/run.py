#!/usr/bin/env python3
"""Build the benchmark binary from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository.  The binary is built with CMake
into .bench_build/ (incremental after the first run); build output goes to
standard error, so the last line of standard output is the binary's JSON
result.  With --trace 1 the spans are written as Chrome trace-event JSON to
.bench_build/trace_<workload>_<seed>.json.  Any further arguments
(such as --corrupt-reference) are passed to the binary unchanged.

Workloads: gme_table3, farm_cif_mix, motion_program.  See NOTES.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("gme_table3", "farm_cif_mix", "motion_program")
# Budget for one run of the binary; a build may take much longer.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the binary; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources next to the benchmark "
              "(expected src/CMakeLists.txt)", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    return subprocess.run(compile_, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args, passthrough = parser.parse_known_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--trace-file", os.path.join(
            BUILD, "trace_%s_%d.json" % (args.workload, args.seed))]
    command += passthrough
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
