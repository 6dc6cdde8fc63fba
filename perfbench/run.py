#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see NOTES.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The harness is built from source with CMake
into $CARGO_TARGET_DIR (default .bench_build) on first use. The last line
of standard output is the result: one JSON object with the keys correct,
attempted, failed and metrics. Spans of a traced run are written to
<build dir>/spans/<workload>-seed<N>.tsv.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures and builds the harness and psc_brokerd (both no-ops when
    up to date). Configuring every time lets a failed configure recover."""
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "perfbench", "psc_brokerd"],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the self-test size")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    command = [os.path.join(build_dir, "perfbench"),
               f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--size={args.size}",
               f"--brokerd={os.path.join(build_dir, 'psc', 'psc_brokerd')}"]
    if args.trace:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        command.append(f"--spans-out={os.path.join(spans, f'{args.workload}-seed{args.seed}.tsv')}")
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
