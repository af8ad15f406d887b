#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) and is incremental; the benchmark binary prints the result
JSON as its last line, which this script passes through unchanged.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if _have("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=log, stderr=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "sofos_perfbench", "-j", jobs],
                   check=True, stdout=log, stderr=log)
    return os.path.join(build_dir, "sofos_perfbench")


def _have(tool):
    return any(os.access(os.path.join(p, tool), os.X_OK)
               for p in os.environ.get("PATH", "").split(os.pathsep))


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    # The binary owns its threads and sockets and exits only when all of
    # them are done; waiting for it here waits for everything it started.
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
