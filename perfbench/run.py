#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the repository's own
sources) into .bench_build, or into $CARGO_TARGET_DIR when that is set;
later runs only rebuild what changed. Build output goes to standard error;
the benchmark's report goes to standard output, whose last line is the
JSON result. See perfbench/README.md for the workloads and metrics.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no repository sources next to perfbench/", file=sys.stderr)
        return None
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, target)


def option(args, name):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main(args):
    if args == ["--self-test"]:
        tests = build("perfbench_tests")
        if tests is None:
            return 1
        return subprocess.run([tests]).returncode

    workload = option(args, "--workload")
    seed = option(args, "--seed")
    if workload is None or seed is None:
        print(__doc__, file=sys.stderr)
        return 2
    binary = build("lce_perfbench")
    if binary is None:
        return 1
    out = build_dir()
    work = os.path.join(out, "perfbench-work", "%s-%d" % (workload, os.getpid()))
    spans_dir = os.path.join(out, "perfbench-spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [binary] + args + [
        "--work-dir", work,
        "--spans-out", os.path.join(spans_dir, "%s-seed%s.json" % (workload, seed)),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
