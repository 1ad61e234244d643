#!/usr/bin/env python3
"""Build lnbbench from the checkout's sources and run one workload.

    python3 lnbbench/run.py --workload polybench|specproxy \
        --seed N --seconds S --trace 0|1 [--tiny] [--capacity]

Run from the root of a checkout. The build tree lives in $CARGO_TARGET_DIR
(default .bench_build) under the checkout; configure and build output go
to stderr. The benchmark's report lines (prefixed '#') and its final JSON
line go to stdout. Exits non-zero, without a result, when the runtime
sources are missing, the build fails or the run does not finish.
"""
import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_root):
    """Configure (once) and build the lnbbench target; return its path."""
    tree = os.path.join(build_root, "lnbbench")
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", tree,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", tree, "-j", jobs,
                    "--target", "lnbbench"], check=True, stdout=sys.stderr)
    return os.path.join(tree, "lnbbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["polybench", "specproxy"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test dataset sizes")
    ap.add_argument("--capacity", action="store_true",
                    help="print each serving strategy's closed-loop "
                    "throughput instead of running the workload")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("lnbbench: runtime sources not found in %s/src" % ROOT,
              file=sys.stderr)
        return 2
    build_root = os.path.join(ROOT,
                              os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(build_root, exist_ok=True)
    try:
        binary = build(build_root)
    except (subprocess.CalledProcessError, OSError) as e:
        print("lnbbench: build failed: %s" % e, file=sys.stderr)
        return 3

    # The benchmark measures the defaults: no LNB_* knob may leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("LNB_")}
    work = tempfile.mkdtemp(prefix="run-", dir=build_root)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.tiny:
        cmd.append("--tiny")
    if args.capacity:
        cmd.append("--capacity")
    try:
        # Set-up time runs from here: the binary reads the same clock.
        cmd += ["--spawn-ns", str(time.monotonic_ns())]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print("lnbbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    finally:
        spans = os.path.join(work, "spans.json")
        if os.path.isfile(spans):
            keep = os.path.join(build_root, "spans")
            os.makedirs(keep, exist_ok=True)
            dest = os.path.join(
                keep, "%s-seed%d.json" % (args.workload, args.seed))
            shutil.move(spans, dest)
            print("lnbbench: spans kept in %s" % dest, file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
    out = proc.stdout.rstrip("\n")
    sys.stdout.write(out + "\n")
    if proc.returncode != 0 or not out.splitlines() or \
            not out.splitlines()[-1].startswith("{"):
        print("lnbbench: run failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
