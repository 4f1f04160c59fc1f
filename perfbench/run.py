#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload rounds --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The build goes to .bench_build and the
traced run's spans to .bench_out, both inside the checkout.  The last
line of standard output is the result object; see perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    root = os.getcwd()
    # Keep every file dune writes inside the checkout.
    env = dict(os.environ, XDG_CACHE_HOME=os.path.join(root, BUILD_DIR, "xdg-cache"))
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--cache=disabled", "--profile", "release", "./perfbench/main.exe"],
        env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(root, BUILD_DIR, "default", "perfbench", "main.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--spans-dir", ".bench_out"]
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
