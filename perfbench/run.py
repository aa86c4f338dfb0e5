#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last line.

    python3 perfbench/run.py --workload hier-day --seed 1 --seconds 10 --trace 0

Builds the benchmark (a cargo package of its own, built against the
repository's crates), prepares the seed's inputs in a separate process
outside any timed region, then runs the workload. The target directory
is $CARGO_TARGET_DIR, or .bench_build at the repository root; generated
traces are cached per seed under it.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
WORKLOADS = ("hier-day", "bf-ml", "static-fleet")
# Each hier-day trace is ~184 MB; keep the most recently used few.
CACHED_SEEDS = 3
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def target_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Builds the benchmark binary and returns its path; exits on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed ({' '.join(cmd)})")
    return target_dir() / "release" / "pamdc-perfbench"


def inputs(binary, seed):
    """The hier-day trace of `seed`, generated once and cached."""
    cache = target_dir() / "perfbench-inputs"
    final = cache / f"hier-day-{seed}"
    if (final / "done").exists():
        os.utime(final / "done")
        return final
    tmp = cache / f"hier-day-{seed}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    subprocess.run([str(binary), "gen", "--seed", str(seed), "--out", str(tmp)],
                   cwd=ROOT, check=True, timeout=RUN_TIMEOUT_S)
    (tmp / "done").touch()
    shutil.rmtree(final, ignore_errors=True)
    tmp.rename(final)
    stale = sorted((d for d in cache.iterdir() if (d / "done").exists()),
                   key=lambda d: (d / "done").stat().st_mtime, reverse=True)
    for old in stale[CACHED_SEEDS:]:
        shutil.rmtree(old, ignore_errors=True)
    return final


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    seed = args.seed % 2**64

    binary = build()
    cmd = [str(binary), "run", "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.workload == "hier-day":
        cmd += ["--inputs", str(inputs(binary, seed))]
    sys.exit(subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode)


if __name__ == "__main__":
    main()
