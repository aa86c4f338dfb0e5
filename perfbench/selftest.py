#!/usr/bin/env python3
"""Self-test of the benchmark: a 3-hour version of every workload with all
of its output checks, and a trace corrupted after generation that the
hier-day rps check must catch.

    python3 perfbench/selftest.py

Exits 0 only if every line reads PASS.
"""

import subprocess
import sys

import run


def main():
    binary = run.build()
    cmd = [str(binary), "selftest", "--dir", str(run.target_dir() / "perfbench-selftest")]
    sys.exit(subprocess.run(cmd, cwd=run.ROOT, timeout=run.RUN_TIMEOUT_S).returncode)


if __name__ == "__main__":
    main()
