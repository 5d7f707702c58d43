#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload signoff|bughunt|daemon \
        --seed N --seconds S --trace 0|1

Builds perfbench/ilvbench.exe from source with dune, then runs it from
the repository root.  The last line of standard output is the JSON
result; build output goes to standard error.  Exits non-zero, without a
result, when the build fails or the run does not finish in time.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "ilvbench.exe")
RUN_TIMEOUT_S = 170


def main():
    os.chdir(ROOT)
    # keep every build product inside the checkout (no shared dune cache)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/ilvbench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    proc = subprocess.Popen([EXE] + sys.argv[1:], start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # the benchmark forks pass children and a daemon: stop them all
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
