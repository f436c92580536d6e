#!/usr/bin/env python3
"""Build rbp and the benchmark from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep|serve|exact --seed N \
        --seconds S --trace 0|1 [--inject LAYER]

The build goes to _build/ (the dune cache is off, so nothing is written
outside the checkout). Build output goes to stderr; the last line of
stdout is the result object. Outside a checkout the script exits 2.
"""

import os
import subprocess
import sys

BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")


def build():
    """Build bench.exe and rbp.exe; return dune's exit code."""
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("run.py: not at the root of an rbp checkout\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        return subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/rbp.exe"],
            stdout=sys.stderr,
            env=env,
        ).returncode
    except FileNotFoundError:
        sys.stderr.write("run.py: dune is not on PATH\n")
        return 2


def pin():
    """Pin this process, and so everything it starts, to one CPU.

    The host-speed probe (perfbench/measure.ml) then always measures the
    CPU the work runs on: the serve daemon inherits the pin and shares
    the CPU with its closed-loop client, which waits while it compiles.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main():
    code = build()
    if code != 0:
        return code
    pin()
    return subprocess.run([BENCH, *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
