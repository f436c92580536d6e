#!/usr/bin/env python3
"""Sensitivity self-test: a synthetic 2x slowdown of RecMII is caught and named.

`bench.exe --double-rec-mii` matches every Ddg.Minii.rec_mii call of a
compile with one more call on the same DDG, from outside the library: in
traced runs inside the timers of the two layers that make the call
(ddg.min_ii and sched.clustered_mii), in untraced runs as two extra calls
on DDGs built before the timed window. The test runs the sweep workload
clean and slowed and checks that

  1. the traced per-layer table names RecMII: the two layers that call it
     grow by a larger factor than any other pipeline layer;
  2. the untraced throughput_per_s drops by more than the bound
     BENCHMARK.json fixes for it;
  3. every run passes its output gate (the slowdown changes time only, so
     the digests and work counts must equal the clean runs').

Run from the root of a checkout (about four minutes on a 2-core machine):

    python3 perfbench/selftest.py [--seed 1995] [--seconds 30]

Exits 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

PIPELINE_LAYERS = [
    "ddg.build_ms", "ddg.min_ii_ms", "sched.ideal_ms", "rcg.build_ms",
    "partition.greedy_ms", "partition.copies_ms", "ddg.rebuild_ms",
    "sched.clustered_mii_ms", "sched.clustered_ms",
]


REC_MII_LAYERS = {"ddg.min_ii_ms", "sched.clustered_mii_ms"}


def bench(args, trace, slowed=False):
    cmd = [run.BENCH, "--workload", "sweep", "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if slowed:
        cmd.append("--double-rec-mii")
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    label = f"{'traced' if trace else 'untraced'} {'slowed' if slowed else 'clean'}"
    print(f"  {label}: correct={result['correct']}", flush=True)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1995)
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args()
    if run.build() != 0:
        return 1
    run.pin()
    with open("BENCHMARK.json") as f:
        bound = next(m["bound"] for m in json.load(f)["end_to_end"]
                     if m["name"] == "throughput_per_s")
    ok = True

    print("traced runs:")
    clean, slowed = bench(args, 1), bench(args, 1, True)
    ratios = {l: slowed["metrics"][l]["value"] / clean["metrics"][l]["value"]
              for l in PIPELINE_LAYERS}
    ranked = sorted(ratios, key=ratios.get, reverse=True)
    for layer in ranked:
        print(f"  {layer:26s} x{ratios[layer]:.3f}")
    if set(ranked[:2]) != REC_MII_LAYERS:
        print(f"FAIL: the per-layer table names {ranked[:2]}, not {sorted(REC_MII_LAYERS)}")
        ok = False

    # Clean, slowed, slowed, clean: a drift in the host's speed over
    # the four runs hits both sides alike.
    print("untraced runs:")
    runs = [bench(args, 0, slow) for slow in (False, True, True, False)]
    tp = [r["metrics"]["throughput_per_s"]["value"] for r in runs]
    base, slow = (tp[0] + tp[3]) / 2, (tp[1] + tp[2]) / 2
    drop = 1 - slow / base
    print(f"  throughput_per_s clean {base:.3f}/s, slowed {slow:.3f}/s: "
          f"drop {drop:.1%} against a bound of {bound:.0%}")
    if drop <= bound:
        print("FAIL: the slowdown stays within the throughput bound")
        ok = False

    if not all(r["correct"] for r in [clean, slowed, *runs]):
        print("FAIL: a run failed its output gate")
        ok = False
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
