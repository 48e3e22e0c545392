"""Steadiness check: run one workload N times and compare each metric's
spread with its bound.

Usage::

    python3 perfbench/steady.py --workload vliw_sat --runs 10 \\
        [--first-seed 1] [--seconds 20] [--trace 0]

Each run gets its own seed (``first-seed``, ``first-seed + 1``, ...).
For every metric the command prints the median of the runs and the
distance between their first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's
``bound`` from ``BENCHMARK.json`` and a third of it, the target a steady
metric should stay under.  It exits 1 if any run fails or reports
``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from measure import median, quartile_spread  # noqa: E402


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    ok = True
    for k in range(args.runs):
        seed = args.first_seed + k
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        wall = time.perf_counter() - t0
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print("seed {}: exit {}".format(seed, out.returncode))
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print("seed {}: correct={} attempted={} failed={} wall={:.1f}s"
              .format(seed, result["correct"], result["attempted"],
                      result["failed"], wall))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print("{:36s} {:>12s} {:>8s} {:>7s} {:>7s}".format(
        "metric", "median", "spread", "bound", "bound/3"))
    for name, series in values.items():
        bound = bounds.get(name)
        spread = quartile_spread(series)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  <-- above bound/3"
        print("{:36s} {:>12.6g} {:>8.3f} {:>7s} {:>7s}{}".format(
            name, median(series), spread,
            "-" if bound is None else "{:.3f}".format(bound),
            "-" if bound is None else "{:.3f}".format(bound / 3), flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
