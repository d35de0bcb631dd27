"""Run the benchmark once per seed and print each metric's median and quartiles.

    python3 kbench/spread.py --workload towers --seeds 1-10 --seconds 30

Runs one after another.  ``spread`` is the distance between the first and
third quartile as a share of the median, as ``statistics.quantiles(values,
n=4)`` gives the quartiles.  Exits 1 if a run reports incorrect output or
the share of failed requests differs between runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="inclusive range such as 1-10")
    ap.add_argument("--seconds", default="30")
    args = ap.parse_args()
    values, units, shares, ok = {}, {}, set(), True
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and res["correct"]
        shares.add(res["failed"] / res["attempted"])
        for k, m in res["metrics"].items():
            values.setdefault(k, []).append(m["value"])
            units[k] = m["unit"]
        shown = ", ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} {shown}", flush=True)
    print(f"{'metric':28s} {'unit':6s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'spread':>7s}")
    for k, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        print(f"{k:28s} {units[k]:6s} {q1:12.5g} {med:12.5g} {q3:12.5g} {spread:7.3f}")
    print(f"failed share per run: {sorted(shares)}")
    return 0 if ok and len(shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
