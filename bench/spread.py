"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/spread.py --workload heat-march --seeds 1-10 --seconds 30 [--trace 1]

Prints each run's result, then for every metric the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, plus every share of failed operations seen. The reference
figures in bench/README.md come from this command.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    values, shares = {}, set()
    for seed in args.seeds:
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", args.workload,
                               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
                              cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print("seed %d: exit %d\n%s" % (seed, proc.returncode, proc.stderr[-2000:]))
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add("%s correct=%s" % (Fraction(res["failed"], res["attempted"]), res["correct"]))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d (%.0f s): %s" % (seed, perf_counter() - t0, json.dumps(res)), flush=True)
    print("failed share:", sorted(shares))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        print("%-28s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f"
              % (name, med, q1, q3, (q3 - q1) / med if med else 0.0))


if __name__ == "__main__":
    main()
