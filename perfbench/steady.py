#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly, one seed per run,
and prints each metric's median, quartiles and spread.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workloads a,b] [--seconds S] [--trace 0|1]

The spread is (Q3 - Q1) / median, with the quartiles of
statistics.quantiles(values, n=4). For end-to-end metrics it is shown
next to the metric's bound from BENCHMARK.json. Every result line is
also written to .bench_out/steady-<workload>.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    ok = True
    for workload in args.workloads.split(","):
        results = []
        log = out_dir / ("steady-%s.jsonl" % workload)
        with log.open("w") as f:
            for i in range(args.runs):
                seed = args.first_seed + i
                cmd = [sys.executable, str(HERE / "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", args.trace]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print("%s seed %d: exit %d" % (workload, seed,
                                                   proc.returncode))
                    ok = False
                    continue
                result = json.loads(lines[-1])
                f.write(json.dumps({"seed": seed, **result}) + "\n")
                results.append(result)
        if not results:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        ok = ok and correct
        print("\n%s: %d runs, correct=%s, failed share %s" %
              (workload, len(results), correct, shares))
        print("  %-32s %14s %14s %14s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            unit = results[0]["metrics"][metric]["unit"]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(metric)
            print("  %-32s %14.6g %14.6g %14.6g %8.4f %6s  %s" %
                  (metric, median, q1, q3, spread,
                   "" if bound is None else bound, unit))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
