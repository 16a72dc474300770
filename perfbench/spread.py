"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--workload NAME ...] [--runs 10]

Runs perfbench/run.py --trace 0 once per seed (1, 2, ..., runs) for each
workload.  For every end-to-end metric it prints the median,
the quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median
next to the metric's bound in BENCHMARK.json; a benchmark is steady when each
spread stays below a third of its bound.  Writes
perfbench/results/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from report import invoke
from run import RESULTS, load_spec


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", nargs="+", default=names)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    steady = True
    for name in args.workload:
        values, failed = {}, 0
        for seed in range(1, args.runs + 1):
            result = invoke(name, seed, 0)["result"]
            failed += result["failed"]
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        rows = {}
        print(f"{name}  ({args.runs} runs, seeds 1..{args.runs}, {failed} failed checks)")
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread < m["bound"] / 3
            steady = steady and ok
            rows[m["name"]] = {"values": vals, "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": m["bound"]}
            print(f"  {m['name']:15s} median {med:12.4f} {m['unit']:10s} q1 {q1:12.4f} q3 {q3:12.4f}"
                  f"  spread {spread:6.2%} (bound {m['bound']:.0%}{'' if ok else ', ABOVE a third of it'})")
        (RESULTS / f"spread-{name}.json").write_text(json.dumps(
            {"workload": name, "seconds": spec["run_seconds"], "failed_checks": failed,
             "metrics": rows}, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
