"""Summary of every workload at one seed.

    python3 perfbench/report.py [--seed N] [--workload NAME ...]

For each workload this runs perfbench/run.py, with the run_seconds of
BENCHMARK.json, once untraced and twice traced.  It then prints the
end-to-end metrics (setup_s, run_s, examples_per_s,
peak_rss_mb and error_rate, the failed share of the output checks), the
tracing overhead (traced run_s minus untraced run_s, with its base), the
share of the traced body no span covers, and whether every count metric
repeated exactly across the two traced runs.  The whole summary and the
machine record are written to perfbench/results/report-seed<N>.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, RESULTS, ROOT, load_spec

COUNT_SUFFIXES = (".calls", ".calls_per_step", ".forward_calls_per_step", ".nonfinite_steps")


def invoke(workload: str, seed: int, trace: int) -> dict:
    """One run.py process; returns its result line and its detailed record."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(load_spec()["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "record": record}


def main(argv=None) -> int:
    names = [w["name"] for w in load_spec()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="+", default=names)
    args = parser.parse_args(argv)

    summary = {}
    for name in args.workload:
        plain = invoke(name, args.seed, 0)
        traced = [invoke(name, args.seed, 1) for _ in range(2)]
        metrics = {k: v["value"] for k, v in plain["result"]["metrics"].items()}
        t1, t2 = ({k: v["value"] for k, v in t["result"]["metrics"].items()} for t in traced)
        counts = sorted(k for k in t1 if k.endswith(COUNT_SUFFIXES))
        differing = [k for k in counts if t1[k] != t2[k]]
        rec = plain["record"]
        overhead = t1["trace.run_s"] - metrics["run_s"]
        row = {
            **metrics,
            "error_rate": rec["error_rate"],
            "checks": f"{rec['checks_failed']}/{rec['checks_attempted']}",
            "trace_overhead_s": overhead,
            "trace_overhead_base_run_s": metrics["run_s"],
            "trace_uncovered_share": t1["trace.uncovered_share"],
            "counts_repeat_exactly": not differing,
            "counts_differing": {k: [t1[k], t2[k]] for k in differing},
            "per_layer": t1,
        }
        summary[name] = row
        print(f"{name}  (seed {args.seed}, {len(rec['body_s'])} bodies)")
        print(f"  setup_s        {metrics['setup_s']:.4f} s")
        print(f"  run_s          {metrics['run_s']:.4f} s")
        print(f"  examples_per_s {metrics['examples_per_s']:.1f} examples/s")
        print(f"  peak_rss_mb    {metrics['peak_rss_mb']:.1f} MB")
        print(f"  error_rate     {rec['error_rate']:.4f} fraction ({row['checks']} checks failed)")
        print(f"  tracing overhead {overhead:+.4f} s = traced run_s {t1['trace.run_s']:.4f} s"
              f" - untraced run_s {metrics['run_s']:.4f} s ({overhead / metrics['run_s']:+.1%} of untraced)")
        print(f"  traced run_s not covered by any span: {t1['trace.uncovered_share']:.2%}")
        print(f"  {len(counts)} count metrics repeat exactly across two traced runs: "
              f"{'yes' if not differing else 'no, ' + ', '.join(differing)}")

    machine = plain["record"]["machine"]
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    out = RESULTS / f"report-seed{args.seed}.json"
    out.write_text(json.dumps({"seed": args.seed, "machine": machine,
                               "workloads": summary}, indent=1) + "\n")
    print(f"written to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
