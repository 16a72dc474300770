"""Run one pathgeo benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a pathgeo checkout; the package is imported from its
``src`` directory.  The run sets the workload up, then repeats the workload
body until S seconds have passed (at least MIN_BODIES times) and checks the
outputs.  Before every body the set-up is timed once more on a spare copy of
the workload, so set-up and bodies are sampled over the same stretch of time.  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of a traced run.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; details go to perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
MIN_BODIES = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import pathgeo; print(time.perf_counter() - t)"


def pin_environment() -> int:
    """Synthetic data only, no process pool, BLAS threads capped at nproc.

    Must run before numpy is imported.  Returns the BLAS thread cap.
    """
    for var in ("PATHGEO_MNIST_DIR", "PATHGEO_THREADS"):
        os.environ.pop(var, None)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def import_seconds() -> float:
    """Time to import pathgeo (and numpy) in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def machine_record(blas_threads: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown: git failed"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "ram_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "git_commit": commit,
        "src_pathgeo_lines": sum(len(p.read_text().splitlines()) for p in sorted((SRC / "pathgeo").glob("*.py"))),
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def expected_metrics(trace: int) -> dict:
    return {m["name"]: m["unit"] for m in load_spec()["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "pathgeo" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} is not a pathgeo checkout (needs src/pathgeo and BENCHMARK.json)", file=sys.stderr)
        return 2

    blas_threads = pin_environment()
    sys.path.insert(0, str(SRC))
    # Imported only now: numpy must see the BLAS thread cap, and pathgeo must come from SRC.
    import pathgeo
    from pathgeo.errors import PathGeoError
    from tracer import Tracer
    from workloads import WORKLOADS

    if Path(pathgeo.__file__).resolve().parent != SRC / "pathgeo":
        print(f"error: imported pathgeo from {pathgeo.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    work_dir = RESULTS / "work"
    workload = WORKLOADS[args.workload](args.seed, work_dir / args.workload)
    tracer = Tracer()
    if args.trace:
        tracer.install()
        tracer.enabled = True

    import_s, build_s = [], []

    def sample_setup(target):
        import_s.append(import_seconds())
        tracer.rep = f"setup{len(build_s)}"
        build_s.append(timed(target.build))

    sample_setup(workload)
    body_s, checks, errors = [], [], []
    window = time.perf_counter()
    while len(body_s) < MIN_BODIES or time.perf_counter() - window < args.seconds:
        i = len(body_s)
        sample_setup(WORKLOADS[args.workload](args.seed, work_dir / f"{args.workload}-spare"))
        tracer.rep = f"body{i}"
        start = time.perf_counter()
        try:
            out = workload.body(i)
        except PathGeoError as exc:  # a failed operation counts as a failed check
            out = exc
        body_s.append(time.perf_counter() - start)
        tracing, tracer.enabled = tracer.enabled, False
        if isinstance(out, PathGeoError):
            errors.append(f"body {i}: {out!r}")
            checks.append(False)
        else:
            checks += workload.check(i, out)
        tracer.enabled = tracing
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracer.enabled = False
    checks += workload.final_checks()

    run_s = statistics.median(body_s)
    setup_s = statistics.median(import_s) + statistics.median(build_s)
    if args.trace:
        metrics = tracer.metrics(len(build_s), len(body_s), body_s, tracer.probe_peaks())
    else:
        metrics = {
            "setup_s": setup_s,
            "run_s": run_s,
            "examples_per_s": workload.examples / run_s,
            "peak_rss_mb": peak_rss_mb,
        }
    units = expected_metrics(args.trace)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
        return 3

    failed = checks.count(False)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "run_id": run_id,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "checks_attempted": len(checks),
        "checks_failed": failed,
        "error_rate": failed / len(checks),
        "errors": errors,
        "import_s": import_s,
        "build_s": build_s,
        "body_s": body_s,
        "examples_per_body": workload.examples,
        "machine": machine_record(blas_threads),
        "metrics": metrics,
    }
    (RESULTS / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(RESULTS / f"{run_id}.spans.jsonl", run_id)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
