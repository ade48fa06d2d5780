"""trocap benchmark: seeded workloads, end-to-end metrics and a traced run.

Run from the root of a trocap checkout (the directory holding ``src/trocap``):

    python3 perfbench/run.py                          # all four workloads
    python3 perfbench/run.py --workload bounds --seed 3 --seconds 18 --trace 0

Each workload runs in its own worker process (``worker.py``), a closed loop
with one caller; between its jobs the worker starts fresh interpreters that
import trocap, to measure set-up time.  With ``--trace 0`` the last stdout
line is a JSON object with the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a traced run.  The metric names and units are those in
``BENCHMARK.json``; ``perfbench/benchmark_notes.json`` records why each
workload exists, the predictions, known defects and the first baseline.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import subprocess
import sys
import time

RUN_LIMIT_S = 170.0  # the whole run, set-up included, ends within this
OUTDIR = ".bench_out"
UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "fraction",
}
# Set for this process and its children.  One BLAS thread: the matrices are
# small and the machine is shared, so a second thread adds noise rather than
# speed (nproc is the upper limit).
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def run_worker(workload: str, seed: int, seconds: float, trace: int, budget: float) -> dict:
    cmd = [
        sys.executable,
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--outdir", OUTDIR,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=budget)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.monotonic()
    compileall.compile_dir(os.path.join("src", "trocap"), quiet=1)  # warm .pyc
    budget = RUN_LIMIT_S - (time.monotonic() - started)
    result = run_worker(workload, seed, seconds, trace, budget)
    attempted, failed = result["attempted"], result["failed"]
    for line in result["failures"]:
        print(f"[{workload}] FAILED {line}")
    if trace:
        from tracer import unit_of

        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in result["per_layer"].items()}
        print(
            f"[{workload}] traced passes: dominant layer by self time {result['dominant_layer']}; "
            f"tracing overhead {result['per_layer']['trace.overhead']:+.1%}; spans in {result['trace_file']}"
        )
    else:
        values = dict(result["end_to_end"])
        values["ok_ratio"] = (attempted - failed) / attempted
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
        print(
            f"[{workload}] {result['passes']} passes x {result['jobs_per_pass']} jobs; "
            f"job_tail_s is p{result['tail_percentile']:.1f} of {result['tail_samples']} jobs; "
            f"fail_ratio {failed / attempted:.4f}; median speed factor {result['speed_factor_median']:.3f}; "
            f"set-up CPU s {[round(s, 3) for s in result['setup_cpu_s']]}"
        )
        for name, m in metrics.items():
            raw = result["raw"].get(name)
            note = f"  (unscaled {raw:.6g})" if raw is not None and raw != m["value"] else ""
            print(f"[{workload}]   {name:<12} {m['value']:.6g} {m['unit']}{note}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    for key in [k for k in os.environ if k.startswith("TROCAP_") or k == "PYTHONPATH"]:
        del os.environ[key]
    os.environ.update(CHILD_ENV)
    from workloads import WORKLOADS  # imports numpy: after CHILD_ENV is in place

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "trocap", "__init__.py")):
        print("run from the root of a trocap checkout: src/trocap is missing", file=sys.stderr)
        return 2
    os.makedirs(OUTDIR, exist_ok=True)
    try:
        if args.workload != "all":
            print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
            return 0
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
