"""One benchmark worker: runs a single workload's passes in this process.

Started by ``run.py`` as a fresh interpreter from the root of a trocap
checkout.  It caps its own address space, imports trocap from ``src/``,
runs an untimed warm-up, then the timed passes (each job under a wall-time
guard), checks every output, and prints one JSON object as its last stdout
line.  Before the first timed job and at SETUP_SAMPLES - 1 evenly spaced
points between jobs it starts a fresh interpreter that imports trocap: the
set-up time samples.  With ``--trace 1`` it runs each pass's jobs twice, untraced and then
traced, and reports per-layer metrics instead of end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np
from scipy.special import betainc

import workloads
from probe import SpeedProbe

ADDRESS_SPACE_CAP = 2 << 30  # bytes; a runaway allocation fails one job
JOB_WALL_CAP_S = 30.0  # one job normally takes under 4 s
RUN_WALL_FACTOR = 2  # stop starting passes after this many times --seconds
# The host's speed drifts in phases of seconds; import samples spread over
# the whole run average over them, where samples taken together did not.
# One sample varies by +-25%; a run reports the median of 9.
SETUP_SAMPLES = 9
IMPORT_SNIPPET = "import sys, time; sys.path.insert(0, 'src'); import trocap; print(repr(time.process_time()))"


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout(f"job exceeded {JOB_WALL_CAP_S:.0f} s")


def _channel(trocap, desc: dict):
    b = trocap.builders
    family = desc["family"]
    if family == "dephasing":
        return b.qubit_dephasing(desc["q"], seed=desc["seed"])
    if family == "phi_alpha":
        return b.phi_alpha(desc["alpha"], seed=desc["seed"]).channel
    if family == "schur":
        phi = [complex(re, im) for re, im in desc["phi"]]
        return b.schur_multiplier_channel(b.cyclic_group(len(phi)), phi, seed=desc["seed"])
    if family == "blocks":
        return b.partial_trace_sum_channel([tuple(x) for x in desc["blocks"]])
    raise ValueError(f"unknown channel family {family!r}")


def _negative_cb_entropy(trocap, a):
    ch = _channel(trocap, a["channel"])
    value = trocap.negative_cb_entropy(ch, mode="numeric", restarts=a["restarts"], seed=a["channel"]["seed"])
    return {"value": value}


def _renyi_coherent_channel(trocap, a):
    ch = _channel(trocap, a["channel"])
    seed = a["channel"]["seed"]
    return {"values": [trocap.renyi_coherent_channel(ch, p, restarts=a["restarts"], seed=seed) for p in a["ps"]]}


def _conditional_renyi(trocap, a):
    dims = tuple(a["dims"])
    h = trocap.conditional_renyi(a["rho"], dims, a["p"], seed=a["seed"]).value
    s1 = trocap.s1_sp_norm(a["rho"], dims, a["p"], seed=a["seed"])
    return {"h": h, "s1": s1, "p": a["p"]}


def _one_shot_q(trocap, a):
    ch = _channel(trocap, a["channel"])
    return {"value": trocap.one_shot_q(ch, restarts=a["restarts"], seed=a["seed"]).value}


API_JOBS = {
    "negative_cb_entropy": _negative_cb_entropy,
    "renyi_coherent_channel": _renyi_coherent_channel,
    "conditional_renyi": _conditional_renyi,
    "one_shot_q": _one_shot_q,
}


class Runner:
    """Runs jobs in-process the way a user's shell or script would."""

    def __init__(self, trocap, cli, workdir: str):
        self.trocap = trocap
        self.cli = cli
        self.workdir = workdir
        self.specs: dict[str, str] = {}

    def write_specs(self, jobs):
        for job in jobs:
            if "spec" in job:
                path = os.path.join(self.workdir, f"spec{len(self.specs)}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(job["spec"], fh)
                self.specs[id(job)] = path

    def run(self, job) -> dict:
        if "api" in job:
            return API_JOBS[job["api"]](self.trocap, job["args"])
        csv_path = os.path.join(self.workdir, "out.csv")
        argv = [a.format(spec=self.specs[id(job)], csv=csv_path) for a in job["cli"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                rc = exc.code
        result = {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
        if "{csv}" in job["cli"] and rc == 0:
            with open(csv_path, encoding="utf-8") as fh:
                result["csv"] = fh.read()
        return result


def run_job(runner, job, tracer=None):
    """(wall_s, cpu_s, failure reason or None); every exception is a failed job."""
    signal.setitimer(signal.ITIMER_REAL, JOB_WALL_CAP_S)
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        if tracer is not None:
            output = tracer.job(job["id"], runner.run, job)
        else:
            output = runner.run(job)
        why = None
    except Exception as exc:  # a job boundary: record and keep going
        output = None
        why = "raised " + traceback.format_exception_only(type(exc), exc)[-1].strip()[:300]
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    signal.setitimer(signal.ITIMER_REAL, 0)
    return wall, cpu, why or workloads.check(job, output)


def import_cpu_s() -> float:
    """CPU seconds a fresh interpreter spends from its start to `import
    trocap` done; CPU rather than wall time leaves out waits for the host's
    other tenants."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"import trocap failed:\n{proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def hd_quantile(xs: list[float], p: float) -> float:
    """Harrell-Davis quantile: a Beta-weighted mean of all order statistics,
    so it moves smoothly when jobs of different sizes swap ranks."""
    xs = np.sort(np.asarray(xs, dtype=float))
    n = len(xs)
    if n == 1 or p >= 1.0:
        return float(xs[-1])
    edges = betainc((n + 1) * p, (n + 1) * (1 - p), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), xs))


def tail_percentile(n: int) -> float:
    """The highest percentile with at least 10 of n jobs above it
    (100 when there are too few jobs)."""
    return 100.0 * (n - 10) / n if n > 10 else 100.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    signal.signal(signal.SIGALRM, _on_alarm)
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
    import trocap
    from trocap import cli

    if not os.path.abspath(trocap.__file__).startswith(os.path.join(root, "src")):
        print(f"trocap imported from {trocap.__file__}, not from this checkout", file=sys.stderr)
        return 2

    from tracer import Tracer, dominant_layer, layer_metrics

    n_passes = workloads.pass_count(args.workload, args.seconds)
    if args.trace:  # every job list runs twice: untraced, then traced
        n_passes = max(1, n_passes // 2)
    pass_jobs = [workloads.make_pass(args.workload, args.seed, i) for i in range(n_passes)]
    schedule = [(jobs, traced) for jobs in pass_jobs for traced in ((False, True) if args.trace else (False,))]
    workdir = os.path.join(args.outdir, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = Runner(trocap, cli, workdir)
        for pj in pass_jobs:
            runner.write_specs(pj)
        failures = []
        warm = workloads.warmup_jobs(pass_jobs[0])
        for job in warm:
            why = run_job(runner, job)[2]
            if why:
                failures.append(f"warm-up {job['id']}: {why}")

        probe = SpeedProbe()
        tracer = Tracer(trocap) if args.trace else None
        passes = []  # per pass: traced flag and (job id, wall, cpu, speed factor, ok) rows
        attempted, failed = len(warm), len(failures)
        setup = [] if args.trace else [import_cpu_s()]
        setup_every = max(1, sum(map(len, pass_jobs)) // (SETUP_SAMPLES - 1))
        timed = 0  # timed jobs run so far
        t_start = time.perf_counter()
        for jobs, traced in schedule:
            if traced:
                tracer.install()
            before = probe()
            rows = []
            for job in jobs:
                wall, cpu, why = run_job(runner, job, tracer if traced else None)
                attempted += 1
                if why:
                    failed += 1
                    failures.append(f"{job['id']}: {why}")
                after = probe()
                rows.append((job["id"], wall, cpu, probe.factor(before, after), why is None))
                timed += 1
                if not args.trace and timed % setup_every == 0 and len(setup) < SETUP_SAMPLES:
                    setup.append(import_cpu_s())
                    after = probe()
                before = after
            if traced:
                tracer.uninstall()
            passes.append((traced, rows))
            pass_done = traced or not args.trace
            if pass_done and time.perf_counter() - t_start > RUN_WALL_FACTOR * args.seconds:
                break

        plain = [rows for traced, rows in passes if not traced]
        result = {
            "attempted": attempted,
            "failed": failed,
            "failures": failures[:20],
            "passes": len(passes),
            "jobs_per_pass": len(pass_jobs[0]),
        }
        if args.trace:
            traced_rows = [rows for traced, rows in passes if traced]

            def scaled_wall(rows):
                return sum(r[1] * r[3] for r in rows)

            # each traced pass against the untraced pass of the same jobs
            overhead = statistics.median(scaled_wall(t) / scaled_wall(p) for p, t in zip(plain, traced_rows)) - 1.0
            result["per_layer"] = layer_metrics(tracer.spans, len(traced_rows), overhead)
            result["dominant_layer"] = dominant_layer(result["per_layer"])
            trace_path = os.path.join(args.outdir, f"trace-{args.workload}-{args.seed}.json")
            tracer.dump(trace_path)
            result["trace_file"] = os.path.relpath(trace_path, root)
        else:
            rows = [r for pass_rows in plain for r in pass_rows]
            pct = tail_percentile(len(rows))
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            speed = statistics.median(r[3] for r in rows)
            for key, scaled in (("end_to_end", True), ("raw", False)):
                lat = [r[1] * (r[3] if scaled else 1.0) for r in rows]
                result[key] = {
                    # the run's median speed factor, not probes around each
                    # import: import time follows the host's speed over a
                    # run, but not the 10 ms probe next to one spawn
                    "setup_s": statistics.median(setup) * (speed if scaled else 1.0),
                    "jobs_per_s": sum(r[4] for r in rows) / sum(lat),
                    "job_p50_s": hd_quantile(lat, 0.5),
                    "job_tail_s": hd_quantile(lat, pct / 100.0),
                    "cpu_s": sum(r[2] * (r[3] if scaled else 1.0) for r in rows) / len(plain),
                    "peak_rss_mb": peak,
                }
            result["setup_cpu_s"] = setup
            result["tail_percentile"] = pct
            result["tail_samples"] = len(rows)
            result["speed_factor_median"] = speed
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
