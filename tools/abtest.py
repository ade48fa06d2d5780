"""Time every benchmark job of one workload on two trocap checkouts in one process.

    python3 tools/abtest.py PARENT CHANGE --workload optimizers [--seeds 1 2 3] [--reps 7] [--passes N]

PARENT and CHANGE are roots of trocap checkouts.  Each tree's ``src/trocap``
is loaded under its own alias (``trocap_parent``, ``trocap_change``), so both
run side by side in one interpreter with one BLAS thread; the jobs, their
Runner and their checks come from PARENT's ``perfbench``.  For each seed the
run takes the workload's passes 0 .. N-1 (by default the pass count of an 18 s
benchmark run) and writes every job's spec for both trees up front, while all
passes are alive, so no spec is keyed by the id of a job that is gone.  After
one untimed warm-up per tree, each rep runs every job on both trees, and which
tree goes first alternates from job to job and from rep to rep.  The outputs of
the first rep are checked, every output of both trees once.

Prints, per job kind (the job id without its trailing pass index, as in
``tools/compare_outputs.py``), the sum over its jobs of each job's minimum
wall time over the reps on each side and their ratio, then the totals as jobs
per second.  The run fails (exit 1) when any output fails its check and stops
(exit 2) if a bare ``trocap`` module was imported, which would mean a side did
not run its own tree.  Per-job minima in one process resolve a few percent;
the gated end-to-end metrics still come from alternating ``perfbench/run.py``
processes.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import re
import sys
import tempfile
import time
import traceback

PASS_SECONDS = 18.0  # the benchmark's run_seconds
SIDES = ("parent", "change")

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"


def load_tree(root: str, alias: str):
    """(package, cli module) of ``root``/src/trocap imported as ``alias``."""
    src = os.path.join(os.path.abspath(root), "src", "trocap")
    spec = importlib.util.spec_from_file_location(
        alias, os.path.join(src, "__init__.py"), submodule_search_locations=[src]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return package, importlib.import_module(f"{alias}.cli")


def run_checked(runner, job, check) -> tuple[float, object]:
    """(wall seconds, check failure or None) of one job; an exception is a failure."""
    start = time.perf_counter()
    try:
        output = runner.run(job)
    except Exception as exc:  # a job boundary, as in the worker
        wall = time.perf_counter() - start
        return wall, "raised " + traceback.format_exception_only(type(exc), exc)[-1].strip()[:300]
    wall = time.perf_counter() - start
    return wall, check(job, output) if check else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--reps", type=int, default=7)
    ap.add_argument("--passes", type=int, help="passes per seed (default: those of an 18 s run)")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.parent), "perfbench"))
    import workloads
    from worker import Runner

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"workload must be one of {', '.join(workloads.WORKLOADS)}")
    trees = {side: load_tree(root, f"trocap_{side}") for side, root in zip(SIDES, (args.parent, args.change))}
    for side, (package, _) in trees.items():
        print(f"{side}: {os.path.dirname(package.__file__)} as {package.__name__}")
    n_passes = args.passes or workloads.pass_count(args.workload, PASS_SECONDS)
    passes = {(s, i): workloads.make_pass(args.workload, s, i) for s in args.seeds for i in range(n_passes)}
    jobs = [(f"{seed}:{index}:{job['id']}", job) for (seed, index), pass_jobs in passes.items() for job in pass_jobs]
    best = {side: {} for side in SIDES}
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        runners = {}
        for side, (package, cli) in trees.items():
            os.makedirs(os.path.join(tmp, side))
            runners[side] = Runner(package, cli, os.path.join(tmp, side))
            runners[side].write_specs([job for _, job in jobs])  # every pass alive: ids stay distinct
        for runner in runners.values():
            for job in workloads.warmup_jobs(next(iter(passes.values()))):
                run_checked(runner, job, None)
        for rep in range(args.reps):
            for n, (key, job) in enumerate(jobs):
                for side in SIDES if (rep + n) % 2 == 0 else SIDES[::-1]:
                    wall, why = run_checked(runners[side], job, workloads.check if rep == 0 else None)
                    best[side][key] = min(wall, best[side].get(key, wall))
                    if why is not None:
                        failures.append(f"{side} check failed: {key}: {why}")
    if "trocap" in sys.modules:
        print("a bare trocap module was imported; the two sides did not run only their own trees", file=sys.stderr)
        return 2
    kinds = {}
    for key, job in jobs:
        kinds.setdefault(f"{args.workload} " + re.sub(r":\d+$", "", job["id"]), []).append(key)
    print(f"{'kind':<52}{'parent s':>11}{'change s':>11}{'ratio':>8}")
    for kind, keys in sorted(kinds.items()):
        parent_s, change_s = (sum(best[side][key] for key in keys) for side in SIDES)
        print(f"{kind:<52}{parent_s:>11.4f}{change_s:>11.4f}{change_s / parent_s:>8.3f}")
    totals = [sum(best[side].values()) for side in SIDES]
    for side, total in zip(SIDES, totals):
        timed = len(best[side])
        print(f"{side}: {timed} of {len(jobs)} jobs timed, {args.reps} reps, {timed / total:.2f} jobs/s")
    print(f"change/parent time {totals[1] / totals[0]:.3f}")
    for line in failures:
        print(line)
    print(f"{2 * len(jobs)} outputs checked; {len(failures)} check failures; no bare trocap module imported")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
