"""Compare two trocap checkouts in one process: every benchmark job's output and wall time.

    python3 tools/abtest.py PARENT CHANGE [--workload W ...] [--seeds 1 2 3] [--reps 7] [--passes N]

PARENT and CHANGE are roots of trocap checkouts.  Each tree's ``src/trocap``
is loaded under its own alias (``trocap_parent``, ``trocap_change``), so both
run side by side in one interpreter with one BLAS thread; the jobs, their
Runner and their checks come from PARENT's ``perfbench``.  For each workload
(all four by default) and seed, the run takes passes 0 .. N-1 (by default
those of a benchmark run of PARENT's ``BENCHMARK.json`` ``run_seconds``) and
writes every job's spec for both trees up front, while all passes are alive,
so no spec is keyed by the id of a job that is gone.  After one untimed
warm-up per tree, each rep runs every job on both trees, and which tree goes
first alternates from job to job and from rep to rep.  The first rep's
outputs are checked and kept per side, keyed ``workload:seed:index:job id``.

Prints, per job kind (workload and job id without its trailing pass index),
the sum over its jobs of each job's minimum wall time over the reps on each
side and their ratio, then the totals as jobs per second.  Then, for each
output that differs between the trees, the first line where the two part and
either the largest absolute and relative difference between corresponding
numbers or ``text differs``, and per job kind the count of differing outputs
and their largest absolute number difference (or ``text differs``).  Exits 1
when any output fails its check and 2 if a bare ``trocap`` module was
imported (a side did not run only its own tree); a difference alone is not a
failure.  The gated end-to-end metrics come from alternating
``perfbench/run.py`` processes.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import re
import sys
import tempfile
import time
import traceback
from typing import Optional

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


def run_checked(runner, job, check) -> tuple[float, object, object]:
    """(wall seconds, output, check failure or None) of one job; an exception is a failure."""
    start = time.perf_counter()
    try:
        output, why = runner.run(job), None
    except Exception as exc:  # a job boundary, as in the worker
        output, why = None, "raised " + traceback.format_exception_only(type(exc), exc)[-1].strip()[:300]
    wall = time.perf_counter() - start
    return wall, output, why or (check(job, output) if check else None)


def output_lines(output) -> list[str]:
    """An output as lines: each string field of a dict split at its newlines
    and prefixed by its key, any other value as one JSON line."""
    if not isinstance(output, dict):
        return [json.dumps(output, sort_keys=True)]
    lines = []
    for key in sorted(output):
        value = output[key]
        parts = value.splitlines() if isinstance(value, str) else [json.dumps(value, sort_keys=True)]
        lines += [f"{key}: {part}" for part in parts]
    return lines


def first_difference(before, after) -> tuple[str, str]:
    """The first line at which two outputs part, from each side."""
    a, b = output_lines(before), output_lines(after)
    n = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return tuple(lines[n] if n < len(lines) else "<end of output>" for lines in (a, b))


NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def number_difference(before, after) -> Optional[tuple[float, float]]:
    """(largest absolute, largest relative) difference between corresponding
    numbers of two outputs whose text apart from its numbers is the same, else None."""
    a, b = (NUMBER.split("\n".join(output_lines(x))) for x in (before, after))
    if len(a) != len(b) or a[::2] != b[::2]:
        return None
    pairs = [(float(x), float(y)) for x, y in zip(a[1::2], b[1::2])]
    diffs = [(abs(x - y), abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0) for x, y in pairs]
    return max((d[0] for d in diffs), default=0.0), max((d[1] for d in diffs), default=0.0)


def tally(before: dict, after: dict, keys: list[str]) -> list[str]:
    """The per-kind lines for the differing result keys (workload:seed:index:job id)
    of two {key: [output, check failure or None]} tables."""
    kinds = {}
    for key in keys:
        workload, _, _, job = key.split(":", 3)
        kind = workload, re.sub(r":\d+$", "", job)
        numbers = number_difference(before[key][0], after[key][0])
        count, worst = kinds.get(kind, (0, 0.0))
        kinds[kind] = count + 1, None if numbers is None or worst is None else max(worst, numbers[0])
    return [
        f"kind {workload} {job}: {count} differ, " + ("text differs" if worst is None else f"max abs {worst:.3g}")
        for (workload, job), (count, worst) in sorted(kinds.items())
    ]


def report(before: dict, after: dict) -> tuple[list[str], list[str]]:
    """(the differing keys, the report lines) of two {key: [output, check failure or None]}
    tables on the same keys: for each differing output, where the two part and how, then the tally."""
    dumps = {key: [json.dumps(table[key][0], sort_keys=True) for table in (before, after)] for key in before}
    differ = [key for key, (a, b) in dumps.items() if a != b]
    lines = []
    for key in differ:
        outputs = before[key][0], after[key][0]
        numbers = number_difference(*outputs)
        how = "text differs" if numbers is None else "numbers only: max abs {:.3g}, max rel {:.3g}".format(*numbers)
        lines += [f"differs: {key}"] + [f"  {side}: {line}" for side, line in zip(SIDES, first_difference(*outputs))]
        lines.append(f"  {how}")
    return differ, lines + tally(before, after, differ)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", nargs="+", help="workloads to run (default: all four)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--reps", type=int, default=7)
    ap.add_argument("--passes", type=int, help="passes per seed (default: those of one benchmark run)")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.parent), "perfbench"))
    import workloads
    from worker import Runner

    chosen = args.workload or list(workloads.WORKLOADS)
    if not set(chosen) <= set(workloads.WORKLOADS):
        ap.error(f"workloads must be among {', '.join(workloads.WORKLOADS)}")
    trees = {side: load_tree(root, f"trocap_{side}") for side, root in zip(SIDES, (args.parent, args.change))}
    for side, (package, _) in trees.items():
        print(f"{side}: {os.path.dirname(package.__file__)} as {package.__name__}")
    with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as fh:
        run_seconds = json.load(fh)["run_seconds"]
    counts = {w: args.passes or workloads.pass_count(w, run_seconds) for w in chosen}
    passes = {(w, s, i): workloads.make_pass(w, s, i) for w in chosen for s in args.seeds for i in range(counts[w])}
    jobs = [(f"{w}:{s}:{i}:{job['id']}", job) for (w, s, i), pass_jobs in passes.items() for job in pass_jobs]
    best = {side: {} for side in SIDES}
    results = {side: {} for side in SIDES}  # the first rep's {key: [output, check failure or None]}
    with tempfile.TemporaryDirectory() as tmp:
        runners = {}
        for side, (package, cli) in trees.items():
            os.makedirs(os.path.join(tmp, side))
            runners[side] = Runner(package, cli, os.path.join(tmp, side))
            runners[side].write_specs([job for _, job in jobs])  # every pass alive: ids stay distinct
        for runner in runners.values():
            for workload in chosen:
                for job in workloads.warmup_jobs(passes[workload, args.seeds[0], 0]):
                    run_checked(runner, job, None)
        for rep in range(args.reps):
            for n, (key, job) in enumerate(jobs):
                for side in SIDES if (rep + n) % 2 == 0 else SIDES[::-1]:
                    wall, output, why = run_checked(runners[side], job, workloads.check if rep == 0 else None)
                    best[side][key] = min(wall, best[side].get(key, wall))
                    if rep == 0:
                        results[side][key] = [output, why]
    if "trocap" in sys.modules:
        print("a bare trocap module was imported; the two sides did not run only their own trees", file=sys.stderr)
        return 2
    kinds = {}
    for key, job in jobs:
        kinds.setdefault(key.split(":")[0] + " " + re.sub(r":\d+$", "", job["id"]), []).append(key)
    print(f"{'kind':<52}{'parent s':>11}{'change s':>11}{'ratio':>8}")
    for kind, keys in sorted(kinds.items()):
        parent_s, change_s = (sum(best[side][key] for key in keys) for side in SIDES)
        print(f"{kind:<52}{parent_s:>11.4f}{change_s:>11.4f}{change_s / parent_s:>8.3f}")
    totals = [sum(best[side].values()) for side in SIDES]
    for side, total in zip(SIDES, totals):
        timed = len(best[side])
        print(f"{side}: {timed} of {len(jobs)} jobs timed, {args.reps} reps, {timed / total:.2f} jobs/s")
    print(f"change/parent time {totals[1] / totals[0]:.3f}")
    failures = [
        f"{side} check failed: {key}: {why}"
        for side, table in results.items()
        for key, (_, why) in table.items()
        if why is not None
    ]
    differ, lines = report(*results.values())
    for line in failures + lines:
        print(line)
    print(
        f"{2 * len(jobs)} outputs checked; {len(differ)} outputs differ; {len(failures)} check failures; "
        "no bare trocap module imported"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
