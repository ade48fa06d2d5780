"""Compare two trocap checkouts in one process: every benchmark job's output and wall time, and the scaling curves.

    python3 tools/abtest.py PARENT CHANGE [--workload W ...] [--seeds 1 2 3] [--reps 7] [--passes N]

PARENT and CHANGE are roots of trocap checkouts.  Each tree's ``src/trocap``
is loaded under its own alias (``trocap_parent``, ``trocap_change``), so both
run side by side in one interpreter with one BLAS thread; the jobs, their
Runner and their checks come from PARENT's ``perfbench``.  For each workload
(all four by default) and seed, the run takes passes 0 .. N-1 (by default
those of a benchmark run of PARENT's ``BENCHMARK.json`` ``run_seconds``) and
writes every job's spec for both trees up front, while all passes are alive,
so no spec is keyed by the id of a job that is gone.  The workload ``curves``
sets up every point of ``scaling.CASES`` (the ``scaling.py`` beside this
script) on both trees.  After one untimed warm-up of the jobs per tree, each
job and point runs all its reps back to back on both trees, and which tree
goes first alternates from rep to rep and from item to item.  The first rep's
outputs are checked and kept per side, keyed ``workload:seed:index:job id``.
Back-to-back reps let a job that repeats a state count cache hits: entropy's
conditional_renyi keeps its last minimum (one entry), so from the second rep
on both minimizations of an optimizers ``conditional_renyi`` job are served
from it, and that kind's per-job times are not a measure of the minimizer.
Gains there come from alternating ``perfbench/run.py`` pairs.

Prints, per job kind (workload and job id without its trailing pass index),
the sum over its jobs of each job's minimum wall time over the reps on each
side and their ratio, then the totals as jobs per second; per curve point,
each side's median and interquartile range over the reps in ms, the ratio of
the medians and the reps the change won (ran faster in).  Then, for each
output that differs, the first line where the two part and either the largest
absolute and relative difference between corresponding numbers or ``text
differs``, and the same per job kind.  Exits 1 when any output fails its check
or any point raises, and 2 if a bare ``trocap`` module was imported (a side
did not run only its own tree); a difference alone is not a failure.  The
gated end-to-end metrics come from alternating ``perfbench/run.py`` processes.
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
from functools import partial
from typing import Optional

SIDES = ("parent", "change")

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread variables)


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


def positive(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text} is below 1")
    return int(text)


def timed(call) -> tuple[float, object, Optional[str]]:
    """(wall seconds, result, failure or None) of call(); an exception is a failure."""
    start = time.perf_counter()
    try:
        output, why = call(), None
    except Exception as exc:  # an item boundary, as in the worker
        output, why = None, "raised " + traceback.format_exception_only(type(exc), exc)[-1].strip()[:300]
    return time.perf_counter() - start, output, why


def built(setup, package):
    """The call setup(package) returns, or one that raises what the set-up raised."""
    try:
        return setup(package)
    except Exception as exc:  # a curve point's boundary: its calls raise, as a job would
        def fail(exc=exc):
            raise exc
        return fail


def alternate(items: list, reps: int) -> tuple[dict, dict]:
    """Time every (key, {side: call}) item on both sides, all its reps back to back
    (each call warm from the last); the side that goes first alternates by rep and item.  Returns
    ({side: {key: wall seconds per rep}}, {side: {key: [result, failure or None] of rep 0}})."""
    times = {side: {key: [] for key, _ in items} for side in SIDES}
    first = {side: {} for side in SIDES}
    for n, (key, calls) in enumerate(items):
        for rep in range(reps):
            for side in SIDES if (rep + n) % 2 == 0 else SIDES[::-1]:
                wall, output, why = timed(calls[side])
                times[side][key].append(wall)
                first[side].setdefault(key, [output, why])
    return times, first


def curve_line(section: str, name: str, size: int, before: list, after: list) -> str:
    """A point's report: each side's median and IQR in ms, their ratio and the reps the change won."""
    (q0, m0, p0), (q1, m1, p1) = (1e3 * np.percentile(times, [25, 50, 75]) for times in (before, after))
    return (f"{section:<12}{name:<70}{size:>6}{m0:>11.3f}{p0 - q0:>9.3f}{m1:>11.3f}{p1 - q1:>9.3f}{m1 / m0:>8.3f}"
            f"{sum(y < x for x, y in zip(before, after)):>5}/{len(after)}")


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
    ap.add_argument("--workload", nargs="+", help="workloads to run, or curves (default: the four benchmark workloads)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--reps", type=positive, default=7)
    ap.add_argument("--passes", type=positive, help="passes per seed (default: those of one benchmark run)")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.parent), "perfbench"))
    import workloads
    from worker import Runner

    chosen = args.workload or list(workloads.WORKLOADS)
    if not set(chosen) <= {*workloads.WORKLOADS, "curves"}:
        ap.error(f"workloads must be among {', '.join(workloads.WORKLOADS)} and curves")
    trees = {side: load_tree(root, f"trocap_{side}") for side, root in zip(SIDES, (args.parent, args.change))}
    for side, (package, _) in trees.items():
        print(f"{side}: {os.path.dirname(package.__file__)} as {package.__name__}")
    with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as fh:
        run_seconds = json.load(fh)["run_seconds"]
    cases = importlib.import_module("scaling").CASES if "curves" in chosen else []  # the scaling.py beside this file
    points = {(section, name, size): setup for section, name, size, setup in cases}
    chosen = [w for w in chosen if w != "curves"]
    counts = {w: args.passes or workloads.pass_count(w, run_seconds) for w in chosen}
    passes = {(w, s, i): workloads.make_pass(w, s, i) for w in chosen for s in args.seeds for i in range(counts[w])}
    jobs = [(f"{w}:{s}:{i}:{job['id']}", job) for (w, s, i), pass_jobs in passes.items() for job in pass_jobs]
    with tempfile.TemporaryDirectory() as tmp:
        runners = {side: Runner(package, cli, tempfile.mkdtemp(dir=tmp)) for side, (package, cli) in trees.items()}
        for runner in runners.values():
            runner.write_specs([job for _, job in jobs])  # every pass alive: ids stay distinct
            for workload in chosen:
                for job in workloads.warmup_jobs(passes[workload, args.seeds[0], 0]):
                    timed(partial(runner.run, job))
        items = [(key, {side: partial(runners[side].run, job) for side in SIDES}) for key, job in jobs]
        items += [(point, {side: built(setup, trees[side][0]) for side in SIDES}) for point, setup in points.items()]
        times, first = alternate(items, args.reps)
    if "trocap" in sys.modules:
        print("a bare trocap module was imported; the two sides did not run only their own trees", file=sys.stderr)
        return 2
    if jobs:
        kinds = {}
        for key, job in jobs:
            kinds.setdefault(key.split(":")[0] + " " + re.sub(r":\d+$", "", job["id"]), []).append(key)
        print(f"{'kind':<52}{'parent s':>11}{'change s':>11}{'ratio':>8}")
        for kind, keys in sorted(kinds.items()):
            parent_s, change_s = (sum(min(times[side][key]) for key in keys) for side in SIDES)
            print(f"{kind:<52}{parent_s:>11.4f}{change_s:>11.4f}{change_s / parent_s:>8.3f}")
        totals = [sum(min(times[side][key]) for key, _ in jobs) for side in SIDES]
        for side, total in zip(SIDES, totals):
            print(f"{side}: {len(jobs)} of {len(jobs)} jobs timed, {args.reps} reps, {len(jobs) / total:.2f} jobs/s")
        print(f"change/parent time {totals[1] / totals[0]:.3f}")
    if points:
        print(f"{'section':<12}{'case':<70}{'size':>6}  parent ms      iqr  change ms      iqr   ratio    won")
    for point in points:
        print(curve_line(*point, *(times[side][point] for side in SIDES)))
    for table in first.values():  # check each job's first output
        for key, job in jobs:
            output, why = table[key]
            table[key] = [output, why or workloads.check(job, output)]
    failures = [f"{side} check failed: {key}: {why}" for side in SIDES for key, (_, why) in first[side].items() if why]
    differ, lines = report(*({key: table[key] for key, _ in jobs} for table in first.values()))
    for line in failures + lines:
        print(line)
    print(f"{2 * len(jobs)} outputs checked; {len(differ)} outputs differ; {len(failures)} check failures; "
          "no bare trocap module imported")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
