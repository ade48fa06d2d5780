"""Lines of trocap that no benchmark job runs.

    python3 tools/traffic.py [ROOT] [--workload W ...] [--seeds 1 2 3] [--passes N]

ROOT (by default the checkout this script is in) is a trocap checkout.  Its
``src/trocap`` is loaded under the alias ``trocap_traffic``, as
``tools/abtest.py`` loads a side, and the jobs, their Runner and their checks
come from ROOT's ``perfbench``.  For each workload (all four by default) and
seed, passes 0 .. N-1 (by default those of a benchmark run of ROOT's
``BENCHMARK.json`` ``run_seconds``) run once, in-process, with one BLAS thread,
under ``sys.settrace``; only frames of files under ``src/trocap`` are traced
line by line.  A module's executable lines are the lines of its functions,
lambdas and comprehensions (every code object but the module's and its class
bodies', which run at import).

Prints, per module, how many of its executable lines no job ran, then those
lines as ranges, each within one function (the innermost code object, by its
qualified name) and spanning no line that ran; then the jobs run and their
check failures.
Exits 1 when any job fails its check.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import tempfile
from functools import partial

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def executable_lines(path: str) -> dict[int, str]:
    """{line: qualified name of the innermost function holding it} for the lines of a
    source file's functions, lambdas and comprehensions: not its module or class bodies."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = {}, [(code, False)]
    while stack:
        co, run_at_call = stack.pop()
        if run_at_call:
            lines.update({line: co.co_qualname for _, _, line in co.co_lines() if line is not None})
        for const in co.co_consts:
            if inspect.iscode(const):  # CO_OPTIMIZED: a function frame, not a class body
                stack.append((const, bool(const.co_flags & inspect.CO_OPTIMIZED)))
    return lines


class LineTrace:
    """A sys.settrace tracer that records {file: lines run} for the files under one directory."""

    def __init__(self, directory: str):
        self.prefix = os.path.join(os.path.abspath(directory), "")
        self.seen: dict[str, set[int]] = {}

    def __call__(self, frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(self.prefix):
            return None  # no line events in frames outside the directory
        lines = self.seen.setdefault(path, set())
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local


def missed_ranges(lines: dict[int, str], seen: set[int]) -> list[tuple[int, int, str]]:
    """(first, last, name) per maximal run of executable lines of one function, none of them seen, in line order."""
    out, open_run = [], False
    for line in sorted(lines):
        if line in seen:
            open_run = False
        elif open_run and out[-1][2] == lines[line]:
            out[-1] = (out[-1][0], line, lines[line])
        else:
            out.append((line, line, lines[line]))
            open_run = True
    return out


def main(argv=None) -> int:
    from abtest import load_tree, positive, timed  # the abtest.py beside this file

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("root", nargs="?", default=ROOT)
    ap.add_argument("--workload", nargs="+", help="workloads to run (default: all four)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--passes", type=positive, help="passes per seed (default: those of one benchmark run)")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path.insert(0, os.path.join(root, "perfbench"))
    import workloads
    from worker import Runner

    chosen = args.workload or list(workloads.WORKLOADS)
    if not set(chosen) <= set(workloads.WORKLOADS):
        ap.error(f"workloads must be among {', '.join(workloads.WORKLOADS)}")
    package, cli = load_tree(root, "trocap_traffic")
    src = os.path.dirname(package.__file__)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        run_seconds = json.load(fh)["run_seconds"]
    counts = {w: args.passes or workloads.pass_count(w, run_seconds) for w in chosen}
    jobs = [job for w in chosen for s in args.seeds for i in range(counts[w]) for job in workloads.make_pass(w, s, i)]
    tracer, failures = LineTrace(src), []
    with tempfile.TemporaryDirectory() as tmp:
        runner = Runner(package, cli, tmp)
        runner.write_specs(jobs)  # every job alive: ids stay distinct
        for job in jobs:
            sys.settrace(tracer)
            _, output, why = timed(partial(runner.run, job))  # an exception is a failure
            sys.settrace(None)
            why = why or workloads.check(job, output)
            if why:
                failures.append(f"check failed: {job['id']}: {why}")
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(src, name)
        lines, seen = executable_lines(path), tracer.seen.get(path, set())
        print(f"{name}: {len(set(lines) - seen)} of {len(lines)} executable lines not run")
        for a, b, qualname in missed_ranges(lines, seen):
            print(f"  {a if a == b else f'{a}-{b}':<10}{qualname}")
    for line in failures:
        print(line)
    print(f"{len(jobs)} jobs run; {len(failures)} check failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
