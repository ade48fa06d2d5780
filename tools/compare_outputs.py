"""Compare every benchmark job's output between two trocap checkouts.

    python3 tools/compare_outputs.py PARENT CHANGE [--seeds 1 2]

PARENT and CHANGE are roots of trocap checkouts (each holding ``src/trocap``
and ``perfbench``).  In each tree, a fresh interpreter with one BLAS thread
runs every job of all four workloads, for each seed, at the pass counts of an
18 s benchmark run, through that tree's ``perfbench/worker.py`` Runner and
checks each output with that tree's ``perfbench/workloads.py``.  Each pass
gets a fresh Runner and work directory, so no spec file is keyed by the id of
a job of an earlier pass.  Prints the ids whose outputs differ, each with the
first line where the two trees' outputs part and, when the outputs differ
only in numbers, the largest absolute and relative difference between
corresponding numbers (else ``text differs``); then one line per workload and
job id without its trailing pass index (``bounds:phi_alpha:3`` counts as
``bounds:phi_alpha``) with the number of its differing outputs and their
largest absolute number difference, or ``text differs`` when any of them
differs in text.  Exits 1 when any output fails its check, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from typing import Optional

PASS_SECONDS = 18.0  # the benchmark's run_seconds
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def emit(seeds: list[int], out_path: str) -> None:
    """Run all jobs in the checkout at the working directory; write
    {job key: [output, check failure or None]} as JSON to out_path."""
    root = os.getcwd()
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import trocap
    from trocap import cli

    if not os.path.abspath(trocap.__file__).startswith(os.path.join(root, "src")):
        raise SystemExit(f"trocap imported from {trocap.__file__}, not from {root}")
    import workloads
    from worker import Runner

    results = {}
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            for index in range(workloads.pass_count(workload, PASS_SECONDS)):
                jobs = workloads.make_pass(workload, seed, index)
                with tempfile.TemporaryDirectory() as workdir:
                    runner = Runner(trocap, cli, workdir)
                    runner.write_specs(jobs)
                    for job in jobs:
                        try:
                            output = runner.run(job)
                            why = workloads.check(job, output)
                        except Exception as exc:  # a job boundary, as in the worker
                            output, why = None, f"raised {type(exc).__name__}: {exc}"
                        results[f"{workload}:{seed}:{index}:{job['id']}"] = [output, why]
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


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
    """The per-kind lines for the differing result keys (workload:seed:index:job id)."""
    kinds = {}
    for key in keys:
        workload, _, _, job = key.split(":", 3)
        kind = workload, re.sub(r":\d+$", "", job)
        numbers = number_difference(before.get(key, [None])[0], after.get(key, [None])[0])
        count, worst = kinds.get(kind, (0, 0.0))
        kinds[kind] = count + 1, None if numbers is None or worst is None else max(worst, numbers[0])
    return [
        f"kind {workload} {job}: {count} differ, " + ("text differs" if worst is None else f"max abs {worst:.3g}")
        for (workload, job), (count, worst) in sorted(kinds.items())
    ]


def run_tree(tree: str, seeds: list[int], out_path: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH" and not k.startswith("TROCAP_")}
    cmd = [sys.executable, os.path.abspath(__file__), "--emit", out_path, "--seeds", *map(str, seeds)]
    subprocess.run(cmd, cwd=tree, env={**env, **ENV}, check=True)
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--emit", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.emit:
        emit(args.seeds, args.emit)
        return 0
    if not (args.parent and args.change):
        ap.error("PARENT and CHANGE are required")
    with tempfile.TemporaryDirectory() as tmp:
        before, after = (
            run_tree(tree, args.seeds, os.path.join(tmp, f"{name}.json"))
            for name, tree in (("parent", args.parent), ("change", args.change))
        )
    failed = 0
    for label, results in (("parent", before), ("change", after)):
        for key, (_, why) in results.items():
            if why is not None:
                failed += 1
                print(f"{label} check failed: {key}: {why}")
    differ = [k for k in after if k not in before or json.dumps(before[k][0], sort_keys=True) != json.dumps(after[k][0], sort_keys=True)]
    differ += [k for k in before if k not in after]
    for key in differ:
        outputs = before.get(key, [None])[0], after.get(key, [None])[0]
        parent_line, change_line = first_difference(*outputs)
        numbers = number_difference(*outputs)
        print(f"differs: {key}")
        print(f"  parent: {parent_line}")
        print(f"  change: {change_line}")
        print("  text differs" if numbers is None else "  numbers only: max abs {:.3g}, max rel {:.3g}".format(*numbers))
    for line in tally(before, after, differ):
        print(line)
    print(f"{len(after)} jobs; {len(differ)} outputs differ; {failed} check failures")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
