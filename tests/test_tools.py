import importlib.util
import os
import re
import subprocess
import sys
from collections import Counter
from functools import partial

import numpy as np
import pytest

import trocap.cli  # loads every submodule the curve cases read, as abtest.load_tree does
from helpers import load_tool

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_scaling_runs_the_smallest_case_of_each_curve():
    # every curve of every section, so a renamed or removed call (the
    # structure section reaches the private algebra._structure) fails here
    scaling = load_tool("scaling")
    curves = {}
    for section, name, size, setup in scaling.CASES:
        curves.setdefault((section, name), []).append((size, setup))
    assert {section for section, _ in curves} == {"structure", "closure", "verify", "optimizers"}
    small = curves[("structure", "validate_symbol dephasing(k) Schur kernel, 100 calls")]
    assert sorted(size for size, _ in small) == [2, 4, 6, 8]
    rotated = curves[("structure", "validate_symbol rotated dephasing(k) Schur kernel")]
    assert sorted(size for size, _ in rotated) == [8, 16, 32]
    # out of coordinates, the same structure: k blocks (1, 1, 1)
    assert min(rotated)[1](trocap)().certificate.blocks == ((1, 1, 1),) * 8
    built = curves[("structure", "group_random_unitary regular rep of cyclic(k), 100 calls")]
    assert sorted(size for size, _ in built) == [4, 8, 16]
    regular = curves[("structure", "tro_block_decomposition regular rep span of cyclic(k)")]
    assert sorted(size for size, _ in regular) == [4, 8, 16, 32]
    for k, setup in regular:  # k summands of one shape: k blocks (1, 1, 1)
        assert setup(trocap)().blocks == ((1, 1, 1),) * k
    for name in scaling.BLOCK_LISTS:
        block_form = curves[("structure", f"_block_form {name} blocks (stack length), 100 calls")]
        assert sorted(size for size, _ in block_form) == [1, 16, 256]
    closure = curves[("closure", "smallest_containing_tro subspace of [(n, n), (1, 1)] pad (2, 2), 1e-6")]
    assert sorted(size for size, _ in closure) == [5, 17, 37]
    assert len(min(closure)[1](trocap)()) == 5  # the closure is the TRO itself, of dimension n^2 + 1
    pauli = curves[("optimizers", "one_shot_q Pauli (0.4, 0.3, 0.2, 0.1), Q1 ceiling (restarts)")]
    assert sorted(size for size, _ in pauli) == [4, 16, 64]
    polish = curves[("optimizers", "Renyi minimizer stack, thin states reaching the polish, p 4")]
    assert sorted(size for size, _ in polish) == [1, 4, 16]
    # every item runs all 400 rounds, then the polish, which sets no convergence flag
    opt = min(polish)[1](trocap)()
    assert opt.iterations.tolist() == [400] and opt.converged.tolist() == [False]
    for p in (2, 1.5):  # one state per call: d = 4 runs below
        single = curves[("optimizers", f"conditional_renyi seeded full-rank state (dim of A (x) B), p {p}, 100 calls")]
        assert sorted(size for size, _ in single) == [4, 8, 16]
    negative_cb = curves[("optimizers", "negative_cb_entropy numeric (input dim)")]
    assert sorted(size for size, _ in negative_cb) == [2, 4, 7, 8]  # d = 2 runs below
    entropic = curves[("verify", "entropic Schur cyclic(k), 16 samples")]
    assert sorted(size for size, _ in entropic) == [2, 4, 6]  # k = 2 runs below
    schur = curves[("optimizers", "renyi_coherent_channel Schur cyclic(k) p 2")]
    assert sorted(size for size, _ in schur) == [4, 6, 8]  # k = 4 runs below
    dual = curves[("optimizers", "dual Renyi kernel, seeded random Kraus (k, k, k), 1000 calls")]
    assert sorted(size for size, _ in dual) == [2, 4, 8, 16]  # k = 2 runs below
    for cases in curves.values():
        min(cases, key=lambda case: case[0])[1](trocap)()


def test_abtest_alternates_the_sides_and_reports_each_point_from_its_times():
    abtest = load_tool("abtest")
    log, keys, reps = [], ("a", "b", "c"), 4
    items = [(key, {side: partial(log.append, (key, side)) for side in abtest.SIDES}) for key in keys]
    times, first = abtest.alternate(items, reps)
    assert Counter(log) == {(key, side): reps for key in keys for side in abtest.SIDES}
    # each item runs all its reps back to back; the parent goes first at even rep + item
    assert log[::2] == [(key, abtest.SIDES[(rep + n) % 2]) for n, key in enumerate(keys) for rep in range(reps)]
    assert [key for key, _ in log[1::2]] == [key for key, _ in log[::2]]
    for side in abtest.SIDES:
        assert first[side] == {key: [None, None] for key in keys}
        assert all(len(times[side][key]) == reps and min(times[side][key]) > 0 for key in keys)
    for key in keys:
        fields = abtest.curve_line("closure", f"case {key}", 8, times["parent"][key], times["change"][key]).split()
        (q0, m0, p0), (q1, m1, p1) = (1e3 * np.percentile(times[side][key], [25, 50, 75]) for side in abtest.SIDES)
        won = sum(y < x for x, y in zip(times["parent"][key], times["change"][key]))
        assert fields == ["closure", "case", key, "8"] + [f"{x:.3f}" for x in (m0, p0 - q0, m1, p1 - q1, m1 / m0)] + [
            f"{won}/{reps}"
        ]


@pytest.mark.parametrize("option, value", [("--reps", "0"), ("--passes", "-1"), ("--passes", "0")])
def test_abtest_rejects_counts_below_one_before_loading_a_tree(option, value, capsys):
    missing = os.path.join(ROOT, "no such checkout")
    with pytest.raises(SystemExit) as stop:
        load_tool("abtest").main([missing, missing, option, value])
    assert stop.value.code == 2 and f"argument {option}: {value} is below 1" in capsys.readouterr().err


def test_abtest_tells_number_differences_from_text_differences():
    compare = load_tool("abtest")
    before = {"rc": 0, "stdout": "Q1  0.5  1.25e-3  lower\nblocks [(1, 1, 2)]\n"}
    after = {"rc": 0, "stdout": "Q1  0.5000000000001  1.5e-3  lower\nblocks [(1, 1, 2)]\n"}
    absolute, relative = compare.number_difference(before, after)
    assert absolute == pytest.approx(2.5e-4) and relative == pytest.approx(2.5e-4 / 1.5e-3)
    assert compare.number_difference(before, before) == (0.0, 0.0)
    assert compare.number_difference({"x": [1, -2.0]}, {"x": [1, 2]}) == (4.0, 2.0)
    for other in ({**after, "stdout": "Q  0.5  1.25e-3  lower\nblocks [(1, 1, 2)]\n"}, {**before, "csv": "1"}, None):
        assert compare.number_difference(before, other) is None


def test_abtest_tallies_each_kind_of_job():
    compare = load_tool("abtest")
    before = {
        "verify:1:0:verify:dephasing:0": [{"stdout": "slack 0.25"}, None],
        "verify:1:1:verify:dephasing:1": [{"stdout": "slack 0.5"}, None],
        "verify:2:0:verify:phi_alpha": [{"stdout": "slack 0.125"}, None],
        "optimizers:1:0:conditional_renyi:d4": [{"value": 1.0}, None],
        "optimizers:1:0:conditional_renyi:d8": [{"value": 2.0}, None],
        "optimizers:1:1:conditional_renyi:d8": [{"value": 2.0}, None],
    }
    after = {
        **before,
        "verify:1:0:verify:dephasing:0": [{"stdout": "slack 0.2500000000000001"}, None],
        "verify:1:1:verify:dephasing:1": [{"stdout": "slack 0.5000000000000004"}, None],
        "optimizers:1:0:conditional_renyi:d8": [{"value": 2.5}, None],
        "optimizers:1:1:conditional_renyi:d8": [{"value": "nan"}, None],
    }
    keys = [k for k in after if after[k] != before[k]]
    assert compare.tally(before, after, keys) == [
        "kind optimizers conditional_renyi:d8: 2 differ, text differs",
        "kind verify verify:dephasing: 2 differ, max abs 4.44e-16",
    ]
    assert compare.tally(before, before, []) == []


def test_abtest_reports_where_differing_outputs_part_and_tallies_them():
    abtest = load_tool("abtest")
    before = {
        "bounds:1:0:bounds:phi_alpha:0": [{"rc": 0, "stdout": "kind phi\nQ1  0.5  0.75\n"}, None],
        "structure:1:0:describe:schur:k4": [{"rc": 0, "stdout": "TRO: True\n"}, None],
        "verify:2:1:verify:pauli:1": [{"rc": 0, "stdout": "slack 0.125\n"}, None],
    }
    after = {
        **before,
        "bounds:1:0:bounds:phi_alpha:0": [{"rc": 0, "stdout": "kind phi\nQ1  0.5  0.7500000001\n"}, None],
        "verify:2:1:verify:pauli:1": [{"rc": 1, "stdout": "slack 0.125\nfailed\n"}, None],
    }
    differ, lines = abtest.report(before, after)
    assert differ == ["bounds:1:0:bounds:phi_alpha:0", "verify:2:1:verify:pauli:1"]
    assert lines == [
        "differs: bounds:1:0:bounds:phi_alpha:0",
        "  parent: stdout: Q1  0.5  0.75",
        "  change: stdout: Q1  0.5  0.7500000001",
        "  numbers only: max abs 1e-10, max rel 1.33e-10",
        "differs: verify:2:1:verify:pauli:1",
        "  parent: rc: 0",
        "  change: rc: 1",
        "  text differs",
        "kind bounds bounds:phi_alpha: 1 differ, max abs 1e-10",
        "kind verify verify:pauli: 1 differ, text differs",
    ]
    assert abtest.report(before, before) == ([], [])


def test_abtest_runs_every_job_of_both_aliased_trees():
    # the checkout against itself, one pass of each workload (all four when none is
    # named) at one seed and one rep; PYTHONPATH stays as the suite sets it, so a bare
    # `import trocap` would succeed and must be caught
    spec = importlib.util.spec_from_file_location("workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    n = sum(len(workloads.make_pass(workload, 1, 0)) for workload in workloads.WORKLOADS)
    argv = ["--seeds", "1", "--reps", "1", "--passes", "1"]
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "abtest.py"), ROOT, ROOT, *argv],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    for side in ("parent", "change"):
        assert f"{side}: {os.path.join(ROOT, 'src', 'trocap')} as trocap_{side}" in lines
        assert any(line.startswith(f"{side}: {n} of {n} jobs timed, 1 reps") for line in lines)
    assert lines[-1] == f"{2 * n} outputs checked; 0 outputs differ; 0 check failures; no bare trocap module imported"
    kinds = {tuple(line.split()[:2]) for line in lines if line.split()[0] in workloads.WORKLOADS}
    assert {workload for workload, _ in kinds} == set(workloads.WORKLOADS)
    assert ("optimizers", "renyi_coherent_channel:dephasing") in kinds and ("optimizers", "conditional_renyi:d4") in kinds


def test_abtest_times_every_curve_point_on_both_aliased_trees():
    # the smallest point of each curve, the checkout against itself, one rep; the
    # case table is the scaling.py found beside abtest.py on sys.path
    tools = os.path.join(ROOT, "tools")
    code = (
        f"import sys; sys.path.insert(0, {tools!r}); import abtest, scaling\n"
        "curves = {}\n"
        "for case in scaling.CASES:\n"
        "    curves.setdefault(case[:2], []).append(case)\n"
        "scaling.CASES = [min(cases, key=lambda case: case[2]) for cases in curves.values()]\n"
        "print(len(scaling.CASES), 'points')\n"
        f"sys.exit(abtest.main([{ROOT!r}, {ROOT!r}, '--workload', 'curves', '--reps', '1']))\n"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=600, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "54 points"
    for side in ("parent", "change"):
        assert f"{side}: {os.path.join(ROOT, 'src', 'trocap')} as trocap_{side}" in lines
    rows = [line for line in lines if line.split()[0] in ("structure", "closure", "verify", "optimizers")]
    number = r" +\d+\.\d{3}"
    assert len(rows) == 54 and all(re.search(rf" \d+{number * 5} +[01]/1$", row) for row in rows), rows
    assert lines[-1] == "0 outputs checked; 0 outputs differ; 0 check failures; no bare trocap module imported"


def test_traffic_splits_unrun_lines_at_run_lines_and_at_functions():
    traffic = load_tool("traffic")
    lines = {3: "f", 4: "f", 6: "f", 7: "f", 9: "f.<locals>.g", 10: "f", 12: "h"}
    assert traffic.missed_ranges(lines, {7}) == [(3, 6, "f"), (9, 9, "f.<locals>.g"), (10, 10, "f"), (12, 12, "h")]
    assert traffic.missed_ranges(lines, set(lines)) == []


def test_traffic_traces_one_bounds_pass():
    # one pass of the bounds workload at seed 1: every job passes its check; bounds never verifies, so no line of
    # verify runs, while every bounds table certifies its symbol through the block form
    spec = importlib.util.spec_from_file_location("workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    n = len(workloads.make_pass("bounds", 1, 0))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "traffic.py"), "--workload", "bounds", "--seeds", "1",
         "--passes", "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == f"{n} jobs run; 0 check failures"
    heads = [line for line in lines if not line.startswith(" ")][:-1]
    names = sorted(f for f in os.listdir(os.path.join(ROOT, "src", "trocap")) if f.endswith(".py"))
    assert [head.split(":")[0] for head in heads] == names
    [verify] = [head for head in heads if head.startswith("verify.py:")]
    total = int(verify.split(" of ")[1].split()[0])
    assert total > 0 and verify == f"verify.py: {total} of {total} executable lines not run"
    missed = {line.split()[-1] for line in lines if line.startswith("  ")}
    functions = set(load_tool("traffic").executable_lines(os.path.join(ROOT, "src", "trocap", "algebra.py")).values())
    assert "_block_form" in functions and "_block_form" not in missed
