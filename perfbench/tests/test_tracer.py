"""Self-time computation on synthetic span trees, and rebinding on trocap."""

import numpy as np
import pytest

import tracer as tr


def span(name, start, end, parent, info=None):
    return [name, start, end, parent, "job0", info]


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        span("job", 0.0, 10.0, -1),
        span("cli.cmd", 1.0, 4.0, 0),
        span("lapack.svd", 2.0, 3.0, 1),
        span("algebra.is_tro", 5.0, 6.0, 0),
    ]
    assert tr.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        span("job", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("b", 3.0, 6.0, 0),
        span("c", 9.0, 12.0, 0),
    ]
    assert tr.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_on_a_synthetic_tree():
    spans = [
        span("job", 0.0, 8.0, -1),
        span("cli.cmd", 0.0, 8.0, 0),
        span("algebra.validate_symbol", 1.0, 5.0, 1, {"k": 4}),
        span("algebra.is_tro", 1.5, 2.5, 2, {"k": 4, "witness": False}),
        span("algebra.is_tro", 2.0, 2.5, 3, {"k": 4, "witness": True}),  # nested same name
        span("lapack.svd", 3.0, 4.0, 2, {"flops": 10, "mb": 0.5}),
        span("capacity.one_shot_q", 5.0, 7.0, 1),
        span("channel.complement_apply", 5.5, 6.0, 6),
    ]
    m = tr.layer_metrics(spans, passes=2, overhead=0.1)
    assert m["algebra.is_tro.calls"] == 1.0  # 2 calls over 2 passes
    assert m["algebra.is_tro.total_s"] == pytest.approx(0.5)  # outermost only
    assert m["algebra.is_tro.self_s"] == pytest.approx((0.5 + 0.5) / 2)
    assert m["algebra.validate_symbol.self_s"] == pytest.approx((4.0 - 1.0 - 1.0) / 2)
    assert m["algebra.validate_symbol.total_s.k4"] == pytest.approx(4.0)  # mean per call
    assert m["algebra.validate_symbol.total_s.k6"] == 0.0
    assert m["algebra.is_tro.witness_calls"] == 0.5
    assert m["algebra.span_dim.max"] == 4.0
    assert m["lapack.svd.flops_est"] == 5.0 and m["lapack.svd.max_input_mb"] == 0.5
    assert m["capacity.ascent.evals"] == 0.5
    assert m["capacity.ascent.evals_per_s"] == pytest.approx(1 / 2.0)
    assert m["cli.cmd.self_s"] == pytest.approx((8.0 - 4.0 - 2.0) / 2)
    assert m["layer.algebra.incl_share"] == pytest.approx(4.0 / 8.0)
    assert m["layer.algebra.self_share"] == pytest.approx((2.0 + 1.0) / 8.0)
    assert m["verify.inequalities"] == 0.0 and m["verify.inequalities_per_s"] == 0.0
    assert sum(m[f"layer.{layer}.self_share"] for layer in tr.LAYERS) == pytest.approx(1.0)
    assert tr.dominant_layer(m) == "algebra"
    assert {tr.unit_of(n) for n in m} <= {"s", "1/s", "count", "fraction", "MiB", "flop", "iterations", "dim"}


def test_install_rebinds_every_binding_and_uninstall_restores():
    trocap = pytest.importorskip("trocap")
    import trocap.builders  # noqa: F401  (the CLI imports it in real runs)
    original = trocap.algebra.is_tro
    t = tr.Tracer(trocap)
    t.install()
    try:
        assert trocap.is_tro is trocap.algebra.is_tro is not original
        def job():
            ch = trocap.builders.partial_trace_sum_channel([(1, 2)])
            trocap.VerificationReport("x", 1, 0, 1e-9).record("d", "n", 1.0)
            return trocap.is_tro(list(trocap.stinespring_space(ch).basis))

        t.job("j", job)
    finally:
        t.uninstall()
    assert trocap.is_tro is trocap.algebra.is_tro is original
    assert np.linalg.eigh.__module__ != tr.__name__
    names = [s[tr.NAME] for s in t.spans]
    assert names[0] == "job" and "algebra.is_tro" in names and "lapack.svd" in names
    assert all(s[tr.JOB] == "j" for s in t.spans)
    assert names.count("verify.record") == 1


def test_tracer_refuses_a_missing_layer_function(monkeypatch):
    trocap = pytest.importorskip("trocap")
    import trocap.builders  # noqa: F401

    monkeypatch.delattr(trocap.algebra, "algebra_blocks")
    with pytest.raises(AttributeError, match="algebra_blocks"):
        tr.Tracer(trocap)


def test_benchmark_json_lists_every_per_layer_metric_with_its_unit():
    import json
    import os

    path = os.path.join(os.path.dirname(__file__), "..", "..", "BENCHMARK.json")
    listed = {m["name"]: m["unit"] for m in json.load(open(path, encoding="utf-8"))["per_layer"]}
    produced = tr.layer_metrics([], 1, 0.0)
    assert listed == {name: tr.unit_of(name) for name in produced}
