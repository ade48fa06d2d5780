"""Order statistics of the worker: Harrell-Davis quantiles and the tail rank."""

import pytest

import worker


def test_hd_quantile_of_constant_and_two_point_samples():
    assert worker.hd_quantile([0.3] * 7, 0.5) == pytest.approx(0.3)
    xs = [1.0] * 20 + [3.0] * 21
    assert 1.0 < worker.hd_quantile(xs, 0.5) < 3.0
    assert worker.hd_quantile(xs, 0.1) == pytest.approx(1.0, abs=1e-3)
    assert worker.hd_quantile(xs, 0.9) == pytest.approx(3.0, abs=1e-3)


def test_hd_quantile_moves_smoothly_when_ranks_swap():
    base = [0.1] * 10 + [0.5] * 10 + [1.0] * 11
    nudged = [0.1] * 10 + [0.5] * 9 + [0.52] + [1.0] * 11
    assert abs(worker.hd_quantile(nudged, 0.5) - worker.hd_quantile(base, 0.5)) < 0.02


def test_tail_percentile_leaves_ten_jobs_beyond():
    assert worker.tail_percentile(50) == pytest.approx(80.0)
    assert worker.tail_percentile(10) == 100.0
    assert worker.hd_quantile([0.2, 0.9, 0.5], worker.tail_percentile(3) / 100) == 0.9
