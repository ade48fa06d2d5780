import csv
import dataclasses
import json
import math
import time

import numpy as np
import pytest

from trocap import algebra as alg
from trocap import capacity
from trocap.cli import MAX_GRID_POINTS, SpecBundle, _parse_grid, load_spec, main
from trocap.entropy import binary_entropy
from trocap.errors import HypothesisFailed

from helpers import random_channel, tro_subspace


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


PHI_SPEC = {"kind": "phi_alpha", "params": {"alpha": 0.5}, "seed": 0}
DEPHASING_Q1 = {
    "kind": "schur_multiplier",
    "params": {"group": {"kind": "cyclic", "order": 2}, "phi": [1.0, 1.0]},
    "seed": 0,
}
BLOCKS_SPEC = {"kind": "partial_trace_sum", "params": {"blocks": [[2, 2], [3, 1]]}, "seed": 0}
# the same channel modified by the identity on its 3-dimensional environment
BLOCKS_IDENTITY_SPEC = {**BLOCKS_SPEC, "symbol": np.eye(3).tolist()}
CLOSED_SPEC = {"kind": "partial_trace_sum", "params": {"blocks": [[2, 2], [1, 3]]}, "seed": 0}
# amplitude damping: the dilation range is not triple-product closed
GAMMA = 0.5
AMP_DAMP = {
    "kind": "kraus",
    "params": {
        "kraus": [
            [[1.0, 0.0], [0.0, math.sqrt(1 - GAMMA)]],
            [[0.0, math.sqrt(GAMMA)], [0.0, 0.0]],
        ]
    },
    "seed": 0,
}


class TestBounds:
    def test_phi_alpha_table(self, tmp_path, capsys):
        spec = write_spec(tmp_path, PHI_SPEC)
        assert main(["bounds", spec, "--restarts", "8"]) == 0
        out = capsys.readouterr().out
        target = 1.0 - binary_entropy(0.75)
        row = next(l for l in out.splitlines() if l.startswith("Q "))
        lower, upper = float(row.split()[1]), float(row.split()[2])
        assert lower == pytest.approx(target, abs=1e-3)
        assert upper == pytest.approx(target, abs=1e-9)

    def test_noiseless_dephasing(self, tmp_path, capsys):
        spec = write_spec(tmp_path, DEPHASING_Q1)
        assert main(["bounds", spec, "--restarts", "8"]) == 0
        out = capsys.readouterr().out
        row = next(l for l in out.splitlines() if l.startswith("Q "))
        lower, upper = float(row.split()[1]), float(row.split()[2])
        assert lower == pytest.approx(1.0, abs=1e-6)
        assert upper == pytest.approx(1.0, abs=1e-9)

    def test_csv_output_deterministic(self, tmp_path, capsys):
        spec = write_spec(tmp_path, PHI_SPEC)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["bounds", spec, "--restarts", "4", "--csv", str(out1)]) == 0
        assert main(["bounds", spec, "--restarts", "4", "--csv", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_malformed_kind(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"kind": "bogus", "params": {}})
        assert main(["bounds", spec]) == 2

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["bounds", str(path)]) == 2

    def test_invalid_symbol_exit_code(self, tmp_path, capsys):
        doc = dict(PHI_SPEC)
        doc["symbol"] = [[2.0, 0, 0, 0], [0, 2.0, 0, 0], [0, 0, 0.0, 0], [0, 0, 0, 0.0]]
        spec = write_spec(tmp_path, doc)
        assert main(["bounds", spec]) == 3

    def test_kraus_without_symbol_uses_identity(self, tmp_path, capsys):
        # valid upper bounds from the smallest triple-product-closed space
        spec = write_spec(tmp_path, AMP_DAMP)
        assert main(["bounds", spec, "--restarts", "4"]) == 0
        out = capsys.readouterr().out
        row = next(l for l in out.splitlines() if l.startswith("Q "))
        assert float(row.split()[2]) == pytest.approx(1.0, abs=1e-9)

    def test_kraus_range_inside_a_tro_reads_that_tros_blocks(self, tmp_path, capsys):
        # a 4-dimensional subspace of M_{2,2} (+) M_{1,1} padded to 5 x 5, each
        # element mixed with the missing one at 1e-6, as a Stinespring basis:
        # the smallest TRO containing it has blocks (2, 2) and (1, 1), so the
        # Q window closes at log2 2 = 1, not at log2 5 of all of M_{5,5}
        _, mats = tro_subspace(1, [(2, 2), (1, 1)], (2, 2), 1e-6)
        kraus = np.stack(alg.orthonormal_span(mats)).transpose(2, 1, 0)  # [env, out, in]
        assert kraus.shape == (5, 5, 4)
        pairs = [[[[z.real, z.imag] for z in row] for row in k] for k in kraus]
        spec = write_spec(tmp_path, {"kind": "kraus", "params": {"kraus": pairs}, "seed": 0})
        assert main(["bounds", spec, "--restarts", "4"]) == 0
        row = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("Q "))
        assert row.split()[2] == "1"

    def test_neg_cb_entry_when_formula_applies(self, tmp_path, capsys):
        doc = {
            "kind": "schur_multiplier",
            "params": {"group": {"kind": "cyclic", "order": 2}, "phi": [1.0, 0.7]},
            "seed": 0,
        }
        spec = write_spec(tmp_path, doc)
        assert main(["bounds", spec, "--restarts", "4"]) == 0
        out = capsys.readouterr().out
        row = next(l for l in out.splitlines() if l.startswith("neg_S_cb"))
        assert float(row.split()[1]) == pytest.approx(
            1.0 - binary_entropy(0.85), abs=1e-9
        )

    def test_kraus_with_symbol_bounds_the_modified_channel(self, tmp_path, capsys):
        q = 0.6
        doc = {
            "kind": "kraus",
            "params": {"kraus": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]},
            "symbol": [[1.0, q], [q, 1.0]],
            "seed": 0,
        }
        spec = write_spec(tmp_path, doc)
        assert main(["bounds", spec, "--restarts", "8"]) == 0
        out = capsys.readouterr().out
        row = next(l for l in out.splitlines() if l.startswith("Q "))
        target = 1.0 - binary_entropy((1.0 + q) / 2.0)
        assert float(row.split()[1]) == pytest.approx(target, abs=1e-3)
        assert float(row.split()[2]) == pytest.approx(target, abs=1e-9)

    def test_neg_cb_row_omitted_when_the_complement_is_not_proportionally_unital(self, tmp_path, capsys):
        spec = write_spec(tmp_path, BLOCKS_IDENTITY_SPEC)
        with pytest.raises(HypothesisFailed):
            capacity.negative_cb_entropy(load_spec(spec).channel, "formula")
        assert main(["bounds", spec, "--restarts", "4"]) == 0
        rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]]
        assert "Q" in rows and "neg_S_cb" not in rows

    def test_threads_match_serial(self, tmp_path, capsys):
        spec = write_spec(tmp_path, PHI_SPEC)
        assert main(["bounds", spec, "--restarts", "4", "--threads", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["bounds", spec, "--restarts", "4", "--threads", "4"]) == 0
        threaded = capsys.readouterr().out
        assert serial == threaded


def schur_cyclic_spec(weights):
    phi = np.fft.fft(np.asarray(weights) / np.sum(weights))
    return {
        "kind": "schur_multiplier",
        "params": {
            "group": {"kind": "cyclic", "order": len(phi)},
            "phi": [[z.real, z.imag] for z in phi],
        },
        "seed": 0,
    }


OPEN_WINDOW_SPECS = {
    "phi_alpha": {"kind": "phi_alpha", "params": {"alpha": 0.3}, "seed": 0},
    "dephasing": {
        "kind": "schur_multiplier",
        "params": {"group": {"kind": "cyclic", "order": 2}, "phi": [1.0, 0.7]},
        "seed": 0,
    },
    "pauli": {
        "kind": "group_random_unitary",
        "params": {"rep": "pauli", "distribution": [0.4, 0.3, 0.2, 0.1]},
        "seed": 0,
    },
    "schur_cyclic4": schur_cyclic_spec([0.4, 0.3, 0.2, 0.1]),
    "schur_cyclic8": schur_cyclic_spec([8, 7, 6, 5, 4, 3, 2, 1]),
}


class TestBoundsCeiling:
    """`bounds` stops the ascent at the Q1 upper edge and skips it when the
    window is closed; the table is the one the full ascent gives."""

    @staticmethod
    def record(monkeypatch):
        """Record the Q1 window of each comparison and the ceiling of each
        ascent; returns the record and the unwrapped one_shot_q."""
        seen = {"windows": [], "ceilings": []}
        real_bounds, real_one_shot_q = capacity.comparison_bounds, capacity.one_shot_q

        def bounds(*args, **kwargs):
            report = real_bounds(*args, **kwargs)
            seen["windows"].append((report.entries["Q1"].lower, report.entries["Q1"].upper))
            return report

        def one_shot_q(*args, ceiling=math.inf, **kwargs):
            seen["ceilings"].append(ceiling)
            return real_one_shot_q(*args, ceiling=ceiling, **kwargs)

        monkeypatch.setattr(capacity, "comparison_bounds", bounds)
        monkeypatch.setattr(capacity, "one_shot_q", one_shot_q)
        return seen, real_one_shot_q

    @pytest.mark.parametrize(
        ("name", "restarts"),
        [(name, 8) for name in sorted(OPEN_WINDOW_SPECS) if name != "schur_cyclic8"]
        + [("schur_cyclic8", None)],  # the default 32 restarts
    )
    def test_open_window_matches_the_full_ascent(self, tmp_path, capsys, monkeypatch, name, restarts):
        spec = write_spec(tmp_path, OPEN_WINDOW_SPECS[name])
        argv = ["bounds", spec] + ([] if restarts is None else ["--restarts", str(restarts)])
        seen, real_one_shot_q = self.record(monkeypatch)
        assert main(argv) == 0
        stopped = capsys.readouterr().out
        [(lower, upper)] = seen["windows"]
        assert lower < upper and seen["ceilings"] == [upper]
        # the ascent closes every window but Pauli's, and those are where it stops
        q1 = next(l for l in stopped.splitlines() if l.startswith("Q1 ")).split()
        assert (q1[1] == q1[2]) == (name != "pauli")

        def without_ceiling(*args, ceiling=math.inf, **kwargs):
            return real_one_shot_q(*args, ceiling=math.inf, **kwargs)

        monkeypatch.setattr(capacity, "one_shot_q", without_ceiling)
        assert main(argv) == 0
        assert capsys.readouterr().out == stopped

    def test_kraus_without_symbol_is_certified_once(self, tmp_path, capsys, monkeypatch):
        # amplitude damping (an open window): the ascent gets the spec's own Kraus family, bit for bit, carrying
        # the identity symbol that the table certified, so reading its extremal start certifies nothing again
        spec = write_spec(tmp_path, AMP_DAMP)
        certified, real_certify = [], alg._certify
        ascents, real_one_shot_q = [], capacity.one_shot_q

        def counted(*args, **kwargs):
            certified.append(1)
            return real_certify(*args, **kwargs)

        def recorded(ch, *args, **kwargs):
            ascents.append(ch)
            return real_one_shot_q(ch, *args, **kwargs)

        monkeypatch.setattr(alg, "_certify", counted)
        monkeypatch.setattr(capacity, "one_shot_q", recorded)
        assert main(["bounds", spec, "--restarts", "4"]) == 0
        [ch] = ascents
        assert certified == [1] and ch.symbol is not None
        assert np.array_equal(ch.kraus, load_spec(spec, None).channel.kraus)

    def test_closed_window_skips_the_ascent(self, tmp_path, capsys, monkeypatch):
        spec = write_spec(tmp_path, BLOCKS_SPEC)
        seen, real_one_shot_q = self.record(monkeypatch)
        assert main(["bounds", spec, "--restarts", "8"]) == 0
        [(lower, upper)] = seen["windows"]
        assert lower == upper == pytest.approx(math.log2(3)) and seen["ceilings"] == []
        q1 = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("Q1 "))
        assert "ascent" not in q1
        # the full ascent ends at the edge: its value is the coherent information
        # of a state, at most Q1, so it could not have raised the lower edge
        bundle = load_spec(spec, None)
        full = real_one_shot_q(bundle.channel, restarts=8, seed=bundle.seed, ceiling=math.inf)
        assert lower - 1e-6 < full.value <= upper + 1e-6


class TestVerify:
    def test_dephasing_suite_passes(self, tmp_path, capsys):
        doc = {
            "kind": "schur_multiplier",
            "params": {"group": {"kind": "cyclic", "order": 2}, "phi": [1.0, 0.4]},
            "seed": 0,
        }
        spec = write_spec(tmp_path, doc)
        assert main(["verify", spec, "--suite", "local_comparison", "--samples", "25"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["passed"] is True
        assert payload[0]["samples"] == 25

    def test_identity_symbol_tight(self, tmp_path, capsys):
        spec = write_spec(tmp_path, DEPHASING_Q1)
        doc = json.loads(open(spec).read())
        doc["symbol"] = [[1.0, 0.0], [0.0, 1.0]]
        spec = write_spec(tmp_path, doc, "ident.json")
        assert main(["verify", spec, "--suite", "local_comparison", "--samples", "10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload[0]["worst_slack"]) <= 1e-10

    def test_missing_symbol_is_parse_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path, BLOCKS_SPEC)
        assert main(["verify", spec, "--suite", "local_comparison"]) == 2

    def test_report_file_written(self, tmp_path, capsys):
        spec = write_spec(tmp_path, PHI_SPEC)
        out = tmp_path / "report.json"
        code = main(
            ["verify", spec, "--suite", "tensor_symbol", "--samples", "5", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload[0]["check"] == "tensor_symbol"


    def test_failing_suite_exits_1(self, tmp_path, capsys, monkeypatch):
        from trocap import cli, verify

        def failing(space, symbol, samples, seed):
            report = verify.VerificationReport("local_comparison", samples, seed, 1e-9)
            report.record("digest", "norm_lower@p=2.0", -1.0)
            return report

        monkeypatch.setattr(cli.verify, "verify_local_comparison", failing)
        spec = write_spec(tmp_path, PHI_SPEC)
        assert main(["verify", spec, "--suite", "local_comparison", "--samples", "2"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["passed"] is False and payload[0]["failures"][0]["slack"] == -1.0

    def test_nan_slack_exits_1(self, tmp_path, capsys, monkeypatch):
        # NaN < -tolerance is False: a suite whose slacks were all NaN used to pass
        from trocap import verify

        real_record = verify.VerificationReport.record

        def record_nan(self, digests, names, slacks):
            real_record(self, digests, names, np.full(np.shape(slacks), math.nan))

        monkeypatch.setattr(verify.VerificationReport, "record", record_nan)
        spec = write_spec(tmp_path, PHI_SPEC)
        assert main(["verify", spec, "--suite", "local_comparison", "--samples", "2"]) == 1
        [report] = json.loads(capsys.readouterr().out)
        assert report["passed"] is False and report["failures"] and math.isnan(report["worst_slack"])
        assert all(math.isnan(f["slack"]) for f in report["failures"])


class TestRegion:
    def test_blocks_csv(self, tmp_path):
        spec = write_spec(tmp_path, BLOCKS_SPEC)
        out = tmp_path / "region.csv"
        code = main(
            [
                "region",
                spec,
                "--lambda-grid",
                "0:1:0.5",
                "--mu-grid",
                "0:1:0.5",
                "--csv",
                str(out),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(open(out)))
        # 3x3 grid, six constraints per point
        assert len(rows) == 9 * 6
        base = [r for r in rows if r["lambda"] == "0" and r["mu"] == "0"]
        c2q = next(r for r in base if r["constraint"] == "C+2Q")
        # distribution (4/13, 9/13) puts the entanglement-assisted value here
        assert float(c2q["rhs"]) == pytest.approx(math.log2(13.0), abs=1e-9)

    def test_single_block_constant_rows(self, tmp_path):
        spec = write_spec(tmp_path, {"kind": "partial_trace_sum", "params": {"blocks": [[3, 2]]}})
        out = tmp_path / "region.csv"
        assert main(["region", spec, "--csv", str(out)]) == 0
        rows = list(csv.DictReader(open(out)))
        qe = {r["rhs"] for r in rows if r["constraint"] == "Q+E"}
        assert qe == {f"{math.log2(3.0):.12g}"}

    @pytest.mark.parametrize("grid", ["0:1:0.25", "0:1000:125"])
    @pytest.mark.parametrize("blocks", [[[2, 1], [2, 1], [1, 1]], [[2, 1], [3, 1]], [[1, 1]] * 4])
    def test_csv_matches_per_point_vertices(self, tmp_path, blocks, grid):
        # block sizes n = [2, 2, 1], [2, 3] and [1] * 4; the rows of one vertex call per grid point
        spec = write_spec(tmp_path, {"kind": "partial_trace_sum", "params": {"blocks": blocks}, "seed": 0})
        out = tmp_path / "region.csv"
        assert main(["region", spec, "--lambda-grid", grid, "--mu-grid", "0:2:0.5", "--csv", str(out)]) == 0
        fmt, ns = "{:.12g}".format, [n for n, _ in blocks]
        expected = [["lambda", "mu", "constraint", "rhs"]]
        for lam in _parse_grid(grid, "lambda"):
            for mu in _parse_grid("0:2:0.5", "mu"):
                for fn in (capacity.cqe_region_vertices, capacity.rps_region_vertices):
                    expected += [[fmt(lam), fmt(mu), k, fmt(v)] for k, v in fn(ns, lam, mu).constraints.items()]
        with open(out, newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == expected

    def test_symbol_spec_reads_the_certificate_blocks(self, tmp_path, monkeypatch):
        # the same rows as the channel without a symbol, with no block decomposition
        out = tmp_path / "region.csv"
        assert main(["region", write_spec(tmp_path, BLOCKS_SPEC), "--csv", str(out)]) == 0
        plain = out.read_bytes()

        def no_decomposition(*args, **kwargs):
            raise AssertionError("tro_block_decomposition called")

        monkeypatch.setattr(alg, "tro_block_decomposition", no_decomposition)
        assert main(["region", write_spec(tmp_path, BLOCKS_IDENTITY_SPEC), "--csv", str(out)]) == 0
        assert out.read_bytes() == plain

    def test_non_tro_exits_3(self, tmp_path, capsys):
        spec = write_spec(tmp_path, AMP_DAMP)
        out = tmp_path / "region.csv"
        assert main(["region", spec, "--csv", str(out)]) == 3

    def test_out_of_range_grid_writes_no_file(self, tmp_path):
        # the vertex at mu = -1 raises OutOfRange after the header would have been written
        spec = write_spec(tmp_path, BLOCKS_SPEC)
        out = tmp_path / "region.csv"
        assert main(["region", spec, "--mu-grid=-1:0:1", "--csv", str(out)]) == 3
        assert not out.exists()

    def test_large_lambda_rows_are_finite(self, tmp_path):
        spec = write_spec(tmp_path, BLOCKS_SPEC)
        out = tmp_path / "region.csv"
        assert main(["region", spec, "--lambda-grid", "0:2000:1000", "--csv", str(out)]) == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 3 * 5 * 6 and all(math.isfinite(float(r["rhs"])) for r in rows)
        # at lambda = 1000 the tilt sits on the block of size 3: Q+E = log2 3
        top = {r["rhs"] for r in rows if r["lambda"] == "1000" and r["constraint"] == "Q+E"}
        assert top == {f"{math.log2(3.0):.12g}"}


class TestDescribe:
    def test_phi_alpha(self, tmp_path, capsys):
        spec = write_spec(tmp_path, PHI_SPEC)
        assert main(["describe", spec]) == 0
        out = capsys.readouterr().out
        assert "dim_in: 4  dim_out: 3  dim_env: 4" in out
        assert "TRO: True" in out
        assert "(1, 2, 1)" in out

    def test_amplitude_damping_not_tro(self, tmp_path, capsys):
        spec = write_spec(tmp_path, AMP_DAMP)
        assert main(["describe", spec]) == 0
        out = capsys.readouterr().out
        assert "TRO: False" in out
        assert "witness" in out


    @staticmethod
    def describe(tmp_path, capsys, doc):
        assert main(["describe", write_spec(tmp_path, doc)]) == 0
        return capsys.readouterr().out

    def test_group_table_with_cocycle_matches_cyclic(self, tmp_path, capsys):
        table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
        phi = [1.0, 0.3, 0.1, 0.3]
        cyclic = {"kind": "schur_multiplier", "params": {"group": {"kind": "cyclic", "order": 4}, "phi": phi}}
        explicit = {"kind": "schur_multiplier", "params": {"group": {"table": table, "cocycle": [[1.0] * 4] * 4}, "phi": phi}}
        assert self.describe(tmp_path, capsys, explicit) == self.describe(tmp_path, capsys, cyclic)

    def test_explicit_unitaries_match_pauli(self, tmp_path, capsys):
        klein = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
        paulis = [
            [[1, 0], [0, 1]],
            [[1, 0], [0, -1]],
            [[0, 1], [1, 0]],
            [[0, [0, -1]], [[0, 1], 0]],
        ]
        dist = [0.4, 0.3, 0.2, 0.1]
        named = {"kind": "group_random_unitary", "params": {"rep": "pauli", "distribution": dist}}
        rep = {"group": {"table": klein}, "unitaries": paulis}
        explicit = {"kind": "group_random_unitary", "params": {"rep": rep, "distribution": dist}}
        out = self.describe(tmp_path, capsys, explicit)
        assert out == self.describe(tmp_path, capsys, named) and "TRO: True" in out

    @pytest.mark.parametrize(
        "unitaries", [[[[1, 0], [0, 1]]], [[[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]], ids=["count", "shape"]
    )
    def test_unitaries_of_wrong_count_or_shape_exit_3(self, tmp_path, capsys, unitaries):
        rep = {"group": {"kind": "cyclic", "order": 2}, "unitaries": unitaries}
        spec = write_spec(tmp_path, {"kind": "group_random_unitary", "params": {"rep": rep}})
        assert main(["describe", spec]) == 3
        assert "DimMismatch" in capsys.readouterr().err

    def test_regular_rep_block_matches_its_unitaries(self, tmp_path, capsys):
        from trocap.builders import cyclic_group, regular_representation

        group = {"kind": "cyclic", "order": 3}
        unitaries = [u.real.tolist() for u in regular_representation(cyclic_group(3)).unitaries]
        regular = {"kind": "group_random_unitary", "params": {"rep": {"kind": "regular", "group": group}}}
        explicit = {"kind": "group_random_unitary", "params": {"rep": {"group": group, "unitaries": unitaries}}}
        out = self.describe(tmp_path, capsys, regular)
        assert out == self.describe(tmp_path, capsys, explicit)
        assert "blocks (n, m, multiplicity): [(1, 1, 1), (1, 1, 1), (1, 1, 1)]" in out

    def test_missing_distribution_is_uniform(self, tmp_path, capsys):
        uniform = {"kind": "group_random_unitary", "params": {"rep": "pauli", "distribution": [0.25] * 4}}
        bare = {"kind": "group_random_unitary", "params": {"rep": "pauli"}}
        assert self.describe(tmp_path, capsys, bare) == self.describe(tmp_path, capsys, uniform)


KIND_SPECS = [
    AMP_DAMP,
    BLOCKS_SPEC,
    {"kind": "group_random_unitary", "params": {"rep": "pauli", "distribution": [0.4, 0.3, 0.2, 0.1]}},
    {**DEPHASING_Q1, "params": {**DEPHASING_Q1["params"], "phi": [1.0, 0.4]}},
    PHI_SPEC,
]


class TestSpecBundle:
    """load_spec reads the space and the symbol off the channel it builds."""

    def test_no_symbol_field(self):
        assert [f.name for f in dataclasses.fields(SpecBundle)] == ["kind", "channel", "space", "init_states", "seed"]

    @pytest.mark.parametrize("explicit", [False, True], ids=["kind-symbol", "explicit-symbol"])
    @pytest.mark.parametrize("doc", KIND_SPECS, ids=[doc["kind"] for doc in KIND_SPECS])
    def test_space_is_the_channels_base_or_its_own(self, tmp_path, doc, explicit):
        if explicit:
            plain = load_spec(write_spec(tmp_path, doc), None).channel
            base = plain.base_space.source if plain.base_space else plain  # the kind's base channel
            doc = {**doc, "symbol": np.eye(base.dim_env).tolist()}
        bundle = load_spec(write_spec(tmp_path, doc), None)
        ch = bundle.channel
        if ch.base_space is not None:
            assert bundle.space is ch.base_space
        else:
            assert bundle.space.source is ch
        if explicit:  # the explicit symbol modifies the kind's base channel
            assert ch.base_space is bundle.space and np.array_equal(bundle.space.source.kraus, base.kraus)
            assert np.allclose(ch.symbol.f, np.eye(bundle.space.dim_env)) and bundle.init_states == ()
        else:
            assert (ch.symbol is None) == (doc["kind"] in ("kraus", "partial_trace_sum"))

    @pytest.mark.parametrize("doc", KIND_SPECS[2:], ids=[doc["kind"] for doc in KIND_SPECS[2:]])
    def test_explicit_symbol_load_certifies_only_that_symbol(self, tmp_path, monkeypatch, doc):
        # the kind's own density is checked as a parameter, but never certified as a symbol
        dim_env = load_spec(write_spec(tmp_path, doc), None).space.dim_env
        calls, real = [], alg._certify
        monkeypatch.setattr(alg, "_certify", lambda *args: calls.append(args[1]) or real(*args))
        bundle = load_spec(write_spec(tmp_path, {**doc, "symbol": np.eye(dim_env).tolist()}), None)
        assert len(calls) == 1 and np.array_equal(calls[0], np.eye(dim_env))
        assert np.array_equal(bundle.channel.symbol.f, np.eye(dim_env))


class TestSeeds:
    def test_env_seed_used(self, tmp_path, capsys, monkeypatch):
        doc = {"kind": "phi_alpha", "params": {"alpha": 0.3}}
        spec = write_spec(tmp_path, doc)
        monkeypatch.setenv("TROCAP_SEED", "11")
        assert main(["verify", spec, "--suite", "local_comparison", "--samples", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["seed"] == 11

    def test_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        doc = {"kind": "phi_alpha", "params": {"alpha": 0.3}}
        spec = write_spec(tmp_path, doc)
        monkeypatch.setenv("TROCAP_SEED", "11")
        code = main(
            ["verify", spec, "--suite", "local_comparison", "--samples", "5", "--seed", "4"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["seed"] == 4


def schur3(group):
    """A Schur multiplier spec over a group of order 3 (cyclic when well formed)."""
    return {"kind": "schur_multiplier", "params": {"group": group, "phi": [1.0, 0.5, 0.5]}}


class TestMalformedInput:
    """Malformed input exits 2 (spec error) or 3 (semantic error), never 1."""

    def test_well_formed_group_specs_load(self, tmp_path, capsys):
        for group in ({"kind": "cyclic", "order": 3}, {"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}):
            assert main(["describe", write_spec(tmp_path, schur3(group))]) == 0

    @pytest.mark.parametrize(
        ("doc", "flags", "env"),
        [
            ({**PHI_SPEC, "seed": "x"}, [], None),
            ({**PHI_SPEC, "seed": None}, [], None),
            ({**PHI_SPEC, "seed": 1.5}, [], None),
            ({**PHI_SPEC, "seed": -1}, [], None),
            ({**PHI_SPEC, "seed": True}, [], None),
            (PHI_SPEC, ["--seed", "-1"], None),
            ({"kind": "phi_alpha", "params": {"alpha": 0.5}}, [], "-1"),
            ({**BLOCKS_SPEC, "params": {"blocks": [[2]]}}, [], None),
            ({**BLOCKS_SPEC, "params": {"blocks": [[2, "a"]]}}, [], None),
            ({**BLOCKS_SPEC, "params": {"blocks": [2, 2]}}, [], None),
            (schur3({"kind": "cyclic", "order": 3.9}), [], None),
            (schur3({"kind": "cyclic", "order": "3"}), [], None),
            (schur3({"kind": "cyclic", "order": True}), [], None),
            (schur3({"kind": "cyclic", "order": 0}), [], None),
            (schur3({"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1.7]]}), [], None),
            (schur3({"table": [[0, 1, 2], [1, 2, 0], [2, 0, True]]}), [], None),
            (schur3({"table": [[0, 1, 2], [1, 2, 0], [2, 0]]}), [], None),
            ({"kind": "kraus", "params": {"kraus": [[[True, 0], [0, True]]]}}, [], None),
            ({**PHI_SPEC, "params": {"alpha": True}}, [], None),
            ({**PHI_SPEC, "params": {"alpha": "0.5"}}, [], None),
            ({"kind": "group_random_unitary", "params": {"rep": "pauli", "distribution": [True, 0, 0, 0]}}, [], None),
            ({"kind": "group_random_unitary", "params": {"rep": "pauli", "distribution": ["0.25"] * 4}}, [], None),
            ({"kind": "schur_multiplier", "params": {"group": {"kind": "cyclic", "order": 2}, "phi": [1, True]}}, [], None),
        ],
        ids=[
            "seed-str", "seed-null", "seed-float", "seed-negative", "seed-bool", "flag-negative",
            "env-negative", "block-short", "block-str", "block-not-list", "order-float", "order-str",
            "order-bool", "order-zero", "table-float", "table-bool", "table-ragged", "kraus-bool",
            "alpha-bool", "alpha-str", "distribution-bool", "distribution-str", "phi-bool",
        ],
    )
    def test_malformed_spec_exits_2(self, tmp_path, capsys, monkeypatch, doc, flags, env):
        if env is None:
            monkeypatch.delenv("TROCAP_SEED", raising=False)
        else:
            monkeypatch.setenv("TROCAP_SEED", env)
        spec = write_spec(tmp_path, doc)
        assert main(["describe", spec] + flags) == 2
        assert capsys.readouterr().err.startswith("spec error:")

    @pytest.mark.parametrize(
        ("doc", "flags", "env", "message"),
        [
            ({**PHI_SPEC, "symbol": 5}, [], None, "symbol: expected a nested array (row-major matrix)"),
            ({**PHI_SPEC, "symbol": [[1, 0], [0]]}, [], None, "symbol: ragged rows"),
            (
                schur3({"kind": "dihedral", "order": 3}),
                [],
                None,
                "params.group: expected {'kind': 'cyclic', 'order': n} or {'table': ...}",
            ),
            (
                {"kind": "group_random_unitary", "params": {"rep": "bogus"}},
                [],
                None,
                "params.rep: expected 'pauli', a regular-representation block, or unitaries",
            ),
            (None, [], None, "cannot read spec file: "),
            ([PHI_SPEC], [], None, "top level must be an object"),
            ({"kind": "phi_alpha", "params": [0.5]}, [], None, "field 'params' must be an object"),
            ({"kind": "phi_alpha", "params": {"alpha": 0.5}}, [], "x", "TROCAP_SEED must be an integer: "),
            (
                {"kind": "schur_multiplier", "params": {"group": {"kind": "cyclic", "order": 2}, "phi": 1.0}},
                [],
                None,
                "params.phi must be a list of values over group elements",
            ),
            ({"kind": "phi_alpha", "params": {}}, [], None, "params.alpha is required for kind 'phi_alpha'"),
            (BLOCKS_SPEC, ["--lambda-grid", "0:1"], None, "--lambda-grid: expected a:b:step"),
            (BLOCKS_SPEC, ["--mu-grid", "0:one:0.5"], None, "--mu-grid: non-numeric grid bounds"),
        ],
        ids=[
            "matrix-not-array", "matrix-ragged", "group-unknown", "rep-unknown", "file-missing",
            "top-not-object", "params-not-object", "env-seed-not-int", "phi-not-list", "alpha-missing",
            "grid-not-three-parts", "grid-not-numeric",
        ],
    )
    def test_spec_error_exits_2_with_its_message(self, tmp_path, capsys, monkeypatch, doc, flags, env, message):
        if env is None:
            monkeypatch.delenv("TROCAP_SEED", raising=False)
        else:
            monkeypatch.setenv("TROCAP_SEED", env)
        spec = str(tmp_path / "missing.json") if doc is None else write_spec(tmp_path, doc)
        command = ["region", spec, "--csv", str(tmp_path / "r.csv")] if flags else ["describe", spec]
        assert main(command + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"spec error: {message}") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["describe", "verify"])
    @pytest.mark.parametrize(
        ("params", "field"),
        [
            ({"kraus": 5}, "params.kraus"),
            ({"kraus": None}, "params.kraus"),
            ({}, "params.kraus"),
            ({"rep": {"group": {"kind": "cyclic", "order": 2}, "unitaries": 5}}, "params.rep.unitaries"),
            ({"rep": {"group": {"kind": "cyclic", "order": 2}, "unitaries": None}}, "params.rep.unitaries"),
        ],
        ids=["kraus-number", "kraus-null", "kraus-missing", "unitaries-number", "unitaries-null"],
    )
    def test_matrix_list_that_is_not_an_array_exits_2_naming_it(self, tmp_path, capsys, command, params, field):
        doc = {"kind": "group_random_unitary" if "rep" in params else "kraus", "params": params}
        assert main([command, write_spec(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"spec error: {field}:") and "Traceback" not in err

    def test_nan_kraus_entry_not_trace_preserving(self, tmp_path, capsys):
        doc = {"kind": "kraus", "params": {"kraus": [[[1.0, 0.0], [0.0, math.nan]]]}}
        spec = write_spec(tmp_path, doc)
        assert main(["describe", spec]) == 3
        assert "NotTracePreserving" in capsys.readouterr().err

    def test_nan_cocycle_entry_rejected(self, tmp_path, capsys):
        group = {"table": [[0, 1], [1, 0]], "cocycle": [[1, 1], [1, math.nan]]}
        doc = {"kind": "schur_multiplier", "params": {"group": group, "phi": [1.0, 0.5]}}
        assert main(["describe", write_spec(tmp_path, doc)]) == 3
        assert "DimMismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("phi", [[1.0, math.nan, 0.3], [1.0, math.inf, math.inf]], ids=["nan", "inf"])
    def test_non_finite_phi_entry_rejected(self, tmp_path, capsys, phi):
        # json reads NaN and Infinity; the kernel's hermiticity test rejects them
        doc = {"kind": "schur_multiplier", "params": {"group": {"kind": "cyclic", "order": 3}, "phi": phi}}
        assert main(["describe", write_spec(tmp_path, doc)]) == 3
        err = capsys.readouterr().err
        assert "NotPositiveDefinite" in err and "Traceback" not in err

    def test_nan_distribution_entry_rejected(self, tmp_path, capsys):
        doc = {"kind": "group_random_unitary", "params": {"rep": "pauli", "distribution": [0.25, 0.25, 0.25, math.nan]}}
        assert main(["describe", write_spec(tmp_path, doc)]) == 3
        assert "BadDistribution" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_samples_below_one_rejected(self, tmp_path, capsys, samples):
        spec = write_spec(tmp_path, PHI_SPEC)
        with pytest.raises(SystemExit) as exc:
            main(["verify", spec, "--samples", samples])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("doc", [CLOSED_SPEC, PHI_SPEC], ids=["closed-window", "open-window"])
    @pytest.mark.parametrize("restarts", ["0", "-1"])
    def test_restarts_below_one_rejected(self, tmp_path, capsys, doc, restarts):
        spec = write_spec(tmp_path, doc)
        with pytest.raises(SystemExit) as exc:
            main(["bounds", spec, "--restarts", restarts])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_grid_points_from_their_index(self):
        grid = _parse_grid("0:100:0.01", "--lambda-grid")
        assert len(grid) == 10001 and grid[-1] == 100.0 and grid[4321] == 43.21
        assert _parse_grid("0:1:0.25", "--mu-grid") == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert _parse_grid("0:0.3:0.1", "--mu-grid") == [0.0, 0.1, 0.2, 0.3]

    @pytest.mark.parametrize(
        "grid", ["0:inf:1", "nan:1:0.5", "0:1:nan", "1:0:0.5", "0:1e308:1e-308", "0:1:1e-320"]
    )
    def test_bad_grid_exits_2(self, tmp_path, capsys, grid):
        spec = write_spec(tmp_path, BLOCKS_SPEC)
        argv = ["region", spec, "--lambda-grid", grid, "--csv", str(tmp_path / "r.csv")]
        assert main(argv) == 2

    @pytest.mark.parametrize(
        "grids",
        [["--lambda-grid", "0:1e9:1"], ["--lambda-grid", "0:999:1", "--mu-grid", "0:1:0.01"]],
        ids=["axis", "product"],
    )
    def test_grid_above_the_point_cap_exits_2_at_once(self, tmp_path, capsys, grids):
        # an axis is checked before any point is built, and the product of the
        # axes (1000 x 101 points, each under the cap) before the mesh
        spec = write_spec(tmp_path, BLOCKS_SPEC)
        argv = ["region", spec, *grids, "--csv", str(tmp_path / "r.csv")]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        assert f"cap of {MAX_GRID_POINTS}" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()


class TestOneStructurePerCommand:
    """Each command builds a channel's structure once and reads it from the symbol."""

    @staticmethod
    def count(monkeypatch, name):
        calls, real = [], getattr(alg, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(alg, name, counting)
        return calls

    def test_verify_all_builds_two_structures(self, tmp_path, capsys, monkeypatch):
        spec = write_spec(tmp_path, PHI_SPEC)
        calls = self.count(monkeypatch, "_structure")
        assert main(["verify", spec, "--suite", "all", "--samples", "2"]) == 0
        assert len(calls) == 2  # the spec's symbol and the tensor symbol

    def test_describe_makes_one_structure_attempt(self, tmp_path, capsys, monkeypatch):
        spec = write_spec(tmp_path, schur_cyclic_spec(np.arange(12, 0, -1)))
        structures, calls = self.count(monkeypatch, "_structure"), self.count(monkeypatch, "_attempt")
        assert main(["describe", spec]) == 0
        assert "dilation range is a TRO: True" in capsys.readouterr().out
        assert len(structures) == len(calls) == 1  # the closure's, inside validate_symbol

    def test_describe_without_symbol_makes_one_structure_attempt(self, tmp_path, capsys, monkeypatch):
        # the triple-product check's block attempt also gives the blocks
        spec = write_spec(tmp_path, BLOCKS_SPEC)
        structures, calls = self.count(monkeypatch, "_structure"), self.count(monkeypatch, "_attempt")
        assert main(["describe", spec]) == 0
        out = capsys.readouterr().out
        assert "dilation range is a TRO: True" in out
        assert "blocks (n, m, multiplicity): [(2, 2, 1), (3, 1, 1)]" in out
        assert len(structures) == len(calls) == 1

    @pytest.mark.parametrize("shape", [(6, 3, 3), (12, 5, 3)], ids=str)
    def test_describe_of_a_non_tro_kraus_span_makes_one_attempt(self, tmp_path, capsys, monkeypatch, shape):
        # the structure workload's non-TRO Kraus shapes (in, out, env): the
        # witness scan rejects the span, and no fresh seed is drawn for it
        kraus = random_channel(np.random.default_rng(shape[0]), *shape).kraus
        pairs = [[[[z.real, z.imag] for z in row] for row in k] for k in kraus]
        spec = write_spec(tmp_path, {"kind": "kraus", "params": {"kraus": pairs}, "seed": 3})
        calls = self.count(monkeypatch, "_attempt")
        assert main(["describe", spec]) == 0
        assert "dilation range is a TRO: False" in capsys.readouterr().out
        assert len(calls) == 1


class TestColdProcess:
    def test_verify_and_bounds_do_not_import_numpy_ma(self, tmp_path):
        # numpy.ma costs about 15 ms of import time in a fresh process, and no command needs it
        import os
        import subprocess
        import sys

        import trocap

        names = ("dephasing", "phi_alpha", "pauli")
        specs = [write_spec(tmp_path, OPEN_WINDOW_SPECS[k], f"{k}.json") for k in names]
        script = (
            "import contextlib, io, sys\n"
            "from trocap.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main([cmd, spec, '--samples', '4'] if cmd == 'verify' else [cmd, spec])\n"
            "             for spec in sys.argv[1:] for cmd in ('verify', 'bounds')]\n"
            "print(codes, 'numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(trocap.__file__)))
        run = subprocess.run(
            [sys.executable, "-c", script, *specs], capture_output=True, text=True, env=env, check=True
        )
        assert run.stdout.split() == ["[0,", "0,", "0,", "0,", "0,", "0]", "False"]
