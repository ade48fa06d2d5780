"""Command-line front end.

Subcommands: ``bounds`` (capacity window table), ``verify`` (randomized
inequality suites), ``region`` (capacity-region vertex CSV), ``describe``
(dimensions, block structure, symbol certificate).

Channel spec files are UTF-8 JSON: one ``kind`` with a kind-specific
``params`` block, an optional explicit ``symbol`` matrix, and an optional
``seed``.  Complex entries are written as [re, im] pairs; matrices are
row-major nested arrays.

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 semantic
or precondition error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import algebra as alg
from . import builders, capacity, verify
from .channel import Channel, StinespringSpace, from_kraus, modified_channel, stinespring_space
from .errors import HypothesisFailed, TrocapError

FLOAT_FMT = "{:.12g}"
MAX_GRID_POINTS = 100_000  # points of a region grid, and so of each of its axes


class SpecError(Exception):
    """Malformed spec document (exit code 2)."""


def _fmt(x: float) -> str:
    return FLOAT_FMT.format(x)


def _is_number(obj) -> bool:  # a JSON number: neither a bool nor a numeric string
    return isinstance(obj, (int, float)) and not isinstance(obj, bool)


def _parse_scalar(obj, where: str) -> complex:
    if _is_number(obj):
        return complex(obj)
    if isinstance(obj, list) and len(obj) == 2 and all(map(_is_number, obj)):
        return complex(obj[0], obj[1])
    raise SpecError(f"{where}: expected a number or [re, im] pair, got {obj!r}")


def _parse_matrix(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise SpecError(f"{where}: expected a nested array (row-major matrix)")
    rows = []
    for i, row in enumerate(obj):
        rows.append([_parse_scalar(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)])
    width = {len(r) for r in rows}
    if len(width) != 1:
        raise SpecError(f"{where}: ragged rows")
    return np.array(rows, dtype=complex)


def _parse_matrices(obj, where: str) -> list[np.ndarray]:
    if not isinstance(obj, list):
        raise SpecError(f"{where}: expected an array of matrices, got {obj!r}")
    return [_parse_matrix(m, f"{where}[{i}]") for i, m in enumerate(obj)]


def _parse_group(obj, where: str) -> builders.FiniteGroup:
    if isinstance(obj, dict) and obj.get("kind") == "cyclic":
        order = obj.get("order")
        if type(order) is not int or order < 1:
            raise SpecError(f"{where}: cyclic group needs an integer 'order' of at least 1, got {order!r}")
        return builders.cyclic_group(order)
    if isinstance(obj, dict) and "table" in obj:
        rows, cocycle = obj["table"], obj.get("cocycle")
        if not isinstance(rows, list) or not all(
            isinstance(r, list) and len(r) == len(rows) and all(type(v) is int for v in r) for r in rows
        ):
            raise SpecError(f"{where}.table: expected a square array of integer indices")
        coc = _parse_matrix(cocycle, f"{where}.cocycle") if cocycle is not None else None
        return builders.FiniteGroup(table=np.array(rows, dtype=int), cocycle=coc)
    raise SpecError(f"{where}: expected {{'kind': 'cyclic', 'order': n}} or {{'table': ...}}")


def _parse_rep(obj, where: str) -> builders.ProjectiveRep:
    if obj == "pauli":
        return builders.pauli_rep()
    if isinstance(obj, dict) and obj.get("kind") == "regular":
        return builders.regular_representation(_parse_group(obj.get("group"), f"{where}.group"))
    if isinstance(obj, dict) and "unitaries" in obj:
        group = _parse_group(obj.get("group"), f"{where}.group")
        return builders.ProjectiveRep.from_unitaries(group, _parse_matrices(obj["unitaries"], f"{where}.unitaries"))
    raise SpecError(f"{where}: expected 'pauli', a regular-representation block, or unitaries")


@dataclass
class SpecBundle:
    """Everything a command needs from one channel spec document."""

    kind: str
    channel: Channel
    space: StinespringSpace
    init_states: tuple[np.ndarray, ...]
    seed: int


KINDS = ("kraus", "partial_trace_sum", "group_random_unitary", "schur_multiplier", "phi_alpha")


def load_spec(path: str, seed_override: Optional[int] = None) -> SpecBundle:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise SpecError("top level must be an object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SpecError(f"field 'kind' must be one of {KINDS}, got {kind!r}")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise SpecError("field 'params' must be an object")
    seed = doc.get("seed", 0)
    if seed_override is not None:
        seed = seed_override
    elif os.environ.get("TROCAP_SEED") and "seed" not in doc:
        try:
            seed = int(os.environ["TROCAP_SEED"])
        except ValueError as exc:
            raise SpecError(f"TROCAP_SEED must be an integer: {exc}") from exc
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise SpecError(f"seed must be a non-negative integer, got {seed!r}")

    init_states: tuple[np.ndarray, ...] = ()
    f = None  # a modified kind's own environment density, which modifies its base channel ch
    if kind == "kraus":
        ch = from_kraus(_parse_matrices(params.get("kraus"), "params.kraus"))
    elif kind == "partial_trace_sum":
        blocks = params.get("blocks")
        if not isinstance(blocks, list) or not all(
            isinstance(b, list) and len(b) == 2 and all(type(v) is int for v in b) for b in blocks
        ):
            raise SpecError("params.blocks must be a list of [n, m] integer pairs")
        ch = builders.partial_trace_sum_channel([tuple(b) for b in blocks])
    elif kind == "group_random_unitary":
        rep = _parse_rep(params.get("rep"), "params.rep")
        dist = params.get("distribution")
        if dist is None:
            dist = [1.0 / rep.group.order] * rep.group.order
        if not isinstance(dist, list) or not all(map(_is_number, dist)):
            raise SpecError("params.distribution must be a list of numbers")
        ch, f = builders._random_unitary_base(rep, [float(v) for v in dist])
    elif kind == "schur_multiplier":
        group = _parse_group(params.get("group"), "params.group")
        phi = params.get("phi")
        if not isinstance(phi, list):
            raise SpecError("params.phi must be a list of values over group elements")
        values = [_parse_scalar(v, f"params.phi[{i}]") for i, v in enumerate(phi)]
        ch, f = builders._schur_multiplier_base(group, values)
    else:  # phi_alpha
        if "alpha" not in params:
            raise SpecError("params.alpha is required for kind 'phi_alpha'")
        if not _is_number(params["alpha"]):
            raise SpecError("params.alpha must be a number")
        ch, f, init_states = builders._phi_alpha_base(float(params["alpha"]))

    if "symbol" in doc:
        # an explicit symbol modifies the kind's base channel in place of the
        # kind's own density, which is never certified
        f, init_states = _parse_matrix(doc["symbol"], "symbol"), ()
    if f is not None:
        ch = alg._modified(ch, f, seed)
    return SpecBundle(kind, ch, ch.base_space or stinespring_space(ch), init_states, seed)


def cmd_bounds(args, bundle: SpecBundle) -> int:
    ch, space = bundle.channel, bundle.space
    report = capacity.comparison_bounds(space, symbol := capacity._own_symbol(ch, space, bundle.seed))
    window = report.entries["Q1"]  # Q and P share it; the ascent cannot raise a closed one
    if window.lower < window.upper:
        best = capacity.one_shot_q(
            ch if ch.symbol else modified_channel(space, symbol),  # the same Kraus family, certified once
            restarts=args.restarts,
            seed=bundle.seed,
            init_states=bundle.init_states or None,
            ceiling=window.upper,
        )
        for name in ("Q1", "Q", "P"):
            entry = report.entries[name]
            prov = f"lower: one-shot coherent-information ascent; upper: {entry.provenance}"
            report.raise_lower(name, best.value, prov)
    if ch.symbol is not None:
        try:
            neg = capacity.negative_cb_entropy(ch, "formula")
            report.set("neg_S_cb", neg, neg, "closed form (proportionally unital complement)")
        except HypothesisFailed:
            pass  # hypothesis fails for this channel; quantity omitted
    report.check()

    entries = [(q, report.entries[q]) for q in capacity.QUANTITIES if q in report.entries]
    rows = [[q, _fmt(e.lower), _fmt(e.upper), e.provenance] for q, e in entries]  # for the table and the CSV
    print(f"{'quantity':<10} {'lower':>16} {'upper':>16}  provenance")
    for name, lower, upper, prov in rows:
        print(f"{name:<10} {lower:>16} {upper:>16}  {prov}")
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["quantity", "lower", "upper", "provenance"], *rows])
    return 0


SUITES = ("local_comparison", "entropic", "tensor_symbol", "all")


def cmd_verify(args, bundle: SpecBundle) -> int:
    space, symbol, kw = bundle.space, bundle.channel.symbol, {"samples": args.samples, "seed": bundle.seed}
    if symbol is None:
        raise SpecError(f"suite {args.suite!r} needs a symbol block in the spec")
    suites = {  # in report order
        "local_comparison": lambda: verify.verify_local_comparison(space, symbol, **kw),
        "entropic": lambda: verify.verify_entropic(space, symbol, **kw),
        "tensor_symbol": lambda: verify.verify_tensor_symbol(space, symbol, space, symbol, **kw),
    }
    reports = [run() for name, run in suites.items() if args.suite in (name, "all")]
    payload = json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0 if all(r.passed for r in reports) else 1


def _parse_grid(text: str, where: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise SpecError(f"{where}: expected a:b:step")
    try:
        a, b, step = (float(v) for v in parts)
    except ValueError as exc:
        raise SpecError(f"{where}: non-numeric grid bounds") from exc
    if not (step > 0 and b >= a and math.isfinite((b - a) / step)):
        raise SpecError(f"{where}: need step > 0, finite b >= a and finitely many points")
    # each point from its index, so rounding does not pile up along the grid
    count = math.floor((b - a) / step + 1e-9) + 1
    if count > MAX_GRID_POINTS:
        raise SpecError(f"{where}: {count} points, above the cap of {MAX_GRID_POINTS}")
    return [round(a + i * step, 12) for i in range(count)]


def cmd_region(args, bundle: SpecBundle) -> int:
    if bundle.channel.symbol is not None:
        blocks = bundle.channel.symbol.certificate.blocks
    else:
        blocks = alg.tro_block_decomposition(bundle.space, seed=bundle.seed).blocks
    lams = _parse_grid(args.lambda_grid, "--lambda-grid")
    mus = _parse_grid(args.mu_grid, "--mu-grid")
    if len(lams) * len(mus) > MAX_GRID_POINTS:
        raise SpecError(f"grid of {len(lams) * len(mus)} points, above the cap of {MAX_GRID_POINTS}")
    grid = np.meshgrid(lams, mus, indexing="ij")
    vertices = (capacity.cqe_region_vertices(blocks, *grid), capacity.rps_region_vertices(blocks, *grid))
    rhs = {name: v for vertex in vertices for name, v in vertex.constraints.items()}
    rows, mu_texts = [["lambda", "mu", "constraint", "rhs"]], [_fmt(mu) for mu in mus]
    for i, lam in enumerate(map(_fmt, lams)):
        for j, mu in enumerate(mu_texts):
            rows += [[lam, mu, name, _fmt(v[i, j])] for name, v in rhs.items()]
    # every row before the file opens: a failing vertex leaves no partial CSV
    with open(args.csv, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return 0


def cmd_describe(args, bundle: SpecBundle) -> int:
    ch = bundle.channel
    print(f"kind: {bundle.kind}")
    print(f"dim_in: {ch.dim_in}  dim_out: {ch.dim_out}  dim_env: {ch.dim_env}")
    cert = ch.symbol.certificate if ch.symbol is not None else None
    if cert is not None and cert.space_is_tro:  # validate_symbol checked it as its own closure
        check = alg.TroCheck(True, None, 0.0)
    else:  # is_tro, for the witness; its block attempt also gives the blocks below
        _, blocks, check = alg._structure(bundle.space.basis, alg.TRO_TOL, seed=bundle.seed)
    print(f"dilation range is a TRO: {check.ok}")
    if not check.ok:
        print(f"  witness triple: {check.witness}  residual: {_fmt(check.residual)}")
    if cert is not None or check.ok:  # the certificate's blocks, else those _structure settled
        print(f"blocks (n, m, multiplicity): {list((cert or alg._decompose(blocks, check)).blocks)}")
    if cert is not None:
        print(f"symbol independence residuals: {[_fmt(r) for r in cert.residuals]}")
        print(f"right algebra dimension: {cert.right_algebra_dim}")
        print(f"dilation range spans the block space: {cert.space_is_tro}")
    return 0


def _count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trocap",
        description="Capacity windows and structure detection for block-structured channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, about):  # every subcommand reads one spec, which main loads for run
        p = sub.add_parser(name, help=about)
        p.add_argument("spec", help="path to a JSON channel spec")
        p.add_argument("--seed", type=int, default=None, help="override the spec/TROCAP_SEED seed")
        p.set_defaults(run=run)
        return p

    p = command("bounds", cmd_bounds, "print a capacity bounds table")
    p.add_argument("--csv", default=None, help="also write rows quantity,lower,upper,provenance")
    p.add_argument("--restarts", type=_count, default=32)
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility; no effect (all restarts ascend as one batch)",
    )

    p = command("verify", cmd_verify, "run a randomized inequality suite")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--samples", type=_count, default=50)
    p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")

    p = command("region", cmd_region, "write capacity-region vertex constraints as CSV")
    p.add_argument("--lambda-grid", default="0:1:0.25")
    p.add_argument("--mu-grid", default="0:1:0.25")
    p.add_argument("--csv", required=True)

    command("describe", cmd_describe, "print dimensions, block structure, certificate")
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.run(args, load_spec(args.spec, args.seed))
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except TrocapError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
