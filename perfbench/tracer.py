"""Span recorder that times trocap's layers from outside the package.

``Tracer.install()`` rebinds every attribute of every ``trocap`` module that
holds one of the traced function objects (``from .x import f`` makes several
bindings of one function), plus ``numpy.linalg.eigh/eigvalsh/svd`` and
``scipy.optimize.minimize`` and ``VerificationReport.record``, to a wrapper
that records a span: name, start, end, parent span and job id.
``uninstall()`` puts the originals back.  Spans stay in memory; ``dump()``
writes them as JSON when the run ends.

A span's self time is its duration minus the part of it that its child spans
cover.  ``layer_metrics`` turns the spans of the traced passes into the
per-layer metrics listed in BENCHMARK.json, as amounts per pass.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

from workloads import STRUCTURE_KS

NAME, START, END, PARENT, JOB, INFO = range(6)
LAYERS = ("lapack", "matcore", "channel", "algebra", "builders", "capacity", "entropy", "scipy", "verify", "cli")
INCLUSIVE_LAYERS = ("algebra", "capacity", "entropy", "verify")
ALGEBRA_FUNCS = (
    "is_tro",
    "smallest_containing_tro",
    "generate_star_algebra",
    "algebra_blocks",
    "tro_block_decomposition",
    "validate_symbol",
)
VERIFY_FUNCS = ("verify_local_comparison", "verify_entropic", "verify_tensor_symbol")


def _first(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _eigh_info(args, kwargs, out):
    a = _first(args, kwargs, "a")
    n = a.shape[-1]
    return {"flops": (a.size // max(n * n, 1)) * n**3}


def _svd_info(args, kwargs, out):
    a = _first(args, kwargs, "a")
    m, n = a.shape[-2:]
    return {"flops": (a.size // max(m * n, 1)) * m * n * min(m, n), "mb": a.nbytes / 2**20}


def _is_tro_info(args, kwargs, out):
    return {"k": len(_first(args, kwargs, "mats")), "witness": not out.ok}


def _validate_symbol_info(args, kwargs, out):
    return {"k": _first(args, kwargs, "ch").dim_in}


def _renyi_info(args, kwargs, out):
    return {"iters": out.iterations}


def _minimize_info(args, kwargs, out):
    return {"nfev": int(getattr(out, "nfev", 0)), "lbfgs": str(kwargs.get("method", "")).upper() == "L-BFGS-B"}


def traced_functions(trocap):
    """(span name, owner module, attribute, info function) for each layer
    boundary.  A missing attribute raises: a wrap that silently vanished
    would read as a large gain."""
    import importlib

    import numpy.linalg
    import scipy.optimize

    mods = {n: importlib.import_module(f"{trocap.__name__}.{n}") for n in ("matcore", "channel", "algebra", "builders", "capacity", "entropy", "verify", "cli")}
    out = [("lapack.eigh", numpy.linalg, "eigh", _eigh_info)]
    out.append(("lapack.eigvalsh", numpy.linalg, "eigvalsh", None))
    out.append(("lapack.svd", numpy.linalg, "svd", _svd_info))
    out.append(("scipy.minimize", scipy.optimize, "minimize", _minimize_info))
    for name in ("herm_eig", "matrix_power", "partial_trace", "schatten_norm"):
        out.append((f"matcore.{name}", mods["matcore"], name, None))
    for name in ("apply", "complement_apply", "stinespring_space", "modified_channel"):
        out.append((f"channel.{name}", mods["channel"], name, None))
    infos = {"is_tro": _is_tro_info, "validate_symbol": _validate_symbol_info}
    for name in ALGEBRA_FUNCS:
        out.append((f"algebra.{name}", mods["algebra"], name, infos.get(name)))
    b = mods["builders"]
    for name, fn in sorted(vars(b).items()):
        if not name.startswith("_") and callable(fn) and getattr(fn, "__module__", None) == b.__name__ and not isinstance(fn, type):
            out.append((f"builders.{name}", b, name, None))
    for name in ("one_shot_q", "negative_cb_entropy", "renyi_coherent_channel", "comparison_bounds"):
        out.append((f"capacity.{name}", mods["capacity"], name, None))
    out.append(("entropy.minimize_renyi_divergence", mods["entropy"], "minimize_renyi_divergence", _renyi_info))
    out.append(("entropy.von_neumann_entropy", mods["entropy"], "von_neumann_entropy", None))
    for name in VERIFY_FUNCS:
        out.append((f"verify.{name}", mods["verify"], name, None))
    out.append(("cli.load_spec", mods["cli"], "load_spec", None))
    out.append(("cli.cmd", mods["cli"], "main", None))
    out.append(("verify.record", mods["verify"].VerificationReport, "record", None))
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for _, owner, attr, _ in out if not hasattr(owner, attr)]
    if missing:
        raise AttributeError(f"cannot trace {', '.join(missing)}: no such attribute")
    return out


class Tracer:
    def __init__(self, trocap):
        self.targets = traced_functions(trocap)
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job_id = None
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if info is not None:
                rec[INFO] = info(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def job(self, job_id, fn, *args):
        """Run one job under a root span named 'job'."""
        self.job_id = job_id
        try:
            return self.wrap("job", fn)(*args)
        finally:
            self.job_id = None

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "trocap" or n.startswith("trocap.")]
        for name, owner, attr, info in self.targets:
            fn = getattr(owner, attr)
            wrapper = self.wrap(name, fn, info)
            for mod in [owner] + modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, fn))

    def uninstall(self):
        for owner, key, fn in reversed(self._patches):
            setattr(owner, key, fn)
        self._patches.clear()

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "job", "info"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered, run_a, run_b = 0.0, None, None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if run_b is None or a > run_b:
                if run_b is not None:
                    covered += run_b - run_a
                run_a, run_b = a, b
            else:
                run_b = max(run_b, b)
        if run_b is not None:
            covered += run_b - run_a
        out.append(hi - lo - covered)
    return out


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _outermost(spans, key) -> list[bool]:
    """True for spans with no ancestor that has the same key(name)."""
    out = []
    for s in spans:
        k, p = key(s[NAME]), s[PARENT]
        while p >= 0 and key(spans[p][NAME]) != k:
            p = spans[p][PARENT]
        out.append(p < 0)
    return out


def _has_ancestor(spans, i, names) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] in names:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans, passes: int, overhead: float) -> dict[str, float]:
    """Per-layer metrics per traced pass (ratios and maxima as they are)."""
    selfs = self_times(spans)
    outer_name = _outermost(spans, lambda n: n)
    outer_layer = _outermost(spans, _layer)
    calls, total, self_s = Counter(), Counter(), Counter()
    layer_self, layer_incl = Counter(), Counter()
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        calls[name] += 1
        self_s[name] += selfs[i]
        layer_self[_layer(name)] += selfs[i]
        if outer_name[i]:
            total[name] += dur
        if outer_layer[i]:
            layer_incl[_layer(name)] += dur

    def info_of(name):
        return [s[INFO] for s in spans if s[NAME] == name and s[INFO] is not None]

    per = 1.0 / passes
    m: dict[str, float] = {}
    eigh, svd = info_of("lapack.eigh"), info_of("lapack.svd")
    m["lapack.eigh.calls"] = calls["lapack.eigh"] * per
    m["lapack.eigh.total_s"] = total["lapack.eigh"] * per
    m["lapack.eigh.flops_est"] = sum(x["flops"] for x in eigh) * per
    m["lapack.eigvalsh.calls"] = calls["lapack.eigvalsh"] * per
    m["lapack.svd.calls"] = calls["lapack.svd"] * per
    m["lapack.svd.total_s"] = total["lapack.svd"] * per
    m["lapack.svd.flops_est"] = sum(x["flops"] for x in svd) * per
    m["lapack.svd.max_input_mb"] = max((x["mb"] for x in svd), default=0.0)
    for name in ("herm_eig", "matrix_power", "partial_trace", "schatten_norm"):
        m[f"matcore.{name}.calls"] = calls[f"matcore.{name}"] * per
    m["matcore.matrix_power.self_s"] = self_s["matcore.matrix_power"] * per
    m["channel.apply.calls"] = calls["channel.apply"] * per
    m["channel.complement_apply.calls"] = calls["channel.complement_apply"] * per
    m["channel.stinespring_space.calls"] = calls["channel.stinespring_space"] * per
    m["channel.stinespring_space.self_s"] = self_s["channel.stinespring_space"] * per
    m["channel.modified_channel.self_s"] = self_s["channel.modified_channel"] * per
    for name in ALGEBRA_FUNCS:
        m[f"algebra.{name}.calls"] = calls[f"algebra.{name}"] * per
        m[f"algebra.{name}.total_s"] = total[f"algebra.{name}"] * per
        m[f"algebra.{name}.self_s"] = self_s[f"algebra.{name}"] * per
    tro = info_of("algebra.is_tro")
    m["algebra.is_tro.witness_calls"] = sum(x["witness"] for x in tro) * per
    by_k = defaultdict(list)
    for i, s in enumerate(spans):
        if s[NAME] == "algebra.validate_symbol" and outer_name[i] and s[INFO] is not None:
            by_k[s[INFO]["k"]].append(s[END] - s[START])
    for k in STRUCTURE_KS:
        times = by_k.get(k, [])
        m[f"algebra.validate_symbol.total_s.k{k}"] = sum(times) / len(times) if times else 0.0
    m["algebra.span_dim.max"] = float(max([x["k"] for x in tro] + list(by_k), default=0))
    m["builders.self_s"] = layer_self["builders"] * per
    for name in ("one_shot_q", "negative_cb_entropy", "renyi_coherent_channel"):
        m[f"capacity.{name}.calls"] = calls[f"capacity.{name}"] * per
        m[f"capacity.{name}.total_s"] = total[f"capacity.{name}"] * per
    m["capacity.one_shot_q.self_s"] = self_s["capacity.one_shot_q"] * per
    m["capacity.comparison_bounds.total_s"] = total["capacity.comparison_bounds"] * per
    ascent = {"capacity.one_shot_q", "capacity.negative_cb_entropy"}
    evals = sum(1 for i, s in enumerate(spans) if s[NAME] == "channel.complement_apply" and _has_ancestor(spans, i, ascent))
    ascent_s = total["capacity.one_shot_q"] + total["capacity.negative_cb_entropy"]
    m["capacity.ascent.evals"] = evals * per
    m["capacity.ascent.evals_per_s"] = evals / ascent_s if ascent_s > 0 else 0.0
    mrd = "entropy.minimize_renyi_divergence"
    m[f"{mrd}.calls"] = calls[mrd] * per
    m[f"{mrd}.total_s"] = total[mrd] * per
    m[f"{mrd}.self_s"] = self_s[mrd] * per
    fell_back = set()
    for i, s in enumerate(spans):
        if s[NAME] == "scipy.minimize":
            p = s[PARENT]
            while p >= 0 and spans[p][NAME] != mrd:
                p = spans[p][PARENT]
            if p >= 0:
                fell_back.add(p)
    m[f"{mrd}.fallback_ratio"] = len(fell_back) / calls[mrd] if calls[mrd] else 0.0
    iters = info_of(mrd)
    m[f"{mrd}.iters_mean"] = sum(x["iters"] for x in iters) / len(iters) if iters else 0.0
    m["entropy.von_neumann_entropy.calls"] = calls["entropy.von_neumann_entropy"] * per
    lbfgs = [i for i, s in enumerate(spans) if s[NAME] == "scipy.minimize" and s[INFO]["lbfgs"]]
    m["scipy.lbfgs.calls"] = len(lbfgs) * per
    m["scipy.lbfgs.nfev"] = sum(spans[i][INFO]["nfev"] for i in lbfgs) * per
    m["scipy.lbfgs.total_s"] = sum(spans[i][END] - spans[i][START] for i in lbfgs if outer_name[i]) * per
    verify_s = 0.0
    for name in VERIFY_FUNCS:
        m[f"verify.{name}.total_s"] = total[f"verify.{name}"] * per
        verify_s += total[f"verify.{name}"]
    m["verify.inequalities"] = calls["verify.record"] * per
    m["verify.inequalities_per_s"] = calls["verify.record"] / verify_s if verify_s > 0 else 0.0
    m["cli.load_spec.calls"] = calls["cli.load_spec"] * per
    m["cli.load_spec.total_s"] = total["cli.load_spec"] * per
    m["cli.load_spec.self_s"] = self_s["cli.load_spec"] * per
    m["cli.cmd.self_s"] = self_s["cli.cmd"] * per
    job_s = total["job"]
    for layer in LAYERS:
        m[f"layer.{layer}.self_share"] = layer_self[layer] / job_s if job_s > 0 else 0.0
    for layer in INCLUSIVE_LAYERS:
        m[f"layer.{layer}.incl_share"] = layer_incl[layer] / job_s if job_s > 0 else 0.0
    m["trace.overhead"] = overhead
    m["trace.spans"] = len(spans) * per
    return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s") or "_s.k" in name:
        return "s"
    if name.endswith(("_share", "_ratio", "overhead")):
        return "fraction"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("flops_est"):
        return "flop"
    if name.endswith("iters_mean"):
        return "iterations"
    if name.endswith(".max"):
        return "dim"
    return "count"


def dominant_layer(metrics: dict[str, float]) -> str:
    """The layer with the largest self-time share."""
    return max(LAYERS, key=lambda layer: metrics[f"layer.{layer}.self_share"])
