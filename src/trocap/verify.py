"""Randomized inequality-verification harness.

Samples channels inputs, reference marginals, and norm exponents, then
asserts the comparison inequalities that the rest of the package relies on:
the two-sided norm sandwiches (plain and sandwiched by a reference
marginal), the entropic windows with gap tau(f log f) and their Renyi
analogs, and coherence of tensor-product symbols.  Failures are report content, not exceptions,
and every report is seed-reproducible; a sample count below 1 or not an integer raises OutOfRange.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
import numpy as np

from . import algebra as alg
from . import matcore as mc
from .channel import (
    Channel,
    StinespringSpace,
    Symbol,
    _choi_gap,
    apply,
    base_channel,
    identity_channel,
    modified_channel,
    tensor_channels,
)
from .entropy import _RenyiStack, bipartite_entropies, entropy_defect
from .errors import DimMismatch


@dataclass
class VerificationReport:
    """Outcome of one randomized check: worst slack and any failures."""

    check_id: str
    samples: int
    seed: int
    tolerance: float
    worst_slack: float = math.inf
    failures: list[tuple[str, str, float]] = field(default_factory=list)

    def record(self, digest: str, name: str, slack: float) -> None:
        if not (math.isnan(self.worst_slack) or slack >= self.worst_slack):  # a NaN is the worst, for good
            self.worst_slack = slack
        if not slack >= -self.tolerance:  # NaN fails too
            self.failures.append((digest, name, slack))

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "check": self.check_id,
            "samples": self.samples,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "worst_slack": self.worst_slack,
            "passed": self.passed,
            "failures": [
                {"digest": d, "inequality": n, "slack": s} for d, n, s in self.failures
            ],
        }


def _digest(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:12]


def _apply_ancilla(ch: Channel, rho_aa: np.ndarray, dim_a: int) -> np.ndarray:
    """(id_A (x) N)(rho) for rho on H_A (x) H_in, or for each of a stack."""
    return apply(tensor_channels(identity_channel(dim_a), ch), rho_aa)


def _record(report: VerificationReport, digests: list[str], named_slacks) -> None:
    """Record sample i's slack[i] of each (name, slack) pair, sample by sample."""
    for i, digest in enumerate(digests):
        for name, slack in named_slacks:
            report.record(digest, name, float(slack[i]))


DEFAULT_PS = (1.3, 2.0, 4.0, math.inf)


def verify_local_comparison(
    space: StinespringSpace,
    symbol: Symbol,
    samples: int = 100,
    seed: int = 0,
    ps: tuple[float, ...] = DEFAULT_PS,
    tolerance: float = 1e-9,
) -> VerificationReport:
    """Norm comparison on random inputs.

    For random PSD rho, random sigma in the range of the reference channel
    (a random PSD matrix's conditional expectation onto the left algebra),
    and each exponent p, checks the log-scale sandwich
    ||N(rho)||_p <= ||N_f(rho)||_p <= ||f||_{p,tau} ||N(rho)||_p
    and its version conjugated by sigma^(-1/2p').  The symbol must belong to
    the space's channel: the left algebra's block basis U is read from its
    certificate, and DimMismatch is raised when it does not fit the space.
    """
    report = VerificationReport("local_comparison", mc._count(samples, "samples"), seed, tolerance)
    n = base_channel(space)
    nf = modified_channel(space, symbol)  # InvalidSymbol unless f acts on the environment
    decomp = symbol.certificate.decomposition
    u, shapes = decomp.basis_change_out, [(n_i, l) for n_i, _, l in decomp.blocks]
    if len(u) != space.dim_out:
        raise DimMismatch(f"symbol's structure has output dim {len(u)}, space {space.dim_out}")
    fnorms = {p: math.log2(mc.normalized_p_norm(symbol.f, p)) for p in ps}
    rngs = [np.random.default_rng((seed, i)) for i in range(samples)]
    rho, x = map(np.array, zip(*[(mc.random_density(r, space.dim), mc.random_psd(r, space.dim_out)) for r in rngs]))
    e = alg._block_expectation(u, shapes, x)
    sigma = mc.hermitize(u @ e @ mc.dagger(u)) / np.trace(e, axis1=-2, axis2=-1).real[:, None, None]
    out, out_f = apply(n, rho), apply(nf, rho)
    named = []
    for p in ps:
        p_conj = mc.conjugate_exponent(p)
        w = mc.matrix_power(sigma, -1.0 / (2.0 * p_conj))
        a, b, c, d = (np.log2(mc.schatten_norm(y, p)) for y in (out, out_f, w @ out @ w, w @ out_f @ w))
        named += [(f"norm_lower@p={p}", b - a), (f"norm_upper@p={p}", fnorms[p] + a - b)]
        named += [(f"sandwich_lower@p={p}", d - c), (f"sandwich_upper@p={p}", fnorms[p] + c - d)]
    _record(report, [_digest(r, sg) for r, sg in zip(rho, sigma)], named)
    return report


def verify_entropic(
    space: StinespringSpace,
    symbol: Symbol,
    samples: int = 50,
    seed: int = 0,
    ps: tuple[float, ...] = (1.5, 2.0),
    tolerance: float = 1e-7,
    renyi: bool = True,
) -> VerificationReport:
    """Entropic windows on random bipartite inputs.

    With omega = (id (x) N)(rho) and omega_f = (id (x) N_f)(rho), checks the
    six inequalities: H(AB) drops by at most tau(f log f) under the
    modification, coherent and mutual information rise by at most the same
    gap; the Renyi analogs use gap p' log ||f||_{p,tau}.  Their values are stack minima
    (entropy._RenyiStack, whose ``converged`` flags go unread), which drop each state's B part off the 1e-10
    support of its B marginal: there a value can lie below the infimum (1.6e-11 at p = 1.5 for a 4e-12 part).
    """
    report = VerificationReport("entropic", mc._count(samples, "samples"), seed, tolerance)
    defect = entropy_defect(symbol)
    da = space.dim
    dims = (da, space.dim_out)
    rho = np.array([mc.random_density(np.random.default_rng((seed, i)), da * da) for i in range(samples)])
    chans = (base_channel(space), modified_channel(space, symbol))
    omega, omega_f = (_apply_ancilla(ch, rho, da) for ch in chans)
    (h, ha, hb), (hf, haf, hbf) = (bipartite_entropies(w, dims) for w in (omega, omega_f))
    ic, icf, mi, mif = hb - h, hbf - hf, ha + hb - h, haf + hbf - hf
    slacks = [("H_AB_lower", hf - (h - defect)), ("H_AB_upper", h - hf)]
    slacks += [("I_c_lower", icf - ic), ("I_c_upper", ic + defect - icf)]
    slacks += [("I_lower", mif - mi), ("I_upper", mi + defect - mif)]
    if renyi:  # omega and omega_f under K = 1 (I_cp) and under K = omega_A (I_p), in one stack
        k_a = mc.partial_trace(omega, dims, keep="A")
        ks = np.concatenate([np.broadcast_to(np.eye(da, dtype=complex), (2 * samples, da, da)), k_a, k_a])
        for p in ps:
            gap = mc.conjugate_exponent(p) * math.log2(mc.normalized_p_norm(symbol.f, p))
            values = _RenyiStack(np.concatenate([omega, omega_f] * 2), dims, p, ks).minimize().value
            for name, (v, vf) in zip(("I_cp", "I_p"), values.reshape(2, 2, samples)):
                slacks += [(f"{name}_lower@p={p}", vf - v), (f"{name}_upper@p={p}", v + gap - vf)]
    _record(report, [_digest(r) for r in rho], slacks)
    return report


def verify_tensor_symbol(
    space_a: StinespringSpace,
    symbol_a: Symbol,
    space_b: StinespringSpace,
    symbol_b: Symbol,
    samples: int = 20,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> VerificationReport:
    """Tensor-product coherence of symbols.

    Validates f (x) g as a symbol of the tensor channel, checks that
    (N (x) M)_(f (x) g) and N_f (x) M_g share one Choi matrix (the gap is the
    Frobenius norm of the difference, obtained by QR from the two Kraus
    families, so no Choi matrix is formed), checks additivity of the entropy
    defect, and spot-checks equality on random inputs.
    """
    report = VerificationReport("tensor_symbol", mc._count(samples, "samples"), seed, tolerance)
    nm = tensor_channels(base_channel(space_a), base_channel(space_b))
    f_tensor = mc.tensor(symbol_a.f, symbol_b.f)
    joint = alg._modified(nm, f_tensor, seed)
    split = tensor_channels(modified_channel(space_a, symbol_a), modified_channel(space_b, symbol_b))
    add_gap = abs(entropy_defect(joint.symbol) - entropy_defect(symbol_a) - entropy_defect(symbol_b))
    named = [("choi_equality", [-_choi_gap(joint, split)]), ("defect_additivity", [-add_gap])]
    _record(report, [_digest(f_tensor)], named)
    # one sample at a time: a stacked apply would hold samples x env^2 x out^4 entries
    rhos = [mc.random_density(np.random.default_rng((seed, i)), nm.dim_in) for i in range(samples)]
    slacks = [-float(np.max(np.abs(apply(joint, r) - apply(split, r)))) for r in rhos]
    _record(report, [_digest(r) for r in rhos], [("apply_equality", slacks)])
    return report
