"""Randomized inequality-verification harness.

Samples channel inputs, reference marginals, and norm exponents, then asserts the comparison
inequalities that the rest of the package relies on: the two-sided norm sandwiches (plain and
sandwiched by a reference marginal), the entropic windows with gap tau(f log f) and their Renyi
analogs, and coherence of tensor-product symbols.  Each suite draws, checks and records its samples
as one stack.  Failures are report content, not exceptions, and every report is seed-reproducible;
a sample count below 1 or not an integer, or a local suite with no exponent, raises OutOfRange.
"""

from __future__ import annotations

import functools
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
from .errors import DimMismatch, OutOfRange


@dataclass
class VerificationReport:
    """Outcome of one randomized check: worst slack and any failures."""

    check_id: str
    samples: int
    seed: int
    tolerance: float
    worst_slack: float = math.inf
    failures: list[tuple[str, str, float]] = field(default_factory=list)

    def record(self, digests, names, slacks) -> None:
        """Record slacks[i][j], sample i's slack on inequality j (NaN fails); a lone digest or name is a list of one."""
        digests, names = ([x] if isinstance(x, str) else x for x in (digests, names))
        s = np.asarray(slacks, dtype=float).reshape(len(digests), len(names))
        w = np.append(self.worst_slack, s)  # argmin: the first NaN, the worst for good, else the first minimum
        self.worst_slack = float(w[np.argmin(w)])
        self.failures += [(digests[i], names[j], float(s[i, j])) for i, j in np.argwhere(~(s >= -self.tolerance))]

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


@functools.lru_cache(maxsize=1)  # a tensor square's tensor suite draws what its entropic suite drew
def _draw(seed: int, samples: int, *dims: int) -> tuple[np.ndarray, ...]:
    """Sample i of a suite, stacked over i: random_density(rng_i, dims[0]), then random_psd(rng_i, d) for each later
    d of dims, rng_i = default_rng((seed, i)), bit for bit as one-sample calls; read-only: the last draw is reused."""
    rngs = [np.random.default_rng((seed, i)) for i in range(samples)]
    psd = [g @ mc.dagger(g) for g in (np.array([mc.random_complex(r, (d, d)) for r in rngs]) for d in dims)]
    psd[0] = psd[0] / np.trace(psd[0], axis1=-2, axis2=-1).real[:, None, None]
    for a in psd:
        a.setflags(write=False)
    return tuple(psd)


def _apply_product(a: Channel, b: Channel, rho: np.ndarray) -> np.ndarray:
    """(N (x) M)(rho) for each rho of a stack, one contraction per factor: no product Kraus family."""
    t = rho.reshape(len(rho), a.dim_in, b.dim_in, a.dim_in, b.dim_in)
    for k, axis in ((a.kraus, 1), (b.kraus, 2)):  # (n, i, j, k, l) -> (i', n, j, l, k') -> (j', i', n, k', l')
        t = np.tensordot(np.tensordot(k, t, ([2], [axis])), k.conj(), ([0, 4], [0, 2]))
    return t.transpose(2, 1, 0, 3, 4).reshape(len(rho), a.dim_out * b.dim_out, -1)


DEFAULT_PS = (1.3, 2.0, 4.0, math.inf)
_APPLY_ENTRIES = 2**16  # bound on a chunk's samples x env x out x (in + out), the entries of its joint apply's products


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
    if len(ps) == 0:  # no inequality to check
        raise OutOfRange("ps must name at least one exponent, got none")
    n = base_channel(space)
    nf = modified_channel(space, symbol)  # InvalidSymbol unless f acts on the environment
    decomp = symbol.certificate.decomposition
    u, shapes = decomp.basis_change_out, [(n_i, l) for n_i, _, l in decomp.blocks]
    if len(u) != space.dim_out:
        raise DimMismatch(f"symbol's structure has output dim {len(u)}, space {space.dim_out}")
    fnorms = {p: math.log2(mc.normalized_p_norm(symbol.f, p)) for p in ps}
    rho, x = _draw(seed, samples, space.dim, space.dim_out)
    e = alg._block_expectation(u, shapes, x)
    sigma = mc.hermitize(u @ e @ mc.dagger(u)) / np.trace(e, axis1=-2, axis2=-1).real[:, None, None]
    outs = apply(n, rho), apply(nf, rho)
    svals = [np.linalg.svd(y, compute_uv=False) for y in outs]  # one SVD each, read for every p
    eig = mc.herm_eig(sigma)  # one eigendecomposition for every p
    named = []
    for p in ps:
        w = mc._on_support(eig, lambda lam: lam ** (-1.0 / (2.0 * mc.conjugate_exponent(p))))
        a, b = (np.log2(np.linalg.norm(sv, p, -1)) for sv in svals)
        c, d = (np.log2(mc.schatten_norm(w @ y @ w, p)) for y in outs)
        named += [(f"norm_lower@p={p}", b - a), (f"norm_upper@p={p}", fnorms[p] + a - b)]
        named += [(f"sandwich_lower@p={p}", d - c), (f"sandwich_upper@p={p}", fnorms[p] + c - d)]
    names, cols = zip(*named)
    report.record([_digest(r, sg) for r, sg in zip(rho, sigma)], names, np.transpose(cols))
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
    support of its B marginal: there a value can lie below the infimum (1.7e-11 at p = 1.5 for a 4e-12 part).
    """
    report = VerificationReport("entropic", mc._count(samples, "samples"), seed, tolerance)
    defect = entropy_defect(symbol)
    da = space.dim
    dims = (da, space.dim_out)
    [rho] = _draw(seed, samples, da * da)
    chans = (base_channel(space), modified_channel(space, symbol))
    omega, omega_f = (_apply_product(identity_channel(da), ch, rho) for ch in chans)
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
    names, cols = zip(*slacks)
    report.record([_digest(r) for r in rho], names, np.transpose(cols))
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

    Validates f (x) g as a symbol of the tensor channel, checks that (N (x) M)_(f (x) g) and
    N_f (x) M_g share one Choi matrix (the gap is the Frobenius norm of the difference, obtained by
    QR from the two Kraus families, so no Choi matrix is formed), checks additivity of the entropy
    defect, and spot-checks equality on random inputs: the joint channel applied to chunks of samples
    within _APPLY_ENTRIES, N_f (x) M_g factor by factor.
    """
    report = VerificationReport("tensor_symbol", mc._count(samples, "samples"), seed, tolerance)
    nm = tensor_channels(base_channel(space_a), base_channel(space_b))
    f_tensor = mc.tensor(symbol_a.f, symbol_b.f)
    joint = alg._modified(nm, f_tensor, seed)
    nf, mg = modified_channel(space_a, symbol_a), modified_channel(space_b, symbol_b)
    split = tensor_channels(nf, mg)
    add_gap = abs(entropy_defect(joint.symbol) - entropy_defect(symbol_a) - entropy_defect(symbol_b))
    report.record(_digest(f_tensor), ["choi_equality", "defect_additivity"], [[-_choi_gap(joint, split), -add_gap]])
    [rho] = _draw(seed, samples, nm.dim_in)
    step = max(1, _APPLY_ENTRIES // (joint.dim_env * joint.dim_out * (joint.dim_in + joint.dim_out)))
    chunks = np.split(rho, range(step, samples, step))
    gaps = [np.abs(apply(joint, r) - _apply_product(nf, mg, r)).max(axis=(-2, -1)) for r in chunks]
    report.record([_digest(r) for r in rho], "apply_equality", -np.concatenate(gaps)[:, None])
    return report
