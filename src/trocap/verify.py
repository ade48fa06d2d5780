"""Randomized inequality-verification harness.

Samples channel inputs, reference marginals, and norm exponents, then asserts the comparison inequalities that the
rest of the package relies on: the two-sided norm sandwiches (plain and sandwiched by a reference marginal), the
entropic windows with gap tau(f log f) and their Renyi analogs, and coherence of tensor-product symbols.  The local
and entropic suites draw, check and record their samples as one stack; the tensor suite's checks are exact.  The
entropic suite reads the TRO channel N off its blocks: E onto 1 (x) (+)_i M_{n_i} (x) 1_{l_i} fixes (id (x) N)(rho),
so tr s^p = sum_i q_i^(1-p) Q_i, its Renyi values are p' log2 sum_i 2^(D_i/p') and its entropies sum_i [H(omega_i) +
tr omega_i log2 l_i] (verify_entropic).  Failures are report content, not exceptions, and every report
is seed-reproducible; a sample count below 1 or not an integer, or a local suite with no exponent, raises OutOfRange.
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
    modified_channel,
    tensor_channels,
)
from .entropy import _RenyiStack, bipartite_entropies, entropy_defect, spectral_entropy
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
        """Record slacks[i][j], sample i's slack on inequality j (NaN fails), for lists of digests and names."""
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


def _draw(seed: int, samples: int, *dims: int) -> tuple[np.ndarray, ...]:
    """Sample i of a suite, stacked over i: random_density(rng_i, dims[0]), then random_psd(rng_i, d) for each later
    d of dims, rng_i = default_rng((seed, i)), bit for bit as one-sample calls."""
    rngs = [np.random.default_rng((seed, i)) for i in range(samples)]
    psd = [g @ mc.dagger(g) for g in (np.array([mc.random_complex(r, (d, d)) for r in rngs]) for d in dims)]
    psd[0] = psd[0] / np.trace(psd[0], axis1=-2, axis2=-1).real[:, None, None]
    return tuple(psd)


def _id_tensor(ch: Channel, rho: np.ndarray) -> np.ndarray:
    """(id_A (x) N)(rho) for each rho of a stack, A of N's input dimension: one contraction with N's Kraus family, on
    rho laid out (i, n, j, l, k) as a factor-wise id_A (x) N leaves it after id_A, so the bits are that product's."""
    n, d, k = len(rho), ch.dim_in, ch.kraus
    t = np.ascontiguousarray(rho.reshape(n, d, d, d, d).transpose(1, 0, 2, 4, 3))
    t = np.tensordot(np.tensordot(k, t, ([2], [2])), k.conj(), ([0, 4], [0, 2]))  # (j', i, n, k, l')
    return t.transpose(2, 1, 0, 3, 4).reshape(n, d * ch.dim_out, -1)


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


def _blocks(space: StinespringSpace, symbol: Symbol, rho: np.ndarray) -> dict:
    """{n: (omega_i, l_i)} over the blocks of size n of omega = (id (x) N)(rho), stacked (samples, blocks, d_A n, ...):
    omega_i is l_i times the copy-0 block of (1 (x) U*) omega (1 (x) U), U the certificate's (verify_entropic)."""
    decomp, da, db = symbol.certificate.decomposition, space.dim, space.dim_out
    if len(u := decomp.basis_change_out) != db:
        raise DimMismatch(f"symbol's structure has output dim {len(u)}, space {db}")
    w, out = _id_tensor(Channel(mc.dagger(u) @ base_channel(space).kraus), rho).reshape(len(rho), da, db, da, db), {}
    for (n, _, l), c in zip(decomp.blocks, np.cumsum([0] + [n * l for n, _, l in decomp.blocks])):
        i = c + l * np.arange(n)
        out.setdefault(n, []).append((l * w[:, :, i][..., i].reshape(len(rho), da * n, -1), l))
    return {n: (np.stack([x for x, _ in v], 1), np.array([l for _, l in v])) for n, v in out.items()}


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

    With omega = (id (x) N)(rho) and omega_f = (id (x) N_f)(rho), checks the six inequalities: H(AB) drops by at most
    tau(f log f) under the modification, coherent and mutual information rise by at most the same gap; the Renyi analogs
    use gap p' log ||f||_{p,tau}.  The symbol must belong to the space's channel: N's values come from omega's blocks
    omega_i on A (x) C^{n_i} (_blocks; DimMismatch when the certificate's U does not fit).  H(AB) and H(B) are sum_i
    [H(omega_i) + tr omega_i log2 l_i] on unnormalized spectra, and I_cp and I_p are p' log2 sum_i 2^(D_i/p'), D_i block
    i's own minimum: E onto 1 (x) (+)_i M_{n_i} (x) 1_{l_i} fixes omega, so sigma may be (+)_i q_i sigma_i (x) 1_{l_i} /
    l_i, where tr s^p = sum_i q_i^(1-p) Q_i is least at q_i ~ Q_i^(1/p).  Each Renyi value is a stack minimum
    (entropy._RenyiStack, whose ``converged`` flags go unread), which drops each state's B part off the 1e-10 support of
    its B marginal: there a value can lie below the infimum (1.7e-11 at p = 1.5 for a 4e-12 part).
    """
    report = VerificationReport("entropic", mc._count(samples, "samples"), seed, tolerance)
    defect = entropy_defect(symbol)
    da, dims = space.dim, (space.dim, space.dim_out)
    [rho] = _draw(seed, samples, da * da)
    blocks, omega_f = _blocks(space, symbol, rho), _id_tensor(modified_channel(space, symbol), rho)
    hf, ha, hbf = bipartite_entropies(omega_f, dims)  # omega's A marginal is omega_f's, rho_A
    h = hb = 0.0  # a block omega_i / l_i (x) 1_{l_i} has entropy l_i H(omega_i / l_i)
    for n, (w, l) in blocks.items():
        h = h + np.sum(l * spectral_entropy(np.linalg.eigvalsh(w) / l[:, None]), 1)
        hb = hb + np.sum(l * spectral_entropy(np.linalg.eigvalsh(mc.partial_trace(w, (da, n), "B")) / l[:, None]), 1)
    ic, icf, mi, mif = hb - h, hbf - hf, ha + hb - h, ha + hbf - hf
    slacks = [("H_AB_lower", hf - (h - defect)), ("H_AB_upper", h - hf)]
    slacks += [("I_c_lower", icf - ic), ("I_c_upper", ic + defect - icf)]
    slacks += [("I_lower", mif - mi), ("I_upper", mi + defect - mif)]
    if renyi:  # omega_f, then omega's blocks by size, under K = 1 (I_cp) and under K = rho_A (I_p)
        ks = np.concatenate([np.broadcast_to(np.eye(da), (samples, da, da)), mc.partial_trace(omega_f, dims, "A")])
        for p in ps:
            gap = (pc := mc.conjugate_exponent(p)) * math.log2(mc.normalized_p_norm(symbol.f, p))
            vf = _RenyiStack(np.concatenate([omega_f] * 2), dims, p, ks).minimize().value.reshape(2, samples)
            d = [_RenyiStack(np.concatenate([w] * 2).reshape(-1, da * n, da * n), (da, n), p, np.repeat(ks, len(l), 0))
                 .minimize().value.reshape(2, samples, -1) for n, (w, l) in blocks.items()]
            for name, v, b in zip(("I_cp", "I_p"), pc * np.logaddexp2.reduce(np.concatenate(d, -1) / pc, -1), vf):
                slacks += [(f"{name}_lower@p={p}", b - v), (f"{name}_upper@p={p}", v + gap - b)]
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
    """Tensor-product coherence of symbols, by exact checks.

    Validates f (x) g as a symbol of the tensor channel, checks that (N (x) M)_(f (x) g) and N_f (x) M_g share one
    Choi matrix (the gap is the Frobenius norm of the difference, obtained by QR from the two Kraus families, so no
    Choi matrix is formed), and checks additivity of the entropy defect.  The Choi gap bounds the two channels on
    every input: each entry of their difference at rho is at most ||C - C'||_F ||rho||_F, and ||rho||_F <= 1 for a
    density, so no input is drawn and ``samples`` is only reported.
    """
    report = VerificationReport("tensor_symbol", mc._count(samples, "samples"), seed, tolerance)
    nm = tensor_channels(base_channel(space_a), base_channel(space_b))
    f_tensor = mc.tensor(symbol_a.f, symbol_b.f)
    joint = alg._modified(nm, f_tensor, seed)
    split = tensor_channels(modified_channel(space_a, symbol_a), modified_channel(space_b, symbol_b))
    add_gap = abs(entropy_defect(joint.symbol) - entropy_defect(symbol_a) - entropy_defect(symbol_b))
    report.record([_digest(f_tensor)], ["choi_equality", "defect_additivity"], [[-_choi_gap(joint, split), -add_gap]])
    return report
