"""Randomized inequality-verification harness.

Samples channels inputs, reference marginals, and norm exponents, then
asserts the comparison inequalities that the rest of the package relies on:
the two-sided norm sandwiches (plain and sandwiched by a reference
marginal), the entropic windows with gap tau(f log f) and their Renyi
analogs, and coherence of tensor-product symbols.  Failures are report
content, not exceptions, and every report is seed-reproducible.
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
    apply,
    base_channel,
    choi,
    identity_channel,
    modified_channel,
    stinespring_space,
    tensor_channels,
)
from .entropy import _RenyiStack, bipartite_entropies, entropy_defect


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
        if slack < self.worst_slack:
            self.worst_slack = slack
        if slack < -self.tolerance:
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
    and its version conjugated by sigma^(-1/2p').
    """
    report = VerificationReport("local_comparison", samples, seed, tolerance)
    n = base_channel(space)
    nf = modified_channel(space, symbol)
    decomp = alg._closed_structure(space.basis, seed)[1]
    u, shapes = decomp.basis_change_out, [(n_i, l) for n_i, _, l in decomp.blocks]
    for i in range(samples):
        rng = np.random.default_rng((seed, i))
        rho = mc.random_density(rng, space.dim)
        e = alg._block_expectation(u, shapes, mc.random_psd(rng, space.dim_out))
        sigma = mc.hermitize(u @ e @ mc.dagger(u)) / np.trace(e).real
        out = apply(n, rho)
        out_f = apply(nf, rho)
        dig = _digest(rho, sigma)
        for p in ps:
            p_conj = 1.0 if math.isinf(p) else p / (p - 1.0)
            fnorm = math.log2(mc.normalized_p_norm(symbol.f, p))
            a = math.log2(mc.schatten_norm(out, p))
            b = math.log2(mc.schatten_norm(out_f, p))
            report.record(dig, f"norm_lower@p={p}", b - a)
            report.record(dig, f"norm_upper@p={p}", fnorm + a - b)
            w = mc.matrix_power(sigma, -1.0 / (2.0 * p_conj))
            c = math.log2(mc.schatten_norm(w @ out @ w, p))
            d = math.log2(mc.schatten_norm(w @ out_f @ w, p))
            report.record(dig, f"sandwich_lower@p={p}", d - c)
            report.record(dig, f"sandwich_upper@p={p}", fnorm + c - d)
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
    gap; the Renyi analogs use gap p' log ||f||_{p,tau}.
    """
    report = VerificationReport("entropic", samples, seed, tolerance)
    defect = entropy_defect(symbol)
    da = space.dim
    dims = (da, space.dim_out)
    rho = np.array(
        [mc.random_density(np.random.default_rng((seed, i)), da * da) for i in range(samples)]
    ).reshape(samples, da * da, da * da)
    chans = (base_channel(space), modified_channel(space, symbol))
    omega, omega_f = (_apply_ancilla(ch, rho, da) for ch in chans)
    (h, ha, hb), (hf, haf, hbf) = (bipartite_entropies(w, dims) for w in (omega, omega_f))
    ic, icf, mi, mif = hb - h, hbf - hf, ha + hb - h, haf + hbf - hf
    slacks = [("H_AB_lower", hf - (h - defect)), ("H_AB_upper", h - hf)]
    slacks += [("I_c_lower", icf - ic), ("I_c_upper", ic + defect - icf)]
    slacks += [("I_lower", mif - mi), ("I_upper", mi + defect - mif)]
    if renyi:
        both = np.concatenate([omega, omega_f])
        k_a = mc.partial_trace(omega, dims, keep="A")
        for p in ps:
            gap = (p / (p - 1.0)) * math.log2(mc.normalized_p_norm(symbol.f, p))
            for name, k in (("I_cp", None), ("I_p", np.concatenate([k_a, k_a]))):
                # omega and omega_f in one stack, each tried at the other's minimizer
                opt = _RenyiStack(both, dims, p, k).minimize(seed=seed)
                opt.improve(np.arange(samples, 2 * samples), opt.sigma[:samples])
                opt.improve(np.arange(samples), opt.sigma[samples:])
                v, vf = opt.value[:samples], opt.value[samples:]
                slacks += [(f"{name}_lower@p={p}", vf - v), (f"{name}_upper@p={p}", v + gap - vf)]
    for i in range(samples):
        dig = _digest(rho[i])
        for name, slack in slacks:
            report.record(dig, name, float(slack[i]))
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

    Validates f (x) g as a symbol of the tensor channel, compares the Choi
    matrix of (N (x) M)_(f (x) g) with that of N_f (x) M_g, checks
    additivity of the entropy defect, and spot-checks equality on random
    inputs.
    """
    report = VerificationReport("tensor_symbol", samples, seed, tolerance)
    n = base_channel(space_a)
    m = base_channel(space_b)
    nm = tensor_channels(n, m)
    f_tensor = mc.tensor(symbol_a.f, symbol_b.f)
    sym_tensor = alg.validate_symbol(nm, f_tensor, seed=seed)
    space_nm = stinespring_space(nm)
    joint = modified_channel(space_nm, sym_tensor)
    split = tensor_channels(
        modified_channel(space_a, symbol_a), modified_channel(space_b, symbol_b)
    )
    choi_gap = float(np.max(np.abs(choi(joint) - choi(split))))
    report.record(_digest(f_tensor), "choi_equality", -choi_gap)

    add_gap = abs(
        entropy_defect(sym_tensor) - entropy_defect(symbol_a) - entropy_defect(symbol_b)
    )
    report.record(_digest(f_tensor), "defect_additivity", -add_gap)

    for i in range(samples):
        rng = np.random.default_rng((seed, i))
        rho = mc.random_density(rng, nm.dim_in)
        gap = float(np.max(np.abs(apply(joint, rho) - apply(split, rho))))
        report.record(_digest(rho), "apply_equality", -gap)
    return report
