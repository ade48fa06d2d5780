"""The scaling curves: a table of cases, each a call timed on a loaded trocap package.

    python3 tools/abtest.py PARENT CHANGE --workload curves

times every case on two checkouts in one process, alternating them (a tree
against itself gives one tree's curves and the noise floor).  The size column
is the variable of the case's curve:
  - structure: validate_symbol on the completely dephasing channel of
    dimension k with the kernel of a seeded Schur multiplier of cyclic(k) (a
    Schur cyclic(k) spec's structure), span k in 8, 16, 24, 32, 48, and at
    small spans, k in 2, 4, 6, 8, the same call 100 times per run (one call
    takes about a millisecond, too short to time alone); its rotated twin,
    the same call, k in 8, 16, 32, on that channel with its output and Kraus
    index rotated by seeded unitaries U and W and its kernel carried along
    (W-bar f W^T): a span in coordinates is certified from its support, and
    the rotated twin is the same structure out of coordinates, which takes
    the seeded block attempt; the
    triple-product closure and block decomposition of the dilation range of
    the tensor square of the completely dephasing channel of dimension k, a
    span of dimension k^2 in 16, 36, 64 (the tensor_symbol suite's structure);
    and the construction of N_f, group_random_unitary of the regular
    representation of cyclic(k) with a seeded distribution, k in 4, 8, 16,
    100 calls per run; and tro_block_decomposition of the span of that
    representation, k one-dimensional summands of one shape, k in 4, 8, 16,
    32 (the seeded block attempt's stacked summands); and algebra._block_form,
    100 calls per run, on a seeded complex stack of s matrices (s = 1: one
    matrix, no leading axis; 16; 256) sized to the certified block list of
    phi_alpha(0.4), of the Pauli mixture (0.4, 0.3, 0.2, 0.1), of the
    partial-trace sum [[2, 2], [3, 1]] and of the Schur cyclic(8) channel
    (lone and repeated shapes, each shape's rectangles by one index);
  - closure: generate_star_algebra of the cyclic shift of order k in 8, 16,
    32, and of one seeded random generator of M_d, d in 4, 6, 10; and
    commutant_blocks of the regular representation of the dihedral group of
    order 2k, k in 4, 6, 8 (size: the order, the representation's dimension);
    and smallest_containing_tro of a (d - 1)-dimensional subspace of a seeded,
    rotated M_{n,n} (+) M_{1,1} padded by (2, 2), each element carrying 1e-6 of
    the missing one, n in 2, 4, 6 (size: d = n^2 + 1, the closure's dimension).
    No benchmark job reaches a closing round, so these curves and the star and
    commutant curves are the ones that time it;
  - verify: each of the three suites with the arguments `trocap verify`
    passes (the channel's own space and symbol, that pair twice for the
    tensor suite) on phi_alpha(0.4) and the Pauli mixture (0.4, 0.3, 0.2,
    0.1), at 16, 64 and 256 samples; and the tensor suite, at 20 samples, on
    the tensor square of the Schur cyclic(k) channel of the seeded kernel
    above, k in 4, 6, 8 (its Choi matrices would be k^4 x k^4); every call
    draws its samples afresh (``drawing``);
  - optimizers: one_shot_q on the partial-trace sum of blocks [[2, 2], [3, 1]]
    at 16 restarts with no ceiling (its extremal start is at Q1 from the
    first round, the other restarts climb to their own stops); one_shot_q on
    phi_alpha(0.4) with no init states and its own Q1 edge as the ceiling
    (size: input dimension; the extremal start, the maximally mixed input,
    falls short of the edge, the attaining start reaches it); numeric
    negative_cb_entropy, one certified concave maximization whatever its
    restarts, on channels of growing input
    dimension: dephasing(0.3) (2), phi_alpha(0.4) (4), that partial-trace sum
    (7, the one case whose maximally mixed start is not optimal, so the
    mirror step iterates) and the Schur cyclic(8) channel of the seeded kernel
    above (8);
    the bounds table's Pauli ascent, one_shot_q on the Pauli mixture (0.4,
    0.3, 0.2, 0.1) with its Q1 upper edge as the ceiling, at 4, 16 and 64
    restarts (a window the ascent cannot close, so every restart runs to its
    own stop);
    the stacked Renyi minimizer behind minimize_renyi_divergence on 16, 64
    and 256 seeded outputs (id (x) phi_alpha(0.4))(rho) at p = 2 (the kernel
    takes no eigendecomposition of the sandwich there) and at p = 1.5 (it
    does), each with K = 1 (I_cp) and with K = rho_A, the outputs' A marginal
    (I_p: half of every verify entropic stack), and on 16, 64 and 256 seeded
    states on 2 x 3 whose B marginal has rank 2 at p = 2; and at p = 4 on 1, 4
    and 16 seeded states (1 - 1e-8) rho0 + 1e-8 g on 2 x 3, rho0 the state g
    cut to B rank 2 and normalized, whose every item runs all 400 rounds and
    then takes the L-BFGS polish (entropy._lbfgs; no benchmark job reaches
    the polish); and renyi_coherent_channel at p = 2, one restart (one
    evaluation of the dual objective at the extremal input, then, where that
    does not reach the channel's Renyi edge, one at the attaining input, then
    an L-BFGS search over pairs (psi, tau), with no inner minimization), on
    the qubit dephasing channel of parameter 0.3, on phi_alpha(0.4), on
    phi_alpha(0.4) with its input, output and environment rotated by seeded
    unitaries (its symbol carried along), on the random-unitary channel
    of the regular representation of cyclic(3) with probabilities (0.5, 0.3,
    0.2), on that partial-trace sum, whose extremal input is not the
    maximally mixed one, and on the partial-trace sum of blocks [[2, 3], [2,
    1], [1, 2]], whose largest blocks have m > 1 (size: input dimension; all
    but phi_alpha, its rotation and the second sum reach the edge at the
    extremal input, those three at the attaining one), and on the Schur
    cyclic(k) channel of the seeded kernel above, k in 4, 6, 8 (input,
    output and environment dimension k, so omega_AE's factor has k columns
    against the k^2 x k^2 input state); and
    at restarts 2, 4 and 8 on that dephasing channel, which reaches its edge
    before any restart runs, and on the Pauli mixture (0.4, 0.3, 0.2, 0.1),
    an open window where every restart runs
    (the control); and that search's kernel alone,
    entropy._dual_value_and_grads, at beta = 2/3 (p = 2) on a seeded random
    isometry channel with Kraus stack (k, k, k) and a seeded pair (psi, u),
    k in 2, 4, 8, 16, 1000 calls per run
    (M = W* W keeps its smallest eigenvalue above 1e-4 of its largest there,
    so no call takes the SVD of W).

Each case is (section, name, size, setup); setup(t) builds the inputs from the
package t (its submodules read as ``t.algebra``, ``t.builders`` and so on) and
returns the call to time.
"""

import math
from functools import partial

import numpy as np


def schur_kernel(k: int) -> np.ndarray:
    """Kernel matrix of phi = the Fourier transform of a seeded probability vector on cyclic(k)."""
    p = np.random.default_rng(0).random(k)
    four = np.exp(2j * np.pi * np.outer(np.arange(k), np.arange(k)) / k)
    return (four * (p / p.sum())) @ four.conj().T


def rotated_modified(t, base, f: np.ndarray, v_in: np.ndarray, v_out: np.ndarray, v_env: np.ndarray):
    """The channel ``base`` of the package t modified by the environment density f (certified with seed 0), after
    unitaries rotate its input, output and environment: Kraus operators sum_e' A[e, e'] V_out K_e' V_in, A = v_env,
    and f -> conj(A) f A^T, so that the rotated representatives h A^T carry the same x f y*.  The tests' Haar-rotated
    channels are built with it too."""
    kraus = np.tensordot(v_env, v_out @ base.kraus @ v_in, axes=1)
    return t.algebra._modified(t.channel.Channel(kraus), v_env.conj() @ f @ v_env.T, 0)


def rotated_phi_alpha(t, alpha: float):
    """phi_alpha(alpha) rotated (rotated_modified) by the QR factors of seeded complex Gaussian matrices."""
    rng = np.random.default_rng(0)
    unitaries = (np.linalg.qr(t.matcore.random_complex(rng, (n, n)))[0] for n in (4, 3, 4))
    return rotated_modified(t, *t.builders._phi_alpha_base(alpha)[:2], *unitaries)


def schur_channel(t, k: int):
    """The Schur multiplier channel of cyclic(k) whose kernel is schur_kernel(k)."""
    phi = schur_kernel(k)[:, 0]  # kernel[g, g'] = phi(g - g')
    return t.builders.schur_multiplier_channel(t.builders.cyclic_group(k), phi)


# The named curve channels, each built from the package t by one entry.
CHANNELS = {
    "dephasing(0.3)": lambda t: t.builders.qubit_dephasing(0.3),
    "phi_alpha(0.4)": lambda t: t.builders.phi_alpha(0.4).channel,  # its bundle's space and symbol are the channel's
    "Pauli (0.4, 0.3, 0.2, 0.1)": lambda t: t.builders.group_random_unitary(
        t.builders.pauli_rep(), [0.4, 0.3, 0.2, 0.1]
    ),
    "blocks [[2, 2], [3, 1]]": lambda t: t.builders.partial_trace_sum_channel([(2, 2), (3, 1)]),
    "blocks [[2, 3], [2, 1], [1, 2]]": lambda t: t.builders.partial_trace_sum_channel([(2, 3), (2, 1), (1, 2)]),
    "regular cyclic(3)": lambda t: t.builders.group_random_unitary(
        t.builders.regular_representation(t.builders.cyclic_group(3)), [0.5, 0.3, 0.2]
    ),
    "rotated phi_alpha(0.4)": lambda t: rotated_phi_alpha(t, 0.4),
    **{f"Schur cyclic({k})": partial(schur_channel, k=k) for k in (4, 6, 8)},
}


def validate_case(t, k: int, calls: int = 1):
    ch, f = t.builders.completely_dephasing_channel(k), schur_kernel(k)
    return lambda: [t.algebra.validate_symbol(ch, f) for _ in range(calls)]


def rotated_validate_case(t, k: int):
    rng = np.random.default_rng(k)
    u, w = (np.linalg.qr(t.matcore.random_complex(rng, (k, k)))[0] for _ in range(2))
    kraus = np.einsum("ef,ij,fjk->eik", w, u, t.builders.completely_dephasing_channel(k).kraus)
    ch, f = t.channel.Channel(kraus), w.conj() @ schur_kernel(k) @ w.T
    return lambda: t.algebra.validate_symbol(ch, f)


def construction_case(t, k: int, calls: int = 100):
    rep = t.builders.regular_representation(t.builders.cyclic_group(k))
    p = np.random.default_rng(k).random(k)
    return lambda: [t.builders.group_random_unitary(rep, p / p.sum()) for _ in range(calls)]


def regular_span_case(t, k: int):
    span = t.algebra.orthonormal_span(t.builders.regular_representation(t.builders.cyclic_group(k)).unitaries)
    return lambda: t.algebra.tro_block_decomposition(span)


# certified block lists (n, m, l) of curve channels, for the _block_form curves
BLOCK_LISTS = {
    "phi_alpha(0.4)": ((1, 2, 1), (1, 1, 1), (1, 1, 1)),
    "Pauli (0.4, 0.3, 0.2, 0.1)": ((1, 2, 2),),
    "blocks [[2, 2], [3, 1]]": ((2, 2, 1), (3, 1, 1)),
    "Schur cyclic(8)": ((1, 1, 1),) * 8,
}


def block_form_case(t, name: str, s: int, calls: int = 100):
    blocks = BLOCK_LISTS[name]
    shape = (sum(n * l for n, _, l in blocks), sum(m * l for _, m, l in blocks))
    y = t.matcore.random_complex(np.random.default_rng(s), (s, *shape) if s > 1 else shape)
    return lambda: [t.algebra._block_form(y, blocks) for _ in range(calls)]


def closure_case(t, k: int):
    d = t.builders.completely_dephasing_channel(k)
    basis = t.channel.stinespring_space(t.channel.tensor_channels(d, d)).basis
    return lambda: t.algebra._structure(basis, t.algebra.TRO_TOL, close=True)


def star_case(t, name: str, d: int):
    if name == "shift":
        gen = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    else:
        gen = t.matcore.random_complex(np.random.default_rng(d), (d, d))
    return lambda: t.algebra.generate_star_algebra([gen])


def subspace_closure_case(t, n: int):
    """smallest_containing_tro of e_i + 1e-6 c_i e_(d-1), i < d - 1: e the unit-matrix
    basis of M_{n,n} (+) M_{1,1}, padded by (2, 2) and rotated by seeded unitaries, d = n^2 + 1."""
    rng, size = np.random.default_rng(n), n + 3
    e = np.zeros((n * n + 1, size, size), dtype=complex)
    e[np.arange(n * n), np.repeat(np.arange(n), n), np.tile(np.arange(n), n)] = 1.0
    e[-1, n, n] = 1.0
    u, w = (np.linalg.qr(t.matcore.random_complex(rng, (size, size)))[0] for _ in range(2))
    e = u @ e @ w.conj().T
    mats = list(e[:-1] + 1e-6 * t.matcore.random_complex(rng, n * n)[:, None, None] * e[-1])
    return lambda: t.algebra.smallest_containing_tro(mats)


def commutant_case(t, k: int):
    rep = t.builders.regular_representation(t.builders.dihedral_group(k))
    return lambda: t.builders.commutant_blocks(rep)


SUITES = {
    "local_comparison": lambda t, sp, sy, n: t.verify.verify_local_comparison(sp, sy, samples=n),
    "entropic": lambda t, sp, sy, n: t.verify.verify_entropic(sp, sy, samples=n),
    "tensor_symbol": lambda t, sp, sy, n: t.verify.verify_tensor_symbol(sp, sy, sp, sy, samples=n),
}


def drawing(t, call):
    """``call`` after emptying verify's memo of its last draw, where the tree has one, so each rep draws its samples
    as a lone suite call does; a rep that repeats the last call's arguments would otherwise skip the draw."""
    clear = getattr(t.verify._draw, "cache_clear", lambda: None)

    def run():
        clear()
        return call()

    return run


def verify_case(t, name: str, suite: str, n: int):
    ch = CHANNELS[VERIFY_CHANNELS[name]](t)
    space, symbol = ch.base_space, ch.symbol
    return drawing(t, lambda: SUITES[suite](t, space, symbol, n))


def schur_tensor_case(t, k: int):
    ch = CHANNELS[f"Schur cyclic({k})"](t)
    sp, sy = ch.base_space, ch.symbol
    return drawing(t, lambda: t.verify.verify_tensor_symbol(sp, sy, sp, sy, samples=20))


def renyi_stack_case(t, n: int, p: float, mutual: bool = False):
    ch = CHANNELS["phi_alpha(0.4)"](t)
    d = ch.dim_in
    rhos = np.array([t.matcore.random_density(np.random.default_rng((0, i)), d * d) for i in range(n)])
    omegas = t.verify._apply_product(t.channel.identity_channel(d), ch, rhos)
    k_as = t.matcore.partial_trace(omegas, (d, ch.dim_out), "A") if mutual else None  # I_p, else I_cp
    return lambda: t.entropy._RenyiStack(omegas, (d, ch.dim_out), p, k_as).minimize()


def thin_stack_case(t, n: int):
    keep = np.kron(np.eye(2), np.diag([1.0, 1.0, 0.0]))
    rhos = np.array([keep @ t.matcore.random_density(np.random.default_rng((1, i)), 6) @ keep for i in range(n)])
    rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
    return lambda: t.entropy._RenyiStack(rhos, (2, 3), 2.0).minimize()


def polish_stack_case(t, n: int):
    keep = np.kron(np.eye(2), np.diag([1.0, 1.0, 0.0]))
    gs = np.array([t.matcore.random_density(np.random.default_rng((2, i)), 6) for i in range(n)])
    rho0 = keep @ gs @ keep
    rho0 /= np.trace(rho0, axis1=1, axis2=2).real[:, None, None]
    rhos = (1 - 1e-8) * rho0 + 1e-8 * gs
    return lambda: t.entropy._RenyiStack(rhos, (2, 3), 4.0).minimize()


def one_shot_case(t, restarts: int):
    ch = CHANNELS["blocks [[2, 2], [3, 1]]"](t)
    # uncapped: the extremal start is at Q1 from the first round, but the other restarts still climb to their own
    # stops, so this times a batch with one restart parked; the Pauli curves time a long ascent
    return lambda: t.capacity.one_shot_q(ch, restarts=restarts, ceiling=math.inf)


def own_edge_case(t, name: str):
    ch = CHANNELS[name](t)
    return lambda: t.capacity.one_shot_q(ch)


def pauli_ascent_case(t, restarts: int):
    ch = CHANNELS["Pauli (0.4, 0.3, 0.2, 0.1)"](t)
    upper = t.capacity.comparison_bounds(ch.base_space, ch.symbol).entries["Q1"].upper
    return lambda: t.capacity.one_shot_q(ch, restarts=restarts, ceiling=upper)


def negative_cb_case(t, name: str):
    ch = CHANNELS[name](t)
    return lambda: t.capacity.negative_cb_entropy(ch, "numeric")


def renyi_channel_case(t, name: str, restarts: int = 1):
    ch = CHANNELS[name](t)
    return lambda: t.capacity.renyi_coherent_channel(ch, 2.0, restarts=restarts)


def dual_kernel_case(t, k: int, calls: int = 1000):
    rng = np.random.default_rng(k)
    kraus = np.linalg.qr(t.matcore.random_complex(rng, (k * k, k)))[0].reshape(k, k, k)
    psi, u = t.matcore.random_complex(rng, (k * k, 1)), t.matcore.random_complex(rng, (k, k))
    units = (psi / np.linalg.norm(psi), u / np.linalg.norm(u))
    return lambda: [t.entropy._dual_value_and_grads(kraus, 2 / 3, units) for _ in range(calls)]


# the verify curves' channel names, each with its CHANNELS entry
VERIFY_CHANNELS = {"phi_alpha(0.4)": "phi_alpha(0.4)", "pauli(0.4, 0.3, 0.2, 0.1)": "Pauli (0.4, 0.3, 0.2, 0.1)"}
CASES = [
    *(("structure", f"validate_symbol dephasing({k}) Schur kernel", k, partial(validate_case, k=k))
      for k in (8, 16, 24, 32, 48)),
    *(("structure", "validate_symbol dephasing(k) Schur kernel, 100 calls", k, partial(validate_case, k=k, calls=100))
      for k in (2, 4, 6, 8)),
    *(("structure", "validate_symbol rotated dephasing(k) Schur kernel", k, partial(rotated_validate_case, k=k))
      for k in (8, 16, 32)),
    *(("structure", f"closure + blocks of dephasing({k}) (x) itself", k * k, partial(closure_case, k=k))
      for k in (4, 6, 8)),
    *(("structure", "group_random_unitary regular rep of cyclic(k), 100 calls", k, partial(construction_case, k=k))
      for k in (4, 8, 16)),
    *(("structure", "tro_block_decomposition regular rep span of cyclic(k)", k, partial(regular_span_case, k=k))
      for k in (4, 8, 16, 32)),
    *(("structure", f"_block_form {name} blocks (stack length), 100 calls", s,
       partial(block_form_case, name=name, s=s))
      for name in BLOCK_LISTS for s in (1, 16, 256)),
    *(("closure", f"generate_star_algebra cyclic({k}) shift", k, partial(star_case, name="shift", d=k))
      for k in (8, 16, 32)),
    *(("closure", f"generate_star_algebra random generator of M_{d}", d, partial(star_case, name="random", d=d))
      for d in (4, 6, 10)),
    *(("closure", "commutant_blocks regular representation of dihedral(k)", 2 * k, partial(commutant_case, k=k))
      for k in (4, 6, 8)),
    *(("closure", "smallest_containing_tro subspace of [(n, n), (1, 1)] pad (2, 2), 1e-6", n * n + 1,
       partial(subspace_closure_case, n=n))
      for n in (2, 4, 6)),
    *(("verify", f"{suite} {name}", n, partial(verify_case, name=name, suite=suite, n=n))
      for name in VERIFY_CHANNELS for suite in SUITES for n in (16, 64, 256)),
    *(("verify", f"tensor_symbol Schur cyclic({k}) (x) itself, 20 samples", k, partial(schur_tensor_case, k=k))
      for k in (4, 6, 8)),
    *(("optimizers", "Renyi minimizer stack, phi_alpha(0.4) outputs, p 2", n, partial(renyi_stack_case, n=n, p=2.0))
      for n in (16, 64, 256)),
    *(("optimizers", "Renyi minimizer stack, phi_alpha(0.4) outputs, p 1.5", n, partial(renyi_stack_case, n=n, p=1.5))
      for n in (16, 64, 256)),
    *(("optimizers", f"Renyi minimizer stack, phi_alpha(0.4) outputs, K = rho_A, p {p:g}", n,
       partial(renyi_stack_case, n=n, p=p, mutual=True))
      for p in (2.0, 1.5) for n in (16, 64, 256)),
    *(("optimizers", "Renyi minimizer stack, B rank 2 of 3 states, p 2", n, partial(thin_stack_case, n=n))
      for n in (16, 64, 256)),
    *(("optimizers", "Renyi minimizer stack, thin states reaching the polish, p 4", n, partial(polish_stack_case, n=n))
      for n in (1, 4, 16)),
    ("optimizers", "one_shot_q blocks [[2, 2], [3, 1]] (restarts)", 16, partial(one_shot_case, restarts=16)),
    ("optimizers", "one_shot_q phi_alpha(0.4), own Q1 edge (input dim)", 4,
     partial(own_edge_case, name="phi_alpha(0.4)")),
    *(("optimizers", "negative_cb_entropy numeric (input dim)", d, partial(negative_cb_case, name=name))
      for name, d in (("dephasing(0.3)", 2), ("phi_alpha(0.4)", 4), ("blocks [[2, 2], [3, 1]]", 7),
                      ("Schur cyclic(8)", 8))),
    *(("optimizers", "one_shot_q Pauli (0.4, 0.3, 0.2, 0.1), Q1 ceiling (restarts)", r,
       partial(pauli_ascent_case, restarts=r))
      for r in (4, 16, 64)),
    ("optimizers", "renyi_coherent_channel dephasing(0.3) p 2 (input dim)", 2,
     partial(renyi_channel_case, name="dephasing(0.3)")),
    ("optimizers", "renyi_coherent_channel phi_alpha(0.4) p 2 (input dim)", 4,
     partial(renyi_channel_case, name="phi_alpha(0.4)")),
    ("optimizers", "renyi_coherent_channel rotated phi_alpha(0.4) p 2 (input dim)", 4,
     partial(renyi_channel_case, name="rotated phi_alpha(0.4)")),
    *(("optimizers", f"renyi_coherent_channel {name} p 2 (input dim)", d, partial(renyi_channel_case, name=name))
      for name, d in (("regular cyclic(3)", 3), ("blocks [[2, 2], [3, 1]]", 7),
                      ("blocks [[2, 3], [2, 1], [1, 2]]", 10))),
    *(("optimizers", f"renyi_coherent_channel {name} p 2 (restarts)", r,
       partial(renyi_channel_case, name=name, restarts=r))
      for name in ("dephasing(0.3)", "Pauli (0.4, 0.3, 0.2, 0.1)") for r in (2, 4, 8)),
    *(("optimizers", "renyi_coherent_channel Schur cyclic(k) p 2", k,
       partial(renyi_channel_case, name=f"Schur cyclic({k})"))
      for k in (4, 6, 8)),
    *(("optimizers", "dual Renyi kernel, seeded random Kraus (k, k, k), 1000 calls", k, partial(dual_kernel_case, k=k))
      for k in (2, 4, 8, 16)),
]
