"""Print the structure-detection scaling curve of the checkout holding this file.

    python3 tools/structure_scaling.py

Runs with one BLAS thread (the thread variables are set before numpy loads)
and prints, for each size, the minimum wall time of 3 runs of:
  - validate_symbol on the completely dephasing channel of dimension k with the
    kernel of a seeded Schur multiplier of cyclic(k) (a Schur cyclic(k) spec's
    structure), k in 8, 16, 24, 32, 48;
  - the triple-product closure and block decomposition of the dilation range
    of the tensor square of the completely dephasing channel of dimension k,
    a span of dimension k^2 in 16, 36, 64 (the tensor_symbol verify suite's
    structure).
"""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from trocap import algebra, builders, channel  # noqa: E402

REPEAT = 3
DEPHASING_KS = (8, 16, 24, 32, 48)
TENSOR_KS = (4, 6, 8)


def schur_kernel(k: int) -> np.ndarray:
    """Kernel matrix of phi = the Fourier transform of a seeded probability vector on cyclic(k)."""
    p = np.random.default_rng(0).random(k)
    four = np.exp(2j * np.pi * np.outer(np.arange(k), np.arange(k)) / k)
    return (four * (p / p.sum())) @ four.conj().T


def best_of(fn) -> float:
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> None:
    print(f"{'case':<44}{'span k':>8}{'min s':>10}")
    for k in DEPHASING_KS:
        ch, f = builders.completely_dephasing_channel(k), schur_kernel(k)
        seconds = best_of(lambda: algebra.validate_symbol(ch, f))
        print(f"{f'validate_symbol dephasing({k}) Schur kernel':<44}{k:>8}{seconds:>10.4f}")
    for k in TENSOR_KS:
        d = builders.completely_dephasing_channel(k)
        basis = channel.stinespring_space(channel.tensor_channels(d, d)).basis
        seconds = best_of(lambda: algebra._closed_structure(basis, 0))
        print(f"{f'closure + blocks of dephasing({k}) (x) itself':<44}{k * k:>8}{seconds:>10.4f}")


if __name__ == "__main__":
    main()
