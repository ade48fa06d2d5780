"""Print the verify-suite scaling curve of the checkout holding this file.

    python3 tools/verify_scaling.py

Runs with one BLAS thread (the thread variables are set before numpy loads)
and prints, for each channel and sample count, the minimum wall time of 3
runs of each of the three verify suites, with the arguments `trocap verify`
passes: the channel's own space and symbol, and that pair twice for the
tensor suite.  The channels are phi_alpha(0.4) and the Pauli mixture
(0.4, 0.3, 0.2, 0.1); the sample counts are 16, 64 and 256.
"""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from trocap import builders, verify  # noqa: E402

REPEAT = 3
SAMPLES = (16, 64, 256)


def best_of(fn) -> float:
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> None:
    bundle = builders.phi_alpha(0.4)
    pauli = builders.group_random_unitary(builders.pauli_rep(), [0.4, 0.3, 0.2, 0.1])
    channels = {
        "phi_alpha(0.4)": (bundle.space, bundle.symbol),
        "pauli(0.4, 0.3, 0.2, 0.1)": (pauli.base_space, pauli.symbol),
    }
    suites = {
        "local_comparison": lambda sp, sy, n: verify.verify_local_comparison(sp, sy, samples=n),
        "entropic": lambda sp, sy, n: verify.verify_entropic(sp, sy, samples=n),
        "tensor_symbol": lambda sp, sy, n: verify.verify_tensor_symbol(sp, sy, sp, sy, samples=n),
    }
    print(f"{'channel':<28}{'suite':<18}{'samples':>8}{'min s':>10}")
    for name, (space, symbol) in channels.items():
        for suite, run in suites.items():
            for n in SAMPLES:
                seconds = best_of(lambda: run(space, symbol, n))
                print(f"{name:<28}{suite:<18}{n:>8}{seconds:>10.4f}")


if __name__ == "__main__":
    main()
