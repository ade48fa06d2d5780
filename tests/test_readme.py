import math
import os
import re

import pytest

from trocap.entropy import binary_entropy

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_python_quick_tour_runs_and_keeps_its_claims(capsys):
    with open(README, encoding="utf-8") as fh:
        (block,) = re.findall(r"## Python quick tour\n\n```python\n(.*?)```", fh.read(), re.S)
    tour = {}
    exec(block, tour)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 4
    edge = 1.0 - binary_entropy(0.65)
    q = tour["win"].entries["Q"]
    assert q.lower == 0.0 and q.upper == pytest.approx(edge, rel=1e-13, abs=0)  # lower 0, upper 1 - h(0.65)
    assert tour["best"].value == pytest.approx(edge, rel=1e-13, abs=0)  # stops at that upper edge
    assert tour["i2"] == pytest.approx(math.log2(1.09), rel=1e-13, abs=0)  # stops at its Renyi edge
    assert tour["decomp"].blocks == ((1, 2, 1), (1, 1, 1), (1, 1, 1))
    phi_edge = 1.0 - binary_entropy(0.75)
    assert phi_edge * (1 - 1e-13) <= tour["phi"].value <= phi_edge + 1e-14  # reaches its Q1 edge
