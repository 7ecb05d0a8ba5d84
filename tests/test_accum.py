import math

import numpy as np

from gramlab.accum import csum


def test_csum_matches_fsum_exactly():
    rng = np.random.default_rng(3)
    arr = rng.uniform(-1, 1, size=200_000) * 10.0 ** rng.integers(-8, 8, size=200_000)
    assert csum(arr[:1000]) == math.fsum(arr[:1000].tolist())


def test_csum_ill_conditioned():
    arr = np.array([1e16, 1.0, -1e16, 1.0])
    assert csum(arr) == 2.0


def test_csum_empty():
    assert csum(np.empty(0)) == 0.0

