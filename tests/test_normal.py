import math

import numpy as np
import pytest
from scipy import special

from callscore import normal


def _arguments() -> np.ndarray:
    """A grid, heavy-tailed draws, 2,000 ulps either side of each branch edge
    (z = ±1, z·√½ = ±1, erfc's ±8 and z·√½ = ±8), the exponential's underflow
    and the special values."""
    r = np.random.default_rng(24)
    edges = np.array([1.0, math.sqrt(2.0), 8.0, 8.0 * math.sqrt(2.0)])
    edges = np.concatenate([edges, -edges])
    ulps = np.arange(-2000, 2001)
    underflow = np.linspace(37.5, 38.6, 20_001)
    return np.concatenate([
        np.linspace(-40.0, 40.0, 100_001),
        r.standard_cauchy(50_000),
        r.choice([-1.0, 1.0], 50_000) * 10.0 ** r.uniform(-300, 2.5, 50_000),
        (edges[:, None] + ulps * np.spacing(edges)[:, None]).ravel(),
        underflow, -underflow, underflow / math.sqrt(2.0), -underflow / math.sqrt(2.0),
        [0.0, -0.0, math.inf, -math.inf, math.nan],
    ])


@pytest.mark.parametrize("name", ["ndtr", "erf", "erfc"])
def test_equals_scipy_special_bit_for_bit(name):
    z = _arguments()
    assert len(z) >= 200_000
    got = np.array([getattr(normal, name)(v) for v in z.tolist()])
    want = getattr(special, name)(z)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    known = ~np.isnan(want)
    differ = np.flatnonzero(got[known].view(np.int64) != want[known].view(np.int64))
    assert differ.size == 0, [(z[known][i], got[known][i], want[known][i]) for i in differ[:5]]
