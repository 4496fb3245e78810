import numpy as np
import pytest

from csofix import cso, fixpoint
from csofix.cso import AffineCso, AffineMap, make_cso
from csofix.series import DiscSeries, make_series

SEED = 20260825


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(SEED)


@pytest.fixture
def no_matrix_builds(monkeypatch):
    """Fail on any operator matrix build, for rejections that must come first."""
    def refuse(*args, **kwargs):
        raise AssertionError("operator matrix built")

    for module, name in ((cso, "operator_matrix"), (fixpoint, "operator_matrix"),
                         (cso, "_conjugated_matrix")):
        monkeypatch.setattr(module, name, refuse)


def rand_disc(rng: np.random.Generator, radius: float = 1.0) -> complex:
    r = radius * np.sqrt(rng.uniform())
    th = rng.uniform(0.0, 2.0 * np.pi)
    return complex(r * np.cos(th), r * np.sin(th))


def random_poly(rng: np.random.Generator, radius: float, deg: int) -> DiscSeries:
    coeffs = [rand_disc(rng) for _ in range(deg + 1)]
    return make_series(coeffs, radius)


def random_tame_cso(rng: np.random.Generator) -> AffineCso:
    """Two-term operator contracting on D_1 that admits a log seed at the
    first map's fixed point.

    a_1 = 1 keeps the seed admissible; a_1 + a_2 small makes the constant
    direction contract (basis ratio |a_1 + a_2| <= 0.3 at n = 0); rates and
    fixed points within 0.15 bound every other ratio by the analytic
    majorant sum |a_i| (|s_i| + |t_i|)^n <= 2.3 * 0.33 < 1, so no explicit
    certification pass is needed here."""
    while True:
        s1 = rand_disc(rng, 0.15) or 0.1
        s2 = rand_disc(rng, 0.15) or -0.1
        z1 = rand_disc(rng, 0.15)
        z2 = rand_disc(rng, 0.15)
        if (s1, z1) == (s2, z2):
            continue
        a2 = -1.0 + rand_disc(rng, 0.3)
        T = make_cso([(1.0, AffineMap(s1, z1)), (a2, AffineMap(s2, z2))])
        # seed location z1 must pull back well outside D_1 through map 2, so
        # truncated pullback expansions converge fast (ratio <= 1/2.2)
        m2 = T.maps[1]
        if abs(z1 - m2.t) <= abs(m2.s) * 2.2:
            continue
        return T
