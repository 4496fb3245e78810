import json

import numpy as np
import pytest

from csofix import cso, fixpoint
from csofix.cli import OperatorConfig
from csofix.cso import AffineCso, AffineMap, apply_singular, make_cso
from csofix.errors import PreconditionError
from csofix.series import DEFAULT_TRUNCATION, DiscSeries, l1_norm, linear_combine, make_series
from csofix.singular import SingularFunction

SEED = 20260825


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(SEED)


@pytest.fixture
def no_matrix_builds(monkeypatch):
    """Fail on any operator matrix build, for rejections that must come first."""
    def refuse(*args, **kwargs):
        raise AssertionError("operator matrix built")

    for module in (cso, fixpoint):
        monkeypatch.setattr(module, "operator_matrix", refuse)


def monomial(n: int, radius: float) -> DiscSeries:
    """The basis function z^n on D_radius."""
    return make_series([0.0] * n + [1.0], radius)


def with_tail(f: DiscSeries, tail_bound: float) -> DiscSeries:
    return DiscSeries(f.radius, f.scaled, float(tail_bound))


def differentiate(f: DiscSeries) -> DiscSeries:
    """Termwise derivative of the retained coefficients (tail dropped): in
    the chart, b_k moves to degree k - 1 as k b_k / R."""
    n = len(f.scaled)
    return DiscSeries(f.radius, f.scaled[1:] * np.arange(1, n) / f.radius)


def map_from_shift(s: complex, t: complex) -> AffineMap:
    """The map z -> s z + t in fixed-point form (needs s != 1)."""
    s, t = complex(s), complex(t)
    if s == 1:
        raise PreconditionError("s = 1 has no fixed point")
    return AffineMap(s, t / (1 - s))


def serialize_config(cfg: OperatorConfig) -> str:
    """Config text that `cli.parse_config` reads back as cfg."""
    doc = {
        "terms": [{"a": [a.real, a.imag],
                   "s": [m.s.real, m.s.imag],
                   "fix": [m.z_fix.real, m.z_fix.imag]}
                  for a, m in cfg.cso.terms],
        "radius": cfg.radius,
        "mu": cfg.mu,
        "truncation": cfg.truncation,
    }
    return json.dumps(doc)


def residual_norm(T: AffineCso, f: SingularFunction,
                  n_terms: int = DEFAULT_TRUNCATION) -> float:
    """||T f - f||_R from scratch: T applied to f itself, with a freshly built
    matrix, after checking that T f keeps the singular terms of f."""
    Tf = apply_singular(T, f, relocate=True, n_terms=n_terms)
    assert [t.key for t in Tf.terms] == [t.key for t in f.terms]
    assert all(abs(a.weight - b.weight) <= 1e-12 * max(1.0, abs(b.weight))
               for a, b in zip(Tf.terms, f.terms))
    return l1_norm(linear_combine([(1.0, Tf.regular), (-1.0, f.regular)]))


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
