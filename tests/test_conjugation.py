"""Conjugation oracle: the fixed point of T conjugated by z -> lam z.

If f is fixed by T on D_R, then f(w / lam) is fixed by the operator with
maps s_i (w - lam z_i) + lam z_i on D_{|lam| R}.  A seeded solve there
returns it up to an additive constant, and up to multiples of 2 pi i where
the principal log's cut moves, so f_lam(lam z) - f(z) is one constant at
every z.  No special operator and no word sum is needed.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_tame_cso
from csofix.cso import AffineMap, make_cso, pinned
from csofix.fixpoint import generalized_seed_fixed_point, make_seed, seeded_fixed_point
from csofix.golden import C2, make_M
from csofix.singular import eval_singular, log_term

GOLDEN_POINTS = (0.3 + 0.2j, -0.4 - 0.5j, 0.6j, -0.9 + 0.3j)


def conjugate(T, lam: complex):
    """T conjugated by z -> lam z: every fixed point times lam."""
    return make_cso([(a, AffineMap(m.s, lam * m.z_fix)) for a, m in T.terms])


def spread(f, f_lam, lam: complex, points, mod_2pi_i: bool) -> float:
    """Largest distance of f_lam(lam z) - f(z) from its value at the first
    point, reduced modulo 2 pi i when `mod_2pi_i`."""
    d = [eval_singular(f_lam, lam * z) - eval_singular(f, z) for z in points]
    out = 0.0
    for x in d[1:]:
        x -= d[0]
        if mod_2pi_i:
            x -= 2j * math.pi * round(x.imag / (2.0 * math.pi))
        out = max(out, abs(x))
    return out


def golden_solve(lam: complex):
    Tl = pinned(conjugate(make_M(), lam), lam * C2)
    seed = make_seed(Tl, log_term(lam))
    return generalized_seed_fixed_point(Tl, seed, 2.0 * abs(lam), 1e-8).fixed_point


@pytest.mark.parametrize("lam", [0.5, 4.0, 1j, 1e-3, 1e3])
def test_golden_solve_conjugates(lam):
    f, f_lam = golden_solve(1.0), golden_solve(lam)
    assert f_lam.radius == 2.0 * abs(lam)
    assert [t.location for t in f_lam.terms] == [lam * t.location for t in f.terms]
    assert spread(f, f_lam, lam, GOLDEN_POINTS, mod_2pi_i=lam.imag != 0) <= 1e-12


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), log_mod=st.floats(-3.0, 3.0),
       arg=st.floats(0.0, 2.0 * math.pi))
def test_random_direct_solve_conjugates(seed, log_mod, arg):
    T = random_tame_cso(np.random.default_rng(seed))
    lam = 10.0 ** log_mod * cmath.exp(1j * arg)
    Tl = conjugate(T, lam)
    z1 = T.maps[0].z_fix
    f = seeded_fixed_point(T, make_seed(T, log_term(z1)), 1.0, 1e-10, 48).fixed_point
    f_lam = seeded_fixed_point(Tl, make_seed(Tl, log_term(lam * z1)), abs(lam), 1e-10,
                               48).fixed_point
    points = [0.6 * cmath.exp(2j * math.pi * k / 4) for k in range(4)]
    assert spread(f, f_lam, lam, points, mod_2pi_i=True) <= 1e-12
