import cmath
import math

import numpy as np
import pytest

from conftest import map_from_shift, rand_disc
from csofix.cso import AffineMap
from csofix.errors import NonSimpleConfigurationError, PreconditionError
from csofix.series import eval_at, l1_norm, make_series, zero_series
from csofix.singular import (
    SingularFunction,
    SingularTerm,
    eval_singular,
    eval_term,
    log_term,
    merge_terms,
    pole_term,
    pullback_term,
    purely_regular,
    unbounded_set,
)

W = (math.sqrt(5.0) - 1.0) / 2.0
PHI1 = AffineMap(-W, 0.0)
PHI2 = AffineMap(W * W, 1.0)


def test_term_validation():
    with pytest.raises(PreconditionError):
        SingularTerm("cusp", 0.0, 1.0)
    with pytest.raises(PreconditionError):
        pole_term(0.0, 0)
    with pytest.raises(PreconditionError):
        SingularTerm("log", 0.0, 1.0, order=2)
    with pytest.raises(PreconditionError):
        log_term(0.0, 0.0)
    assert log_term(1.0).key == ("log", 1.0, 0)
    assert pole_term(0.5j, 3).key == ("pole", 0.5j, 3)


def test_function_validation():
    with pytest.raises(PreconditionError):
        SingularFunction([log_term(2.0)], zero_series(1.0))
    with pytest.raises(PreconditionError, match="duplicate singular term"):
        SingularFunction([log_term(0.0), log_term(0.0, 2.0)], zero_series(1.0))
    f = SingularFunction([log_term(0.0), pole_term(0.0, 1)], zero_series(1.0))
    assert unbounded_set(f) == {0.0}
    assert f.radius == 1.0


def test_eval_term_values():
    assert eval_term(log_term(1.0), 2.0) == 0.0
    assert eval_term(pole_term(0.0, 1), 0.5) == 2.0
    assert eval_term(pole_term(1.0, 2, 3.0), 0.0) == 3.0
    assert eval_term(log_term(0.0), -1.0) == cmath.pi * 1j
    with pytest.raises(PreconditionError):
        eval_term(log_term(0.5), 0.5)


def test_eval_singular_sums_parts():
    f = SingularFunction([pole_term(0.0, 1)], make_series([1.0, 2.0], 1.0))
    assert eval_singular(f, 0.5) == 2.0 + 2.0
    with pytest.raises(PreconditionError):
        eval_singular(f, 1.0)


def test_merge_terms_accumulates_and_drops():
    merged = merge_terms([
        (1.0, log_term(0.0, 2.0)),
        (2.0, pole_term(1.0, 1)),
        (0.5, log_term(0.0, -4.0)),
    ])
    assert merged == (pole_term(1.0, 1, 2.0),)
    merged = merge_terms([(1.0, log_term(0.0)), (1.0, log_term(0.0, 1e-14))],
                         drop_below=1e-9)
    assert merged == (log_term(0.0, 1.0 + 1e-14),)


def test_pullback_at_fixed_location():
    # log z composed with phi1 stays log z and gains the constant log(-w)
    out = pullback_term(log_term(0.0), PHI1, 1.5)
    assert out.terms == (log_term(0.0),)
    assert out.regular.coeffs[0] == cmath.log(complex(-W))
    # a pole of order 2 at the fixed point scales by s^{-2}
    out = pullback_term(pole_term(0.0, 2), PHI1, 1.5)
    assert len(out.terms) == 1
    assert abs(out.terms[0].weight - (1.0 + W) ** 2) < 1e-14
    assert l1_norm(out.regular) == 0.0


def test_pullback_fixed_location_under_relocate():
    # a fixed point is its own preimage: relocation keeps the location bit
    # for bit, where (z0 - t) / s would round, and matches the strict result
    mp = map_from_shift(0.3 - 0.2j, 0.45 + 0.1j)
    for term in (log_term(mp.z_fix, 2.0 - 1.0j), pole_term(mp.z_fix, 3, 0.5j)):
        out = pullback_term(term, mp, 1.5, relocate=True)
        assert len(out.terms) == 1
        assert out.terms[0].location == term.location
        strict = pullback_term(term, mp, 1.5)
        assert out.terms == strict.terms
        assert np.array_equal(out.regular.coeffs, strict.regular.coeffs)


def test_pullback_constant_map():
    out = pullback_term(log_term(0.0), AffineMap(0.0, 0.3), 1.0)
    assert out.terms == ()
    assert out.regular.coeffs[0] == cmath.log(0.3)
    with pytest.raises(NonSimpleConfigurationError):
        pullback_term(log_term(0.3), AffineMap(0.0, 0.3), 1.0)


def test_pullback_analytic_route():
    # log z through phi2: the preimage -1/w lies outside D_1.5
    out = pullback_term(log_term(0.0), PHI2, 1.5)
    assert out.terms == ()
    assert abs(out.regular.coeffs[0] - cmath.log(complex(W))) < 1e-15
    for z in (0.4, -0.9 + 0.3j, 1.2j):
        got = eval_at(out.regular, z)
        assert abs(cmath.exp(got) - PHI2(z)) < 1e-13
    # pole version: values match the rational function directly
    out = pullback_term(pole_term(0.0, 2, 1.5j), PHI2, 1.5)
    assert out.terms == ()
    for z in (0.4, -0.9 + 0.3j):
        assert abs(eval_at(out.regular, z) - 1.5j * PHI2(z) ** -2) < 1e-12


def test_pullback_interior_routes():
    with pytest.raises(NonSimpleConfigurationError):
        pullback_term(log_term(0.0), PHI2, 2.0)
    out = pullback_term(log_term(0.0), PHI2, 2.0, relocate=True)
    assert len(out.terms) == 1
    moved = out.terms[0]
    assert moved.kind == "log"
    assert abs(moved.location + 1.0 / W) < 1e-14
    assert out.regular.coeffs[0] == cmath.log(complex(W * W))
    out = pullback_term(pole_term(0.0, 1), PHI2, 2.0, relocate=True)
    assert abs(out.terms[0].weight - 1.0 / (W * W)) < 1e-13
    # the band between R and R(1+REG_MARGIN) refuses to classify: the
    # preimage -1/w = -1.6180339887... lies just outside D_1.618033
    with pytest.raises(NonSimpleConfigurationError, match="margin"):
        pullback_term(log_term(0.0), PHI2, 1.618033, relocate=True)


def test_pullback_multiplicative_identity(rng):
    # branch-safe check: exponentials remove the 2 pi i ambiguity of split logs
    for _ in range(50):
        s = rand_disc(rng, 0.5) or 0.25
        t = rand_disc(rng, 0.4)
        mp = map_from_shift(s, t)
        z0 = rand_disc(rng, 0.9)
        if abs((z0 - t) / s) <= 1.3:
            continue
        out = pullback_term(log_term(z0), mp, 1.2, relocate=True)
        z = rand_disc(rng, 1.1)
        got = cmath.exp(eval_singular(out, z))
        assert abs(got - (mp(z) - z0)) < 1e-10 * max(1.0, abs(mp(z) - z0))


def test_pullback_pole_identity(rng):
    for _ in range(50):
        s = rand_disc(rng, 0.5) or 0.25
        t = rand_disc(rng, 0.4)
        mp = map_from_shift(s, t)
        z0 = rand_disc(rng, 0.9)
        k = int(rng.integers(1, 4))
        w = (z0 - t) / s
        if abs(w) <= 1.3:
            continue
        out = pullback_term(pole_term(z0, k, 2.0 - 1.0j), mp, 1.2,
                            relocate=True)
        z = rand_disc(rng, 1.1)
        expected = (2.0 - 1.0j) * (mp(z) - z0) ** -k
        assert abs(eval_singular(out, z) - expected) < 1e-9 * max(1.0, abs(expected))


def test_pullback_keeps_pole_order(rng):
    for _ in range(20):
        s = rand_disc(rng, 0.4) or 0.2
        z_fix = rand_disc(rng, 0.5)
        mp = AffineMap(s, z_fix)
        k = int(rng.integers(1, 5))
        out = pullback_term(pole_term(z_fix, k), mp, 1.0)
        assert out.terms[0].order == k
        assert abs(out.terms[0].weight - s ** -k) < 1e-10 * abs(s) ** -k


def test_purely_regular_roundtrip():
    g = make_series([1.0, 0.5j], 2.0)
    f = purely_regular(g)
    assert f.terms == () and f.regular is g
    assert unbounded_set(f) == set()
