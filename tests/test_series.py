import cmath
import math

import numpy as np
import pytest

from conftest import differentiate, map_from_shift, monomial, rand_disc, random_poly, with_tail
from csofix.cso import apply_series, make_cso
from csofix.errors import PreconditionError
from csofix.series import (
    DiscSeries,
    eval_at,
    integrate_from_zero,
    l1_norm,
    linear_combine,
    log_affine,
    make_series,
    zero_series,
)

W = (math.sqrt(5.0) - 1.0) / 2.0


def test_l1_norm_weighted_sum():
    f = make_series([1.0, -2.0, 3.0j], 0.5)
    assert l1_norm(f) == 2.75
    assert l1_norm(with_tail(f, 0.25)) == 3.0


def test_validation_errors():
    with pytest.raises(PreconditionError):
        DiscSeries(0.0, np.array([1.0]))
    with pytest.raises(PreconditionError):
        DiscSeries(1.0, np.array([1.0]), tail_bound=-1e-3)
    with pytest.raises(PreconditionError):
        make_series([float("nan")], 1.0)
    f = make_series([1.0, 2.0], 1.0)
    with pytest.raises(ValueError):
        f.coeffs[0] = 0.0


def same_series(f, g):
    """Equal radius and tail, and equal coefficients once the shorter is
    padded with zeros."""
    n = max(f.coeffs.size, g.coeffs.size)
    return (f.radius == g.radius and f.tail_bound == g.tail_bound
            and np.array_equal(np.pad(f.coeffs, (0, n - f.coeffs.size)),
                               np.pad(g.coeffs, (0, n - g.coeffs.size))))


def test_equality_pads_with_zeros():
    assert same_series(make_series([1.0, 0.0, 0.0], 2.0), make_series([1.0], 2.0))
    assert not same_series(make_series([1.0], 2.0), make_series([1.0], 3.0))
    assert not same_series(make_series([1.0], 2.0), with_tail(make_series([1.0], 2.0), 0.1))
    assert same_series(zero_series(1.0), make_series([], 1.0))
    # == is identity, so it never takes the truth value of an array
    f = make_series([1.0, 2.0], 2.0)
    assert f == f and f != make_series([1.0, 2.0], 2.0)


def test_compose_affine_cube_exact():
    # (0.25 + 0.5 z)^3; every coefficient is an exact binary fraction
    out = apply_series(make_cso([(1.0, map_from_shift(0.5, 0.25))]), monomial(3, 1.0))
    assert np.array_equal(out.coeffs, [0.015625, 0.09375, 0.1875, 0.125])
    assert out.radius == 1.0 and out.tail_bound == 0.0


def test_compose_affine_matches_convolution(rng):
    for _ in range(25):
        s = rand_disc(rng, 0.5) or 0.3
        t = rand_disc(rng, 0.3)
        f = random_poly(rng, 1.0, rng.integers(0, 6))
        out = apply_series(make_cso([(1.0, map_from_shift(s, t))]), f)
        expected = np.zeros(len(f.coeffs), dtype=complex)
        power = np.array([1.0 + 0j])
        for c in f.coeffs:
            expected[: len(power)] += c * power
            power = np.convolve(power, [t, s])
        assert np.allclose(out.coeffs, expected, atol=1e-13)


def test_compose_affine_rejects_escaping_image():
    f = monomial(1, 1.0)
    with pytest.raises(PreconditionError):
        apply_series(make_cso([(1.0, map_from_shift(0.9, 0.3))]), f)


def test_log_affine_mercator_coefficients():
    f = log_affine(1.0, W, 1.0)
    assert f.coeffs[0] == 0.0
    assert np.allclose(f.coeffs[1:4], [W, -W * W / 2.0, W ** 3 / 3.0], rtol=1e-15)
    assert 0.0 < f.tail_bound < 1e-25
    assert same_series(log_affine(2.0, 0.0, 1.0), make_series([cmath.log(2.0)], 1.0))
    with pytest.raises(PreconditionError):
        log_affine(1.0, 1.0, 1.0)


def test_log_affine_evaluates_to_principal_log(rng):
    f = log_affine(2.0, 0.5, 2.0)
    for _ in range(20):
        z = rand_disc(rng, 1.9)
        assert abs(eval_at(f, z) - cmath.log(2.0 + 0.5 * z)) < 1e-13


def test_eval_at_horner_and_domain():
    f = make_series([1.0, 2.0, 3.0], 1.0)
    assert eval_at(f, 0.5) == 2.75
    with pytest.raises(PreconditionError):
        eval_at(f, 1.0)
    with pytest.raises(PreconditionError):
        eval_at(f, complex("inf"))


def test_integrate_from_zero():
    f = make_series([0.5, -1.0, 2.0j], 2.0)
    back = differentiate(integrate_from_zero(f))
    assert np.allclose(back.coeffs[: len(f.coeffs)], f.coeffs, rtol=1e-15)
    g = integrate_from_zero(f)
    assert g.coeffs[0] == 0.0 and eval_at(g, 0.0) == 0.0
    assert with_tail(g, 0.0).tail_bound == 0.0
    # the dropped tail's bound scales by R under integration
    h = with_tail(f, 1.0)
    assert integrate_from_zero(h).tail_bound == 2.0


def test_linear_combine_validation():
    with pytest.raises(PreconditionError):
        linear_combine([])
    with pytest.raises(PreconditionError):
        linear_combine([(1.0, zero_series(1.0)), (1.0, zero_series(2.0))])


def test_norm_properties(rng):
    for _ in range(200):
        R = float(rng.uniform(0.5, 3.0))
        f = random_poly(rng, R, rng.integers(0, 8))
        g = random_poly(rng, R, rng.integers(0, 8))
        lam = rand_disc(rng, 2.0)
        assert l1_norm(linear_combine([(lam, f)])) <= abs(lam) * l1_norm(f) + 1e-12
        assert l1_norm(linear_combine([(1.0, f), (1.0, g)])) <= (
            l1_norm(f) + l1_norm(g) + 1e-12)
        z = rand_disc(rng, 0.999 * R)
        assert abs(eval_at(f, z)) <= l1_norm(f) + 1e-12
        got = eval_at(linear_combine([(lam, f), (1.0, g)]), z)
        assert abs(got - (lam * eval_at(f, z) + eval_at(g, z))) < 1e-12 * (
            1.0 + abs(lam) * l1_norm(f) + l1_norm(g))


def test_compose_is_norm_contraction(rng):
    for _ in range(200):
        R = float(rng.uniform(0.5, 2.0))
        f = random_poly(rng, R, rng.integers(0, 8))
        s = rand_disc(rng, 0.6)
        t = rand_disc(rng, 0.3 * R)
        if abs(s) * R + abs(t) >= R or s == 1:
            continue
        out = apply_series(make_cso([(1.0, map_from_shift(s, t))]), f)
        assert l1_norm(out) <= l1_norm(f) * (1.0 + 1e-12)
        z = rand_disc(rng, 0.9 * R)
        expected = eval_at(f, s * z + t)
        assert abs(eval_at(out, z) - expected) < 1e-11 * (1.0 + l1_norm(f))
