import cmath
import math

import numpy as np
import pytest

from conftest import (
    monomial,
    rand_disc,
    random_poly,
    random_tame_cso,
    residual_norm,
    with_tail,
)
from csofix import cso, fixpoint
from csofix.cso import (
    AffineMap,
    apply_series,
    apply_singular,
    certified_contraction_rate,
    induced_m,
    make_cso,
    pinned,
)
from csofix.errors import AdmissibilityError, ConvergenceError, PreconditionError
from csofix.fixpoint import (
    derivative_route_fixed_point,
    generalized_seed_fixed_point,
    make_seed,
    neumann_inverse,
    seeded_fixed_point,
)
from csofix.golden import C1, C2, make_M, word_fixed_point
from csofix.series import (
    DiscSeries,
    eval_at,
    l1_norm,
    linear_combine,
    zero_series,
)
from csofix.singular import (
    SingularFunction,
    eval_singular,
    log_term,
    pole_term,
)

W = (math.sqrt(5.0) - 1.0) / 2.0


def pole_op():
    third = 1.0 / 3.0
    return make_cso([(third, AffineMap(third, 0.0)),
                     (third, AffineMap(third, 3.0))])


def test_make_seed():
    M = make_M()
    term = log_term(1.0)
    assert make_seed(M, term) is term
    with pytest.raises(AdmissibilityError) as e:
        make_seed(M, pole_term(0.0, 2))
    assert "required" in str(e.value)


def test_neumann_geometric_example():
    T = make_cso([(0.5, AffineMap(0.0, 0.0))])
    h = neumann_inverse(T, zero_series(1.0), 1.0, 1e-12)
    assert np.array_equal(h.coeffs, [0.0])
    h = neumann_inverse(T, monomial(0, 1.0), 1.0, 1e-12)
    assert abs(h.coeffs[0] - 2.0) < 1e-11
    assert np.all(np.abs(h.coeffs[1:]) == 0.0)


def test_neumann_builds_operator_matrix_once(monkeypatch, rng):
    Mc, T, M = pinned(make_M(), W), pole_op(), make_M()
    Tm = induced_m(M, 3)
    # cache the certified rates first: their basis scans build matrices too
    for op, R in ((Mc, 2.0), (T, 4.0), (Tm, 1.2)):
        certified_contraction_rate(op, R)
    builds = []
    original = cso.operator_matrix

    def build(*args, **kwargs):
        builds.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(cso, "operator_matrix", build)
    monkeypatch.setattr(fixpoint, "operator_matrix", build)
    neumann_inverse(Mc, random_poly(rng, 2.0, 63), 2.0, 1e-10)
    assert builds == [Mc]
    # a whole solve builds one matrix per operator, on every route
    builds.clear()
    generalized_seed_fixed_point(Mc, make_seed(Mc, log_term(1.0)), 2.0, 1e-8)
    assert builds == [Mc]
    builds.clear()
    seeded_fixed_point(T, make_seed(T, pole_term(0.0, 1)), 4.0, 1e-8)
    assert builds == [T]
    builds.clear()
    # one for the induced operator's inner solve, one for T itself
    derivative_route_fixed_point(M, 0, 3, 1.2, 1e-8)
    assert builds == [Tm, M]


def reference_neumann(T, g, R, tol):
    """The Neumann sum written on DiscSeries with the public operations."""
    K = certified_contraction_rate(T, R)
    term, total, n = with_tail(g, g.tail_bound), zero_series(R), 0
    while l1_norm(term) >= tol * (1.0 - K):
        total = linear_combine([(1.0, total), (1.0, term)])
        term = with_tail(apply_series(T, term), K * term.tail_bound)
        n += 1
    return total, n


@pytest.mark.parametrize("big", [1e300, 1e307, 1e308])
def test_neumann_overflow(big):
    # the l1 norm on D_2 is sum |b_k| in the chart: at 1e307 it overflows
    # while every entry stays finite, so the sum goes on; at 1e308 the
    # entries of T g overflow too
    Mc = pinned(make_M(), C2)
    g = DiscSeries(2.0, np.full(64, big, dtype=complex))
    with np.errstate(over="ignore", invalid="ignore"):
        if big == 1e308:
            with pytest.raises(PreconditionError) as e:
                neumann_inverse(Mc, g, 2.0, 1e-8)
            assert str(e.value) == "series coefficients must be finite"
            return
        h = neumann_inverse(Mc, g, 2.0, 1e-8)
        ref, n = reference_neumann(Mc, g, 2.0, 1e-8)
    assert n > 1000
    assert h.tail_bound == ref.tail_bound
    assert h.scaled.tobytes() == ref.scaled.tobytes()


def test_neumann_long_truncation_on_D2():
    # no power R^n is formed, so N = 1100 on D_2 sums to tolerance
    Mc = pinned(make_M(), -W)
    g = DiscSeries(2.0, np.ones(1100, dtype=complex))
    u = neumann_inverse(Mc, g, 2.0, 1e-8)
    resid = linear_combine([(1.0, u), (-1.0, apply_series(Mc, u)), (-1.0, g)])
    assert l1_norm(resid) < 1e-8
    assert u.scaled.size == 1100 and np.isfinite(u.coeffs).all()


def test_neumann_solves_to_tolerance(rng):
    Mc = pinned(make_M(), W)
    for _ in range(5):
        g = random_poly(rng, 2.0, 6)
        u = neumann_inverse(Mc, g, 2.0, 1e-10)
        resid = linear_combine([(1.0, u), (-1.0, apply_series(Mc, u)),
                                (-1.0, g)])
        assert l1_norm(resid) - resid.tail_bound < 1e-10 * max(1.0, l1_norm(g))


def test_neumann_requires_contraction(monkeypatch):
    M = make_M()
    with pytest.raises(PreconditionError) as e:
        neumann_inverse(M, zero_series(1.9009), 1.9009, 1e-8)
    assert "contract" in str(e.value)
    monkeypatch.setattr(fixpoint, "MAX_ITER", 2)
    with pytest.raises(ConvergenceError):
        neumann_inverse(pinned(M, W), random_poly(
            np.random.default_rng(1), 2.0, 4), 2.0, 1e-12)


def test_direct_route_pole_operator():
    T = pole_op()
    res = seeded_fixed_point(T, make_seed(T, pole_term(0.0, 1)), 4.0, 1e-8)
    assert res.route == "direct"
    assert res.residual_norm < 1e-8
    f = res.fixed_point
    assert len(f.terms) == 1 and f.terms[0].key == ("pole", 0.0, 1)
    third = 1.0 / 3.0
    for z in (0.5, -1.5 + 1.0j, 2.0j, 2.5, -0.2 - 0.3j):
        lhs = eval_singular(f, z)
        rhs = third * eval_singular(f, third * z) + third * eval_singular(
            f, third * (z - 3.0) + 3.0)
        assert abs(lhs - rhs) < 1e-8


def test_generalized_route_golden_log(monkeypatch):
    Mc = pinned(make_M(), W)
    res = generalized_seed_fixed_point(Mc, make_seed(Mc, log_term(1.0)), 2.0, 1e-8)
    assert str(res.route) == "generalized_seed(1)"
    assert res.residual_norm < 1e-8
    keys = sorted(t.location.real for t in res.fixed_point.terms)
    assert abs(keys[0] + 1.0 / W) < 1e-12 and keys[1] == 1.0
    assert all(abs(t.weight - 1.0) < 1e-12 for t in res.fixed_point.terms)
    assert abs(eval_singular(res.fixed_point, W)) < 1e-10
    # the direct route refuses this seed: its image is not regular on D_2
    with pytest.raises(PreconditionError):
        seeded_fixed_point(Mc, make_seed(Mc, log_term(1.0)), 2.0, 1e-8)
    monkeypatch.setattr(fixpoint, "K_MAX", 0)
    with pytest.raises(PreconditionError) as e:
        generalized_seed_fixed_point(Mc, make_seed(Mc, log_term(1.0)), 2.0,
                                     1e-8)
    assert "stabilized" in str(e.value)


def test_generalized_agrees_with_direct_when_stable(rng):
    T = random_tame_cso(rng)
    seed = make_seed(T, log_term(T.maps[0].z_fix))
    a = seeded_fixed_point(T, seed, 1.0, 1e-9, n_terms=48)
    b = generalized_seed_fixed_point(T, seed, 1.0, 1e-9, n_terms=48)
    assert str(b.route) == "generalized_seed(0)"
    # the direct route is the generalized route's step k = 0, bit for bit
    assert a.fixed_point.terms == b.fixed_point.terms
    assert np.array_equal(a.fixed_point.regular.coeffs,
                          b.fixed_point.regular.coeffs)
    assert a.fixed_point.regular.tail_bound == b.fixed_point.regular.tail_bound
    assert a.residual_norm == b.residual_norm


def test_seed_iterate_gives_same_fixed_point(rng):
    # feeding T(seed) instead of the seed itself lands on the same function
    for _ in range(5):
        T = random_tame_cso(rng)
        z1 = T.maps[0].z_fix
        f0 = SingularFunction((log_term(z1),), zero_series(1.0))
        g1 = apply_singular(T, f0, relocate=True, n_terms=48)
        a = seeded_fixed_point(T, f0, 1.0, 1e-9, n_terms=48)
        b = seeded_fixed_point(T, g1, 1.0, 1e-9, n_terms=48)
        for _ in range(3):
            z = rand_disc(rng, 0.8)
            if abs(z - z1) < 0.05:
                continue
            assert abs(eval_singular(a.fixed_point, z)
                       - eval_singular(b.fixed_point, z)) < 1e-7


def test_fixed_point_is_idempotent_seed(rng):
    T = random_tame_cso(rng)
    seed = make_seed(T, log_term(T.maps[0].z_fix))
    res = seeded_fixed_point(T, seed, 1.0, 1e-10, n_terms=48)
    again = seeded_fixed_point(T, res.fixed_point, 1.0, 1e-10, n_terms=48)
    na = max(len(res.fixed_point.regular.coeffs), len(again.fixed_point.regular.coeffs))
    pa = np.pad(res.fixed_point.regular.coeffs,
                (0, na - len(res.fixed_point.regular.coeffs)))
    pb = np.pad(again.fixed_point.regular.coeffs,
                (0, na - len(again.fixed_point.regular.coeffs)))
    assert np.allclose(pa, pb, atol=1e-9)


def test_solution_scales_with_seed_weight(rng):
    T = random_tame_cso(rng)
    z1 = T.maps[0].z_fix
    lam = 2.0 - 1.0j
    a = seeded_fixed_point(T, make_seed(T, log_term(z1)), 1.0, 1e-10, n_terms=48)
    b = seeded_fixed_point(T, make_seed(T, log_term(z1, lam)), 1.0, 1e-10,
                           n_terms=48)
    for _ in range(5):
        z = rand_disc(rng, 0.8)
        if abs(z - z1) < 0.05:
            continue
        assert abs(eval_singular(b.fixed_point, z)
                   - lam * eval_singular(a.fixed_point, z)) < 1e-8


def test_derivative_route_golden():
    M = make_M()
    res = derivative_route_fixed_point(M, 0, 3, 1.2, 1e-8)
    assert str(res.route) == "derivative(3)"
    assert res.residual_norm < 1e-8
    assert res.fixed_point.terms == (log_term(0.0),)
    f = res.fixed_point
    for z in (0.5, -0.4 + 0.2j, 0.9j):
        # exponentials make the check branch-safe: raw log values can differ
        # by 2 pi i once a map crosses the principal cut
        lhs = cmath.exp(eval_singular(f, z))
        rhs = cmath.exp(eval_singular(f, -W * z)
                        + eval_singular(f, W * W * z + (1 - W * W)))
        assert abs(lhs - rhs) < 1e-7 * max(1.0, abs(lhs))
    # matches the word-expansion construction of the same fixed point
    for z in (-0.3, 0.4 + 0.3j, 0.55):
        assert abs(eval_singular(f, z) - word_fixed_point(1, 18, z)) < 5e-6


def test_derivative_route_guards():
    M = make_M()
    with pytest.raises(PreconditionError):
        derivative_route_fixed_point(M, 0, 0, 1.2, 1e-8)
    with pytest.raises(PreconditionError):
        derivative_route_fixed_point(M, 5, 1, 1.2, 1e-8)
    with pytest.raises(PreconditionError):
        derivative_route_fixed_point(pole_op(), 0, 1, 1.0, 1e-8)
    with pytest.raises(PreconditionError):
        derivative_route_fixed_point(M, 0, 3, 1.9, 1e-8)
    H = make_cso([(1.0, AffineMap(0.5, 0.0)), (1.0, AffineMap(0.5, 1.0))])
    with pytest.raises(PreconditionError) as e:
        derivative_route_fixed_point(H, 0, 2, 0.9, 1e-8)
    assert "singular" in str(e.value)


def test_seed_radius_mismatch():
    T = pole_op()
    f0 = SingularFunction((pole_term(0.0, 1),), zero_series(1.5))
    with pytest.raises(PreconditionError):
        seeded_fixed_point(T, f0, 4.0, 1e-8)


def test_convergence_error_on_tiny_budget(monkeypatch, rng):
    Mc = pinned(make_M(), W)
    monkeypatch.setattr(fixpoint, "MAX_ITER", 2)
    with pytest.raises(ConvergenceError):
        neumann_inverse(Mc, random_poly(rng, 2.0, 63), 2.0, 1e-8)


def test_golden_solve_applies_T_once_per_step(monkeypatch):
    # two stabilization steps (k = 0, 1), whose last T g serves both the
    # Neumann solve and the residual: two applications, none to f*
    calls = []
    original = fixpoint.apply_singular

    def counted(T, f, **kwargs):
        calls.append(f)
        return original(T, f, **kwargs)

    monkeypatch.setattr(fixpoint, "apply_singular", counted)
    Mc = pinned(make_M(), C2)
    res = generalized_seed_fixed_point(Mc, make_seed(Mc, log_term(1.0)), 2.0, 1e-8)
    assert str(res.route) == "generalized_seed(1)"
    assert len(calls) == 2
    assert calls[-1].terms == res.fixed_point.terms


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_derivative_route_applies_T_twice(monkeypatch, m):
    # the derivative's seeded solve (its k = 0 step) and T h once; the final
    # residual comes from T h, not from T f*
    calls = []
    original = fixpoint.apply_singular

    def counted(T, f, **kwargs):
        calls.append(f)
        return original(T, f, **kwargs)

    monkeypatch.setattr(fixpoint, "apply_singular", counted)
    res = derivative_route_fixed_point(make_M(), 0, m, 1.2, 1e-8)
    assert str(res.route) == f"derivative({m})"
    assert len(calls) == 2


@pytest.mark.parametrize("route", ["direct", "generalized", 1, 2, 3, 4])
def test_reported_residual_is_T_f_minus_f(route):
    # every route reads T f* - f* from its last T g; applying T to f* itself
    # gives the same norm
    if route == "direct":
        T = pole_op()
        res = seeded_fixed_point(T, make_seed(T, pole_term(0.0, 1)), 4.0, 1e-8)
    elif route == "generalized":
        T = pinned(make_M(), C2)
        res = generalized_seed_fixed_point(T, make_seed(T, log_term(1.0)), 2.0, 1e-8)
    else:
        T = make_M()
        res = derivative_route_fixed_point(T, 0, route, 1.2, 1e-8)
    direct = residual_norm(T, res.fixed_point)
    assert abs(res.residual_norm - direct) <= 1e-15 * max(1.0, direct)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_bad_tolerance_rejected_before_any_matrix(no_matrix_builds, tol):
    Mc, T = pinned(make_M(), C2), pole_op()
    solves = [
        lambda: neumann_inverse(Mc, zero_series(2.0), 2.0, tol),
        lambda: seeded_fixed_point(T, make_seed(T, pole_term(0.0, 1)), 4.0, tol),
        lambda: generalized_seed_fixed_point(Mc, make_seed(Mc, log_term(1.0)), 2.0, tol),
        lambda: derivative_route_fixed_point(make_M(), 0, 3, 1.2, tol),
    ]
    for solve in solves:
        with pytest.raises(PreconditionError) as e:
            solve()
        assert str(e.value) == "tolerance must be positive and finite"


def route_correction(T, seed, R, relocate, n):
    """The right-hand side q = g - T g of a route's correction solve, the
    route's u and the certified rate: the route's own steps, stopped before
    the residual gate."""
    g = SingularFunction((seed,), zero_series(R))
    A = fixpoint._solve_matrix(T, g, n, 1e-8)
    _, g, Tg = fixpoint._stabilize(T, g, A, relocate, n)
    q = linear_combine([(1.0, g.regular), (-1.0, Tg.regular)])
    return q, fixpoint._solve(T, q, R, A), certified_contraction_rate(T, R)


def solve_cases():
    rng = np.random.default_rng(7)
    M = make_M()
    cases = [(pinned(M, c), log_term(1.0), 2.0, True, 128) for c in (C1, C2)]
    cases.append((pole_op(), pole_term(0.0, 1), 4.0, False, 128))
    for _ in range(3):
        T = random_tame_cso(rng)
        cases.append((T, log_term(T.maps[0].z_fix), 1.0, False, 48))
    cases.append((induced_m(M, 3), pole_term(0.0, 3, 2.0), 1.2, False, 128))
    return cases


@pytest.mark.parametrize("case", range(7))
def test_route_solve_matches_neumann_reference(case):
    # the back substitution the routes use and the Neumann sum kept as the
    # reference agree within the Neumann stopping error
    T, seed, R, relocate, n = solve_cases()[case]
    tol = 1e-10
    q, u, K = route_correction(T, seed, R, relocate, n)
    ref = neumann_inverse(T, q, R, tol)
    diff = linear_combine([(1.0, u), (-1.0, ref)])
    assert l1_norm(diff) - diff.tail_bound <= tol / (1.0 - K)
    assert u.tail_bound == q.tail_bound / (1.0 - K)


@pytest.mark.parametrize("loc", [0.0, 1.0])
def test_pinned_solutions_differ_by_a_constant(loc):
    # a fixed point g of T_c has M g - g = (M g)(c), a constant, so the
    # pinned-C1 and pinned-C2 solutions with the same seed differ by one
    M = make_M()
    f1, f2 = (generalized_seed_fixed_point(pinned(M, c), log_term(loc), 2.0, 1e-12,
                                           n_terms=256).fixed_point for c in (C1, C2))
    assert [t.key for t in f1.terms] == [t.key for t in f2.terms]
    singular = [t.location for t in f1.terms]
    points = [1.7 * cmath.exp(1j * a) * r for a, r in zip(
        np.linspace(0.3, 6.0, 8), (1.0, 0.5, 0.9, 0.7, 1.0, 0.6, 0.8, 0.95))]
    assert all(abs(z) < 1.8 and min(abs(z - s) for s in singular) > 0.2 for z in points)
    diffs = [eval_singular(f1, z) - eval_singular(f2, z) for z in points]
    kappa = diffs[0]
    assert max(abs(d - kappa) for d in diffs) <= 1e-14
