import cmath
import math
import sys
import threading
import time

import mpmath
import numpy as np
import pytest

from conftest import (
    differentiate,
    map_from_shift,
    monomial,
    rand_disc,
    random_poly,
    random_tame_cso,
    with_tail,
)
from csofix import cso
from csofix.errors import NonSimpleConfigurationError, PreconditionError
from csofix.cso import (
    AffineMap,
    analytic_ratio_bound,
    apply_series,
    apply_singular,
    basis_image_norm,
    basis_ratio_scan,
    certified_contraction_rate,
    contraction_certificate,
    contraction_report,
    fixed_point_independence,
    induced_m,
    induced_norm_bound,
    make_cso,
    operator_matrix,
    pinned,
    poly_fixed_points,
    poly_fp_degrees,
    projected_j,
    seed_admissibility,
    simplicity_check,
)
from csofix.series import (
    eval_at,
    l1_norm,
    make_series,
    zero_series,
)
from csofix.singular import (
    SingularFunction,
    eval_singular,
    log_term,
    pole_term,
    pullback_term,
)

W = (math.sqrt(5.0) - 1.0) / 2.0
PHI1 = AffineMap(-W, 0.0)
PHI2 = AffineMap(W * W, 1.0)


def golden_op():
    return make_cso([(1.0, PHI1), (1.0, PHI2)])


def half_op():
    return make_cso([(1.0, AffineMap(0.5, 0.0)), (1.0, AffineMap(0.5, 1.0))])


def test_map_basics():
    assert PHI1(1.0) == -W
    assert abs(PHI2.t - W) < 1e-15
    m = map_from_shift(0.5, 0.25)
    assert m.z_fix == 0.5 and m(0.5) == 0.5
    with pytest.raises(PreconditionError):
        AffineMap(1.0, 0.0)
    with pytest.raises(PreconditionError):
        map_from_shift(1.0, 0.5)


def test_make_cso_validation():
    with pytest.raises(PreconditionError):
        make_cso([])
    with pytest.raises(PreconditionError):
        make_cso([(0.0, PHI1)])
    with pytest.raises(PreconditionError):
        make_cso([(1.0, PHI1), (2.0, AffineMap(-W, 0.0))])
    T = golden_op()
    assert T.ell == 2 and T.coefficients == (1.0, 1.0)
    assert T.max_rate == W


def test_apply_series_on_basis():
    T = golden_op()
    out = apply_series(T, monomial(0, 2.0))
    assert np.array_equal(out.coeffs, [2.0])
    out = apply_series(T, monomial(1, 2.0))
    assert np.allclose(out.coeffs, [complex(PHI2.t), W * W - W], rtol=1e-15)


def test_apply_series_is_linear(rng):
    T = golden_op()
    for _ in range(50):
        f = random_poly(rng, 2.0, 6)
        g = random_poly(rng, 2.0, 4)
        lam = rand_disc(rng, 2.0)
        lhs = apply_series(T, make_series(
            lam * f.coeffs + np.pad(g.coeffs, (0, len(f.coeffs) - len(g.coeffs))),
            2.0))
        from csofix.series import linear_combine
        rhs = linear_combine([(lam, apply_series(T, f)),
                              (1.0, apply_series(T, g))])
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def random_operator(rng, ell: int, fix_radius: float = 0.4):
    """Complex coefficients and rates, with one constant map (s = 0) and one
    map fixing 0 (t = 0).  Rates and fixed points within 0.4 keep every
    image of D_1 inside D_1."""
    terms = [(rand_disc(rng, 2.0), AffineMap(0.0, rand_disc(rng, fix_radius))),
             (rand_disc(rng, 2.0), AffineMap(rand_disc(rng, 0.4), 0.0))]
    terms += [(rand_disc(rng, 2.0),
               AffineMap(rand_disc(rng, 0.4), rand_disc(rng, fix_radius)))
              for _ in range(ell - 2)]
    return make_cso(terms)


def comb_column(T, k: int) -> list[complex]:
    """Coefficients of T z^k = sum_i a_i (s_i z + t_i)^k, term by term."""
    return [sum(a * math.comb(k, r) * m.s ** r * m.t ** (k - r) for a, m in T.terms)
            for r in range(k + 1)]


@pytest.mark.parametrize("n", [1, 2, 64, 256])
def test_operator_matrix_matches_binomial_sums(rng, n):
    for ell in (2, 3, 5):
        T = random_operator(rng, ell, fix_radius=1.5)
        A = operator_matrix(T, n)
        assert A.shape == (n, n)
        assert np.array_equal(A, np.triu(A))
        for k in range(n):
            ref = np.array(comb_column(T, k))
            assert np.max(np.abs(A[: k + 1, k] - ref)) <= 1e-12 * np.sum(np.abs(ref))


def mp_column(T, k: int) -> list:
    """Column k of T's matrix in 30-digit arithmetic: C(k, r) times
    sum_i a_i s_i^r t_i^(k-r), with exact binomials."""
    col = [mpmath.mpc(0)] * (k + 1)
    for a, m in T.terms:
        s, t = mpmath.mpc(m.s), mpmath.mpc(m.t)
        spow, tpow = [mpmath.mpc(a)], [mpmath.mpc(1)]
        for _ in range(k):
            spow.append(spow[-1] * s)
            tpow.append(tpow[-1] * t)
        for r in range(k + 1):
            col[r] += spow[r] * tpow[k - r]
    return [math.comb(k, r) * c for r, c in enumerate(col)]


def test_operator_matrix_matches_mpmath(rng):
    # columns on both sides of the switch from the closed form to the
    # recurrence at 512, each within 1e-12 of its R-weighted l1 norm
    mpmath.mp.dps = 30
    cols = (0, 1, 255, 510, 511, 512, 513, 1199)
    ops = [(random_operator(rng, ell, fix_radius=0.9), 1.0, cols) for ell in (2, 3, 5)]
    M = golden_op()
    ops += [(pinned(M, W), 2.0, cols), (projected_j(M, 1), 2.0, cols),
            (induced_m(M, 3), 1.2, cols)]
    # small maps: the products a_i s_i^r t_i^(k-r) alone would underflow
    # long before column 400 does
    small = make_cso([(1.0, AffineMap(0.15, 0.1)), (-0.7 + 0.2j, AffineMap(0.1j, -0.1)),
                      (0.5, AffineMap(0.0, 0.12))])
    ops.append((small, 1.0, (0, 1, 255, 400)))
    for T, R, ks in ops:
        A = operator_matrix(T, 1200)
        for k in ks:
            ref = mp_column(T, k)
            weights = [mpmath.mpf(R) ** r for r in range(k + 1)]
            norm = sum(abs(c) * w for c, w in zip(ref, weights))
            # float64 holds a column to relative accuracy only when its
            # norm is well inside the normal range (pinning zeroes column 0)
            assert norm == 0 or 1e-300 < norm < 1e300
            err = sum(abs(complex(A[r, k]) - c) * w
                      for r, (c, w) in enumerate(zip(ref, weights)))
            assert err <= 1e-12 * norm, (T, k)


def test_operator_matrix_leading_blocks_are_exact(rng):
    # entry [r, k] never depends on the size built, on either side of 512
    M = golden_op()
    for T in (random_operator(rng, 2), random_operator(rng, 5), pinned(M, W)):
        big = operator_matrix(T, 1200)
        for n in (1, 2, 3, 300, 511, 512, 513):
            assert operator_matrix(T, n).tobytes() == big[:n, :n].tobytes()
    assert cso._binomial.shape == (512, 512) == (cso.CLOSED_FORM_COLUMNS,) * 2


def test_binomial_table_grows_safely_from_threads(monkeypatch, rng):
    # threads growing a fresh table at once see the same matrices as one
    T = random_operator(rng, 3)
    sizes = [3, 40, 129, 200, 257, 400, 511, 512]
    expected = {n: operator_matrix(T, n).tobytes() for n in sizes}
    monkeypatch.setattr(cso, "_binomial", np.ones((1, 1)))
    results, interval = [], sys.getswitchinterval()

    def work(order):
        for n in order:
            results.append(operator_matrix(T, n).tobytes() == expected[n])

    threads = [threading.Thread(target=work, args=(sizes[i:] + sizes[:i],))
               for i in range(6)]
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(results) == 6 * len(sizes) and all(results)


@pytest.mark.parametrize("n", [1, 2, 64, 256])
def test_apply_series_evaluates_sum_of_compositions(rng, n):
    T = random_operator(rng, 4)
    f = with_tail(random_poly(rng, 1.0, n - 1), 3e-7)
    out = apply_series(T, f)
    assert out.radius == 1.0 and len(out.coeffs) == n
    assert out.tail_bound == sum(abs(a) * f.tail_bound for a in T.coefficients)
    for _ in range(5):
        z = rand_disc(rng, 0.9)
        direct = sum(a * eval_at(f, m(z)) for a, m in T.terms)
        assert abs(eval_at(out, z) - direct) < 1e-12 * l1_norm(f) * sum(
            abs(a) for a in T.coefficients)


@pytest.mark.parametrize("n", [1, 2, 64, 128])
def test_apply_series_with_oversized_matrix_is_exact(rng, n):
    # the leading n x n block of a larger operator_matrix is the n x n one
    T = random_operator(rng, 4)
    f = with_tail(random_poly(rng, 1.0, n - 1), 3e-7)
    big = operator_matrix(T, 200)
    assert np.array_equal(big[:n, :n], operator_matrix(T, n))
    sliced, fresh = apply_series(T, f, big), apply_series(T, f)
    assert sliced.coeffs.tobytes() == fresh.coeffs.tobytes()
    assert sliced.tail_bound == fresh.tail_bound


def test_apply_series_rejects_undersized_matrix(rng):
    T = random_operator(rng, 3)
    with pytest.raises(PreconditionError, match="smaller than the series"):
        apply_series(T, random_poly(rng, 1.0, 9), operator_matrix(T, 9))


def test_apply_rejects_escaping_image():
    T = golden_op()  # |w^2| r + w >= r for r <= 1
    with pytest.raises(PreconditionError, match="image disc escapes domain"):
        apply_series(T, monomial(3, 0.9))
    with pytest.raises(PreconditionError, match="image disc escapes domain"):
        apply_singular(T, SingularFunction([], monomial(3, 0.9)))


def test_basis_image_norm_golden_values():
    T = golden_op()
    assert basis_image_norm(T, 0, 1.9009) == 2.0
    expected = W + (W ** 3) * 1.9009  # |c1| R + |c0| of w - w^3 z
    assert math.isclose(basis_image_norm(T, 1, 1.9009), expected, rel_tol=1e-13)


def test_scan_matches_pointwise_and_bound(rng):
    T = golden_op()
    scan = basis_ratio_scan(T, 1.9009, 40)
    for n in range(41):
        assert math.isclose(scan[n], basis_image_norm(T, n, 1.9009) / 1.9009 ** n,
                            rel_tol=1e-12)
        assert scan[n] <= analytic_ratio_bound(T, n, 1.9009) * (1.0 + 1e-12)
    for _ in range(10):
        U = random_tame_cso(rng)
        scan = basis_ratio_scan(U, 1.0, 12)
        for n in range(13):
            assert scan[n] <= analytic_ratio_bound(U, n, 1.0) * (1.0 + 1e-12)


def test_scan_at_large_radius_is_finite():
    # R^n alone overflows at R = 40 well before n = 200
    T, R = golden_op(), 40.0
    scan = basis_ratio_scan(T, R, 200)
    assert np.all(np.isfinite(scan))
    for n in range(151):
        assert math.isclose(scan[n], basis_image_norm(T, n, R) / R ** n,
                            rel_tol=1e-12)
    assert math.isfinite(certified_contraction_rate(T, R))


def test_contraction_report_golden():
    T = golden_op()
    rep = contraction_report(T, 0.999, 1.9009)
    cert = rep.certificate
    assert not cert.is_contraction
    assert cert.ratios[0] == 2.0
    assert all(r < 1.0 for r in cert.ratios[1:])
    assert cert.N == 1
    assert cert.rate == 2.0
    assert 1.0016 < rep.R0 < 1.0017
    with pytest.raises(PreconditionError):
        contraction_report(T, 0.5, 2.0)


def test_contraction_report_pinned():
    cert = contraction_report(pinned(golden_op(), W), 0.999, 2.0).certificate
    assert cert.is_contraction and cert.N == 0
    assert 0.88 < cert.rate < 0.89
    assert max(cert.ratios) <= cert.rate


# At R = 0.02 the weights R^(r-n) of a weighted scan overflow to inf and
# meet exact zeros of the matrix, giving nan from index 182 on.
SMALL_R_TERMS = ((0.5, 0.5, 0.0), (0.3, -0.4, 0.001 / 1.4))


def small_r_op():
    return make_cso([(a, AffineMap(s, fix)) for a, s, fix in SMALL_R_TERMS])


@pytest.mark.parametrize("R", [0.02, 0.01])
def test_scan_at_small_radius_is_finite(R):
    T = small_r_op()
    scan = basis_ratio_scan(T, R, 200)
    assert np.all(np.isfinite(scan))
    checked = 0
    for n in range(201):
        norm = basis_image_norm(T, n, R)
        if norm < 1e-280:  # the term-by-term reference underflows from here
            continue
        assert math.isclose(scan[n], norm / R ** n, rel_tol=1e-12)
        checked += 1
    assert checked > 100
    assert certified_contraction_rate(T, R) == contraction_report(
        T, 0.999, R).certificate.rate == 0.8


def test_rate_and_report_share_one_certificate(rng, monkeypatch):
    M = golden_op()
    cases = [(random_tame_cso(rng), 1.0, 60) for _ in range(5)]
    cases += [(M, 1.9009, 200), (pinned(M, W), 2.0, 200),
              (induced_m(M, 2), 1.5, 100), (small_r_op(), 0.02, 200)]
    for T, R, n in cases:
        cert = contraction_report(T, 0.999, R, n).certificate
        assert len(cert.ratios) == n + 1
        assert certified_contraction_rate(T, R, n) == cert.rate
        assert cert.rate == max(max(cert.ratios), cert.tail)
    # a ratio that is not finite never certifies, in either view
    scan = cso.basis_ratio_scan

    def scan_with_nan(T, R, n_max):
        out = scan(T, R, n_max)
        out[182:] = np.nan
        return out

    monkeypatch.setattr(cso, "basis_ratio_scan", scan_with_nan)
    certified_contraction_rate.cache_clear()
    try:
        T = small_r_op()
        cert = contraction_report(T, 0.999, 0.02).certificate
        assert cert.rate == math.inf and not cert.is_contraction
        assert cert.N == 201  # a nan ratio is not below 1
        assert certified_contraction_rate(T, 0.02) == math.inf
    finally:
        certified_contraction_rate.cache_clear()
    with pytest.raises(PreconditionError):
        contraction_certificate(M, 0.0)
    with pytest.raises(PreconditionError):
        certified_contraction_rate(M, 1.0, 0)


def test_certified_rate_is_operator_norm_bound(rng):
    for _ in range(20):
        T = random_tame_cso(rng)
        K = certified_contraction_rate(T, 1.0, 60)
        f = random_poly(rng, 1.0, 8)
        assert l1_norm(apply_series(T, f)) <= K * l1_norm(f) * (1 + 1e-9)


def test_pinned_structure_and_action():
    T = golden_op()
    Tc = pinned(T, W)
    assert Tc.ell == 4
    assert Tc.coefficients == (1.0, 1.0, -1.0, -1.0)
    assert Tc.maps[2] == AffineMap(0.0, PHI1(W))
    assert Tc.maps[3] == AffineMap(0.0, PHI2(W))
    assert l1_norm(apply_series(Tc, monomial(0, 2.0))) == 0.0
    out = apply_series(Tc, monomial(1, 2.0))
    assert np.allclose(out.coeffs, [W ** 4, -W ** 3], rtol=1e-12)


def test_pinned_evaluation_identity(rng):
    for _ in range(50):
        T = random_tame_cso(rng)
        c = rand_disc(rng, 0.5)
        Tc = pinned(T, c)
        f = random_poly(rng, 1.0, 6)
        z = rand_disc(rng, 0.9)
        tf = apply_series(T, f)
        got = eval_at(apply_series(Tc, f), z)
        assert abs(got - (eval_at(tf, z) - eval_at(tf, c))) < 1e-12
        assert abs(eval_at(apply_series(Tc, f), c)) < 1e-12


def test_projection_matches_pinning():
    T = golden_op()
    for j, c in ((0, W), (1, -W)):
        P = projected_j(T, j)
        Q = pinned(T, c)
        assert P.ell == Q.ell
        assert np.allclose(P.coefficients, Q.coefficients, atol=1e-14)
        for mp, mq in zip(P.maps, Q.maps):
            assert mp.s == mq.s
            assert abs(mp.z_fix - mq.z_fix) < 1e-14
    with pytest.raises(PreconditionError):
        projected_j(make_cso([(1.0, PHI1), (1.0, PHI2),
                              (-1.0, AffineMap(0.5, 0.5))]), 0)
    with pytest.raises(PreconditionError):
        projected_j(T, 5)


def test_poly_degree_scan():
    scan = poly_fp_degrees(golden_op(), 50)
    assert scan.degrees == ()
    assert scan.cutoff == 2
    scan = poly_fp_degrees(half_op(), 50)
    assert scan.degrees == (1,)
    assert scan.cutoff == 2
    sigma = np.diag(operator_matrix(golden_op(), 2))
    assert sigma[0] == 2.0
    assert abs(sigma[1] + W ** 3) < 1e-15


def linear_cutoff(T):
    m = 0
    while not induced_norm_bound(T, m) < 1.0 - cso.REL_TOL:
        m += 1
    return m


def test_poly_cutoff_matches_linear_scan(rng):
    ops = [golden_op(), half_op()] + [random_tame_cso(rng) for _ in range(10)]
    for _ in range(30):
        ell = int(rng.integers(1, 5))
        ops.append(make_cso([(rand_disc(rng, 3.0), AffineMap(rand_disc(rng, 0.95),
                                                             rand_disc(rng)))
                             for _ in range(ell)]))
    cutoffs = [poly_fp_degrees(T, 3).cutoff for T in ops]
    assert cutoffs == [linear_cutoff(T) for T in ops]
    assert max(cutoffs) > 10


def test_poly_cutoff_near_one_rate_is_fast():
    # majorant 2 (1 - 1e-8)^m falls below 1 near m = ln 2 / 1e-8
    T = make_cso([(2.0, AffineMap(0.99999999, 0.0))])
    start = time.perf_counter()
    cutoff = poly_fp_degrees(T, 5).cutoff
    assert time.perf_counter() - start < 1.0
    assert 6.9e7 < cutoff < 7.0e7
    assert induced_norm_bound(T, cutoff) < 1.0 - cso.REL_TOL
    assert not induced_norm_bound(T, cutoff - 1) < 1.0 - cso.REL_TOL


def test_poly_fixed_points_kernel():
    H = half_op()
    basis = poly_fixed_points(H, 1)
    assert len(basis) == 1
    assert np.allclose(basis[0], [-0.5, 1.0], atol=1e-13)
    A = np.eye(4, dtype=complex) - operator_matrix(H, 4)
    basis = poly_fixed_points(H, 3)
    assert len(basis) == 1
    assert np.max(np.abs(A @ basis[0])) < 1e-12
    assert poly_fixed_points(golden_op(), 10) == []


# Planted degree-5 fixed point with |a_1| = 21.7 at depth 80.  A kernel
# taken from an SVD left rounding noise near 1e-15 above degree 5, and an
# absolute leading-entry threshold of 1e-14 once took it for the leading
# coefficient; back substitution sets every entry above the degree to 0.
POLYFIX_PLANTED = [
    (complex(16.577256517294863, 14.017206890623617),
     complex(0.0934274538007001, -0.5322063888132952),
     complex(-0.07344794102860074, -0.14867960263964913)),
    (complex(-0.5640966205826594, 0.5343324223547068),
     complex(0.07615460460528946, 0.06243899777902309),
     complex(-0.43105837136023833, -0.688203498011716)),
]


def test_poly_fixed_points_planted_large_coefficient():
    T = make_cso([(a, AffineMap(s, fix)) for a, s, fix in POLYFIX_PLANTED])
    assert poly_fp_degrees(T, 80).degrees == (5,)
    basis = poly_fixed_points(T, 80)
    assert len(basis) == 1
    A = np.eye(81, dtype=complex) - operator_matrix(T, 81)
    assert np.max(np.abs(A @ basis[0])) < 1e-10
    assert abs(basis[0][5] - 1.0) < 1e-15
    assert np.max(np.abs(basis[0][6:])) < 1e-9


def test_poly_fixed_points_ill_conditioned_operator_has_none():
    # f(0.5i z) + f(0.5i (z - 1) + 1): |s| + |t| = 1.62, so I - T on
    # monomials is ill-conditioned, and no diagonal entry is 1
    T = make_cso([(1.0, AffineMap(0.5j, 0.0)), (1.0, AffineMap(0.5j, 1.0))])
    for m in (40, 100):
        assert poly_fp_degrees(T, m).degrees == ()
        assert poly_fixed_points(T, m) == []


def planted_two_degrees(rng, c, shared):
    """Three maps with sum_i a_i s_i^d = 1 at d = 1 and 2, all fixing c when
    `shared`, else each fixing its own point near c."""
    while True:
        s = [rand_disc(rng, 0.6) for _ in range(3)]
        a3 = rand_disc(rng, 1.0)
        V = np.array([[s[0] ** d, s[1] ** d] for d in (1, 2)])
        a = list(np.linalg.solve(V, [1 - a3 * s[2] ** d for d in (1, 2)])) + [a3]
        if max(map(abs, a)) < 4.0:
            break
    fixes = [c] * 3 if shared else [c + rand_disc(rng, 0.2) for _ in range(3)]
    return make_cso([(ai, AffineMap(si, zi)) for ai, si, zi in zip(a, s, fixes)])


def test_poly_fixed_points_shared_fixed_point_two_degrees(rng):
    # T (z - c)^k = sigma_k (z - c)^k, so z - c and (z - c)^2 + 2c (z - c)
    # = z^2 - c^2 are fixed
    checked = 0
    for _ in range(40):
        c = rand_disc(rng, 0.3)
        T = planted_two_degrees(rng, c, shared=True)
        m = int(rng.integers(3, 60))
        if poly_fp_degrees(T, m).degrees != (1, 2):
            continue
        checked += 1
        basis = poly_fixed_points(T, m)
        assert len(basis) == 2
        A = np.eye(m + 1, dtype=complex) - operator_matrix(T, m + 1)
        for d, v in zip((1, 2), basis):
            assert v[d] == 1.0 and not v[d + 1:].any()
            assert np.max(np.abs(A @ v)) < 1e-12
        assert abs(basis[0][0] + c) < 1e-12
        assert abs(basis[1][0] + c * c) < 1e-12 and basis[1][1] == 0.0
    assert checked >= 30


def test_poly_fixed_points_jordan_chain_has_no_fixed_point(rng):
    # with distinct fixed points, sigma_2 = 1 gives a Jordan chain over the
    # degree-1 fixed point, not a second fixed point
    checked = 0
    for _ in range(40):
        T = planted_two_degrees(rng, rand_disc(rng, 0.3), shared=False)
        m = int(rng.integers(3, 60))
        if poly_fp_degrees(T, m).degrees != (1, 2):
            continue
        checked += 1
        basis = poly_fixed_points(T, m)
        assert len(basis) == 1
        assert basis[0][1] == 1.0 and not basis[0][2:].any()
        A = np.eye(m + 1, dtype=complex) - operator_matrix(T, m + 1)
        assert np.max(np.abs(A @ basis[0])) < 1e-12
    assert checked >= 30


def chain_under_fixed_point(s, t12):
    """Maps with rates s and sigma_0 = sigma_1 = sigma_2 = 1, shifts t12
    for the first two and t_3 chosen so that A[1, 2] = 2 sum_i a_i s_i t_i
    = 0: degree 1 is a Jordan chain over the constant, yet z^2 + x z is
    fixed with x = -A[0, 2] / A[0, 1]."""
    s = np.asarray(s, dtype=complex)
    a = np.linalg.solve(np.array([s ** d for d in range(3)]), np.ones(3))
    t = list(t12) + [-(a[0] * s[0] * t12[0] + a[1] * s[1] * t12[1]) / (a[2] * s[2])]
    return make_cso([(ai, AffineMap(si, ti / (1 - si)))
                     for ai, si, ti in zip(a, s, t)])


def test_poly_fixed_points_keep_entry_at_chain_degree():
    # all entries dyadic: A[0, 1] = -0.9375, A[0, 2] = -0.37109375, and
    # A[1, 2] = 0 exactly
    T = chain_under_fixed_point([0.5, -0.5, 0.25], [0.125, -0.25])
    for m in (2, 6, 30):
        assert poly_fp_degrees(T, m).degrees == (0, 1, 2)
        A = np.eye(m + 1, dtype=complex) - operator_matrix(T, m + 1)
        basis = poly_fixed_points(T, m)
        assert len(basis) == 2
        assert max(np.max(np.abs(A @ v)) for v in basis) < 1e-12
        const, quad = sorted(basis, key=lambda v: np.flatnonzero(np.abs(v) > 1e-9)[-1])
        assert not (np.abs(const[1:]) > 1e-10).any()
        assert not (np.abs(quad[3:]) > 1e-10).any()
        assert abs(quad[1] / quad[2] + 0.37109375 / 0.9375) < 1e-12


def test_poly_fixed_points_chain_degree_random(rng):
    checked = 0
    for _ in range(160):
        T = chain_under_fixed_point([rand_disc(rng, 0.6) for _ in range(3)],
                                    [rand_disc(rng, 0.3) for _ in range(2)])
        m = int(rng.integers(2, 50))
        if (max(abs(a) for a in T.coefficients) > 4.0
                or poly_fp_degrees(T, m).degrees != (0, 1, 2)):
            continue
        checked += 1
        basis = poly_fixed_points(T, m)
        assert len(basis) == 2
        const, quad = basis
        assert const[0] == 1.0 and not const[1:].any()
        assert quad[2] == 1.0 and quad[0] == 0.0 and not quad[3:].any()
        A = operator_matrix(T, m + 1)
        assert abs(quad[1] + A[0, 2] / A[0, 1]) < 1e-12
        assert np.max(np.abs(quad - A @ quad)) < 1e-12
    assert checked >= 25


def test_monomial_matrix_matches_apply(rng):
    for T in (golden_op(), half_op()):
        A = operator_matrix(T, 6)
        assert np.allclose(A, np.triu(A))
        for _ in range(10):
            f = random_poly(rng, 2.0, 5)
            direct = apply_series(T, f)
            via = A @ f.coeffs
            assert np.allclose(direct.coeffs, via, atol=1e-12)


def test_induced_operator():
    T = golden_op()
    assert induced_m(T, 0) is T
    T1 = induced_m(T, 1)
    assert T1.coefficients == (PHI1.s, PHI2.s)
    assert T1.maps == T.maps
    T3 = induced_m(T, 3)
    assert T3.coefficients == (PHI1.s ** 3, PHI2.s ** 3)
    assert math.isclose(induced_norm_bound(T, 3), W ** 3 + W ** 6, rel_tol=1e-13)
    with pytest.raises(PreconditionError):
        induced_m(make_cso([(1.0, AffineMap(0.0, 0.3))]), 1)


def test_induced_commutes_with_derivative(rng):
    for _ in range(30):
        T = random_tame_cso(rng)
        f = random_poly(rng, 1.0, 7)
        lhs = differentiate(apply_series(T, f))
        rhs = apply_series(induced_m(T, 1), differentiate(f))
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-11)


def test_fixed_point_independence():
    T = golden_op()
    assert fixed_point_independence(T, 0, 1.5)
    assert not fixed_point_independence(T, 0, 1.9009)
    assert fixed_point_independence(T, 1, 1.0)
    with pytest.raises(PreconditionError):
        fixed_point_independence(T, 2, 1.0)


def test_simplicity_check():
    T = golden_op()
    verdicts = simplicity_check(T, [0.0, 1.0])
    assert all(v.ok for v in verdicts)
    assert verdicts[0].fixed_by == (0,) and verdicts[1].fixed_by == (1,)
    # phi2 sends 0 to w, so {0, w} is not simple, and nothing fixes w
    verdicts = simplicity_check(T, [0.0, W])
    assert not verdicts[0].ok and "back into the set" in verdicts[0].reason
    assert not verdicts[1].ok and verdicts[1].fixed_by == ()


@pytest.mark.parametrize("dz,fixed", [(0.0, True), (5e-11, True), (1.5e-10, False)])
def test_seeds_pullbacks_and_verdicts_share_one_fixed_point_test(dz, fixed):
    # AffineMap.fixes: |z_fix - z| <= REL_TOL * max(1, |z|), here 1e-10
    m = AffineMap(0.5, 100.0)
    z = 100.0 + dz
    assert m.fixes(z) is fixed
    T = make_cso([(1.0, m), (0.5, AffineMap(0.5, -100.0))])
    assert simplicity_check(T, [z])[0].fixed_by == ((0,) if fixed else ())
    if fixed:
        assert seed_admissibility(T, log_term(z)).index == 0
        assert pullback_term(log_term(z), m, 200.0).terms == (log_term(z),)
        return
    with pytest.raises(PreconditionError) as e:
        seed_admissibility(T, log_term(z))
    assert "fixed by 0 maps" in str(e.value)
    with pytest.raises(NonSimpleConfigurationError):
        pullback_term(log_term(z), m, 200.0)


def test_seed_admissibility():
    T = golden_op()
    v = seed_admissibility(T, log_term(0.0))
    assert v.admissible and v.index == 0 and v.required == 1.0
    v = seed_admissibility(T, pole_term(0.0, 2))
    assert not v.admissible
    assert v.required == PHI1.s ** 2
    v = seed_admissibility(induced_m(T, 2), pole_term(0.0, 2))
    assert v.admissible
    with pytest.raises(PreconditionError):
        seed_admissibility(T, log_term(0.5))


def test_apply_singular_simple_set(rng):
    T = golden_op()
    f = SingularFunction([log_term(0.0)], zero_series(1.5))
    out = apply_singular(T, f)
    assert out.terms == (log_term(0.0),)
    for _ in range(10):
        z = rand_disc(rng, 1.2)
        got = cmath.exp(eval_singular(out, z))
        assert abs(got - PHI1(z) * PHI2(z)) < 1e-12


def test_apply_singular_gates_and_relocates():
    T = golden_op()
    f = SingularFunction([log_term(1.0)], zero_series(2.0))
    with pytest.raises(NonSimpleConfigurationError):
        apply_singular(T, f)
    out = apply_singular(T, f, relocate=True)
    keys = {t.key for t in out.terms}
    locs = sorted(t.location.real for t in out.terms)
    assert len(keys) == 2
    assert abs(locs[0] + 1.0 / W) < 1e-14 and locs[1] == 1.0
