"""End-to-end acceptance checks, one per headline guarantee of the package.

Each test prints a single PASS/FAIL line with its figure of merit; run with
-s to see the lines on success.  Timed budgets are asserted where the
behaviour is part of the contract.
"""

import cmath
import math
import time
from fractions import Fraction

import numpy as np

from conftest import SEED, map_from_shift, rand_disc, random_poly, random_tame_cso
from csofix.cso import (
    AffineMap,
    analytic_ratio_bound,
    apply_series,
    apply_singular,
    basis_image_norm,
    basis_ratio_scan,
    certified_contraction_rate,
    make_cso,
    operator_matrix,
    pinned,
    poly_fixed_points,
    poly_fp_degrees,
)
from csofix.fixpoint import generalized_seed_fixed_point, make_seed, seeded_fixed_point
from csofix.golden import (
    C2,
    OMEGA,
    default_figure_grid,
    figure_data,
    identity_partial_products,
    log_ratio_invariance,
    make_M,
    oracle_comparison_points,
    sfs_fixed_vector,
    sfs_spectrum,
    word_fixed_point,
)
from csofix.series import eval_at, l1_norm, linear_combine, zero_series
from csofix.singular import (
    SingularFunction,
    eval_singular,
    eval_term,
    log_term,
    pole_term,
    pullback_term,
)

W = OMEGA


def _verdict(idx, name, ok, detail):
    print(f"acceptance {idx}/9 {name}: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)
    assert ok, f"{name}: {detail}"


def test_1_contraction_anchors():
    started = time.perf_counter()
    M = make_M()
    ratios = basis_ratio_scan(M, 1.9009, 100)
    anchors_ok = ratios[0] == 2.0 and bool(np.all(ratios[1:] < 1.0))
    # crossover radius where the n = 1 ratio passes through 1
    lo, hi = 0.1, 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if basis_image_norm(M, 1, mid) / mid >= 1.0:
            lo = mid
        else:
            hi = mid
    crossover = 0.5 * (lo + hi)
    closed_form = W / (1.0 - W ** 3)
    cross_ok = (abs(crossover - closed_form) < 1e-9 and crossover <= 1.629
                and (basis_image_norm(M, 1, 1.6) / 1.6 < 1.0) == (1.6 > crossover))
    elapsed = time.perf_counter() - started
    _verdict(1, "contraction anchors at R=1.9009", anchors_ok and cross_ok
             and elapsed < 1.0,
             f"ratio0={ratios[0]}, max n>=1 ratio={np.max(ratios[1:]):.4f}, "
             f"n=1 crossover R={crossover:.6f}, {elapsed:.2f}s")


def test_2_product_identity():
    started = time.perf_counter()
    prods = identity_partial_products(16)
    errs = np.abs(prods - (1.0 + W))
    sqrt5_ok = abs(prods[0] - math.sqrt(5.0)) < 1e-12
    final_ok = errs[16] < 1e-4
    monotone_ok = all(errs[d + 1] < errs[d] for d in range(2, 16))
    elapsed = time.perf_counter() - started
    _verdict(2, "infinite product converges to 1+w",
             sqrt5_ok and final_ok and monotone_ok and elapsed < 5.0,
             f"P_16 err={errs[16]:.3e}, P_0-sqrt5={prods[0] - math.sqrt(5.0):.1e}, "
             f"{elapsed:.2f}s")


def test_3_engine_matches_word_oracle():
    started = time.perf_counter()
    Mc = pinned(make_M(), C2)
    res = generalized_seed_fixed_point(Mc, make_seed(Mc, log_term(1.0)), 2.0, 1e-8)
    pts = oracle_comparison_points()
    *oracle, oracle_at_w = word_fixed_point(2, 18, pts + (W,))
    worst = max(abs(eval_singular(res.fixed_point, z) - o) for z, o in zip(pts, oracle))
    engine_pin = abs(eval_singular(res.fixed_point, W))
    oracle_pin = abs(oracle_at_w)
    elapsed = time.perf_counter() - started
    _verdict(3, "seeded fixed point vs word expansion",
             worst < 1e-6 and engine_pin < 1e-6 and oracle_pin < 1e-6
             and elapsed < 30.0,
             f"max diff={worst:.3e} over 20 points, f(w): engine {engine_pin:.1e}"
             f" / oracle {oracle_pin:.1e}, {elapsed:.1f}s")


def test_4_log_ratio_closed_form():
    rng = np.random.default_rng(SEED)
    pts = []
    while len(pts) < 100:
        z = rand_disc(rng, 2.0)
        if min(abs(z), abs(z - 1.0), abs(z + 1.0 / W)) > 0.1:
            pts.append(z)
    dev = log_ratio_invariance(pts)
    _verdict(4, "closed-form fixed point invariance", dev < 1e-13,
             f"max relative deviation {dev:.3e} over 100 points")


def test_5_figure_ratio_identity():
    table = figure_data(default_figure_grid(), 18)
    dev = float(np.max(table[:, 3]))
    _verdict(5, "figure ratio normalization", table.shape == (401, 4)
             and dev < 1e-6, f"max normalized ratio deviation {dev:.3e}")


def test_6_polynomial_fixed_points():
    H = make_cso([(1.0, AffineMap(0.5, 0.0)), (1.0, AffineMap(0.5, 1.0))])
    scan = poly_fp_degrees(H, 50)
    basis = poly_fixed_points(H, 1)
    A = np.eye(2, dtype=complex) - operator_matrix(H, 2)
    residual = float(np.max(np.abs(A @ basis[0]))) if basis else math.inf
    half_ok = (scan.degrees == (1,) and len(basis) == 1
               and np.allclose(basis[0], [-0.5, 1.0], atol=1e-12)
               and residual < 1e-12)
    M = make_M()
    m_ok = poly_fp_degrees(M, 50).degrees == () and poly_fixed_points(M, 50) == []
    _verdict(6, "polynomial fixed point scan", half_ok and m_ok,
             f"half-shift degrees={scan.degrees}, kernel residual={residual:.1e}, "
             f"golden operator empty to degree 50")


def test_7_pole_fixed_point_residual():
    third = 1.0 / 3.0
    T = make_cso([(third, AffineMap(third, 0.0)), (third, AffineMap(third, 3.0))])
    res = seeded_fixed_point(T, make_seed(T, pole_term(0.0, 1)), 4.0, 1e-8)
    f = res.fixed_point
    worst = 0.0
    for k in range(50):
        r, phase = (3.9, k) if k % 2 == 0 else (1.7, k + 0.5)
        z = r * cmath.exp(2j * cmath.pi * phase / 50.0)
        lhs = eval_singular(f, z)
        rhs = third * eval_singular(f, third * z) \
            + third * eval_singular(f, third * (z - 3.0) + 3.0)
        worst = max(worst, abs(lhs - rhs))
    _verdict(7, "pole seed pointwise residual", worst < 1e-8,
             f"max |Tf - f| = {worst:.3e} at 50 samples, "
             f"solver residual {res.residual_norm:.1e}")


def test_8_sfs_spectrum():
    worst = 0.0
    exact_ok = True
    for n in range(1, 6):
        A, eig = sfs_spectrum(n)
        expected = sorted([4.0 ** (1 - k) for k in range(1, n + 1)] + [0.0] * n,
                          reverse=True)
        got = sorted(eig.real, reverse=True)
        worst = max(worst, float(np.max(np.abs(np.array(got) - expected))),
                    float(np.max(np.abs(eig.imag))))
        v = sfs_fixed_vector(n)
        fixed = [sum(A[r][m] * v[m] for m in range(2 * n)) for r in range(2 * n)]
        exact_ok = exact_ok and fixed == v and all(
            isinstance(c, Fraction) for row in A for c in row)
    _verdict(8, "zero-shear spectrum", worst < 1e-10 and exact_ok,
             f"max eigenvalue error {worst:.2e} for n=1..5, T(x-1)=x-1 exact")


def _suite_linearity(rng, trials):
    for _ in range(trials):
        T = random_tame_cso(rng)
        f = random_poly(rng, 1.0, 6)
        g = random_poly(rng, 1.0, 5)
        lam, mu = rand_disc(rng, 2.0), rand_disc(rng, 2.0)
        combo = linear_combine([(lam, f), (mu, g)])
        lhs = apply_series(T, combo)
        rhs = linear_combine([(lam, apply_series(T, f)),
                              (mu, apply_series(T, g))])
        scale = 1.0 + l1_norm(lhs)
        diff = l1_norm(linear_combine([(1.0, lhs), (-1.0, rhs)]))
        assert diff < 1e-12 * scale


def _suite_norm_bounds(rng, trials):
    for _ in range(trials):
        T = random_tame_cso(rng)
        K = certified_contraction_rate(T, 1.0, 60)
        assert K < 1.0
        f = random_poly(rng, 1.0, 8)
        assert l1_norm(apply_series(T, f)) <= K * l1_norm(f) * (1 + 1e-9)
        n = int(rng.integers(0, 12))
        assert basis_image_norm(T, n, 1.0) <= analytic_ratio_bound(
            T, n, 1.0) * (1 + 1e-12)


def _suite_basis_criterion(rng, trials):
    for _ in range(trials):
        T = random_tame_cso(rng)
        d = int(rng.integers(0, 8))
        f = random_poly(rng, 1.0, d)
        bound = float(np.max(basis_ratio_scan(T, 1.0, d)))
        assert l1_norm(apply_series(T, f)) <= bound * l1_norm(f) * (1 + 1e-10)


def _suite_pinning(rng, trials):
    for _ in range(trials):
        T = random_tame_cso(rng)
        c = rand_disc(rng, 0.5)
        Tc = pinned(T, c)
        f = random_poly(rng, 1.0, 6)
        z = rand_disc(rng, 0.9)
        tf = apply_series(T, f)
        pf = apply_series(Tc, f)
        scale = 1.0 + l1_norm(tf)
        assert abs(eval_at(pf, z) - (eval_at(tf, z) - eval_at(tf, c))) < 1e-12 * scale
        assert abs(eval_at(pf, c)) < 1e-12 * scale


def _suite_k_independence(rng, trials):
    for _ in range(trials):
        T = random_tame_cso(rng)
        z1 = T.maps[0].z_fix
        f0 = SingularFunction((log_term(z1),), zero_series(1.0))
        g1 = apply_singular(T, f0, relocate=True, n_terms=24)
        a = seeded_fixed_point(T, f0, 1.0, 1e-7, n_terms=24)
        b = seeded_fixed_point(T, g1, 1.0, 1e-7, n_terms=24)
        while True:
            z = rand_disc(rng, 0.8)
            if abs(z - z1) > 0.05:
                break
        assert abs(eval_singular(a.fixed_point, z)
                   - eval_singular(b.fixed_point, z)) < 1e-5


def _suite_pullback_identities(rng, trials):
    done = 0
    while done < trials:
        s = rand_disc(rng, 0.5) or 0.25
        t = rand_disc(rng, 0.4)
        mp = map_from_shift(s, t)
        z0 = rand_disc(rng, 0.9)
        w = (z0 - t) / s
        if 1.1 <= abs(w) <= 2.0:
            continue  # keep well clear of the rim so truncation is negligible
        while True:
            z = rand_disc(rng, 1.0)
            if abs(z - w) > 0.1 and abs(mp(z) - z0) > 1e-3:
                break
        if done % 2 == 0:
            out = pullback_term(log_term(z0), mp, 1.2, relocate=True)
            got = cmath.exp(eval_singular(out, z))
            want = mp(z) - z0
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))
        else:
            k = int(rng.integers(1, 4))
            out = pullback_term(pole_term(z0, k, 2.0 - 1.0j), mp, 1.2,
                                relocate=True)
            want = eval_term(pole_term(z0, k, 2.0 - 1.0j), mp(z))
            assert abs(eval_singular(out, z) - want) < 1e-8 * max(1.0, abs(want))
        done += 1


def test_9_invariant_suites():
    suites = (
        ("linearity", _suite_linearity),
        ("norm bounds", _suite_norm_bounds),
        ("basis criterion", _suite_basis_criterion),
        ("pinning", _suite_pinning),
        ("k-independence", _suite_k_independence),
        ("pullback identities", _suite_pullback_identities),
    )
    started = time.perf_counter()
    times = []
    for i, (name, suite) in enumerate(suites):
        t0 = time.perf_counter()
        suite(np.random.default_rng(SEED + i), 1000)
        times.append(f"{name} {time.perf_counter() - t0:.1f}s")
    elapsed = time.perf_counter() - started
    _verdict(9, "invariant suites x1000 trials", elapsed < 60.0,
             f"{', '.join(times)}; total {elapsed:.1f}s")
