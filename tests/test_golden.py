import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import rand_disc
from csofix.cso import AffineMap
from csofix.errors import PreconditionError
from csofix.golden import (
    C1,
    C2,
    OMEGA,
    PHI1,
    PHI2,
    _level_maps,
    default_figure_grid,
    figure_data,
    general_a_cso,
    identity_partial_products,
    log_ratio_invariance,
    make_M,
    oracle_comparison_points,
    sfs_fixed_vector,
    sfs_spectrum,
    word_fixed_point,
)

W = OMEGA


def test_constants_and_operator():
    assert math.isclose(W * W, 1.0 - W, rel_tol=1e-15)
    assert math.isclose(1.0 / W, 1.0 + W, rel_tol=1e-15)
    M = make_M()
    assert M.coefficients == (1.0, 1.0)
    assert M.maps == (AffineMap(-W, 0.0), AffineMap(W * W, 1.0))
    assert OMEGA == W and C1 == -W and C2 == W
    assert PHI1(1.0) == C1 and abs(PHI2(0.0) - C2) < 1e-15


def test_word_expansion_levels():
    levels = list(_level_maps(6))
    assert len(levels) == 7
    for n, (s, t) in enumerate(levels):
        assert s.size == 2 ** n and t.size == 2 ** n
        assert math.isclose(np.sum(np.abs(s)), 1.0, rel_tol=1e-12)
        assert np.max(np.abs(s)) <= W ** n * (1.0 + 1e-12)
        # squared rates decay like (w^2 + w^4)^n ~ 0.528^n per level
        assert math.isclose(np.sum(s * s), (W ** 2 + W ** 4) ** n, rel_tol=1e-10)
    with pytest.raises(PreconditionError):
        next(_level_maps(-1))


def test_word_fixed_point_guards():
    with pytest.raises(PreconditionError):
        word_fixed_point(3, 4, 0.5)
    with pytest.raises(PreconditionError):
        word_fixed_point(1, 4, 0.0)
    with pytest.raises(PreconditionError):
        word_fixed_point(2, 4, 1.0)


def test_word_fixed_point_pinning():
    assert abs(word_fixed_point(1, 4, -W)) < 1e-14
    assert abs(word_fixed_point(2, 4, W)) < 1e-14
    assert abs(word_fixed_point(1, 18, -W)) < 1e-11
    assert abs(word_fixed_point(2, 18, W)) < 1e-11


def test_word_fixed_point_depth_convergence():
    z = 0.5 + 0.1j
    ref = word_fixed_point(2, 18, z)
    gaps = [abs(word_fixed_point(2, d, z) - ref) for d in (6, 10, 14)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_identity_partial_products():
    prods = identity_partial_products(16)
    assert abs(prods[0] - math.sqrt(5.0)) < 1e-12
    errs = np.abs(prods - (1.0 + W))
    assert errs[-1] < 1e-4
    assert all(errs[d + 1] < errs[d] for d in range(2, 16))
    assert float(identity_partial_products(16)[-1]) == prods[-1]
    with pytest.raises(PreconditionError):
        identity_partial_products(-1)


def test_log_ratio_invariance(rng):
    assert log_ratio_invariance([2.0]) < 1e-15
    assert log_ratio_invariance([-1.0]) < 1e-15
    pts = []
    while len(pts) < 30:
        z = rand_disc(rng, 2.0)
        if min(abs(z), abs(z - 1.0), abs(z + 1.0 / W)) > 0.1:
            pts.append(z)
    assert log_ratio_invariance(pts) < 1e-13
    with pytest.raises(PreconditionError):
        log_ratio_invariance([0.0])


def test_figure_data_identity():
    grid = default_figure_grid()
    assert grid.shape == (401,) and grid[0] == -1.5 and grid[-1] == 1.5
    table = figure_data(grid, 6)
    assert table.shape == (401, 4)
    assert np.array_equal(table[:, 0], grid)
    i0 = int(np.argmin(np.abs(grid)))
    assert table[i0, 1] == 0.0 and table[i0, 3] == 0.0
    assert table[0, 1] > 0.0  # x/(-w) is positive left of the origin
    assert float(np.max(table[:, 3])) < 1e-9
    with pytest.raises(PreconditionError):
        figure_data([-3.0], 2)


def test_figure_parallel_matches_sequential():
    grid = default_figure_grid()
    assert np.array_equal(figure_data(grid, 8), figure_data(grid, 8, parallel=True))


def test_sfs_spectrum():
    A, eig = sfs_spectrum(1)
    assert A == [[Fraction(0), Fraction(-1)], [Fraction(0), Fraction(1)]]
    assert np.allclose(sorted(eig.real, reverse=True), [1.0, 0.0], atol=1e-12)
    for n in (2, 3):
        A, eig = sfs_spectrum(n)
        expected = sorted([4.0 ** (1 - k) for k in range(1, n + 1)] + [0.0] * n,
                          reverse=True)
        assert np.allclose(sorted(eig.real, reverse=True), expected, atol=1e-10)
        assert np.max(np.abs(eig.imag)) < 1e-10
        v = sfs_fixed_vector(n)
        fixed = [sum(A[r][m] * v[m] for m in range(2 * n)) for r in range(2 * n)]
        assert fixed == v  # exact rational arithmetic
    with pytest.raises(PreconditionError):
        sfs_spectrum(0)


def test_oracle_points_sit_in_comparison_domain():
    pts = oracle_comparison_points()
    assert len(pts) == 20 and len(set(pts)) == 20
    for z in pts:
        assert abs(z) <= 0.9
        assert abs(z - 1.0) >= 0.2
        assert abs(z - W) <= 0.2 + 1e-12


def test_general_a_family():
    assert general_a_cso(1) == make_M()
    G = general_a_cso(2)
    w2 = (math.sqrt(8.0) - 2.0) / 2.0
    assert G.ell == 3
    assert G.coefficients == (1.0, 1.0, 1.0)
    assert [m.s for m in G.maps] == [-w2, -w2, w2 * w2]
    assert abs(G.maps[1].t - (-1.0)) < 1e-15
    assert G.maps[2].z_fix == 1.0
    assert math.isclose(w2 * w2 + 2 * w2, 1.0, rel_tol=1e-15)
    with pytest.raises(PreconditionError):
        general_a_cso(0)
