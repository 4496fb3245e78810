import cmath
import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from conftest import rand_disc
from csofix import golden
from csofix.cso import AffineMap
from csofix.errors import PreconditionError
from csofix.golden import (
    C1,
    C2,
    OMEGA,
    PHI1,
    PHI2,
    _level_maps,
    _log1p_row_sums,
    _reference_chunk_sums,
    _word_levels,
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


@pytest.fixture
def prefix(monkeypatch):
    """Set golden._PREFIX for one test; the reference cache, whose chunks
    follow the prefix, is cleared around it."""
    def set_prefix(n):
        _reference_chunk_sums.cache_clear()
        monkeypatch.setattr(golden, "_PREFIX", n)

    yield set_prefix
    _reference_chunk_sums.cache_clear()


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


@pytest.mark.parametrize("prefix_len,depth", [(3, 7), (13, 15)])
def test_word_levels_factor_the_level_maps(prefix, prefix_len, depth):
    # chunk c of a level is every prefix word composed with suffix word c
    prefix(prefix_len)
    for (s, t), (S, T, sv, tv) in zip(_level_maps(depth), _word_levels(depth),
                                      strict=True):
        assert S.size * sv.size == s.size
        s_f = np.multiply.outer(sv, S).ravel()
        t_f = (np.multiply.outer(tv, S) + T).ravel()
        assert np.allclose(s_f, s, rtol=1e-14, atol=0.0)
        assert np.allclose(t_f, t, rtol=1e-14, atol=1e-15)


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


def test_identity_partial_products_match_mpmath(prefix):
    # the product of 2^13 ratios, each formed as 1 + (small term), stays
    # within a few ulps of the 30-digit product, also through suffixes
    with mp.workdps(30):
        w = (mp.sqrt(5) - 1) / 2
        level, p, exact = [(mp.mpf(1), mp.mpf(0))], mp.mpf(1), []
        for _ in range(13):
            p *= mp.fprod((1 + w * (s * w + t)) / (1 + w * (t - s * w))
                          for s, t in level)
            exact.append(p)
            level = [(s * a, s * b + t) for s, t in level
                     for a, b in ((-w, 0), (w * w, w))]
    for prefix_len in (golden._PREFIX, 9):
        prefix(prefix_len)
        prods = identity_partial_products(12)
        assert max(abs(prods[d] / exact[d] - 1) for d in range(13)) < 1e-14


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


def _mp_word_sum(which, depth, z):
    """word_fixed_point in 40-digit arithmetic, every word's map composed
    exactly from w."""
    with mp.workdps(40):
        w = (mp.sqrt(5) - 1) / 2
        ref, z = (-w if which == 1 else w), mp.mpc(z)
        total = mp.log(z / ref) if which == 1 else mp.log((z - 1) / (ref - 1))
        level = [(mp.mpf(1), mp.mpf(0))]
        for _ in range(depth + 1):
            total += mp.fsum(mp.log(1 + w * (s * z + t)) - mp.log(1 + w * (s * ref + t))
                             for s, t in level)
            level = [(s * a, s * b + t) for s, t in level
                     for a, b in ((-w, 0), (w * w, w))]
        return complex(total)


@pytest.mark.parametrize("which", [1, 2])
def test_word_fixed_point_matches_mpmath(prefix, which):
    # shorter prefixes send 9, 7 and 4 of the depth-9 levels through
    # suffix images
    for prefix_len, depth in ((golden._PREFIX, 10), (0, 9), (2, 9), (5, 9)):
        prefix(prefix_len)
        for z in (0.3 + 0.4j, -0.7 - 0.2j, 1.1 + 0.05j):
            assert abs(word_fixed_point(which, depth, z)
                       - _mp_word_sum(which, depth, z)) < 1e-12


@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize("z,bound", [
    # the empty word's 1 + w z sits 6.2e-7 and 6.2e-4 from the branch point
    (-1.0 / W + 1e-6j, 2 * 1.68e-10),
    (-1.0 / W + 1e-3 + 1e-4j, 2 * 1.71e-13),
])
def test_word_fixed_point_near_a_branch_point_matches_mpmath(which, z, bound):
    assert abs(word_fixed_point(which, 8, z) - _mp_word_sum(which, 8, z)) < bound


@pytest.mark.parametrize("which,z,expected", [
    (1, 1e200 + 1e200j, 7341.198388979177 - 12.566370614359172j),
    (2, -1e160j, 5861.97600877576 + 0j),
])
def test_word_fixed_point_far_out_is_finite_and_quiet(which, z, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = word_fixed_point(which, 3, z)
    assert math.isfinite(value.real) and math.isfinite(value.imag)
    assert abs(value - expected) <= 1e-12 * abs(expected)


def test_word_logs_match_complex_log1p_elementwise():
    # 1 + z on circles inside (r < 1/2, the hypot fallback) and outside the
    # band, out to where |1 + z|^2 overflows
    r = np.array([1e-3, 0.1, 0.3, 0.49, 0.51, 0.9, 1.5, 4.0, 1e3, 1e160, 1e200])
    theta = np.linspace(-3.0, 3.0, 41)
    z = (np.multiply.outer(r, np.exp(1j * theta)) - 1.0).reshape(-1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _log1p_row_sums(z.real.copy(), z.imag.copy())
    want = np.log1p(z[:, 0])
    for part in (np.real, np.imag):
        ulp = np.spacing(np.maximum(np.abs(part(want)), 1.0))
        assert np.all(np.abs(part(got) - part(want)) <= 4 * ulp)


def test_word_sums_batch_bit_equal_to_scalar_calls(prefix):
    pts = oracle_comparison_points() + (0.25 - 0.5j, -1.2)
    for prefix_len in (golden._PREFIX, 4):
        prefix(prefix_len)
        for which in (1, 2):
            batch = word_fixed_point(which, 12, pts)
            assert isinstance(batch, np.ndarray) and batch.shape == (len(pts),)
            scalar = [word_fixed_point(which, 12, z) for z in pts]
            assert all(type(v) is complex for v in scalar)
            assert np.array_equal(batch, scalar)


def test_reference_cache_does_not_change_results():
    pts = (0.4 + 0.3j, -0.2 + 0.1j, 0.7)
    grid = np.array([-1.3, -0.4, 0.2, 0.8, 1.4])

    def results():
        return ([word_fixed_point(w, 15, z) for w in (1, 2) for z in pts],
                [word_fixed_point(w, 15, pts) for w in (1, 2)],
                figure_data(grid, 15))

    _reference_chunk_sums.cache_clear()
    cold = results()
    warm = results()
    assert cold[0] == warm[0]
    assert all(np.array_equal(c, w) for c, w in zip(cold[1], warm[1]))
    assert np.array_equal(cold[2], warm[2])
    assert not _reference_chunk_sums(C2, True, 15).flags.writeable


def test_reference_cache_is_kept_per_level():
    # one entry per (reference, path, level): a deeper call adds only its
    # new levels
    _reference_chunk_sums.cache_clear()
    word_fixed_point(2, 18, 0.5 + 0.1j)
    assert _reference_chunk_sums.cache_info().currsize == 19
    word_fixed_point(2, 19, 0.3 - 0.2j)
    info = _reference_chunk_sums.cache_info()
    assert info.currsize == 20 and info.misses == 20 and info.hits == 19


@pytest.mark.parametrize("z", [0.4 + 0.3j, -0.3])
def test_product_identity_ties_the_deep_word_sums(z):
    # exp(f1 - f2) = w z / (z - 1) P_d holds exactly for the partial sums;
    # depth 16 walks three levels through suffix images
    f1, f2 = word_fixed_point(1, 16, z), word_fixed_point(2, 16, z)
    expected = W * z / (z - 1.0) * identity_partial_products(16)[-1]
    assert abs(cmath.exp(f1 - f2) / expected - 1.0) < 1e-12
    table = figure_data([-1.2, -0.3, 0.45, 1.3], 16)
    assert float(np.max(table[:, 3])) < 1e-12


def test_figure_columns_match_scalar_sums():
    grid = np.array([-1.4, -0.75, -0.2, 0.35, 0.9, 1.3])
    table = figure_data(grid, 10)
    for x, e1, e2 in table[:, :3]:
        assert math.isclose(e1, cmath.exp(word_fixed_point(1, 10, x)).real, rel_tol=1e-12)
        assert math.isclose(e2, cmath.exp(word_fixed_point(2, 10, x)).real, rel_tol=1e-12)


def test_word_sums_share_one_domain_rule():
    # 1 + w phi(-3) < 0 for the empty word: real and on the principal log's cut
    for call in (lambda: word_fixed_point(1, 2, -3.0),
                 lambda: word_fixed_point(1, 2, complex(-3.0, -0.0)),
                 lambda: word_fixed_point(2, 2, [0.5j, -3.0]),
                 lambda: figure_data([-3.0], 2)):
        with pytest.raises(PreconditionError, match="branch cut"):
            call()
    # off the real axis the same point is fine
    assert math.isfinite(abs(word_fixed_point(1, 2, -3.0 + 0.1j)))


def test_branch_cut_rejection_names_the_point_not_its_image(prefix):
    # 1 + w phi1(3) = 1 - 3 w^2 < 0 at level 1, reached through a suffix
    prefix(0)
    with pytest.raises(PreconditionError, match=r"at \(3\+0j\) is singular"):
        word_fixed_point(1, 4, 3.0)
    with pytest.raises(PreconditionError, match=r"at 3\.0 is singular"):
        figure_data([3.0], 4)


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
