"""Golden-mean case study: Mf(z) = f(-w z) + f(w^2 z + w), w = (sqrt(5)-1)/2.

Everything here is an independent oracle for the fixed-point engine: the
word-expansion partial sums f1/f2, the infinite product converging to 1+w,
the closed-form invariance of log(z/(z-1)), figure data for the two
multiplicative fixed points, the zero-shear spectrum example, and the
general-a family of operators.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .cso import AffineCso, AffineMap, make_cso
from .errors import PreconditionError

OMEGA = (math.sqrt(5.0) - 1.0) / 2.0
PHI1 = AffineMap(-OMEGA, 0.0)
PHI2 = AffineMap(OMEGA ** 2, 1.0)
C1 = -OMEGA  # = PHI1(1), pin point whose fixed points vanish there
C2 = OMEGA   # = PHI2(0)

DEFAULT_DEPTH = 18
FIGURE_GRID = (-1.5, 1.5, 401)
_PREFIX = 13  # a level past it is walked as 2^13 prefix words per suffix


def make_M() -> AffineCso:
    return make_cso([(1.0, PHI1), (1.0, PHI2)])


def _level_maps(depth: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (s, t) arrays of all length-n compositions for n = 0..depth.

    Level n+1 extends each word w by one map on the right:
    (s_w s_j, s_w t_j + t_w).  All entries stay real.
    """
    if depth < 0:
        raise PreconditionError("depth must be >= 0")
    s = np.array([1.0])
    t = np.array([0.0])
    rates = np.array([PHI1.s.real, PHI2.s.real])
    shifts = np.array([PHI1.t.real, PHI2.t.real])
    for n in range(depth + 1):
        yield s, t
        if n < depth:
            s, t = (np.concatenate([s * r for r in rates]),
                    np.concatenate([s * sh + t for sh in shifts]))


def _word_levels(depth: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Yield (S, T, sv, tv) for n = 0..depth, level n's words factored as a
    prefix table and its suffixes.

    In `_level_maps` order, chunk c of a level n > _PREFIX (its words
    c 2^_PREFIX to (c + 1) 2^_PREFIX - 1) is every level-_PREFIX word u
    composed with one suffix v_c, word c of level n - _PREFIX, so its maps
    are z -> S_u (sv[c] z + tv[c]) + T_u with (S, T) the level-_PREFIX
    arrays.  A level up to _PREFIX is one chunk: its own (s, t) and the
    empty suffix.
    """
    one, zero = np.ones(1), np.zeros(1)
    for S, T in _level_maps(min(depth, _PREFIX)):
        yield S, T, one, zero
    if depth > _PREFIX:
        suffixes = _level_maps(depth - _PREFIX)
        next(suffixes)  # the empty suffix: level _PREFIX itself
        for sv, tv in suffixes:
            yield S, T, sv, tv


def _kahan(total, comp, x):
    """One compensated (Kahan) addition of x; element-wise on arrays."""
    y = x - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


def _log1p_row_sums(a: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """Row sums of the principal log(1 + z), z = a + ib, from real ufuncs
    (b is None for real z, and then a is overwritten).

    The imaginary part is arctan2(b, 1 + a).  The real part is
    log1p(a(2 + a) + b^2) / 2, since a(2 + a) + b^2 = |1 + z|^2 - 1, with the
    1/2 applied to the row sum.  Where |1 + z|^2 < 1/4 that square cancels
    near the branch point z = -1, and where it overflows it is inf; there
    the real part is log(hypot(1 + a, b)), entered doubled.
    """
    if b is None:
        return np.sum(np.log1p(a, out=a), axis=1)
    a1 = 1.0 + a
    imag = np.sum(np.arctan2(b, a1), axis=1)
    with np.errstate(over="ignore"):
        sq = a * (2.0 + a)
        sq += b * b
    far = (sq >= -0.75) & (sq < np.inf)
    real = np.log1p(sq, out=sq, where=far)
    if not far.all():
        near = ~far
        real[near] = 2.0 * np.log(np.hypot(a1[near], b[near]))
    return 0.5 * np.sum(real, axis=1) + 1j * imag


def _chunk_row_sums(points: np.ndarray, S: np.ndarray, T: np.ndarray,
                    sv: np.ndarray, tv: np.ndarray) -> Iterator[np.ndarray]:
    """Per chunk c, the row sums over the words u of log1p(w phi_u(y)), y
    the image sv[c] p + tv[c] of each point p.

    The maps are real, so the argument a + ib = w phi_u(y) is kept as
    a = w (S Re y + T) and b = w S Im y, the multiply by w last, and
    `_log1p_row_sums` forms each complex log from real ufuncs.  A point
    where some 1 + w phi_u(y) is real and <= 0 (a branch point, or on the
    principal log's cut) is rejected.
    """
    y_re = np.multiply.outer(sv, points.real)
    y_re += tv[:, None]
    y_im = (np.multiply.outer(sv, points.imag) if np.iscomplexobj(points)
            else None)
    for c in range(sv.size):
        a = np.multiply.outer(y_re[c], S)
        a += T
        a *= OMEGA  # last, as (w s) p + w t rounds further from exact
        b = None
        if y_im is not None:
            b = np.multiply.outer(y_im[c], S)
            b *= OMEGA
        on_cut = a <= -1.0
        if b is not None and np.any(on_cut):
            on_cut &= b == 0.0
        if np.any(on_cut):
            bad = points[np.argmax(np.any(on_cut, axis=1))]
            raise PreconditionError(
                f"word log at {bad} is singular or on its branch cut")
        yield _log1p_row_sums(a, b)


@functools.lru_cache(maxsize=256)
def _reference_chunk_sums(ref: float, complex_path: bool, n: int) -> np.ndarray:
    """Level n's per-chunk row sums at the reference point, read-only.

    They are the row the reference would have in any block of points, since
    each row is summed on its own; the real and the complex path form the
    logs differently, so each has its own entry.
    """
    *_, level = _word_levels(n)
    point = np.array([ref], dtype=complex if complex_path else float)
    sums = np.array([row[0] for row in _chunk_row_sums(point, *level)])
    sums.flags.writeable = False
    return sums


def _word_log_sums(points: np.ndarray, refs: Sequence[float],
                   depth: int) -> np.ndarray:
    """Sum over the words w of length <= depth of log1p(w phi_w(p)) minus
    the same sum at the reference r: one row per r, one column per point p.

    The words are walked as prefix table times suffix images
    (`_word_levels`), one chunk of 2^13 words per suffix.  Each chunk's sum
    is differenced against the reference's, cached per level, so the level
    totals stay small, and each level is Kahan-added.  The logs are real
    for a real array of points and principal-branch complex otherwise.
    """
    complex_path = np.iscomplexobj(points)
    total = comp = np.zeros((len(refs), points.size), dtype=points.dtype)
    for n, level_maps in enumerate(_word_levels(depth)):
        ref_sums = np.array([_reference_chunk_sums(r, complex_path, n)
                             for r in refs])
        level = np.zeros_like(total)
        for c, sums in enumerate(_chunk_row_sums(points, *level_maps)):
            level += sums - ref_sums[:, c, None]
        total, comp = _kahan(total, comp, level)
    return total


def word_fixed_point(which: int, depth: int,
                     z: complex | Sequence[complex]) -> complex | np.ndarray:
    """Partial sum of the explicit fixed point with a log singularity at 0
    (which=1, vanishing at -w) or at 1 (which=2, vanishing at w): a complex
    at the point z, or an array with one value per point of the array z.

    Each word contributes log(1 + w phi_word(z)) minus the same term at the
    reference point, principal branch termwise; a point where some word's
    1 + w phi_word(z) is real and <= 0 is rejected.  An array costs one
    pass over the words, and each value is bit-equal to its scalar call.
    """
    if which not in (1, 2):
        raise PreconditionError("which must be 1 or 2")
    pole, ref = (0.0, C1) if which == 1 else (1.0, C2)
    pts = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(pts == pole):
        raise PreconditionError(f"singular evaluation point {pole:g}")
    total = (np.log((pts - pole) / (ref - pole))
             + _word_log_sums(pts, (ref,), depth)[0])
    return complex(total[0]) if np.ndim(z) == 0 else total


def identity_partial_products(depth: int) -> np.ndarray:
    """P_d for d = 0..depth, P_d the product over all words of length <= d of
    (1 + w phi_word(w)) / (1 + w phi_word(-w)).  Converges to 1 + w.

    The words are walked as in `_word_levels`: a chunk's words send -w and
    w to S_u y1 + T_u and S_u y2 + T_u, y_i the images under its suffix v.
    Since y2 - y1 = 2w s_v, each ratio is 1 + 2w^2 s_v S_u / (1 + w (S_u y1
    + T_u)), which rounds only its small second term; the quotient of two
    rounded factors erred by up to 5e-12 relative in P_20.
    """
    if depth < 0:
        raise PreconditionError("depth must be >= 0")
    out = np.empty(depth + 1)
    p = 1.0
    for n, (S, T, sv, tv) in enumerate(_word_levels(depth)):
        for gap, y1 in zip(OMEGA * (C2 - C1) * sv, sv * C1 + tv):
            p *= float(np.prod(1.0 + gap * S / (1.0 + OMEGA * (S * y1 + T))))
        out[n] = p
    return out


def log_ratio_invariance(z_samples: Iterable[complex]) -> float:
    """g(z) = z/(z-1) satisfies g(-wz) * g(w^2 z + w) = g(z) exactly; returns
    the max relative deviation over the samples (pure rounding)."""
    worst = 0.0
    for z in z_samples:
        z = complex(z)
        pieces = []
        for m in (PHI1, PHI2):
            u = m(z)
            if u == 1 or u == 0:
                raise PreconditionError(f"sample {z} maps onto a singularity")
            pieces.append(u / (u - 1.0))
        if z == 0 or z == 1:
            raise PreconditionError(f"singular sample {z}")
        rhs = z / (z - 1.0)
        worst = max(worst, abs(pieces[0] * pieces[1] / rhs - 1.0))
    return worst


def figure_data(grid: Sequence[float], depth: int = DEFAULT_DEPTH,
                parallel: bool = False) -> np.ndarray:
    """Rows (x, Re exp f1, Re exp f2, ratio_dev) over a real grid.

    The exponentiated partial sums are evaluated multiplicatively, so the
    removable zeros at x = 0 (f1) and x = 1 (f2) come out exactly 0.
    ratio_dev checks exp f1 / exp f2 = x/(x-1) * w * P_depth; it is set to 0
    at the removable points where the quotient form degenerates.
    `parallel` is accepted and ignored: the grid is summed in one pass.
    """
    x = np.asarray(grid, dtype=float)
    S1, S2 = _word_log_sums(x, (C1, C2), depth)
    e1 = np.exp(S1) * x / (-OMEGA) + 0.0
    e2 = np.exp(S2) * (x - 1.0) / (OMEGA - 1.0) + 0.0
    pd = float(identity_partial_products(depth)[-1])
    removable = (x == 0.0) | (x == 1.0)
    dev = np.zeros_like(x)
    ok = ~removable
    with np.errstate(invalid="ignore", divide="ignore"):
        dev[ok] = np.abs((e1[ok] / e2[ok]) * ((x[ok] - 1.0) / x[ok])
                         / (OMEGA * pd) - 1.0)
    return np.column_stack([x, e1, e2, dev])


def default_figure_grid() -> np.ndarray:
    lo, hi, n = FIGURE_GRID
    return np.linspace(lo, hi, n)


def sfs_spectrum(n: int) -> tuple[list[list[Fraction]], np.ndarray]:
    """Exact matrix of T c(x) = c((x-1)/2) - c((1-x)/2) on monomials up to
    x^{2n-1}, plus its eigenvalues, the diagonal, largest first.

    T x^m = 2^{1-m} (x-1)^m for odd m and 0 for even m, so the matrix is
    upper triangular with diagonal (0, 1, 0, 1/4, 0, 1/16, ...).
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    dim = 2 * n
    A = [[Fraction(0) for _ in range(dim)] for _ in range(dim)]
    for m in range(1, dim, 2):
        lead = Fraction(1, 2 ** (m - 1))
        for r in range(m + 1):
            A[r][m] = lead * math.comb(m, r) * (-1) ** (m - r)
    eig = np.array([float(A[k][k]) for k in range(dim)])  # A is triangular
    return A, eig[np.argsort(-eig)]


def sfs_fixed_vector(n: int) -> list[Fraction]:
    """Coefficients of x - 1, the degree-1 fixed point, padded to dimension 2n."""
    v = [Fraction(0)] * (2 * n)
    v[0], v[1] = Fraction(-1), Fraction(1)
    return v


def oracle_comparison_points() -> tuple[complex, ...]:
    """20 deterministic points for engine-vs-oracle comparison of the
    fixed point vanishing at w.

    They sit within 0.2 of w, in the closed upper half plane and on the far
    side from the singularity at 1, where the depth-18 truncation tail of
    the word sum stays below the comparison tolerance (the tail scales
    roughly linearly with |z - w|).
    """
    radii = (0.05, 0.10, 0.15, 0.20)
    angles = (90.0, 120.0, 150.0, 180.0)
    pts = [OMEGA + r * cmath.exp(1j * math.radians(th))
           for r in radii for th in angles]
    pts += [OMEGA + 0.18 * cmath.exp(1j * math.radians(th))
            for th in (100.0, 130.0, 160.0, 175.0)]
    return tuple(pts)


def general_a_cso(a: int) -> AffineCso:
    """Additive operator for the metallic mean w with w^2 + a w = 1:
    a copies of f(-w x - i) plus f(w^2 x + a w).  a = 1 recovers M."""
    if a < 1:
        raise PreconditionError("a must be >= 1")
    w = (math.sqrt(a * a + 4.0) - a) / 2.0
    terms = [(1.0, AffineMap(-w, -i / (1.0 + w))) for i in range(a)]
    terms.append((1.0, AffineMap(w * w, 1.0)))
    return make_cso(terms)
