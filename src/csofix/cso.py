"""Affine composition-sum operators Tf = sum_i a_i f(s_i (z - z_i) + z_i).

Construction and validation, application to disc series and to singular
functions, the one back substitution for I - A on the triangular operator
matrix, l1 contraction diagnostics on D_R, polynomial fixed points, the
derived operators (induced coefficient twist, pinning, projection), and the
structural predicates used to admit singular seeds.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NonSimpleConfigurationError, PreconditionError
from .series import DEFAULT_TRUNCATION, DiscSeries, linear_combine, require_finite
from .singular import (
    SingularFunction,
    SingularTerm,
    merge_terms,
    pullback_term,
    unbounded_set,
)

REL_TOL = 1e-12
BLOCK = 32  # columns per block of back_substitute


@dataclass(frozen=True)
class AffineMap:
    """z -> s*(z - z_fix) + z_fix; |s| < 1, with s = 0 a constant map."""

    s: complex
    z_fix: complex

    def __post_init__(self):
        s = require_finite(self.s, "contraction rate")
        if abs(s) >= 1:
            raise PreconditionError(f"contraction rate |{s}| >= 1")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "z_fix", require_finite(self.z_fix, "fixed point"))

    @property
    def t(self) -> complex:
        return self.z_fix * (1 - self.s)

    def __call__(self, z: complex) -> complex:
        return self.s * complex(z) + self.t

    def fixes(self, z: complex) -> bool:
        """True when z is this map's fixed point, within REL_TOL * max(1, |z|)."""
        return abs(self.z_fix - z) <= REL_TOL * max(1.0, abs(z))


@dataclass(frozen=True)
class AffineCso:
    terms: tuple[tuple[complex, AffineMap], ...]

    def __post_init__(self):
        terms = tuple((complex(a), m) for a, m in self.terms)
        if not terms:
            raise PreconditionError("operator needs at least one term")
        seen = set()
        for a, m in terms:
            require_finite(a, "coefficient")
            if a == 0:
                raise PreconditionError("zero coefficient term")
            key = (m.s, m.z_fix)
            if key in seen:
                raise PreconditionError(f"duplicate map {key}")
            seen.add(key)
        object.__setattr__(self, "terms", terms)

    @property
    def ell(self) -> int:
        return len(self.terms)

    @property
    def coefficients(self) -> tuple[complex, ...]:
        return tuple(a for a, _ in self.terms)

    @property
    def maps(self) -> tuple[AffineMap, ...]:
        return tuple(m for _, m in self.terms)

    @property
    def max_rate(self) -> float:
        return max(abs(m.s) for m in self.maps)


def make_cso(terms: Iterable[tuple[complex, AffineMap]]) -> AffineCso:
    return AffineCso(tuple(terms))


# Columns below this come from the closed form.  Later columns use the
# recurrence, which keeps the binomial table at 2 MB; C(k, r) itself would
# overflow float64 near k = 1030.
CLOSED_FORM_COLUMNS = 512
# C(k, r) at [r, k], correctly rounded; the only state kept across calls
_binomial = np.ones((1, 1))


def _binomial_table(n: int) -> np.ndarray:
    """Leading n x n block (n <= CLOSED_FORM_COLUMNS) of the binomial table,
    grown to n when a larger block is first asked for."""
    global _binomial
    old = _binomial  # read once: another thread may grow it meanwhile
    m = old.shape[0]
    if m >= n:
        return old[:n, :n]
    # An anonymous mapping keeps the table out of the malloc heap: grown
    # there, between the large temporaries of the golden word sums, it made
    # those 3-5% slower.
    table = np.frombuffer(mmap.mmap(-1, 8 * n * n), dtype=float).reshape(n, n)
    table[:m, :m] = old
    col = np.zeros(n, dtype=object)  # Pascal's rule on exact integers
    col[:m] = [math.comb(m - 1, r) for r in range(m)]
    for k in range(m, n):
        col[1 : k + 1] = col[1 : k + 1] + col[:k]
        table[: k + 1, k] = col[: k + 1].astype(float)
    _binomial = table
    return table


def operator_matrix(T: AffineCso, n: int, R: float = 1.0) -> np.ndarray:
    """n x n upper-triangular matrix of T on D_R in the unit-disc chart:
    column k holds T (z/R)^k in powers of z/R, A[r, k] = C(k, r) sum_i a_i
    s_i^r u_i^(k-r) with u_i = t_i / R, and its l1 norm is the basis ratio
    ||T z^k||_R / R^k.  At R = 1 it is T's matrix on 1, z, ..., z^{n-1}.

    Columns k < CLOSED_FORM_COLUMNS are that closed form: one term sum of
    a_i s_i^r against a skewed view of u_i^(k-r), then a product with the
    binomial table.  The powers are taken of s_i / rho and u_i / rho, rho
    the power of two <= 1 nearest the largest |s_i| + |u_i|, and column k is
    scaled back by rho^k, both exactly: with small maps, unscaled products
    a_i s_i^r u_i^(k-r) would underflow long before the columns do.  Later
    columns continue the binomial recurrence (s z + u)^{k+1} =
    (s z + u)^k * (s z + u) from each term's column 511.
    Entry [r, k] never depends on n (the powers are always taken to
    CLOSED_FORM_COLUMNS, and the term sum and the recurrence keep a fixed
    order), so a leading block of a larger matrix is the smaller matrix,
    bit for bit.
    """
    if n < 1:
        raise PreconditionError("matrix size must be >= 1")
    W = CLOSED_FORM_COLUMNS
    K = min(n, W)
    s = np.array([m.s for m in T.maps], dtype=complex)[:, None]
    u = np.array([m.t for m in T.maps], dtype=complex)[:, None] / R
    # rho = 2^e <= 1, the power of two nearest the largest |s_i| + |u_i|
    reach = max(abs(m.s) + abs(m.t) / R for m in T.maps)
    e = max(-1000, round(math.log2(reach))) if 0 < reach < 1 else 0
    lead = np.empty((T.ell, W), dtype=complex)  # lead[i, r] = a_i (s_i/rho)^r
    lead[:, :1] = np.array(T.coefficients, dtype=complex)[:, None]
    lead[:, 1:] = s * 2.0 ** -e
    np.cumprod(lead, axis=1, out=lead)
    upow = np.zeros((T.ell, 2 * W - 1), dtype=complex)  # (u_i/rho)^j at [i, W-1+j]
    upow[:, W - 1] = 1.0
    upow[:, W:] = u * 2.0 ** -e
    # with |u_i| > 4 the powers overflow before j = 511, mostly past the
    # columns in use; a column in use that overflows is not finite, so the
    # certificate does not certify and a solve stops with exit 2
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumprod(upow[:, W - 1:], axis=1, out=upow[:, W - 1:])
    # skew[i, r, k] = (u_i/rho)^(k-r), zero below the diagonal
    skew = sliding_window_view(upow[:, W - K : W - 1 + K], K, axis=1)[:, ::-1, :]
    A = np.zeros((n, n), dtype=complex)
    block = A[:K, :K]
    np.einsum("ir,irk->rk", lead[:, :K], skew, out=block)
    binom = _binomial_table(K)
    with np.errstate(over="ignore"):  # the same overflow, met later
        block.real *= binom
        block.imag *= binom
    if e:
        rho_k = np.ldexp(1.0, e * np.arange(K))
        block.real *= rho_k
        block.imag *= rho_k
    if n > W:
        rows = np.zeros((T.ell, n), dtype=complex)  # row i: a_i (s_i z + u_i)^k
        rows[:, :W] = (lead * skew[:, :, W - 1] * binom[:, W - 1]
                       * math.ldexp(1.0, e * (W - 1)))
        for k in range(W, n):
            rows[:, 1 : k + 1] = u * rows[:, 1 : k + 1] + s * rows[:, :k]
            rows[:, 0] *= u[:, 0]
            A[: k + 1, k] = rows[:, : k + 1].sum(axis=0)
    return A


def back_substitute(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with (I - A) x = b, A upper triangular with no diagonal entry 1.

    From the last block of BLOCK columns up: move the columns of the blocks
    already solved to the right-hand side, then solve with the block's own
    diagonal block of I - A.  Partial pivoting never swaps rows of an
    upper-triangular matrix, so each block solve is a back substitution,
    which is componentwise backward stable (Higham, Accuracy and Stability
    of Numerical Algorithms, Thm 8.5).  Only the diagonal blocks of I - A
    are formed."""
    n = b.size
    x = np.empty(n, dtype=complex)
    for lo in range((n - 1) // BLOCK * BLOCK, -1, -BLOCK):
        hi = min(lo + BLOCK, n)
        rhs = b[lo:hi] if hi == n else b[lo:hi] + A[lo:hi, hi:] @ x[hi:]
        x[lo:hi] = np.linalg.solve(np.eye(hi - lo, dtype=complex) - A[lo:hi, lo:hi], rhs)
    return x


def check_image_discs(T: AffineCso, R: float) -> None:
    """Require every image disc of D_R strictly inside D_R, |s_i| R + |t_i| < R."""
    for m in T.maps:
        reach = abs(m.s) * R + abs(m.t)
        if reach >= R:
            raise PreconditionError(
                f"image disc escapes domain: |s|*r+|t| = {reach:.6g} >= {R:.6g}")


def apply_series(T: AffineCso, f: DiscSeries,
                 matrix: Optional[np.ndarray] = None) -> DiscSeries:
    """T f on f's disc D_R: one product with the leading block of `matrix`,
    a larger operator_matrix of T at R (exact, as no entry depends on the
    size, so a caller applying T repeatedly builds it once), else a fresh
    build.  Requires every image disc strictly inside D_R (check_image_discs);
    then no composition increases the l1 norm, so sum_i |a_i| * f.tail_bound
    bounds the discarded tail."""
    n = len(f.scaled)
    check_image_discs(T, f.radius)
    if matrix is None:
        matrix = operator_matrix(T, n, f.radius)
    elif matrix.shape[0] < n:
        raise PreconditionError(
            f"operator matrix of size {matrix.shape[0]} is smaller than the series ({n})")
    tail = sum(abs(a) * f.tail_bound for a in T.coefficients)
    return DiscSeries(f.radius, matrix[:n, :n] @ f.scaled, tail)


def apply_singular(
    T: AffineCso,
    f: SingularFunction,
    *,
    relocate: bool = False,
    n_terms: int = DEFAULT_TRUNCATION,
    matrix: Optional[np.ndarray] = None,
) -> SingularFunction:
    """Sum of pullbacks of every singular term through every map, plus the
    regular part pushed through apply_series (with `matrix`, if given,
    built at f's radius).

    By default the unbounded set must be simple under T.  With `relocate`
    that gate is skipped and interior preimages are relocated; it is meant
    for the iterated-seed machinery, which checks cancellation downstream.
    """
    R = f.radius
    if not relocate:
        verdicts = simplicity_check(T, unbounded_set(f))
        bad = [v for v in verdicts if not v.ok]
        if bad:
            raise NonSimpleConfigurationError(
                f"singular set not simple under operator: {bad[0].reason}")
    weighted: list[tuple[complex, SingularTerm]] = []
    regular_parts = [(1.0, apply_series(T, f.regular, matrix))]
    for a, m in T.terms:
        for term in f.terms:
            pb = pullback_term(term, m, R, relocate=relocate, n_terms=n_terms)
            weighted.extend((a, t) for t in pb.terms)
            regular_parts.append((a, pb.regular))
    return SingularFunction(merge_terms(weighted), linear_combine(regular_parts))


def basis_image_norm(T: AffineCso, n: int, R: float) -> float:
    """Exact l1 norm of T applied to z^n on D_R.

    T z^n = sum_i a_i (s_i z + t_i)^n has coefficient
    sum_i a_i C(n,r) s_i^r t_i^{n-r} on z^r.
    """
    if R <= 0:
        raise PreconditionError("radius must be positive")
    n = int(n)
    total = 0.0
    for r in range(n + 1):
        c = math.comb(n, r)
        inner = 0j
        for a, m in T.terms:
            inner += a * c * m.s ** r * m.t ** (n - r)
        total += abs(inner) * R ** r
    return total


def analytic_ratio_bound(T: AffineCso, n: int, R: float) -> float:
    """Majorant sum_i |a_i| (|s_i| + |t_i|/R)^n for the basis ratio at index n."""
    return sum(abs(a) * (abs(m.s) + abs(m.t) / R) ** n for a, m in T.terms)


def basis_ratio_scan(T: AffineCso, R: float, n_max: int) -> np.ndarray:
    """||T z^n||_R / R^n for n = 0..n_max: the column l1 norms of
    operator_matrix(T, n_max + 1, R), T's matrix in the unit-disc chart of
    D_R, the one a solve on D_R applies.  No power of R is formed, so no
    ratio overflows, however large or small R is.  Matches
    basis_image_norm pointwise."""
    # t_i / R overflows at a subnormal R, and an overflowed power of t_i / R
    # times a structural zero is nan: that norm is inf.  Ratios that are not
    # finite never certify
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = np.abs(operator_matrix(T, n_max + 1, float(R))).sum(axis=0)
    return np.where(np.isnan(ratios), np.inf, ratios)


@dataclass(frozen=True)
class ContractionCertificate:
    """Contraction of T on D_R in the l1 norm.  ratios[n] = ||T z^n||_R / R^n
    for n <= n_max; tail, the analytic majorant at n_max + 1, bounds every
    later ratio (inf unless each |s_i| + |t_i|/R <= 1); rate, the sup of
    both, gives ||Tf||_R <= rate * ||f||_R for all f; every ratio from
    index N on is below 1 (N is None unless the tail is)."""
    ratios: tuple[float, ...]
    tail: float
    rate: float
    N: Optional[int]

    @property
    def is_contraction(self) -> bool:
        return self.rate < 1.0


def contraction_certificate(T: AffineCso, R: float,
                            n_max: int = 200) -> ContractionCertificate:
    """The basis-ratio scan of T on D_R up to n_max, then the analytic
    majorant, which is nonincreasing in n once each |s_i| + |t_i|/R <= 1,
    then the rate and N.  A ratio that is not finite never certifies."""
    if not 0 < R < math.inf:
        raise PreconditionError("radius must be positive and finite")
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    ratios = tuple(basis_ratio_scan(T, R, n_max).tolist())
    tail = math.inf
    if max(abs(m.s) + abs(m.t) / R for m in T.maps) <= 1.0:
        tail = analytic_ratio_bound(T, n_max + 1, R)
    rate = max(max(ratios), tail) if all(map(math.isfinite, ratios)) else math.inf
    N = None
    if tail < 1.0:
        N = next((n + 1 for n in range(n_max, -1, -1) if not ratios[n] < 1.0), 0)
    return ContractionCertificate(ratios, tail, rate, N)


@lru_cache(maxsize=256)
def certified_contraction_rate(T: AffineCso, R: float, n_max: int = 200) -> float:
    """contraction_certificate(T, R, n_max).rate, cached: a solve asks for
    the rate of the same few operators again and again."""
    return contraction_certificate(T, R, n_max).rate


@dataclass(frozen=True)
class ContractionReport:
    mu: float
    R0: float
    certificate: ContractionCertificate


def contraction_report(T: AffineCso, mu: float, R: float,
                       n_max: int = 200) -> ContractionReport:
    """contraction_certificate(T, R, n_max) plus R0, the least radius R
    with every image disc of D_R inside D_{mu R}."""
    mu = float(mu)
    smax = T.max_rate
    if not (smax < mu <= 1.0):
        raise PreconditionError(f"need max rate {smax} < mu <= 1, got mu={mu}")
    R0 = max(abs(m.t) / (mu - abs(m.s)) for m in T.maps)
    return ContractionReport(mu, R0, contraction_certificate(T, R, n_max))


@dataclass(frozen=True)
class PolyDegreeScan:
    degrees: tuple[int, ...]
    cutoff: int


def _unit_degrees(T: AffineCso, m_max: int) -> tuple[int, ...]:
    """Degrees m <= m_max with sigma_m = sum_i a_i s_i^m = 1 within REL_TOL."""
    power = np.ones((m_max + 1, T.ell), dtype=complex)
    power[1:] = [mp.s for mp in T.maps]
    np.cumprod(power, axis=0, out=power)
    sigma = (power * np.array(T.coefficients, dtype=complex)).sum(axis=1)
    return tuple(np.flatnonzero(
        np.abs(sigma - 1.0) <= REL_TOL * np.maximum(1.0, np.abs(sigma))).tolist())


def poly_fp_degrees(T: AffineCso, m_max: int) -> PolyDegreeScan:
    """Degrees m <= m_max where sum_i a_i s_i^m = 1 holds within REL_TOL, plus the
    cutoff: the least m with sum_i |a_i||s_i|^m < 1, beyond which the relation
    can never hold again (the majorant is nonincreasing in m)."""
    if m_max < 0:
        raise PreconditionError("m_max must be >= 0")
    # least m with induced_norm_bound(T, m) < 1 - REL_TOL, by doubling and
    # then bisection: the bound is >= 1 - REL_TOL at lo (or lo = -1), < at hi
    lo, hi = -1, 0
    while not induced_norm_bound(T, hi) < 1.0 - REL_TOL:
        lo, hi = hi, max(1, 2 * hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if induced_norm_bound(T, mid) < 1.0 - REL_TOL else (mid, hi)
    return PolyDegreeScan(_unit_degrees(T, m_max), hi)


def poly_fixed_points(T: AffineCso, m: int) -> list[np.ndarray]:
    """Basis of the kernel of (I - T) on polynomials of degree <= m: one
    vector v per degree d of poly_fp_degrees(T, m) that carries a fixed
    point, lowest d first, with v[d] = 1 and zeros above d.

    T's matrix A is upper triangular with diagonal sigma_r = sum_i a_i s_i^r.
    back_substitute solves the rows below d but those of the lower degrees
    r, which are equations on v: v[r] = 0 where r carries a fixed point (it
    can be subtracted), else least squares on those rows sets it.  v is kept
    only if ||(I - A_d) v||_inf <= REL_TOL (1 + ||A_d||_inf) ||v||_inf, A_d
    the leading (d+1) x (d+1) block: the block's scale, since a row's, such
    as |A[0, 1]| = |sum_i a_i t_i| for maps sharing a fixed point, can be
    rounding noise.  A Jordan chain fails the test.
    """
    if m < 0:
        raise PreconditionError("degree bound must be >= 0")
    A = operator_matrix(T, m + 1)
    finite = np.isfinite(A).all(axis=0)
    if not finite.all():
        raise PreconditionError(
            f"operator matrix overflows float64 at degree {np.argmin(finite)}")
    degrees = _unit_degrees(T, m)
    basis, chains = [], []  # chains: the degrees that carry no fixed point
    for d in degrees:
        keep = np.setdiff1d(np.arange(d), degrees)
        A_d = A[: d + 1, : d + 1]
        # column 0 has v[d] = 1; one more column per chain degree, 1 there
        Y = np.zeros((m + 1, 1 + len(chains)), dtype=complex)
        for col, j in enumerate([d, *chains]):
            Y[j, col] = 1.0
            Y[keep, col] = back_substitute(A[np.ix_(keep, keep)], A[keep, j])
        if chains:
            rows = (Y[: d + 1] - A_d @ Y[: d + 1])[[r for r in degrees if r < d]]
            Y[:, 0] += Y[:, 1:] @ np.linalg.lstsq(rows[:, 1:], -rows[:, 0], rcond=None)[0]
        v = Y[:, 0].copy()
        bound = REL_TOL * (1.0 + np.abs(A_d).sum(axis=1).max()) * np.abs(v).max()
        if np.abs(v[: d + 1] - A_d @ v[: d + 1]).max() <= bound:
            basis.append(v)
        else:
            chains.append(d)
    return basis


def induced_m(T: AffineCso, m: int) -> AffineCso:
    """Operator with coefficients a_i s_i^m and the same maps; this is what T
    becomes after m differentiations.  Terms whose rate is zero vanish."""
    if m < 0:
        raise PreconditionError("m must be >= 0")
    if m == 0:
        return T
    terms = [(a * mp.s ** m, mp) for a, mp in T.terms if mp.s != 0]
    if not terms:
        raise PreconditionError("induced operator is zero")
    return AffineCso(tuple(terms))


def induced_norm_bound(T: AffineCso, m: int) -> float:
    return sum(abs(a) * abs(mp.s) ** m for a, mp in T.terms)


def _merge_cso_terms(terms: Sequence[tuple[complex, AffineMap]]) -> AffineCso:
    keyed: dict[tuple, list] = {}
    order = []
    for a, m in terms:
        key = (m.s, m.z_fix)
        if key not in keyed:
            keyed[key] = [0j, m]
            order.append(key)
        keyed[key][0] += complex(a)
    out = [(keyed[k][0], keyed[k][1]) for k in order if keyed[k][0] != 0]
    if not out:
        raise PreconditionError("all terms cancelled")
    return AffineCso(tuple(out))


def pinned(T: AffineCso, c: complex) -> AffineCso:
    """T_c f = Tf - Tf(c): the original terms plus one degenerate constant
    term -a_i at value map_i(c) per term.  Annihilates constants, so fixed
    points g of T_c that are also fixed by T satisfy g(c) = 0."""
    c = require_finite(c, "pin point")
    extra = [(-a, AffineMap(0.0, m(c))) for a, m in T.terms]
    return _merge_cso_terms(list(T.terms) + extra)


def projected_j(T: AffineCso, j: int) -> AffineCso:
    """T_j f = Tf - (1/L) sum_{i != j} a_i Tf(map_i(z_j)), L = sum_{i != j} a_i.

    Materialized as a CSO with degenerate constant terms.  When a_j = 1 a
    fixed point of T_j is a fixed point of T.
    """
    if not (0 <= j < T.ell):
        raise PreconditionError(f"term index {j} out of range")
    others = [(a, m) for k, (a, m) in enumerate(T.terms) if k != j]
    L = sum(a for a, _ in others)
    if L == 0:
        raise PreconditionError("projection undefined: off-term coefficients sum to 0")
    zj = T.terms[j][1].z_fix
    extra = []
    for ai, mi in others:
        ci = mi(zj)
        extra.extend((-ai * ak / L, AffineMap(0.0, mk(ci))) for ak, mk in T.terms)
    return _merge_cso_terms(list(T.terms) + extra)


def fixed_point_independence(T: AffineCso, i: int, R: float) -> bool:
    """True iff the fixed point of map i stays strictly outside the closed
    image of D_R under every other map."""
    if not (0 <= i < T.ell):
        raise PreconditionError(f"term index {i} out of range")
    if R <= 0:
        raise PreconditionError("radius must be positive")
    zi = T.terms[i][1].z_fix
    return all(abs(zi - m.t) > abs(m.s) * R
               for k, (_, m) in enumerate(T.terms) if k != i)


@dataclass(frozen=True)
class PointVerdict:
    point: complex
    ok: bool
    fixed_by: tuple[int, ...]
    reason: str = ""


def simplicity_check(T: AffineCso, points: Iterable[complex]) -> tuple[PointVerdict, ...]:
    """Per-point verdicts: a point passes iff exactly one map fixes it and
    every other map sends it off the set."""
    pts = sorted({complex(p) for p in points}, key=lambda z: (z.real, z.imag))

    def near(u, v):
        return abs(u - v) <= REL_TOL * max(1.0, abs(u), abs(v))

    out = []
    for p in pts:
        fixed = tuple(k for k, m in enumerate(T.maps) if m.fixes(p))
        if len(fixed) != 1:
            out.append(PointVerdict(p, False, fixed,
                                    f"{p} fixed by {len(fixed)} maps"))
            continue
        hit = next(((k, m(p)) for k, (_, m) in enumerate(T.terms)
                    if k != fixed[0] and any(near(m(p), q) for q in pts)), None)
        if hit is not None:
            out.append(PointVerdict(p, False, fixed,
                                    f"map {hit[0]} sends {p} back into the set"))
        else:
            out.append(PointVerdict(p, True, fixed))
    return tuple(out)


@dataclass(frozen=True)
class SeedVerdict:
    admissible: bool
    index: int
    coefficient: complex
    required: complex


def seed_admissibility(T: AffineCso, term: SingularTerm) -> SeedVerdict:
    """A log seed at the fixed point of map i needs a_i = 1; a pole of order
    k needs a_i = s_i^k.  The location must be fixed by exactly one map."""
    z0 = term.location
    fixed = [k for k, m in enumerate(T.maps) if m.fixes(z0)]
    if len(fixed) != 1:
        raise PreconditionError(
            f"seed location {z0} is fixed by {len(fixed)} maps, need exactly 1")
    i = fixed[0]
    a, m = T.terms[i]
    required = 1.0 + 0j if term.kind == "log" else m.s ** term.order
    ok = abs(a - required) <= REL_TOL * max(1.0, abs(required))
    return SeedVerdict(ok, i, a, required)
