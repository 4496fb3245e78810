"""Seeded fixed points of affine composition-sum operators.

Three construction routes, all returning the singular seed plus a computed
regular correction:

  generalized (k)  apply T to the seed f0 until the singular terms
                   stabilize, g = T^k f0, then f* = g - N(g - T g), N the
                   Neumann inverse of I - T;
  direct           the same at k = 0, usable when f0 - T f0 is already
                   regular on the disc;
  derivative (m)   fix the m-th derivative with a pole seed under the
                   induced operator, integrate back, correct by a polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import AdmissibilityError, ConvergenceError, PreconditionError
from .cso import (
    REL_TOL,
    AffineCso,
    apply_singular,
    certified_contraction_rate,
    check_image_discs,
    fixed_point_independence,
    induced_m,
    operator_block,
    operator_matrix,
    poly_fp_degrees,
    seed_admissibility,
)
from .series import (
    DEFAULT_TRUNCATION,
    DiscSeries,
    integrate_from_zero,
    l1_norm,
    linear_combine,
    zero_series,
)
from .singular import (
    SingularFunction,
    SingularTerm,
    log_term,
    merge_terms,
    pole_term,
)

MAX_ITER = 50_000  # Neumann iterations before exit 3
MAX_TRUNCATION = 4096  # coefficients; the N x N matrix is 16 N^2 B, 256 MiB here
K_MAX = 8  # stabilization steps before the generalized route gives up


@dataclass(frozen=True)
class SeedSpec:
    term: SingularTerm
    matched_index: int


@dataclass(frozen=True)
class FixedPointResult:
    fixed_point: SingularFunction
    residual_norm: float
    iterations: int
    route: str  # "direct", "generalized_seed(k)" or "derivative(m)"


def make_seed(T: AffineCso, term: SingularTerm) -> SeedSpec:
    v = seed_admissibility(T, term)
    if not v.admissible:
        raise AdmissibilityError(
            f"seed {term.kind} at {term.location}: operator coefficient "
            f"{v.coefficient} != required {v.required}")
    return SeedSpec(term, v.index)


def neumann_inverse(T: AffineCso, g: DiscSeries, R: float, tol: float) -> DiscSeries:
    """Solve (I - T) h = g on D_R by summing T^n g.

    Stops once the increment norm drops below tol*(1 - K), K the certified
    contraction rate, so the residual bound ||(I-T)h - g|| < tol holds.
    """
    return _neumann(T, g, R, tol)[0]


def _weights(R: float, n: int, tol: float) -> np.ndarray:
    """The l1 weights R^k, k < n, of a series on D_R, checked with tol
    before any matrix is built: a tol that is not positive and finite is
    never met or cannot be reported, an n above MAX_TRUNCATION would
    allocate too much, and an R^k that overflows would make every norm
    0 * inf = nan, so no loop could stop."""
    if not 0.0 < tol < math.inf:
        raise PreconditionError("tolerance must be positive and finite")
    if n > MAX_TRUNCATION:
        raise PreconditionError(
            f"truncation N exceeds the cap of {MAX_TRUNCATION} coefficients")
    with np.errstate(over="ignore"):
        rpow = R ** np.arange(n, dtype=float)
    if not np.isfinite(rpow[-1]):
        raise PreconditionError(
            f"truncation N={n} is too long for D_{R}: R^n overflows "
            f"for n >= {int(np.argmax(np.isinf(rpow)))}")
    return rpow


def _neumann(T: AffineCso, g: DiscSeries, R: float, tol: float,
             matrix: Optional[np.ndarray] = None) -> tuple[DiscSeries, int]:
    rpow = _weights(R, g.coeffs.size, tol)
    # increment slack is tightened to K times the previous slack, which the
    # certified rate justifies; the raw per-term bound compounds by sum|a_i|
    K = certified_contraction_rate(T, R)
    if not K < 1.0:
        raise PreconditionError(f"operator does not contract on D_{R} (rate {K})")
    stop = tol * (1.0 - K)
    g = DiscSeries(R, g.coeffs, g.tail_bound)
    # every term lives on D_R, so the image check of apply_series is the same
    # on each iteration and is made once; the loop runs on raw arrays and
    # keeps the finiteness check a DiscSeries makes of each new term
    check_image_discs(T, R, R)
    A = operator_block(T, matrix, g.coeffs.size)
    term, tail = g.coeffs, g.tail_bound
    total = np.zeros(term.size, dtype=complex)
    total_tail = 0.0
    for n in range(MAX_ITER):
        if float(np.abs(term) @ rpow) + tail < stop:
            # nothing summed at n = 0: the one-coefficient zero series
            return DiscSeries(R, total if n else total[:1], total_tail), n
        total += term
        total_tail += tail
        term = A @ term
        if not np.isfinite(term).all():
            raise PreconditionError("series coefficients must be finite")
        tail = K * tail
    raise ConvergenceError(
        f"Neumann series did not reach {tol} in {MAX_ITER} iterations "
        f"(rate {K:.6f}, last increment {float(np.abs(term) @ rpow) + tail:.3e})")


def _term_diff(a: SingularFunction, b: SingularFunction) -> tuple:
    scale = max([1.0] + [abs(t.weight) for t in a.terms + b.terms])
    parts = [(1.0, t) for t in a.terms] + [(-1.0, t) for t in b.terms]
    return merge_terms(parts, drop_below=REL_TOL * scale)


def _solve_matrix(T: AffineCso, f: SingularFunction, n_terms: int,
                  tol: float) -> np.ndarray:
    """operator_matrix of T at the largest length a solve from f meets:
    pullbacks expand to max(n_terms, 2) coefficients and T never lengthens a
    series, so every application in the solve uses a leading block.  tol
    and the weights at that length are checked first."""
    n = max(int(n_terms), 2, f.regular.coeffs.size)
    _weights(f.radius, n, tol)
    return operator_matrix(T, n)


def _remainder(T: AffineCso, f: SingularFunction, relocate: bool,
               n_terms: int, matrix: np.ndarray) -> DiscSeries:
    """The regular part of T f - f; exit 3 unless T keeps f's singular terms."""
    Tf = apply_singular(T, f, relocate=relocate, n_terms=n_terms, matrix=matrix)
    if _term_diff(Tf, f):
        raise ConvergenceError("singular terms of T f no longer cancel those of f")
    return linear_combine([(1.0, Tf.regular), (-1.0, f.regular)])


def _residual(remainder: DiscSeries, tol: float) -> float:
    """||T f - f||_R from the remainder T f - f; exit 3 unless it is < tol."""
    residual = l1_norm(remainder)
    if not residual < tol:
        raise ConvergenceError(f"residual {residual:.3e} above tolerance {tol}")
    return residual


def _stabilized(T: AffineCso, seed: Union[SeedSpec, SingularFunction], R: float,
                tol: float, n_terms: int, relocate: bool) -> FixedPointResult:
    """Apply T to the seed g until the singular terms stabilize (least k
    with terms(T^{k+1} g) = terms(T^k g)), then g - N(g - T g), from that
    g and its T g, is the fixed point.  With `relocate`, singularities
    moved to interior preimages are tracked exactly, up to k = K_MAX, so
    the stabilized term set may be larger than the seed's.  Without it a
    step can only rescale the terms it keeps, so terms left over at k = 0
    never cancel later and k = 0 is the only step tried."""
    g = _as_function(seed, R)
    A = _solve_matrix(T, g, n_terms, tol)
    k_max = K_MAX if relocate else 0
    for k in range(k_max + 1):
        Tg = apply_singular(T, g, relocate=relocate, n_terms=n_terms, matrix=A)
        leftovers = _term_diff(Tg, g)
        if not leftovers:
            break
        g = Tg
    else:
        t = leftovers[0]
        raise PreconditionError(
            f"singular terms never stabilized within k <= {k_max} on D_{R}: "
            f"uncancelled {t.kind} term at {t.location} (weight {t.weight})")
    gbar = linear_combine([(1.0, g.regular), (-1.0, Tg.regular)])
    u, iters = _neumann(T, gbar, R, tol, A)
    fstar = SingularFunction(g.terms, linear_combine([(1.0, g.regular), (-1.0, u)]))
    residual = _residual(_remainder(T, fstar, relocate, n_terms, A), tol)
    return FixedPointResult(fstar, residual, iters,
                            f"generalized_seed({k})" if relocate else "direct")


def seeded_fixed_point(T: AffineCso, seed: Union[SeedSpec, SingularFunction],
                       R: float, tol: float,
                       n_terms: int = DEFAULT_TRUNCATION) -> FixedPointResult:
    """Direct route: requires f0 - T f0 already regular on D_R, which holds
    when every non-owning map sends the seed location outside its image."""
    return _stabilized(T, seed, R, tol, n_terms, relocate=False)


def generalized_seed_fixed_point(T: AffineCso, seed: Union[SeedSpec, SingularFunction],
                                 R: float, tol: float,
                                 n_terms: int = DEFAULT_TRUNCATION) -> FixedPointResult:
    """Generalized route: relocated terms allowed, k <= K_MAX steps."""
    return _stabilized(T, seed, R, tol, n_terms, relocate=True)


def derivative_route_fixed_point(T: AffineCso, i: int, m: int, R: float, tol: float,
                                 n_terms: int = DEFAULT_TRUNCATION) -> FixedPointResult:
    """Log-type fixed point at the fixed point of map i, built by fixing the
    m-th derivative.

    Needs a_i = 1, the induced operator contracting on D_R, map i's fixed
    point independent on D_R, and no polynomial fixed points of degree < m
    (otherwise the final correction solve is singular).
    """
    if m < 1:
        raise PreconditionError("derivative order must be >= 1")
    if not (0 <= i < T.ell):
        raise PreconditionError(f"term index {i} out of range")
    z_i = T.maps[i].z_fix
    make_seed(T, log_term(z_i))  # a_i = 1
    if not fixed_point_independence(T, i, R):
        raise PreconditionError(
            f"fixed point of map {i} is not independent on D_{R}")
    scan = poly_fp_degrees(T, m - 1)
    if scan.degrees:
        raise PreconditionError(
            f"polynomial fixed points exist at degrees {scan.degrees}; "
            "correction solve would be singular")
    Tm = induced_m(T, m)
    weight = math.factorial(m - 1) * (-1.0) ** (m - 1)
    seed = make_seed(Tm, pole_term(z_i, m, weight))
    inner_tol = tol / (4.0 * max(1.0, R) ** m)
    deriv = seeded_fixed_point(Tm, seed, R, inner_tol, n_terms)
    U = deriv.fixed_point.regular
    for _ in range(m):
        U = integrate_from_zero(U)
    h = SingularFunction((log_term(z_i, 1.0),), U)
    A = _solve_matrix(T, h, n_terms, tol)
    q = _remainder(T, h, False, n_terms, A)
    dust = q.tail_bound + float(np.sum(np.abs(q.coeffs[m:]) *
                                       R ** np.arange(m, q.coeffs.size)))
    if dust > max(tol, 1e-10 * max(1.0, l1_norm(q))):
        raise ConvergenceError(
            f"integrated remainder is not a degree-{m - 1} polynomial "
            f"(excess norm {dust:.3e})")
    r = np.zeros(max(m, q.coeffs.size), dtype=complex)
    r[:q.coeffs.size] = q.coeffs
    I_A = np.eye(m, dtype=complex) - A[:m, :m]
    p = np.linalg.solve(I_A, r[:m])
    corrected = linear_combine([(1.0, h.regular),
                                (1.0, DiscSeries(R, p, 0.0))])
    fstar = SingularFunction(h.terms, corrected)
    # T f* - f* = (T h - h) - (I - A) p: A is upper triangular, so only the
    # first m coefficients of q move, and the terms already cancelled on h
    r[:m] -= I_A @ p
    residual = _residual(DiscSeries(R, r, q.tail_bound), tol)
    return FixedPointResult(fstar, residual, deriv.iterations, f"derivative({m})")


def _as_function(seed: Union[SeedSpec, SingularFunction], R: float) -> SingularFunction:
    if isinstance(seed, SingularFunction):
        if seed.radius != R:
            raise PreconditionError(
                f"seed lives on D_{seed.radius}, requested D_{R}")
        return seed
    return SingularFunction((seed.term,), zero_series(R))
