"""Seeded fixed points of affine composition-sum operators.

Three construction routes, all returning the singular seed plus a computed
regular correction:

  generalized (k)  apply T to the seed f0 until the singular terms
                   stabilize, g = T^k f0, then f* = g - (I - T)^-1 (g - T g);
  direct           the same at k = 0, usable when f0 - T f0 is already
                   regular on the disc;
  derivative (m)   fix the m-th derivative with a pole seed under the
                   induced operator, integrate back to h, and correct by
                   the degree < m polynomial p with (I - T) p = T h - h on
                   the first m coefficients.

The operator matrix A = operator_matrix(T, n, R) acts in the unit-disc
chart of D_R that every series is kept in (see series), so no power of R
is formed.  It is upper triangular, so every correction solve
(I - A) u = q is a blocked back substitution (cso.back_substitute, the
package's one solver of I - A, which cso.poly_fixed_points shares).

All three end in one correction step: f* = g - u from a stabilized g, its
T g and the correction u (u = -p on the derivative route).  T is linear, so
T f* - f* = (T g - g) - (A u - u) is read from the last T g and gated
against tol; T is never applied to f* itself.

neumann_inverse, which no route calls, is the reference for that solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import AdmissibilityError, ConvergenceError, PreconditionError
from .cso import (
    REL_TOL,
    AffineCso,
    apply_series,
    apply_singular,
    back_substitute,
    certified_contraction_rate,
    check_image_discs,
    fixed_point_independence,
    induced_m,
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

MAX_ITER = 50_000  # neumann_inverse iterations before exit 3
MAX_TRUNCATION = 4096  # coefficients; the N x N matrix is 16 N^2 B, 256 MiB here
K_MAX = 8  # stabilization steps before the generalized route gives up


@dataclass(frozen=True)
class FixedPointResult:
    fixed_point: SingularFunction
    residual_norm: float
    route: str  # "direct", "generalized_seed(k)" or "derivative(m)"


def make_seed(T: AffineCso, term: SingularTerm) -> SingularTerm:
    """The seed term itself, once T admits it (exit 2 otherwise)."""
    v = seed_admissibility(T, term)
    if not v.admissible:
        raise AdmissibilityError(
            f"seed {term.kind} at {term.location}: operator coefficient "
            f"{v.coefficient} != required {v.required}")
    return term


def _check_request(n: int, tol: float) -> None:
    """Before any matrix is built: a tol that is not positive and finite is
    never met or cannot be reported, an n above MAX_TRUNCATION too large."""
    if not 0.0 < tol < math.inf:
        raise PreconditionError("tolerance must be positive and finite")
    if n > MAX_TRUNCATION:
        raise PreconditionError(
            f"truncation N exceeds the cap of {MAX_TRUNCATION} coefficients")


def _contraction_rate(T: AffineCso, R: float) -> float:
    """The certified rate K < 1 of T on D_R (exit 2 otherwise), with every
    image disc inside D_R, so that each application of T shrinks a dropped
    tail by K."""
    K = certified_contraction_rate(T, R)
    if not K < 1.0:
        raise PreconditionError(f"operator does not contract on D_{R} (rate {K})")
    check_image_discs(T, R)
    return K


def neumann_inverse(T: AffineCso, g: DiscSeries, R: float, tol: float) -> DiscSeries:
    """Solve (I - T) h = g on D_R by summing T^n g.

    Stops once the increment norm drops below tol*(1 - K), K the certified
    contraction rate, so the residual bound ||(I-T)h - g|| < tol holds.
    Exit 3 after MAX_ITER terms.  The routes solve by back substitution
    instead; this sum is the independent reference they are tested against.
    """
    _check_request(g.scaled.size, tol)
    # increment slack is tightened to K times the previous slack, which the
    # certified rate justifies; the raw per-term bound compounds by sum|a_i|
    K = _contraction_rate(T, R)
    stop = tol * (1.0 - K)
    # the loop runs on raw arrays and keeps the finiteness check a
    # DiscSeries makes of each new term
    A = operator_matrix(T, g.scaled.size, R)
    term, tail = g.scaled, g.tail_bound
    total = np.zeros(term.size, dtype=complex)
    total_tail = 0.0
    for n in range(MAX_ITER):
        if float(np.abs(term).sum()) + tail < stop:
            # nothing summed at n = 0: the one-coefficient zero series
            return DiscSeries(R, total if n else total[:1], total_tail)
        total += term
        total_tail += tail
        term = A @ term
        if not np.isfinite(term).all():
            raise PreconditionError("series coefficients must be finite")
        tail = K * tail
    raise ConvergenceError(
        f"Neumann series did not reach {tol} in {MAX_ITER} iterations "
        f"(rate {K:.6f}, last increment {float(np.abs(term).sum()) + tail:.3e})")


def _solve(T: AffineCso, q: DiscSeries, R: float, A: np.ndarray) -> DiscSeries:
    """u = (I - T)^-1 q on D_R by back substitution on the leading block
    of A.  T maps polynomials of degree < n to themselves, so the truncated
    system is exact, and the dropped tail of q costs at most tail/(1 - K)."""
    K = _contraction_rate(T, R)
    u = back_substitute(A[: q.scaled.size, : q.scaled.size], q.scaled)
    return DiscSeries(R, u, q.tail_bound / (1.0 - K))


def _term_diff(a: SingularFunction, b: SingularFunction) -> tuple:
    scale = max([1.0] + [abs(t.weight) for t in a.terms + b.terms])
    parts = [(1.0, t) for t in a.terms] + [(-1.0, t) for t in b.terms]
    return merge_terms(parts, drop_below=REL_TOL * scale)


def _solve_matrix(T: AffineCso, f: SingularFunction, n_terms: int,
                  tol: float) -> np.ndarray:
    """operator_matrix of T on f's disc at the largest length a solve from f
    meets: pullbacks expand to max(n_terms, 2) coefficients and T never
    lengthens a series, so every application in the solve uses a leading
    block.  tol and that length are checked first."""
    n = max(int(n_terms), 2, f.regular.scaled.size)
    _check_request(n, tol)
    return operator_matrix(T, n, f.radius)


def _stabilize(T: AffineCso, g: SingularFunction, A: np.ndarray, relocate: bool,
               n_terms: int) -> tuple[int, SingularFunction, SingularFunction]:
    """Apply T to g until the singular terms stabilize: the least k with
    terms(T^{k+1} g) = terms(T^k g), returned with that g and its T g.
    With `relocate`, singularities moved to interior preimages are tracked
    exactly, up to k = K_MAX, so the stabilized term set may be larger than
    g's.  Without it a step can only rescale the terms it keeps, so terms
    left over at k = 0 never cancel later and k = 0 is the only step tried."""
    k_max = K_MAX if relocate else 0
    for k in range(k_max + 1):
        Tg = apply_singular(T, g, relocate=relocate, n_terms=n_terms, matrix=A)
        leftovers = _term_diff(Tg, g)
        if not leftovers:
            return k, g, Tg
        g = Tg
    t = leftovers[0]
    raise PreconditionError(
        f"singular terms never stabilized within k <= {k_max} on D_{g.radius}: "
        f"uncancelled {t.kind} term at {t.location} (weight {t.weight})")


def _correct(T: AffineCso, g: SingularFunction, Tg: SingularFunction,
             u: DiscSeries, A: np.ndarray, tol: float) -> tuple[SingularFunction, float]:
    """The correction step of every route: f* = g - u, with ||T f* - f*||_R
    < tol or exit 3.  T is linear and T g keeps the singular terms of g, so
    T f* - f* = (T g - g) - (A u - u) is read from the last T g; T is never
    applied to f* itself."""
    Au = apply_series(T, u, A)
    residual = l1_norm(linear_combine([(1.0, Tg.regular), (-1.0, g.regular),
                                       (-1.0, Au), (1.0, u)]))
    if not residual < tol:
        raise ConvergenceError(f"residual {residual:.3e} above tolerance {tol}")
    return SingularFunction(g.terms, linear_combine([(1.0, g.regular), (-1.0, u)])), residual


def _stabilized(T: AffineCso, seed: Union[SingularTerm, SingularFunction], R: float,
                tol: float, n_terms: int, relocate: bool) -> FixedPointResult:
    """g = T^k seed stabilized, then the correction u = (I - T)^-1 (g - T g)
    from that g and its T g."""
    g = _as_function(seed, R)
    A = _solve_matrix(T, g, n_terms, tol)
    k, g, Tg = _stabilize(T, g, A, relocate, n_terms)
    u = _solve(T, linear_combine([(1.0, g.regular), (-1.0, Tg.regular)]), R, A)
    fstar, residual = _correct(T, g, Tg, u, A, tol)
    return FixedPointResult(fstar, residual,
                            f"generalized_seed({k})" if relocate else "direct")


def seeded_fixed_point(T: AffineCso, seed: Union[SingularTerm, SingularFunction],
                       R: float, tol: float,
                       n_terms: int = DEFAULT_TRUNCATION) -> FixedPointResult:
    """Direct route: requires f0 - T f0 already regular on D_R, which holds
    when every non-owning map sends the seed location outside its image."""
    return _stabilized(T, seed, R, tol, n_terms, relocate=False)


def generalized_seed_fixed_point(T: AffineCso, seed: Union[SingularTerm, SingularFunction],
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
    try:
        deriv = seeded_fixed_point(Tm, seed, R, inner_tol, n_terms)
    except ConvergenceError as e:
        raise ConvergenceError(
            f"induced operator's order-{m} solve, at its tolerance "
            f"tol/(4 max(1, R)^{m}) for tol {tol}: {e}") from None
    U = deriv.fixed_point.regular
    for _ in range(m):
        U = integrate_from_zero(U)
    h = SingularFunction((log_term(z_i, 1.0),), U)
    A = _solve_matrix(T, h, n_terms, tol)
    _, _, Th = _stabilize(T, h, A, False, n_terms)
    # u = -p, p the degree < m polynomial with (I - A) p = T h - h on the
    # first m coefficients; A is upper triangular, so (I - A) p has degree < m
    q = linear_combine([(1.0, Th.regular), (-1.0, h.regular)])
    p = back_substitute(A[:m, :m], np.pad(q.scaled, (0, m))[:m])
    fstar, residual = _correct(T, h, Th, DiscSeries(R, -p), A, tol)
    return FixedPointResult(fstar, residual, f"derivative({m})")


def _as_function(seed: Union[SingularTerm, SingularFunction], R: float) -> SingularFunction:
    if isinstance(seed, SingularFunction):
        if seed.radius != R:
            raise PreconditionError(
                f"seed lives on D_{seed.radius}, requested D_{R}")
        return seed
    return SingularFunction((seed,), zero_series(R))
