"""Truncated complex power series on a disc D_R with the l1 coefficient norm.

A DiscSeries is the computational stand-in for an element of the Banach space
of analytic functions on D_R whose coefficient sequence is absolutely summable
against R^n.  It is kept in the unit-disc chart, f(z) = sum_k b_k (z/R)^k, so
the l1(R) norm is sum_k |b_k| and no operation forms a power of R: only the
plain coefficients c_k = b_k R^-k, read for reports, can overflow or
underflow.  Every operation propagates a conservative l1 bound on whatever
the truncation discarded, so downstream norms stay honest upper bounds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import PreconditionError

# Default number of retained coefficients c_0..c_{N-1}.
DEFAULT_TRUNCATION = 128


def require_finite(z: complex, what: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise PreconditionError(f"{what} must be finite, got {z!r}")
    return z


def _rescale(values: np.ndarray, radius: float, sign: int) -> np.ndarray:
    """values[k] * radius^(sign k), the power taken in two halves so that an
    entry overflows or underflows only where its result does; 0 stays 0."""
    if values.size == 1:  # b_0 = c_0, and most series built are constants
        return values
    k = np.arange(values.size)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        out = values * radius ** (sign * (k // 2)) * radius ** (sign * (k - k // 2))
    out[values == 0] = 0.0
    return out


@dataclass(frozen=True, eq=False)
class DiscSeries:
    """Scaled coefficients b_k = c_k R^k of f(z) = sum_k b_k (z/R)^k on the
    open disc of radius R; make_series takes plain coefficients c_k.

    tail_bound is an upper bound on the l1(R) norm of everything the
    truncation dropped; it is carried, never recomputed from data.  Series
    compare by identity (eq=False): == on the fields would reach the truth
    value of an array.
    """

    radius: float
    scaled: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise PreconditionError(f"radius must be positive and finite, got {self.radius}")
        if self.tail_bound < 0.0 or not math.isfinite(self.tail_bound):
            raise PreconditionError(f"tail_bound must be finite and >= 0, got {self.tail_bound}")
        arr = np.atleast_1d(np.asarray(self.scaled, dtype=complex)).reshape(-1)
        if arr.size == 0:
            arr = np.zeros(1, dtype=complex)
        if not np.all(np.isfinite(arr)):
            raise PreconditionError("series coefficients must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "scaled", arr)

    @property
    def coeffs(self) -> np.ndarray:
        """The plain c_k, read-only, for reports and tests: for R > 1 those
        of high degree may underflow to 0, for R < 1 overflow to inf."""
        c = _rescale(self.scaled, self.radius, -1)
        c.setflags(write=False)
        return c


def make_series(coeffs: Sequence[complex], radius: float) -> DiscSeries:
    """Exact series from plain coefficients c_k; tail_bound = 0."""
    vals = [require_finite(c, "coefficient") for c in coeffs] or [0.0]
    radius = float(radius)
    return DiscSeries(radius, _rescale(np.array(vals, dtype=complex), radius, 1))


def zero_series(radius: float) -> DiscSeries:
    return make_series([0.0], radius)


def l1_norm(f: DiscSeries) -> float:
    return float(np.abs(f.scaled).sum()) + f.tail_bound


def linear_combine(pairs: Iterable[tuple[complex, DiscSeries]]) -> DiscSeries:
    pairs = list(pairs)
    if not pairs:
        raise PreconditionError("linear_combine needs at least one term")
    radius = pairs[0][1].radius
    for _, f in pairs:
        if f.radius != radius:
            raise PreconditionError(
                f"mismatched radii in linear_combine: {f.radius} != {radius}")
    n = max(len(f.scaled) for _, f in pairs)
    out = np.zeros(n, dtype=complex)
    tail = 0.0
    for w, f in pairs:
        w = require_finite(w, "weight")
        out[: len(f.scaled)] += w * f.scaled
        tail += abs(w) * f.tail_bound
    return DiscSeries(radius, out, tail)


def integrate_from_zero(f: DiscSeries) -> DiscSeries:
    """Antiderivative along [0, z], vanishing at 0: b_k R / (k + 1) at k + 1."""
    out = np.zeros(len(f.scaled) + 1, dtype=complex)
    out[1:] = f.scaled / np.arange(1, len(f.scaled) + 1, dtype=float) * f.radius
    return DiscSeries(f.radius, out, f.tail_bound * f.radius)


def log_affine(
    a: complex,
    b: complex,
    radius: float,
    n_terms: int = DEFAULT_TRUNCATION,
) -> DiscSeries:
    """Series of log(a + b z) on D_radius, principal branch of log a.

    Mercator expansion log a + sum_{n>=1} (-1)^{n+1} (b/a)^n z^n / n, valid
    when the singularity -a/b lies strictly outside the closed disc, i.e.
    |b|*radius < |a|.  The chart takes powers of q = -(b/a) radius, |q| < 1.
    tail_bound is the geometric tail of the dropped terms.
    """
    a = require_finite(a, "a")
    b = require_finite(b, "b")
    radius = float(radius)
    if radius <= 0.0:
        raise PreconditionError("radius must be positive")
    if abs(b) * radius >= abs(a):
        raise PreconditionError(
            f"log_affine singularity inside closed disc: |b|R = {abs(b) * radius:.6g}"
            f" >= |a| = {abs(a):.6g}")
    if b == 0:
        return make_series([cmath.log(a)], radius)
    n_terms = max(int(n_terms), 2)
    q = -b / a * radius
    n = np.arange(1, n_terms, dtype=float)
    scaled = np.zeros(n_terms, dtype=complex)
    scaled[0] = cmath.log(a)
    scaled[1:] = -(q ** n) / n
    tail = abs(q) ** n_terms / (n_terms * (1.0 - abs(q)))
    return DiscSeries(radius, scaled, tail)


def eval_at(f: DiscSeries, z: complex) -> complex:
    """Horner evaluation of the retained polynomial in z / radius; |z| < radius."""
    z = require_finite(z, "evaluation point")
    if abs(z) >= f.radius:
        raise PreconditionError(
            f"evaluation point |z| = {abs(z):.6g} outside open disc of radius {f.radius:.6g}")
    w = z / f.radius
    acc = 0.0 + 0.0j
    for b in f.scaled[::-1]:
        acc = acc * w + b
    return complex(acc)
