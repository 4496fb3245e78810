"""Truncated complex power series on a disc D_R with the l1 coefficient norm.

A DiscSeries is the computational stand-in for an element of the Banach space
of analytic functions on D_R whose coefficient sequence is absolutely summable
against R^n.  Every operation propagates a conservative l1 bound on whatever
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


@dataclass(frozen=True, eq=False)
class DiscSeries:
    """Coefficients c_0..c_N about 0, valid on the open disc of given radius.

    tail_bound is an upper bound on the l1(R) norm of everything the
    truncation dropped; it is carried, never recomputed from data.  Series
    compare by identity (eq=False): == on the fields would reach the truth
    value of an array.
    """

    radius: float
    coeffs: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise PreconditionError(f"radius must be positive and finite, got {self.radius}")
        if self.tail_bound < 0.0 or not math.isfinite(self.tail_bound):
            raise PreconditionError(f"tail_bound must be finite and >= 0, got {self.tail_bound}")
        arr = np.atleast_1d(np.asarray(self.coeffs, dtype=complex)).reshape(-1)
        if arr.size == 0:
            arr = np.zeros(1, dtype=complex)
        if not np.all(np.isfinite(arr)):
            raise PreconditionError("series coefficients must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def order(self) -> int:
        """Truncation order N (highest retained power)."""
        return len(self.coeffs) - 1


def make_series(coeffs: Sequence[complex], radius: float) -> DiscSeries:
    """Exact series from explicit coefficients; tail_bound = 0."""
    vals = [require_finite(c, "coefficient") for c in coeffs]
    if not vals:
        vals = [0.0 + 0.0j]
    return DiscSeries(float(radius), np.array(vals, dtype=complex))


def zero_series(radius: float) -> DiscSeries:
    return make_series([0.0], radius)


def l1_norm(f: DiscSeries) -> float:
    powers = f.radius ** np.arange(len(f.coeffs), dtype=float)
    return float(np.abs(f.coeffs) @ powers) + f.tail_bound


def linear_combine(pairs: Iterable[tuple[complex, DiscSeries]]) -> DiscSeries:
    pairs = list(pairs)
    if not pairs:
        raise PreconditionError("linear_combine needs at least one term")
    radius = pairs[0][1].radius
    for _, f in pairs:
        if f.radius != radius:
            raise PreconditionError(
                f"mismatched radii in linear_combine: {f.radius} != {radius}")
    n = max(len(f.coeffs) for _, f in pairs)
    out = np.zeros(n, dtype=complex)
    tail = 0.0
    for w, f in pairs:
        w = require_finite(w, "weight")
        out[: len(f.coeffs)] += w * f.coeffs
        tail += abs(w) * f.tail_bound
    return DiscSeries(radius, out, tail)


def integrate_from_zero(f: DiscSeries) -> DiscSeries:
    """Antiderivative along [0, z], vanishing at 0."""
    out = np.zeros(len(f.coeffs) + 1, dtype=complex)
    out[1:] = f.coeffs / np.arange(1, len(f.coeffs) + 1, dtype=float)
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
    |b|*radius < |a|.  tail_bound is the geometric tail of the dropped terms.
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
    ratio = -b / a
    n = np.arange(1, n_terms, dtype=float)
    coeffs = np.zeros(n_terms, dtype=complex)
    coeffs[0] = cmath.log(a)
    coeffs[1:] = -(ratio ** n) / n
    q = abs(ratio) * radius  # < 1
    tail = q**n_terms / (n_terms * (1.0 - q))
    return DiscSeries(radius, coeffs, tail)


def eval_at(f: DiscSeries, z: complex) -> complex:
    """Horner evaluation of the retained polynomial; |z| must be < radius."""
    z = require_finite(z, "evaluation point")
    if abs(z) >= f.radius:
        raise PreconditionError(
            f"evaluation point |z| = {abs(z):.6g} outside open disc of radius {f.radius:.6g}")
    acc = 0.0 + 0.0j
    for c in f.coeffs[::-1]:
        acc = acc * z + c
    return complex(acc)
