"""Functions analytic on a disc apart from log and pole singularities.

A SingularFunction is a finite weighted sum of symbolic terms, log(z - z0) or
(z - z0)^{-k}, plus a DiscSeries regular part.  Pullback under an affine map
is exact term algebra; branch constants from splitting logs are absorbed into
the regular part, so additive identities hold up to multiples of 2*pi*i and
multiplicative (exponentiated) identities hold exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import NonSimpleConfigurationError, PreconditionError
from .series import (
    DEFAULT_TRUNCATION,
    DiscSeries,
    eval_at,
    linear_combine,
    log_affine,
    make_series,
    require_finite,
    zero_series,
)

if TYPE_CHECKING:
    from .cso import AffineMap

LOG = "log"
POLE = "pole"
REG_MARGIN = 1e-6  # relative band outside the disc that pullback_term refuses


@dataclass(frozen=True)
class SingularTerm:
    kind: str
    location: complex
    weight: complex
    order: int = 0  # pole order; 0 for log terms

    def __post_init__(self):
        if self.kind not in (LOG, POLE):
            raise PreconditionError(f"unknown singular kind {self.kind!r}")
        if self.kind == POLE and self.order < 1:
            raise PreconditionError("pole order must be >= 1")
        if self.kind == LOG and self.order != 0:
            raise PreconditionError("log terms carry no order")
        loc = require_finite(self.location, "location")
        w = require_finite(self.weight, "weight")
        if w == 0:
            raise PreconditionError("zero-weight singular terms are not representable")
        object.__setattr__(self, "location", loc)
        object.__setattr__(self, "weight", w)

    @property
    def key(self) -> tuple:
        return (self.kind, self.location, self.order)


def log_term(location: complex, weight: complex = 1.0) -> SingularTerm:
    return SingularTerm(LOG, location, weight)


def pole_term(location: complex, order: int, weight: complex = 1.0) -> SingularTerm:
    return SingularTerm(POLE, location, weight, int(order))


@dataclass(frozen=True)
class SingularFunction:
    terms: tuple[SingularTerm, ...]
    regular: DiscSeries

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        seen = set()
        for t in self.terms:
            if abs(t.location) >= self.regular.radius:
                raise PreconditionError(
                    f"singular location {t.location} not strictly inside disc"
                    f" of radius {self.regular.radius}")
            if t.key in seen:
                raise PreconditionError(f"duplicate singular term {t.key}")
            seen.add(t.key)

    @property
    def radius(self) -> float:
        return self.regular.radius


def purely_regular(g: DiscSeries) -> SingularFunction:
    return SingularFunction((), g)


def merge_terms(parts: Iterable[tuple[complex, SingularTerm]],
                drop_below: float = 0.0) -> tuple[SingularTerm, ...]:
    """Weight-sum terms sharing a key; drop results with |weight| <= drop_below.

    Insertion order of first appearance is kept so the output is deterministic.
    """
    acc: dict[tuple, SingularTerm] = {}
    totals: dict[tuple, complex] = {}
    for w, t in parts:
        k = t.key
        totals[k] = totals.get(k, 0.0) + complex(w) * t.weight
        acc.setdefault(k, t)
    out = []
    for k, proto in acc.items():
        if abs(totals[k]) > drop_below:
            out.append(replace(proto, weight=totals[k]))
    return tuple(out)


def eval_term(t: SingularTerm, z: complex) -> complex:
    u = complex(z) - t.location
    if u == 0:
        raise PreconditionError(f"evaluation at singular location {t.location}")
    if t.kind == LOG:
        return t.weight * cmath.log(u)
    return t.weight * u ** (-t.order)


def eval_singular(f: SingularFunction, z: complex) -> complex:
    if abs(z) >= f.radius:
        raise PreconditionError("evaluation point outside open disc")
    return sum((eval_term(t, z) for t in f.terms), start=0j) + eval_at(f.regular, z)


def unbounded_set(f: SingularFunction) -> set[complex]:
    return {t.location for t in f.terms}


def _inverse_power_series(a: complex, b: complex, k: int, radius: float,
                          n_terms: int = DEFAULT_TRUNCATION) -> DiscSeries:
    """Series of (a + b z)^{-k} on D_radius, with a rigorous geometric tail.

    Needs |b| * radius < |a|.  Chart coefficients a^{-k} C(n+k-1, k-1) q^n,
    q = -(b/a) radius, |q| < 1.
    """
    if abs(b) * radius >= abs(a):
        raise PreconditionError("inverse power singularity inside closed disc")
    if b == 0:
        return make_series([a ** (-k)], radius)
    q = -b / a * radius
    lead = a ** (-complex(k))
    n_terms = max(int(n_terms), 2)
    n = np.arange(n_terms)
    binom = np.array([math.comb(m + k - 1, k - 1) for m in n], dtype=float)
    scaled = lead * binom * q ** n
    # tail: terms m_n = C(n+k-1,k-1) |q|^n; the ratio m_{n+1}/m_n =
    # |q| (n+k)/(n+1) decreases in n, so once it drops below 1 the tail is
    # geometric.  Extend the index until that happens.
    qr = abs(q)
    m = n_terms
    mag = binom[-1] * qr ** (n_terms - 1)
    extra = 0.0
    while True:
        rho = qr * (m + k - 1) / m
        mag *= rho
        if rho < 1.0:
            tail = extra + mag / (1.0 - rho)
            break
        extra += mag
        m += 1
        if m > 10 * n_terms + 10000:
            raise PreconditionError("inverse power tail does not certify; radius too close")
    return DiscSeries(radius, scaled, abs(lead) * tail)


def pullback_term(
    term: SingularTerm,
    map: "AffineMap",
    disc_radius: float,
    *,
    relocate: bool = False,
    n_terms: int = DEFAULT_TRUNCATION,
) -> SingularFunction:
    """Exact representation of term(map(z)) on D_{disc_radius}.

    A location strictly outside the closure of map(D_radius), by more than
    REG_MARGIN, becomes purely regular.  Otherwise the term moves to its
    preimage w: a log gains the constant weight*log s, a pole scales by
    s^{-k}.  A term at the map's own fixed point is its own preimage and
    stays put; any other interior preimage is rejected unless `relocate`.
    """
    s, t = complex(map.s), complex(map.t)
    z0 = term.location
    radius = float(disc_radius)
    fixes = map.fixes(z0)
    if s == 0:
        if fixes or t == z0:
            raise NonSimpleConfigurationError(
                "constant map lands on the singular location")
        # constant composition: term evaluated at t
        return purely_regular(make_series([eval_term(term, t)], radius))
    w = z0 if fixes else (z0 - t) / s
    if not fixes:
        if abs(w) > radius * (1.0 + REG_MARGIN):
            if term.kind == LOG:
                g = log_affine(t - z0, s, radius, n_terms)
            else:
                g = _inverse_power_series(t - z0, s, term.order, radius, n_terms)
            return purely_regular(linear_combine([(term.weight, g)]))
        if not relocate:
            raise NonSimpleConfigurationError(
                f"singularity at {z0} relocates inside the disc (preimage {w})")
        if abs(w) >= radius:
            # inside the margin band: too close to the rim to classify either way
            raise NonSimpleConfigurationError(
                f"relocated singularity {w} lands on the classification margin")
    if term.kind == LOG:
        moved = log_term(w, term.weight)
        const = make_series([term.weight * cmath.log(s)], radius)
        return SingularFunction((moved,), const)
    moved = pole_term(w, term.order, term.weight * s ** (-term.order))
    return SingularFunction((moved,), zero_series(radius))
