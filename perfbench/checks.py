"""Checks of each request's output, made apart from the program's own gates.

Each check raises CheckFailed on a wrong output and otherwise returns the
request's tolerance use: the largest ratio of a checked error to its
documented tolerance (solver residual / tol, oracle difference / 1e-6,
ratio_dev / 1e-6, kernel residual / 1e-10, identity error / 1e-4,
eigenvalue error / 1e-10).

Solver outputs are checked from the JSON report alone: the benchmark rebuilds
f from the reported terms and coefficients and evaluates f - Tf at seeded
points with its own arithmetic.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from csofix import cso

W = (math.sqrt(5.0) - 1.0) / 2.0
EPS = np.finfo(float).eps
TWO_PI_I = 2j * math.pi


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


# -- solve ------------------------------------------------------------------

class ReportedFunction:
    """f = sum of weighted log / pole terms + a polynomial, from a report."""

    def __init__(self, outputs: dict):
        self.terms = [(t["kind"], _c(t["location"]), _c(t["weight"]), t["order"])
                      for t in outputs["terms"]]
        self.coeffs = np.array([_c(c) for c in outputs["series"]["coefficients"]])

    def eval(self, x: complex) -> tuple[complex, float]:
        """Value at x and the sum of magnitudes of its parts (for rounding)."""
        powers = x ** np.arange(self.coeffs.size)
        parts = self.coeffs * powers
        value, scale = complex(parts.sum()), float(np.abs(parts).sum())
        for kind, loc, weight, order in self.terms:
            u = x - loc
            piece = weight * (cmath.log(u) if kind == "log" else u ** (-order))
            value += piece
            scale += abs(piece)
        return value, scale

    @property
    def log_weights(self) -> list[complex]:
        return [w for kind, _, w, _ in self.terms if kind == "log"]


def _branch_residual(d: complex, coeffs: list[complex], log_weights: list[complex]) -> float:
    """|d| up to the branch ambiguity of the principal logs.

    Each log evaluation may differ from the solver's branch by 2 pi i k,
    k in {-1, 0, 1}, times the evaluation's coefficient and the term's
    weight.  Integer multiples are removed modulo 2 pi i g (g their gcd);
    the few non-integer ones are enumerated."""
    if not log_weights:
        return abs(d)
    step, extra = 0, []
    for c in coeffs:
        for w in log_weights:
            m = c * w
            k = round(m.real)
            if abs(m - k) <= 1e-9:
                step = math.gcd(step, abs(k))
            else:
                extra.append(TWO_PI_I * m)
    _require(len(extra) <= 8, "too many non-integer branch shifts to enumerate")
    best = math.inf
    shifts = np.array(np.meshgrid(*[[-1, 0, 1]] * len(extra))).reshape(len(extra), -1).T \
        if extra else np.zeros((1, 0))
    for ks in shifts:
        x = d + sum(k * g for k, g in zip(ks, extra))
        if step:
            period = 2.0 * math.pi * step
            x -= 1j * period * round(x.imag / period)
        best = min(best, abs(x))
    return best


def _evaluations(terms, pin, z: complex) -> list[tuple[complex, complex]]:
    """(coefficient, point) pairs with f - T f = sum coefficient * f(point).

    For a pinned operator T_c f = T f - T f(c)."""
    out = [(1.0, z)]
    for a, s, fix in terms:
        out.append((-a, s * (z - fix) + fix))
    if pin is not None:
        for a, s, fix in terms:
            out.append((a, s * (pin - fix) + fix))
    return out


def check_fixpoint(outputs: dict, terms, pin, R: float, tol: float, truncation: int,
                   raw_points: np.ndarray, expected_route: str,
                   expected_terms) -> float:
    route = outputs["route"]
    _require(route.startswith(expected_route), f"route {route}, expected {expected_route}")
    _require(outputs["radius"] == R, f"radius {outputs['radius']} != {R}")
    residual = outputs["residual"]
    _require(residual["tolerance"] == tol, "tolerance not echoed")
    _require(residual["value"] < tol, f"residual {residual['value']} >= {tol}")
    f = ReportedFunction(outputs)
    for kind, loc, weight in expected_terms:
        _require(any(k == kind and abs(l - loc) <= 1e-12 and abs(w - weight) <= 1e-9
                     for k, l, w, _ in f.terms), f"seed {kind} term at {loc} missing")
    locations = [loc for _, loc, _, _ in f.terms]
    checked = 0
    for u, v in raw_points:
        z = 0.9 * R * math.sqrt(u) * cmath.exp(TWO_PI_I * v)
        evals = _evaluations(terms, pin, z)
        if any(abs(x - loc) < 1e-3 * R for _, x in evals for loc in locations):
            continue
        d, scale = 0j, 0.0
        for c, x in evals:
            value, mag = f.eval(x)
            d += c * value
            scale += abs(c) * mag
        r = _branch_residual(d, [c for c, _ in evals], f.log_weights)
        bound = tol + 4 * truncation * EPS * scale
        _require(r <= bound, f"|f - Tf| = {r:.3e} at z={z:.4f} above {bound:.3e}")
        checked += 1
        if checked == 4:
            break
    _require(checked > 0, "no evaluation point clear of the singular set")
    return residual["value"] / tol


# -- certify ------------------------------------------------------------------

def make_operator(terms, pin=None):
    """The AffineCso of (a, s, fix) triples, pinned at `pin` if given."""
    T = cso.make_cso([(a, cso.AffineMap(s, fix)) for a, s, fix in terms])
    return T if pin is None else cso.pinned(T, pin)


def check_diagnose(outputs: dict, terms, R: float, pin, sample_n) -> float:
    """certified_rate bounds every scanned ratio, agrees with is_contraction,
    and sampled ratios match basis_image_norm, the direct binomial sum kept
    as the reference.  Ratios may differ by rounding, which is bounded by the
    analytic majorant sum_i |a_i| (|s_i| + |t_i|/R)^n."""
    _require(outputs["radius"] == R, "radius not echoed")
    ratios = [float(r) for r in outputs["ratios"]]
    _require(len(ratios) == 201, f"{len(ratios)} ratios, expected 201")
    _require(all(math.isfinite(r) for r in ratios), "non-finite ratio")
    rate = float(outputs["certified_rate"])
    _require(rate >= max(ratios), f"certified rate {rate} below max ratio {max(ratios)}")
    _require(outputs["is_contraction"] == (rate < 1.0), "is_contraction disagrees with rate")
    T = make_operator(terms, pin)
    for n in sample_n:
        ref = cso.basis_image_norm(T, n, R) / R ** n
        majorant = sum(abs(a) * (abs(m.s) + abs(m.t) / R) ** n for a, m in T.terms)
        _require(abs(ratios[n] - ref) <= 1e-9 * majorant,
                 f"ratio[{n}] = {ratios[n]!r}, reference {ref!r}")
    return 0.0


def check_polyfix(outputs: dict, terms, m: int, depth: int, points) -> float:
    """Kernel residuals under 1e-10, the planted degree found, and every
    basis polynomial p satisfying p = Tp at seeded points of D_1."""
    _require(outputs["m_max"] == depth, "m_max not echoed")
    kr = outputs["kernel_residuals"]
    _require(kr["tolerance"] == 1e-10, "kernel tolerance changed")
    residuals = kr["values"]
    _require(all(r < 1e-10 for r in residuals), f"kernel residual {max(residuals, default=0)}")
    _require(m in outputs["degrees"], f"planted degree {m} not in {outputs['degrees']}")
    basis = [np.array([_c(c) for c in v]) for v in outputs["basis"]]
    _require(len(basis) == len(residuals), "one residual per basis vector")
    # null vectors carry rounding noise (~1e-16) above their true degree
    leads = [int(np.max(np.nonzero(np.abs(v) > 1e-9 * np.abs(v).max())[0])) for v in basis]
    _require(m in leads, f"no basis polynomial of degree {m}")
    for v in basis:
        for z in points:
            d, scale = 0j, 0.0
            for c, x in _evaluations(terms, None, z):
                parts = v * x ** np.arange(v.size)
                d += c * parts.sum()
                scale += abs(c) * float(np.abs(parts).sum())
            bound = (depth + 1) * 1e-10 + 4 * depth * EPS * scale
            _require(abs(d) <= bound, f"|p - Tp| = {abs(d):.3e} above {bound:.3e}")
    return max(residuals, default=0.0) / 1e-10


def check_sfs(outputs: dict, n: int) -> float:
    _require(outputs["n"] == n, "n not echoed")
    _require(outputs["fixed_vector_exact"] is True, "T(x - 1) != x - 1")
    eig = sorted((_c(e) for e in outputs["eigenvalues"]), key=lambda e: -e.real)
    expected = sorted([4.0 ** (1 - k) for k in range(1, n + 1)] + [0.0] * n, reverse=True)
    _require(len(eig) == 2 * n, "wrong number of eigenvalues")
    err = max(max(abs(e.real - x), abs(e.imag)) for e, x in zip(eig, expected))
    _require(err < 1e-10, f"eigenvalue error {err:.3e}")
    return err / 1e-10


# -- oracle -------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def identity_product(depth: int) -> float:
    """P_depth over all words of length <= depth, computed here from the two
    maps -w z and w^2 z + w; a word extended on the right by map j has rate
    s_w s_j and shift s_w t_j + t_w."""
    s, t, p = np.array([1.0]), np.array([0.0]), 1.0
    for _ in range(depth + 1):
        p *= float(np.prod((1.0 + W * (s * W + t)) / (1.0 + W * (-s * W + t))))
        s, t = np.concatenate([-W * s, W * W * s]), np.concatenate([t, W * s + t])
    return p


def check_golden_fp(outputs: dict, tol: float) -> float:
    _require(outputs["depth"] == 18, "depth not echoed")
    residual = outputs["residual"]["value"]
    _require(residual < tol, f"residual {residual} >= {tol}")
    rows = outputs["comparison"]
    _require(len(rows) == 20, f"{len(rows)} comparison points, expected 20")
    diffs = [abs(_c(r["engine"]) - _c(r["oracle"])) for r in rows]
    worst = outputs["max_abs_diff"]["value"]
    _require(math.isclose(worst, max(diffs), rel_tol=1e-12), "max_abs_diff misreported")
    _require(worst < 1e-6, f"engine vs oracle {worst:.3e} >= 1e-6")
    pin = outputs["pin_value"]["value"]
    _require(pin < 1e-6, f"pin value {pin:.3e} >= 1e-6")
    return max(worst / 1e-6, residual / tol, pin / 1e-6)


def check_word_pair(pair, depth: int, z: complex) -> float:
    """exp(f1 - f2) = w z / (z - 1) P_depth holds exactly for the partial
    sums, so it checks both sums branch-free."""
    f1, f2 = pair
    expected = W * z / (z - 1.0) * identity_product(depth)
    dev = abs(cmath.exp(f1 - f2) / expected - 1.0)
    _require(dev < 1e-6, f"word-sum ratio deviation {dev:.3e} at z={z}")
    return dev / 1e-6


def check_figure(table: np.ndarray, grid: np.ndarray) -> float:
    _require(table.shape == (grid.size, 4), f"table shape {table.shape}")
    _require(bool(np.array_equal(table[:, 0], grid)), "grid column changed")
    dev = float(np.max(table[:, 3]))
    _require(dev < 1e-6, f"ratio_dev {dev:.3e} >= 1e-6")
    return dev / 1e-6


def check_identity(prods: np.ndarray, depth: int) -> float:
    _require(prods.shape == (depth + 1,), f"{prods.shape} partial products")
    final = float(prods[-1])
    _require(math.isclose(final, identity_product(depth), rel_tol=1e-9),
             f"P_{depth} = {final!r}, recomputed {identity_product(depth)!r}")
    err = abs(final - (1.0 + W))
    _require(err < 1e-4, f"identity error {err:.3e} >= 1e-4")
    return err / 1e-4
