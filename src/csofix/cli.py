"""Batch front end: JSON operator configs in, JSON reports and CSV data out.

Subcommands: diagnose, fixpoint, polyfix, golden {fp,identity,figure,sfs}.
Exit codes: 0 success, 2 precondition or admissibility failure, 3
convergence failure.  Reports are deterministic apart from the wall_time_s
field; complex numbers are serialized as [re, im] pairs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ConvergenceError, PreconditionError
from . import golden
from .cso import (
    AffineCso,
    AffineMap,
    contraction_report,
    fixed_point_independence,
    make_cso,
    operator_matrix,
    pinned,
    poly_fixed_points,
    poly_fp_degrees,
    simplicity_check,
)
from .fixpoint import (
    derivative_route_fixed_point,
    generalized_seed_fixed_point,
    make_seed,
    seeded_fixed_point,
)
from .golden import make_M, word_fixed_point
from .series import DEFAULT_TRUNCATION, l1_norm
from .singular import SingularTerm, eval_singular, log_term, pole_term

DEFAULT_MU = 0.999


@dataclass(frozen=True)
class OperatorConfig:
    cso: AffineCso
    radius: float
    mu: float = DEFAULT_MU
    truncation: int = DEFAULT_TRUNCATION


def _number(v, where: str) -> float:
    """A JSON number as a finite float.  Booleans, and numbers that are not
    finite or too large for a float, exit 2."""
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or not abs(v) <= sys.float_info.max):
        raise PreconditionError(f"{where}: expected finite number, got {v!r}")
    return float(v)


def _pair(v, where: str) -> complex:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise PreconditionError(f"{where}: expected [re, im] pair, got {v!r}")
    return complex(_number(v[0], where), _number(v[1], where))


def parse_config(text: str) -> OperatorConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise PreconditionError(f"config is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise PreconditionError("config must be a JSON object")
    if "radius" not in doc:
        raise PreconditionError("config missing required field 'radius'")
    radius = _number(doc["radius"], "radius")
    if not radius > 0:
        raise PreconditionError(f"radius: expected finite number > 0, got {radius!r}")
    raw_terms = doc.get("terms")
    if not isinstance(raw_terms, list) or not raw_terms:
        raise PreconditionError("config needs a nonempty 'terms' list")
    terms = []
    for i, item in enumerate(raw_terms):
        where = f"terms[{i}]"
        if not isinstance(item, dict):
            raise PreconditionError(f"{where}: expected object")
        for fieldname in ("a", "s", "fix"):
            if fieldname not in item:
                raise PreconditionError(f"{where}: missing field '{fieldname}'")
        a = _pair(item["a"], f"{where}.a")
        s = _pair(item["s"], f"{where}.s")
        fix = _pair(item["fix"], f"{where}.fix")
        if a == 0:
            raise PreconditionError(f"{where}.a: zero coefficient")
        if abs(s) >= 1:
            raise PreconditionError(f"{where}.s: |s| >= 1")
        terms.append((a, AffineMap(s, fix)))
    mu = _number(doc.get("mu", DEFAULT_MU), "mu")
    if not 0 < mu <= 1:
        raise PreconditionError(f"mu: expected number in (0, 1], got {mu!r}")
    truncation = doc.get("truncation", DEFAULT_TRUNCATION)
    if not isinstance(truncation, int) or truncation < 2:
        raise PreconditionError(f"truncation: expected integer >= 2, got {truncation!r}")
    return OperatorConfig(make_cso(terms), radius, mu, truncation)


def _c(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _num(v) -> object:
    v = float(v)
    return v if math.isfinite(v) else repr(v)


def _report(command: Sequence[str], digest: str, outputs: dict,
            started: float) -> dict:
    return {
        "command": list(command),
        "inputs_digest": digest,
        "outputs": outputs,
        "wall_time_s": time.perf_counter() - started,
    }


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if out:
        Path(out).write_text(text)


def _operator(cfg: OperatorConfig, pin: Optional[complex]) -> AffineCso:
    return pinned(cfg.cso, pin) if pin is not None else cfg.cso


def run_diagnose(cfg: OperatorConfig, radius: Optional[float] = None,
                 pin: Optional[complex] = None) -> dict:
    T = _operator(cfg, pin)
    R = cfg.radius if radius is None else radius
    rep = contraction_report(T, cfg.mu, R)
    cert = rep.certificate
    scan = poly_fp_degrees(cfg.cso, 50)
    fixes = sorted({m.z_fix for m in cfg.cso.maps}, key=lambda z: (z.real, z.imag))
    simple = simplicity_check(cfg.cso, fixes)
    return {
        "radius": R,
        "mu": rep.mu,
        "R0": rep.R0,
        "N": cert.N,
        "is_contraction": cert.is_contraction,
        "certified_rate": _num(cert.rate),
        "ratios": [_num(r) for r in cert.ratios],
        "ratio_tail_bound_index": len(cert.ratios),
        "poly_degrees": list(scan.degrees),
        "poly_degree_cutoff": scan.cutoff,
        "independence": [fixed_point_independence(cfg.cso, i, R)
                         for i in range(cfg.cso.ell)],
        "simplicity": [{"point": _c(v.point), "ok": v.ok,
                        "fixed_by": list(v.fixed_by), "reason": v.reason}
                       for v in simple],
    }


def _seed_term(kind: str, location: complex, order: int) -> SingularTerm:
    if kind == "log":
        return log_term(location)
    if kind == "pole":
        return pole_term(location, order)
    raise PreconditionError(f"unknown seed kind {kind!r}")


def run_fixpoint(cfg: OperatorConfig, kind: str, location: complex, order: int,
                 route: str, tol: float, radius: Optional[float] = None,
                 pin: Optional[complex] = None) -> dict:
    T = _operator(cfg, pin)
    R = cfg.radius if radius is None else radius
    term = _seed_term(kind, location, order)
    n_terms = cfg.truncation
    if route in ("direct", "generalized"):
        solve = seeded_fixed_point if route == "direct" else generalized_seed_fixed_point
        result = solve(T, make_seed(T, term), R, tol, n_terms=n_terms)
    elif route == "derivative":
        v = next((i for i, m in enumerate(T.maps) if m.fixes(location)), None)
        if v is None:
            raise PreconditionError(f"no map fixes seed location {location}")
        result = derivative_route_fixed_point(T, v, order, R, tol, n_terms=n_terms)
    else:
        raise PreconditionError(f"unknown route {route!r}")
    f = result.fixed_point
    coeffs = f.regular.coeffs  # c_k = b_k R^-k, which a small R can overflow
    if not np.isfinite(coeffs).all():
        raise PreconditionError("reported coefficient overflows float64 at degree "
                                f"{int(np.argmin(np.isfinite(coeffs)))} on D_{R}")
    return {
        "route": str(result.route),
        "radius": R,
        "residual": {"value": result.residual_norm, "tolerance": tol},
        "terms": [{"kind": t.kind, "location": _c(t.location),
                   "weight": _c(t.weight), "order": t.order} for t in f.terms],
        "series": {"coefficients": [_c(v) for v in coeffs],
                   "tail_bound": f.regular.tail_bound},
        "norm": {"value": l1_norm(f.regular), "tail_bound": f.regular.tail_bound},
    }


def run_golden_fp(depth: int, tol: float) -> dict:
    T = pinned(make_M(), golden.C2)
    seed = make_seed(T, log_term(1.0))
    result = generalized_seed_fixed_point(T, seed, 2.0, tol)
    rows = []
    worst = 0.0
    points = golden.oracle_comparison_points()
    for z, oracle in zip(points, word_fixed_point(2, depth, points).tolist()):
        engine = eval_singular(result.fixed_point, z)
        d = abs(engine - oracle)
        worst = max(worst, d)
        rows.append({"z": _c(z), "engine": _c(engine), "oracle": _c(oracle),
                     "abs_diff": d})
    pin_val = abs(eval_singular(result.fixed_point, golden.C2))
    return {
        "route": str(result.route),
        "depth": depth,
        "residual": {"value": result.residual_norm, "tolerance": tol},
        "comparison": rows,
        "max_abs_diff": {"value": worst, "tolerance": 1e-6},
        "pin_value": {"value": pin_val, "tolerance": 1e-6},
    }


def run_golden_identity(depth: int) -> dict:
    prods = golden.identity_partial_products(depth)
    target = 1.0 + golden.OMEGA
    return {
        "depth": depth,
        "partial_products": [float(p) for p in prods],
        "limit": target,
        "final_error": {"value": abs(float(prods[-1]) - target),
                        "tolerance": 1e-4},
    }


def run_golden_figure(depth: int, out: str,
                      grid: Optional[np.ndarray] = None) -> dict:
    if grid is None:
        grid = golden.default_figure_grid()
    table = golden.figure_data(grid, depth)
    lines = ["x,re_exp_f1,re_exp_f2,ratio_dev"]
    lines += [",".join(repr(float(v)) for v in row) for row in table]
    Path(out).write_text("\n".join(lines) + "\n", newline="\n")
    return {
        "depth": depth,
        "rows": int(table.shape[0]),
        "csv": out,
        "max_ratio_dev": {"value": float(np.max(table[:, 3])),
                          "tolerance": 1e-6},
    }


def run_golden_sfs(n: int) -> dict:
    A, eig = golden.sfs_spectrum(n)
    v = golden.sfs_fixed_vector(n)
    fixed = [sum(A[r][m] * v[m] for m in range(2 * n)) for r in range(2 * n)]
    return {
        "n": n,
        "matrix": [[str(entry) for entry in row] for row in A],
        "eigenvalues": [_c(e) for e in eig],
        "eigenvalue_tolerance": 1e-10,
        "fixed_vector_exact": fixed == v,
    }


def run_polyfix(cfg: OperatorConfig, m_max: int) -> dict:
    scan = poly_fp_degrees(cfg.cso, m_max)
    basis = poly_fixed_points(cfg.cso, m_max)
    A = np.eye(m_max + 1, dtype=complex) - operator_matrix(cfg.cso, m_max + 1)
    residuals = [float(np.max(np.abs(A @ v))) for v in basis]
    return {
        "m_max": m_max,
        "degrees": list(scan.degrees),
        "cutoff": scan.cutoff,
        "basis": [[_c(c) for c in v] for v in basis],
        "kernel_residuals": {"values": residuals, "tolerance": 1e-10},
    }


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="csofix",
                                description="composition-sum operator toolkit")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, config=True, radius=False, tol=False):
        """--out on every subcommand; --config, --radius and --tol only on
        those that read them."""
        if config:
            sp.add_argument("--config", required=True, help="operator JSON file")
        if radius:
            sp.add_argument("--radius", type=float, default=None)
        if tol:
            sp.add_argument("--tol", type=float, default=1e-8)
        sp.add_argument("--out", default=None, help="write the report here too")

    d = sub.add_parser("diagnose", help="contraction and structure report")
    common(d, radius=True)
    d.add_argument("--pin", nargs=2, type=float, default=None,
                   metavar=("RE", "IM"), help="diagnose the pinned operator")

    f = sub.add_parser("fixpoint", help="construct a seeded fixed point")
    common(f, radius=True, tol=True)
    f.add_argument("--pin", nargs=2, type=float, default=None,
                   metavar=("RE", "IM"))
    f.add_argument("--seed-kind", choices=("log", "pole"), default="log")
    f.add_argument("--seed-location", nargs=2, type=float, required=True,
                   metavar=("RE", "IM"))
    f.add_argument("--seed-order", type=int, default=1,
                   help="pole order, or m for the derivative route")
    f.add_argument("--route", choices=("direct", "generalized", "derivative"),
                   default="direct")

    g = sub.add_parser("golden", help="golden-mean case study")
    gsub = g.add_subparsers(dest="gcmd", required=True)
    gfp = gsub.add_parser("fp", help="engine vs word-expansion oracle")
    common(gfp, config=False, tol=True)
    gfp.add_argument("--depth", type=int, default=golden.DEFAULT_DEPTH)
    gid = gsub.add_parser("identity", help="partial products of the 1+w identity")
    common(gid, config=False)
    gid.add_argument("--depth", type=int, default=16)
    gfig = gsub.add_parser("figure", help="figure CSV over the default grid")
    common(gfig, config=False)
    gfig.add_argument("--depth", type=int, default=golden.DEFAULT_DEPTH)
    gsfs = gsub.add_parser("sfs", help="zero-shear spectrum example")
    common(gsfs, config=False)
    gsfs.add_argument("--depth", type=int, default=3,
                      help="half-dimension n; monomials up to x^{2n-1}")

    x = sub.add_parser("polyfix", help="polynomial fixed point scan")
    common(x)
    x.add_argument("--depth", type=int, default=50, help="max degree scanned")
    return p


def _dispatch(args, argv: Sequence[str]) -> tuple[dict, Optional[str]]:
    started = time.perf_counter()
    pin = None
    if getattr(args, "pin", None) is not None:
        pin = complex(args.pin[0], args.pin[1])
    if args.cmd in ("diagnose", "fixpoint", "polyfix"):
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            raise PreconditionError(f"cannot read config {args.config}: {e}") from None
        cfg = parse_config(text)
        digest = _digest(text.encode())
        if args.cmd == "diagnose":
            outputs = run_diagnose(cfg, args.radius, pin)
        elif args.cmd == "fixpoint":
            loc = complex(args.seed_location[0], args.seed_location[1])
            outputs = run_fixpoint(cfg, args.seed_kind, loc, args.seed_order,
                                   args.route, args.tol, args.radius, pin)
        else:
            outputs = run_polyfix(cfg, args.depth)
        return _report(argv, digest, outputs, started), args.out
    # golden family: no config file; digest the parameters the subcommand
    # reads
    params = {"cmd": args.gcmd, "depth": args.depth}
    if args.gcmd == "fp":
        params["tol"] = args.tol
    digest = _digest(json.dumps(params, sort_keys=True).encode())
    if args.gcmd == "fp":
        outputs = run_golden_fp(args.depth, args.tol)
        return _report(argv, digest, outputs, started), args.out
    if args.gcmd == "identity":
        outputs = run_golden_identity(args.depth)
        return _report(argv, digest, outputs, started), args.out
    if args.gcmd == "figure":
        out = args.out or "golden_figure.csv"
        outputs = run_golden_figure(args.depth, out)
        return _report(argv, digest, outputs, started), None
    outputs = run_golden_sfs(args.depth)
    return _report(argv, digest, outputs, started), args.out


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        report, out = _dispatch(args, argv)
    except PreconditionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ConvergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    _emit(report, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
