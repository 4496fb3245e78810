"""Per-layer spans and counts, recorded from outside the csofix package.

A Tracer wraps public csofix functions.  Each wrapper records a span (the
call's wall time) and attributes self time, which is the span minus the
spans of the wrapped calls made inside it.  Wrappers replace a function in
every csofix module that holds a reference to it, so a call through
`from .series import compose_affine` in `cso` is counted like a call through
`series.compose_affine`.  A name that no longer exists is reported as absent.

Spans and counts are kept only while `active` is set, which the worker sets
around the program call of each request, so the benchmark's own checks are
never counted.
"""

from __future__ import annotations

import functools
import hashlib
import json
import statistics
import sys
import time
from collections import Counter
from typing import Callable

FIXPOINT_SOLVERS = ("seeded_fixed_point", "generalized_seed_fixed_point",
                    "derivative_route_fixed_point", "neumann_inverse")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _replace_everywhere(original, wrapper) -> None:
    """Rebind every csofix module attribute that refers to `original`."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "csofix" or name.startswith("csofix.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def _words(depth: int) -> int:
    """Words of length 0..depth over the two golden maps."""
    return 2 ** (depth + 1) - 1


def encode(command: list, inputs: bytes, outputs: dict, started: float) -> str:
    """A report encoded the way the `csofix` command prints it: the command
    line, the sha256 digest of its inputs, the outputs and the wall time
    since `started`."""
    report = {"command": command, "inputs_digest": hashlib.sha256(inputs).hexdigest(),
              "outputs": outputs, "wall_time_s": time.perf_counter() - started}
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


class Tracer:
    """Spans and counts of one traced pass.  `emit` encodes a report under
    the `cli.run` span, because the command pays for it on every call."""

    def __init__(self):
        self.active = False
        self._stack: list[list[float]] = []  # child time of each open span
        self.spans: dict[str, list[float]] = {}  # name -> [calls, self_s]
        self.counts: Counter = Counter()
        self.iterations: list[int] = []
        self.absent: list[str] = []
        self._fix_depth = 0
        self._rate_cache = None

        def report_bytes(text, args, kwargs):
            self.counts["cli.report_bytes"] += len(text)

        self.emit = self._wrap("cli.run", encode, report_bytes)

    # -- spans -------------------------------------------------------------

    def _wrap(self, span: str, fn: Callable, after=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span, start, frame)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def _close(self, span: str, start: float, frame: list[float]) -> None:
        duration = time.perf_counter() - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += duration
        entry = self.spans.setdefault(span, [0, 0.0])
        entry[0] += 1
        entry[1] += duration - frame[0]

    # -- installation --------------------------------------------------------

    def _patch(self, module: str, attr: str, span: str, after=None) -> None:
        home = sys.modules.get(f"csofix.{module}")
        original = getattr(home, attr, None) if home is not None else None
        if original is None:
            self.absent.append(span)
            return
        _replace_everywhere(original, self._wrap(span, original, after))

    def install(self) -> None:
        """Wrap every traced csofix function; call once per process."""
        import csofix.cli  # noqa: F401  (loads every csofix module)

        c = self.counts

        def composed(result, args, kwargs):
            c["series.compose_affine.coeffs"] += len(_arg(args, kwargs, 0, "f").coeffs)

        self._patch("series", "compose_affine", "series.compose_affine", composed)
        self._patch("series", "linear_combine", "series.linear_combine")
        self._patch("series", "eval_at", "series.eval_at")
        series_cls = getattr(sys.modules["csofix.series"], "DiscSeries", None)
        post_init = getattr(series_cls, "__post_init__", None)
        if post_init is None:
            self.absent.append("series.DiscSeries")
        else:
            series_cls.__post_init__ = self._wrap("series.DiscSeries", post_init)

        def pulled(result, args, kwargs):
            term = _arg(args, kwargs, 0, "term")
            amap = _arg(args, kwargs, 1, "map")
            if amap.s == 0:
                kind = "constant"
            elif not result.terms:
                kind = "expanded"
            elif result.terms[0].location == term.location:
                kind = "kept"
            else:
                kind = "relocated"
            c[f"singular.pullback.{kind}"] += 1

        self._patch("singular", "pullback_term", "singular.pullback_term", pulled)
        self._patch("singular", "eval_singular", "singular.eval_singular")

        def scanned(result, args, kwargs):
            c["cso.basis_ratio_scan.indices"] += _arg(args, kwargs, 2, "n_max") + 1

        def matrix(result, args, kwargs):
            m = _arg(args, kwargs, 1, "m")
            c["cso.monomial_matrix.entries"] += (m + 1) * (m + 2) // 2

        self._patch("cso", "apply_series", "cso.apply_series")
        self._patch("cso", "apply_singular", "cso.apply_singular")
        self._patch("cso", "basis_ratio_scan", "cso.basis_ratio_scan", scanned)
        self._rate_cache = getattr(sys.modules["csofix.cso"],
                                   "certified_contraction_rate", None)
        self._patch("cso", "certified_contraction_rate",
                    "cso.certified_contraction_rate")
        self._patch("cso", "contraction_report", "cso.contraction_report")
        self._patch("cso", "monomial_matrix", "cso.monomial_matrix", matrix)
        self._patch("cso", "poly_fixed_points", "cso.poly_fixed_points")

        self._install_fixpoint()

        def golden_words(depth_index, points):
            """Word-point log evaluations, and bytes computed from array sizes:
            the s and t level arrays plus one float64 per evaluation."""
            def after(result, args, kwargs):
                w = _words(_arg(args, kwargs, depth_index, "depth"))
                n = points(args, kwargs)
                c["golden.words"] += w * n
                c["golden.bytes_computed"] += 8 * (2 * w + w * n)
            return after

        # each word is evaluated at the point and at the reference point; the
        # figure evaluates the grid plus the reference, for both fixed points;
        # the identity evaluates C1 and C2
        self._patch("golden", "word_fixed_point", "golden.word_fixed_point",
                    golden_words(1, lambda a, k: 2))
        self._patch("golden", "figure_data", "golden.figure_data",
                    golden_words(1, lambda a, k: 2 * (len(_arg(a, k, 0, "grid")) + 1)))
        self._patch("golden", "identity_partial_products",
                    "golden.identity_partial_products", golden_words(0, lambda a, k: 2))

        self._patch("cli", "parse_config", "cli.parse_config")
        cli = sys.modules["csofix.cli"]
        for name in sorted(vars(cli)):
            if name.startswith("run_"):
                self._patch("cli", name, "cli.run")

    def _install_fixpoint(self) -> None:
        """Fixpoint spans share one name; only the outermost call of a nest
        counts as a solve or a rejection, so the derivative route's inner
        solve is not counted twice."""
        from csofix.errors import ConvergenceError, PreconditionError

        fix = sys.modules["csofix.fixpoint"]
        for attr in ("make_seed",) + FIXPOINT_SOLVERS:
            original = getattr(fix, attr, None)
            if original is None:
                self.absent.append(f"fixpoint.{attr}")
                continue
            solver = attr in FIXPOINT_SOLVERS
            inner = self._wrap("fixpoint", original)
            _replace_everywhere(original, self._nest(inner, solver,
                                                     PreconditionError,
                                                     ConvergenceError))

    def _nest(self, inner: Callable, solver: bool, precondition, convergence):
        tracer = self

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return inner(*args, **kwargs)
            outer = tracer._fix_depth == 0
            tracer._fix_depth += 1
            try:
                result = inner(*args, **kwargs)
            except precondition:
                if outer:
                    tracer.counts["fixpoint.rejected.precondition"] += 1
                raise
            except convergence:
                if outer:
                    tracer.counts["fixpoint.rejected.convergence"] += 1
                raise
            finally:
                tracer._fix_depth -= 1
            if outer and solver:
                tracer.counts["fixpoint.solves"] += 1
                iterations = getattr(result, "iterations", None)
                if isinstance(iterations, int):
                    tracer.iterations.append(iterations)
            return result

        return wrapper

    # -- results -------------------------------------------------------------

    def clear_rate_cache(self) -> None:
        cache_clear = getattr(self._rate_cache, "cache_clear", None)
        if cache_clear is not None:
            cache_clear()

    def metrics(self, import_s: float) -> dict[str, tuple[float, str, bool]]:
        """Every per-layer metric as (value, unit, absent)."""
        spans = self.spans
        rate_info = getattr(self._rate_cache, "cache_info", None)
        golden_s = sum(spans.get(s, [0, 0.0])[1] for s in GOLDEN_SPANS)
        special = {
            "cso.certified_contraction_rate.cache_hit_ratio":
                lambda: _hit_ratio(rate_info() if rate_info else None),
            "fixpoint.iterations": lambda: sum(self.iterations),
            "fixpoint.iterations_p50":
                lambda: statistics.median(self.iterations) if self.iterations else 0,
            "golden.words_per_s":
                lambda: self.counts["golden.words"] / golden_s if golden_s else 0.0,
            "cli.import_s": lambda: import_s,
        }
        out = {}
        for name, unit, source in PER_LAYER:
            if name in special:
                value = special[name]()
            elif name.endswith(".calls") or name.endswith(".count"):
                value = spans.get(source, [0, 0.0])[0]
            elif name.endswith(".self_s"):
                value = spans.get(source, [0, 0.0])[1]
            else:
                value = self.counts[name]
            out[name] = (value, unit, source in self.absent)
        return out


def _hit_ratio(info) -> float:
    if info is None or not info.hits + info.misses:
        return 0.0
    return info.hits / (info.hits + info.misses)


GOLDEN_SPANS = ("golden.word_fixed_point", "golden.figure_data",
                "golden.identity_partial_products")

# (metric, unit, span it rests on).  A metric is reported as absent when the
# function behind its span no longer exists in csofix.
PER_LAYER = [
    ("series.compose_affine.calls", "count", "series.compose_affine"),
    ("series.compose_affine.self_s", "s", "series.compose_affine"),
    ("series.compose_affine.coeffs", "count", "series.compose_affine"),
    ("series.linear_combine.self_s", "s", "series.linear_combine"),
    ("series.DiscSeries.count", "count", "series.DiscSeries"),
    ("series.DiscSeries.self_s", "s", "series.DiscSeries"),
    ("series.eval_at.self_s", "s", "series.eval_at"),
    ("singular.pullback_term.calls", "count", "singular.pullback_term"),
    ("singular.pullback_term.self_s", "s", "singular.pullback_term"),
    ("singular.pullback.kept", "count", "singular.pullback_term"),
    ("singular.pullback.relocated", "count", "singular.pullback_term"),
    ("singular.pullback.expanded", "count", "singular.pullback_term"),
    ("singular.pullback.constant", "count", "singular.pullback_term"),
    ("singular.eval_singular.self_s", "s", "singular.eval_singular"),
    ("cso.apply_series.self_s", "s", "cso.apply_series"),
    ("cso.apply_singular.self_s", "s", "cso.apply_singular"),
    ("cso.basis_ratio_scan.calls", "count", "cso.basis_ratio_scan"),
    ("cso.basis_ratio_scan.self_s", "s", "cso.basis_ratio_scan"),
    ("cso.basis_ratio_scan.indices", "count", "cso.basis_ratio_scan"),
    ("cso.certified_contraction_rate.calls", "count", "cso.certified_contraction_rate"),
    ("cso.certified_contraction_rate.cache_hit_ratio", "ratio",
     "cso.certified_contraction_rate"),
    ("cso.contraction_report.self_s", "s", "cso.contraction_report"),
    ("cso.monomial_matrix.self_s", "s", "cso.monomial_matrix"),
    ("cso.monomial_matrix.entries", "count", "cso.monomial_matrix"),
    ("cso.poly_fixed_points.self_s", "s", "cso.poly_fixed_points"),
    ("fixpoint.solves", "count", "fixpoint"),
    ("fixpoint.self_s", "s", "fixpoint"),
    ("fixpoint.iterations", "count", "fixpoint"),
    ("fixpoint.iterations_p50", "count", "fixpoint"),
    ("fixpoint.rejected.precondition", "count", "fixpoint"),
    ("fixpoint.rejected.convergence", "count", "fixpoint"),
    ("golden.word_fixed_point.self_s", "s", "golden.word_fixed_point"),
    ("golden.figure_data.self_s", "s", "golden.figure_data"),
    ("golden.identity_partial_products.self_s", "s",
     "golden.identity_partial_products"),
    ("golden.words", "count", "golden"),
    ("golden.words_per_s", "1/s", "golden"),
    ("golden.bytes_computed", "B", "golden"),
    ("cli.import_s", "s", "cli"),
    ("cli.parse_config.self_s", "s", "cli.parse_config"),
    ("cli.run.self_s", "s", "cli.run"),
    ("cli.report_bytes", "B", "cli.run"),
]
