"""Seeded request streams for the `solve`, `certify` and `oracle` workloads.

A workload is an endless sequence of rounds.  A round holds a fixed number
of requests of each category, in a seeded order.  The discrete parameters of
a category (truncation, tolerance, depth, grid size, ...) walk through a
seeded permutation of a fixed grid; the continuous ones (evaluation points,
random operators, radii) are drawn from the seed.  Seeds therefore differ in
their inputs but not in the mix of work, and a run that measures whole
rounds does the same kinds of work for every seed.

Every request enters csofix through `cli.parse_config` plus a `cli.run_*`
function, or through a library call shown in the README, and is looked up on
the module at call time so that trace wrappers see it.
"""

from __future__ import annotations

import cmath
import json
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from csofix import cli, cso, golden
from csofix.errors import ConvergenceError, PreconditionError

import checks

W = (math.sqrt(5.0) - 1.0) / 2.0
C1, C2 = -W, W
GOLDEN_TERMS = ((1.0, -W, 0.0), (1.0, W * W, 1.0))
THIRD = 1.0 / 3.0


@dataclass
class Request:
    category: str
    call: Callable[[], object]
    check: Callable[[object], float]  # raises CheckFailed, returns tolerance use
    expect: Optional[type] = None  # the documented error class of a rejection
    cause: str = ""  # text the documented rejection's message must contain
    # A solve or scan on an operator drawn from the seed.  Its use follows
    # the operator (the Neumann stop leaves 0.3 to 0.8 of tol on solve's
    # random operators), so it is checked but left out of tol_use_max,
    # which then depends on the program and not on the seed.
    fresh_operator: bool = False


def outputs(text: str) -> dict:
    """The outputs object of an encoded report."""
    return json.loads(text)["outputs"]


def golden_inputs(gcmd: str, depth: int, tol: float = 1e-8) -> bytes:
    """What `csofix golden` digests: its effective parameters."""
    return json.dumps({"cmd": gcmd, "depth": depth, "tol": tol}, sort_keys=True).encode()


def _pin_args(pin) -> list[str]:
    return [] if pin is None else ["--pin", repr(pin.real), repr(pin.imag)]


def config_text(terms, radius: float, truncation: int) -> str:
    """An operator config as a user writes it: [re, im] pairs per field."""
    def pair(z):
        z = complex(z)
        return [z.real, z.imag]
    return json.dumps({
        "terms": [{"a": pair(a), "s": pair(s), "fix": pair(f)} for a, s, f in terms],
        "radius": radius,
        "truncation": truncation,
    })


def operator_terms(T) -> list[tuple[complex, complex, complex]]:
    return [(a, m.s, m.z_fix) for a, m in T.terms]


def _cycle(rng: np.random.Generator, grid: list) -> Iterator:
    """Seeded permutations of `grid`, one after another."""
    while True:
        for i in rng.permutation(len(grid)):
            yield grid[i]


def _disc(rng: np.random.Generator, radius: float) -> complex:
    r = radius * math.sqrt(rng.uniform())
    return cmath.rect(r, rng.uniform(0.0, 2.0 * math.pi))


def _rate(rng: np.random.Generator, lo: float, hi: float) -> complex:
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(0.0, 2.0 * math.pi))


class Workload:
    """Round generator.  `emit(command, inputs, outputs, started)` encodes a
    cli report the way the command prints it; the tracer supplies it so
    encoding is attributed to `cli`."""

    mix: dict[str, int] = {}
    # requests spend their time sweeping large numpy arrays, so host speed
    # is probed on such a sweep too (hostspeed.probe)
    array_bound = False

    def __init__(self, seed: int, emit: Callable[[list, bytes, dict, float], str]):
        self.rng = np.random.default_rng(seed)
        self.emit = emit
        self.grids: dict[str, Iterator] = {}

    def draw(self, category: str):
        return next(self.grids[category])

    def next_round(self) -> list[Request]:
        reqs = []
        for category, count in self.mix.items():
            make = getattr(self, "make_" + category)
            reqs.extend(make() for _ in range(count))
        order = self.rng.permutation(len(reqs))
        return [reqs[i] for i in order]


# -- solve ------------------------------------------------------------------

class Solve(Workload):
    """cli.run_fixpoint over the direct, generalized and derivative routes.

    Every round holds each combination of a category's discrete
    parameters (truncation, tolerance, pin, seed location, order) the same
    number of times: a category's count per round is a multiple of its
    grid's length.  So every round is the same mix of work, and the seed
    sets only the order, the random operators and the check points.  When
    pins and orders were paired with (N, tol) by the seed, the median
    latency of one seed differed from another's by up to 10% with the host's
    speed factored out.  Pairs are drawn only where the route reaches its
    tolerance, except in the two rejection categories, which are the
    documented exit-2 and exit-3 cases.

    Same-mix rounds put each quantile at a fixed rank among the request
    kinds, so the counts keep p50 and p90 away from a gap between kinds.
    The four slowest requests of a round are the golden N = 256 ones
    (0.27-0.30 s scaled); the next five are the golden N = 192 ones and the
    derivative m = 1, N = 256, tol 1e-12 (0.157-0.169 s); no other is
    slower than 0.12 s.  In a round of 70, p90 falls in the middle of that
    group of five, and p50 among kinds within 10% of each other.  In a
    round of 92 (pole and random at twice these counts) p90 fell on the gap
    below the group, and read 0.124-0.137 s or 0.145-0.146 s from run to
    run."""

    mix = {"golden": 24, "pole": 12, "derivative": 16, "random": 10,
           "contract_reject": 4, "residual_reject": 4}

    def __init__(self, seed, emit):
        super().__init__(seed, emit)
        rng = self.rng
        pins_locs = [(p, l) for p in (C1, C2) for l in (0.0, 1.0)]
        golden_nt = [(96, 1e-6), (96, 1e-10), (128, 1e-8), (128, 1e-12),
                     (192, 1e-10), (256, 1e-12)]
        self.grids = {
            "golden": _cycle(rng, [nt + pl for nt in golden_nt for pl in pins_locs]),
            # (order, location, N, tol); order 3 at N = 72 uses 0.51 of its
            # tolerance, the largest use in this workload, which leaves room
            # for a change to spend accuracy without reaching the gate
            "pole": _cycle(rng, [(1, 0.0, 128, 1e-12), (1, 3.0, 64, 1e-6),
                                 (2, 0.0, 256, 1e-10), (2, 3.0, 128, 1e-8),
                                 (3, 0.0, 72, 1e-8), (3, 3.0, 256, 1e-12)]),
            "derivative": _cycle(rng, [(m,) + nt for m in (1, 2, 3, 4)
                                       for nt in [(192, 1e-6), (192, 1e-10),
                                                  (256, 1e-8), (256, 1e-12)]]),
            "random": _cycle(rng, [(24, 1e-6), (32, 1e-8), (48, 1e-10),
                                   (64, 1e-12), (128, 1e-12)]),
            "contract_reject": _cycle(rng, [(l, t) for l in (0.0, 1.0)
                                            for t in (1e-6, 1e-10)]),
            # each pin, location and N once a round, not every combination
            "residual_reject": _cycle(rng, [(C1, 0.0, 24), (C1, 1.0, 48),
                                            (C2, 0.0, 64), (C2, 1.0, 32)]),
        }

    def _fixpoint(self, category, terms, radius, truncation, kind, loc, order,
                  route, tol, pin=None, run_radius=None, expect=None, cause="",
                  expected_route=None, expected_terms=None,
                  fresh_operator=False) -> Request:
        text = config_text(terms, radius, truncation)
        emit = self.emit
        loc = complex(loc)
        command = (["fixpoint", "--config", "operator.json", "--seed-kind", kind,
                    "--seed-location", repr(loc.real), repr(loc.imag),
                    "--seed-order", str(order), "--route", route, "--tol", repr(tol)]
                   + ([] if run_radius is None else ["--radius", repr(run_radius)])
                   + _pin_args(pin))

        def call():
            started = time.perf_counter()
            cfg = cli.parse_config(text)
            return emit(command, text.encode(),
                        cli.run_fixpoint(cfg, kind, loc, order, route, tol,
                                         run_radius, pin), started)

        R = radius if run_radius is None else run_radius
        points = self.rng.uniform(size=(12, 2))

        def check(text_out):
            return checks.check_fixpoint(outputs(text_out), terms, pin, R, tol,
                                         truncation, points, expected_route,
                                         expected_terms)

        return Request(category, call, check, expect, cause, fresh_operator)

    def make_golden(self):
        n, tol, pin, loc = self.draw("golden")
        return self._fixpoint("golden", GOLDEN_TERMS, 2.0, n, "log", loc, 1,
                              "generalized", tol, pin=pin,
                              expected_route="generalized_seed(",
                              expected_terms=[("log", loc, 1.0)])

    def make_pole(self):
        k, loc, n, tol = self.draw("pole")
        owner = THIRD ** k
        terms = ((owner if loc == 0.0 else THIRD, THIRD, 0.0),
                 (THIRD if loc == 0.0 else owner, THIRD, 3.0))
        return self._fixpoint("pole", terms, 4.0, n, "pole", loc, k, "direct", tol,
                              expected_route="direct",
                              expected_terms=[("pole", loc, 1.0)])

    def make_derivative(self):
        m, n, tol = self.draw("derivative")
        return self._fixpoint("derivative", GOLDEN_TERMS, 1.2, n, "log", 0.0, m,
                              "derivative", tol,
                              expected_route=f"derivative({m})",
                              expected_terms=[("log", 0.0, 1.0)])

    def make_random(self):
        """A fresh two-term operator on D_1 with a log seed at the first map's
        fixed point: a_1 = 1 keeps the seed admissible, a_1 + a_2 near 0 makes
        the constants contract, and the seed pulls back through map 2 to a
        point at least 2.2 times its rate away, so the expansion converges."""
        n, tol = self.draw("random")
        rng = self.rng
        while True:
            s1, s2 = _disc(rng, 0.15) or 0.1, _disc(rng, 0.15) or -0.1
            z1, z2 = _disc(rng, 0.15), _disc(rng, 0.15)
            a2 = -1.0 + _disc(rng, 0.3)
            t2 = z2 * (1 - s2)
            if (s1, z1) != (s2, z2) and abs(z1 - t2) > abs(s2) * 2.2:
                break
        terms = ((1.0, s1, z1), (a2, s2, z2))
        return self._fixpoint("random", terms, 1.0, n, "log", z1, 1, "direct", tol,
                              expected_route="direct",
                              expected_terms=[("log", z1, 1.0)],
                              fresh_operator=True)

    def make_contract_reject(self):
        """Pinned at C2 the golden operator does not contract on D_1.5
        (certified rate 1.06): exit 2 before iterating.  Any other
        PreconditionError (a subclass, a config or seed error) fails."""
        loc, tol = self.draw("contract_reject")
        return self._fixpoint("contract_reject", GOLDEN_TERMS, 2.0, 128, "log", loc, 1,
                              "generalized", tol, pin=C2, run_radius=1.5,
                              expect=PreconditionError,
                              cause="operator does not contract on D_1.5 ")

    def make_residual_reject(self):
        """At N <= 64 the truncation tail alone exceeds 1e-8: exit 3 from
        the final residual gate, not from a Neumann loop that stalls."""
        pin, loc, n = self.draw("residual_reject")
        return self._fixpoint("residual_reject", GOLDEN_TERMS, 2.0, n, "log", loc, 1,
                              "generalized", 1e-8, pin=pin, expect=ConvergenceError,
                              cause=" above tolerance 1e-08")


# -- certify ------------------------------------------------------------------

# cso.poly_fixed_points scales each null vector by its last entry above an
# absolute 1e-14.  Rounding noise in the entries above the true degree grows
# with the size of the monomial matrix, about eps times its largest singular
# value; once it passes 1e-14 the vector is scaled by noise and its kernel
# residual is about 1, against the reported tolerance 1e-10.  Over 1800
# planted operators at depths 20-100 the largest noise entry was 3.5e-15 with
# every |a_i| <= 4, 4.9e-15 up to 12, and 1.2e-14 (failing) between 20 and
# 40.  Certify keeps |a_i| <= 4, so its requests check correct; the defect
# stays in the program, and this planted operator (|a_1| = 21.7), run once
# per certify run outside the measured requests, shows whether it still
# occurs.
POLYFIX_A_MAX = 4.0
POLYFIX_DEFECT_DEPTH = 80
POLYFIX_DEFECT = config_text(
    [(complex(16.577256517294863, 14.017206890623617),
      complex(0.0934274538007001, -0.5322063888132952),
      complex(-0.07344794102860074, -0.14867960263964913)),
     (complex(-0.5640966205826594, 0.5343324223547068),
      complex(0.07615460460528946, 0.06243899777902309),
      complex(-0.43105837136023833, -0.688203498011716))], 1.0, 128)


def polyfix_defect() -> str:
    """Whether cso.poly_fixed_points still returns a non-kernel vector on
    POLYFIX_DEFECT, as one line for the run's report."""
    out = cli.run_polyfix(cli.parse_config(POLYFIX_DEFECT), POLYFIX_DEFECT_DEPTH)
    worst = max(out["kernel_residuals"]["values"], default=0.0)
    tol = out["kernel_residuals"]["tolerance"]
    state = "still occurs" if worst >= tol else "no longer occurs"
    return (f"known defect, {state}: polyfix --depth {POLYFIX_DEFECT_DEPTH} on the "
            f"planted |a_1| = 21.7 operator gives kernel residual {worst:.3g} "
            f"against tolerance {tol:g}")

class Certify(Workload):
    """Fresh operators through cli.run_diagnose and cli.run_polyfix, plus
    cli.run_golden_sfs.  No Neumann iteration runs here."""

    mix = {"diagnose": 6, "general_a": 1, "polyfix": 3, "sfs": 1}

    def __init__(self, seed, emit):
        super().__init__(seed, emit)
        rng = self.rng
        self.grids = {
            "diagnose": _cycle(rng, [(ell, v) for ell in range(1, 7)
                                     for v in ("plain", "plain", "pinned")]
                               + [(ell, "projected") for ell in (2, 3)]),
            "general_a": _cycle(rng, [1, 2, 3, 4]),
            "polyfix": _cycle(rng, [(m, depth, v) for m in (1, 2, 3, 4, 5)
                                    for depth in (20, 40, 60, 80, 100)
                                    for v in ("plain", "pinned")]),
            "sfs": _cycle(rng, [1, 2, 3, 4, 5, 6]),
        }

    def _random_terms(self, ell: int) -> list[tuple[complex, complex, complex]]:
        rng = self.rng
        terms = []
        for i in range(ell):
            # constant maps only after the first term, so pinning never
            # cancels every term
            s = 0j if i and rng.uniform() < 0.15 else _rate(rng, 0.05, 0.9)
            a = _rate(rng, 0.2, 1.2) / math.sqrt(ell)
            terms.append((a, s, _disc(rng, 1.5)))
        return terms

    def _diagnose(self, category, terms, radius, pin):
        text = config_text(terms, 2.0, 128)
        emit = self.emit
        sample_n = [0, int(self.rng.integers(1, 201)), int(self.rng.integers(1, 201))]
        command = (["diagnose", "--config", "operator.json", "--radius", repr(radius)]
                   + _pin_args(pin))

        def call():
            started = time.perf_counter()
            return emit(command, text.encode(),
                        cli.run_diagnose(cli.parse_config(text), radius, pin), started)

        def check(text_out):
            return checks.check_diagnose(outputs(text_out), terms, radius, pin,
                                         sample_n)

        return Request(category, call, check)

    def make_diagnose(self):
        ell, variant = self.draw("diagnose")
        rng = self.rng
        terms = self._random_terms(ell)
        pin = None
        if variant == "pinned":
            pin = _disc(rng, 1.0)
        elif variant == "projected":
            T = checks.make_operator(terms)
            terms = operator_terms(cso.projected_j(T, int(rng.integers(ell))))
        return self._diagnose("diagnose", terms, float(rng.uniform(0.5, 3.0)), pin)

    def make_general_a(self):
        a = self.draw("general_a")
        terms = operator_terms(golden.general_a_cso(a))
        return self._diagnose("general_a", terms, float(self.rng.uniform(1.0, 3.0)), None)

    def make_polyfix(self):
        """An operator on D_1 (|s_i| + |t_i| <= 0.95 keeps the monomial
        matrix bounded by the coefficients) with a planted polynomial fixed
        point of degree m: a_1 is chosen so that sum_i a_i s_i^m = 1.
        Operators with a coefficient above POLYFIX_A_MAX are drawn again;
        see POLYFIX_DEFECT for why."""
        m, depth, variant = self.draw("polyfix")
        rng = self.rng
        while True:
            ell = int(rng.integers(2, 5))
            maps = []
            for i in range(ell):
                s = _rate(rng, 0.5, 0.9) if i == 0 else _rate(rng, 0.05, 0.6)
                room = 0.95 - abs(s)
                fix = _disc(rng, room / abs(1 - s))
                maps.append((s, fix))
            rest = [_rate(rng, 0.2, 1.0) for _ in range(ell - 1)]
            lead = (1 - sum(a * s ** m for a, (s, _) in zip(rest, maps[1:]))) / maps[0][0] ** m
            terms = [(a, s, f) for a, (s, f) in zip([lead] + rest, maps)]
            if variant == "pinned":
                terms = operator_terms(checks.make_operator(terms, _disc(rng, 1.0)))
            if max(abs(a) for a, _, _ in terms) <= POLYFIX_A_MAX:
                break
        text = config_text(terms, 1.0, 128)
        emit = self.emit
        points = [_disc(rng, 1.0) for _ in range(3)]
        command = ["polyfix", "--config", "operator.json", "--depth", str(depth)]

        def call():
            started = time.perf_counter()
            return emit(command, text.encode(),
                        cli.run_polyfix(cli.parse_config(text), depth), started)

        def check(text_out):
            return checks.check_polyfix(outputs(text_out), terms, m, depth, points)

        return Request("polyfix", call, check, fresh_operator=True)

    def make_sfs(self):
        n = self.draw("sfs")
        emit = self.emit
        command = ["golden", "sfs", "--depth", str(n)]
        inputs = golden_inputs("sfs", n)

        def call():
            started = time.perf_counter()
            return emit(command, inputs, cli.run_golden_sfs(n), started)

        return Request("sfs", call, lambda text_out: checks.check_sfs(outputs(text_out), n))


# -- oracle -------------------------------------------------------------------

class Oracle(Workload):
    """Golden word sums: golden.word_fixed_point, golden.figure_data,
    golden.identity_partial_products and cli.run_golden_fp.

    `run_golden_fp` runs at depth 18, the default, because its report gates
    the oracle difference at 1e-6 and the truncation of the word sum alone
    exceeds that below depth 18 (3.8e-5 at depth 12, 2.9e-6 at depth 16)."""

    # every round holds each word-pair (depth, centre) and each identity
    # depth once, so the middle of the latency distribution, where p50
    # falls, is made of the same requests for every seed
    mix = {"golden_fp": 1, "word_pair": 12, "figure": 2, "identity": 5}
    array_bound = True

    def __init__(self, seed, emit):
        super().__init__(seed, emit)
        rng = self.rng
        self.grids = {
            "golden_fp": _cycle(rng, [1e-8, 1e-10, 1e-12]),
            "word_pair": _cycle(rng, [(d, c) for d in range(14, 20) for c in (C1, C2)]),
            "figure": _cycle(rng, [(g, d) for g in (8, 16, 24, 32) for d in range(14, 19)]),
            "identity": _cycle(rng, list(range(16, 21))),
        }

    def make_golden_fp(self):
        tol = self.draw("golden_fp")
        emit = self.emit
        command = ["golden", "fp", "--depth", "18", "--tol", repr(tol)]
        inputs = golden_inputs("fp", 18, tol)

        def call():
            started = time.perf_counter()
            return emit(command, inputs, cli.run_golden_fp(18, tol), started)

        return Request("golden_fp", call,
                       lambda text_out: checks.check_golden_fp(outputs(text_out), tol))

    def make_word_pair(self):
        """Both explicit fixed points at one point near w or -w; checked
        against the product identity exp(f1 - f2) = w z/(z - 1) P_depth."""
        depth, centre = self.draw("word_pair")
        z = centre + _rate(self.rng, 0.02, 0.2)

        def call():
            return (golden.word_fixed_point(1, depth, z),
                    golden.word_fixed_point(2, depth, z))

        return Request("word_pair", call,
                       lambda pair: checks.check_word_pair(pair, depth, z))

    def make_figure(self):
        size, depth = self.draw("figure")
        grid = np.sort(self.rng.uniform(-1.5, 1.5, size))

        def call():
            return golden.figure_data(grid, depth, parallel=False)

        return Request("figure", call,
                       lambda table: checks.check_figure(table, grid))

    def make_identity(self):
        depth = self.draw("identity")

        def call():
            return golden.identity_partial_products(depth)

        return Request("identity", call,
                       lambda prods: checks.check_identity(prods, depth))


WORKLOADS = {"solve": Solve, "certify": Certify, "oracle": Oracle}
