"""The benchmark under perfbench/ calls csofix directly.  These tests fail
when a name it uses, or an argument it passes, goes away, so an API change
breaks here instead of inside a benchmark run."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from csofix import cli, cso, fixpoint, golden, singular

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Traced spans whose functions were folded into cso.operator_matrix and
# cso.apply_series; the benchmark reports their metrics as absent.
RETIRED_SPANS = {"series.compose_affine", "cso.monomial_matrix"}


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans",
                                                  PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _names_used():
    """(module, name) for each name perfbench imports from csofix, and for
    each attribute it reads of a csofix module it imported by name."""
    used = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "csofix"):
                continue
            for alias in node.names:
                if node.module == "csofix":
                    modules[alias.asname or alias.name] = f"csofix.{alias.name}"
                else:
                    used.add((node.module, alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                used.add((modules[node.value.id], node.attr))
    return used


def test_every_name_perfbench_uses_exists():
    used = _names_used()
    assert ("csofix.cli", "run_fixpoint") in used
    assert ("csofix.errors", "PreconditionError") in used
    missing = [(m, n) for m, n in sorted(used)
               if not hasattr(importlib.import_module(m), n)]
    assert not missing


def _binds(f, n_args, *keywords):
    inspect.signature(f).bind(*[None] * n_args, **{k: None for k in keywords})


def test_calls_perfbench_makes_still_bind():
    # argument counts as perfbench/workloads.py and perfbench/checks.py pass them
    _binds(cso.make_cso, 1)
    _binds(cso.AffineMap, 2)
    _binds(cso.pinned, 2)
    _binds(cso.projected_j, 2)
    _binds(cso.basis_image_norm, 3)
    _binds(golden.word_fixed_point, 3)
    _binds(golden.figure_data, 2, "parallel")
    _binds(golden.identity_partial_products, 1)
    _binds(golden.general_a_cso, 1)
    _binds(cli.parse_config, 1)
    _binds(cli.run_fixpoint, 8)
    _binds(cli.run_diagnose, 3)
    _binds(cli.run_polyfix, 2)
    _binds(cli.run_golden_fp, 2)
    _binds(cli.run_golden_sfs, 1)
    # the worker clears the rate cache between passes; the tracer reads it
    cso.certified_contraction_rate.cache_clear()
    info = cso.certified_contraction_rate.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def test_traced_spans_still_resolve():
    spans = _load_spans()
    # spans.py reads these arguments by position or by name
    for f, index, name in [(cso.basis_ratio_scan, 2, "n_max"),
                           (singular.pullback_term, 0, "term"),
                           (singular.pullback_term, 1, "map"),
                           (golden.word_fixed_point, 1, "depth"),
                           (golden.figure_data, 0, "grid"),
                           (golden.identity_partial_products, 0, "depth")]:
        assert list(inspect.signature(f).parameters)[index] == name
    sources = {source for _, _, source in spans.PER_LAYER}
    assert RETIRED_SPANS <= sources
    missing = []
    for source in sorted(sources - RETIRED_SPANS):
        module, _, name = source.partition(".")
        if name and name != "run":  # cli.run stands for every cli.run_*
            if not hasattr(importlib.import_module(f"csofix.{module}"), name):
                missing.append(source)
    missing += [name for name in ("make_seed",) + spans.FIXPOINT_SOLVERS
                if not hasattr(fixpoint, name)]
    assert not missing
