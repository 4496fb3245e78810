import hashlib
import json
import math
import warnings
from pathlib import Path

import pytest

from conftest import monomial, serialize_config
from csofix import fixpoint
from csofix.cli import main, parse_config
from csofix.errors import PreconditionError
from csofix.fixpoint import MAX_TRUNCATION
from csofix.series import linear_combine

W = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_CFG = str(Path(__file__).resolve().parents[1] / "configs" / "golden_m.json")
POLE_CFG = str(Path(__file__).resolve().parents[1] / "configs" / "pole_test.json")


def not_json(constant):
    raise ValueError(f"report holds {constant}, which is not JSON")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out, parse_constant=not_json) if captured.out else None
    return code, report, captured.err


def test_parse_config_round_trip():
    text = Path(GOLDEN_CFG).read_text()
    cfg = parse_config(text)
    assert parse_config(serialize_config(cfg)) == cfg
    assert cfg.radius == 2.0 and cfg.mu == 0.999 and cfg.truncation == 128


@pytest.mark.parametrize("doc,needle", [
    ("[]", "JSON object"),
    ('{"terms": []}', "radius"),
    ('{"radius": -1, "terms": [{}]}', "radius"),
    ('{"radius": 1, "terms": "x"}', "terms"),
    ('{"radius": 1, "terms": [{"a": [1, 0], "s": [0, 0]}]}', "terms[0]"),
    ('{"radius": 1, "terms": [{"a": [1, 0], "s": [0, 0], "fix": [0, 0]}, '
     '{"a": [0, 0], "s": [0, 0], "fix": [1, 0]}]}', "terms[1].a"),
    ('{"radius": 1, "terms": [{"a": [1, 0], "s": [1, 0], "fix": [0, 0]}]}',
     "terms[0].s"),
    ('{"radius": 1, "terms": [{"a": [1, 0], "s": 0.5, "fix": [0, 0]}]}',
     "[re, im]"),
    ('{"radius": 1, "mu": 7, "terms": [{"a": [1, 0], "s": [0, 0], "fix": [0, 0]}]}',
     "mu"),
    ('{"radius": 1, "truncation": 1, '
     '"terms": [{"a": [1, 0], "s": [0, 0], "fix": [0, 0]}]}', "truncation"),
    ("{", "JSON"),
    ('{"radius": Infinity, "terms": [{"a": [1, 0], "s": [0, 0], "fix": [0, 0]}]}',
     "radius"),
])
def test_parse_config_errors(doc, needle):
    with pytest.raises(PreconditionError) as e:
        parse_config(doc)
    assert needle in str(e.value)


HUGE = "1" + "0" * 400  # an integer too large for a float
ONE_TERM = '"terms": [{"a": [1, 0], "s": [0, 0], "fix": [0, 0]}]'


@pytest.mark.parametrize("doc,needle", [
    ('{"radius": true, ' + ONE_TERM + '}', "radius"),
    ('{"radius": 1, "mu": true, ' + ONE_TERM + '}', "mu"),
    ('{"radius": 1, "terms": [{"a": [true, false], "s": [0, 0], "fix": [0, 0]}]}',
     "terms[0].a"),
    ('{"radius": ' + HUGE + ', ' + ONE_TERM + '}', "radius"),
    ('{"radius": 1, "terms": [{"a": [1, 0], "s": [0, 0], "fix": [' + HUGE
     + ', 0]}]}', "terms[0].fix"),
], ids=["bool-radius", "bool-mu", "bool-pair", "huge-radius", "huge-pair"])
def test_parse_config_rejects_booleans_and_huge_integers(doc, needle):
    with pytest.raises(PreconditionError) as e:
        parse_config(doc)
    assert str(e.value).startswith(needle + ": expected finite number")


def test_huge_integer_radius_exits_2(capsys, tmp_path):
    cfg = tmp_path / "huge.json"
    cfg.write_text('{"radius": ' + HUGE + ', ' + ONE_TERM + '}')
    code, report, err = run_cli(capsys, "diagnose", "--config", str(cfg))
    assert code == 2 and report is None
    assert err.startswith("error: radius: expected finite number")


@pytest.mark.parametrize("content", [None, b"\xff\xfe{}"], ids=["missing", "not-utf8"])
def test_unreadable_config_exits_2(capsys, tmp_path, content):
    cfg = tmp_path / "operator.json"
    if content is not None:
        cfg.write_bytes(content)
    code, report, err = run_cli(capsys, "diagnose", "--config", str(cfg))
    assert code == 2 and report is None
    assert err.startswith(f"error: cannot read config {cfg}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_diagnose_reports_structure(capsys):
    code, report, _ = run_cli(capsys, "diagnose", "--config", GOLDEN_CFG)
    assert code == 0
    assert report["command"] == ["diagnose", "--config", GOLDEN_CFG]
    digest = hashlib.sha256(Path(GOLDEN_CFG).read_bytes()).hexdigest()
    assert report["inputs_digest"] == digest
    out = report["outputs"]
    assert out["radius"] == 2.0
    assert out["is_contraction"] is False
    assert out["ratios"][0] == 2.0
    assert out["poly_degrees"] == [] and out["poly_degree_cutoff"] == 2
    assert out["independence"] == [False, False]  # w, 1 - w^2 < w^2 * 2 etc.
    assert all(v["ok"] for v in out["simplicity"])


def test_diagnose_pinned_contracts(capsys):
    code, report, _ = run_cli(capsys, "diagnose", "--config", GOLDEN_CFG,
                              "--pin", repr(W), "0")
    assert code == 0
    out = report["outputs"]
    assert out["is_contraction"] is True
    assert 0.88 < out["certified_rate"] < 0.89
    assert out["N"] == 0


@pytest.mark.parametrize("radius", ["1e-300", "5e-309", "1e-320"])
def test_diagnose_at_tiny_radius_does_not_certify(capsys, radius):
    # t_i / R overflows below about 1e-308; no warning, no traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report, _ = run_cli(capsys, "diagnose", "--config", GOLDEN_CFG,
                                  "--radius", radius)
    assert code == 0
    out = report["outputs"]
    assert out["certified_rate"] == "inf" and out["is_contraction"] is False
    assert out["N"] is None


@pytest.mark.parametrize("pin", [[], ["--pin", repr(W), "0"]])
def test_diagnose_at_tiny_radius_reports_no_nan(capsys, pin):
    # an overflowed power of t_i / R times a structural zero is an infinite
    # norm, not nan
    code, report, _ = run_cli(capsys, "diagnose", "--config", GOLDEN_CFG,
                              "--radius", "1e-300", *pin)
    assert code == 0
    ratios = report["outputs"]["ratios"]
    assert "nan" not in ratios and ratios.count("inf") > 190


def test_diagnose_rejects_infinite_radius(capsys):
    code, report, err = run_cli(capsys, "diagnose", "--config", GOLDEN_CFG,
                                "--radius", "inf")
    assert code == 2 and report is None
    assert err == "error: radius must be positive and finite\n"


def test_report_determinism(capsys):
    _, a, _ = run_cli(capsys, "diagnose", "--config", GOLDEN_CFG)
    _, b, _ = run_cli(capsys, "diagnose", "--config", GOLDEN_CFG)
    a.pop("wall_time_s"), b.pop("wall_time_s")
    assert a == b


def test_out_flag_duplicates_stdout(capsys, tmp_path):
    dest = tmp_path / "report.json"
    code, report, _ = run_cli(capsys, "diagnose", "--config", GOLDEN_CFG,
                              "--out", str(dest))
    assert code == 0
    assert json.loads(dest.read_text()) == report


def test_fixpoint_generalized_golden(capsys):
    code, report, _ = run_cli(
        capsys, "fixpoint", "--config", GOLDEN_CFG, "--pin", repr(W), "0",
        "--seed-kind", "log", "--seed-location", "1", "0",
        "--route", "generalized")
    assert code == 0
    out = report["outputs"]
    assert out["route"] == "generalized_seed(1)"
    assert out["residual"]["value"] < out["residual"]["tolerance"] == 1e-8
    locs = sorted(t["location"][0] for t in out["terms"])
    assert abs(locs[0] + 1.0 / W) < 1e-12 and locs[1] == 1.0
    assert len(out["series"]["coefficients"]) == 128


def test_fixpoint_inadmissible_seed_exits_2(capsys):
    code, report, err = run_cli(
        capsys, "fixpoint", "--config", GOLDEN_CFG,
        "--seed-kind", "pole", "--seed-location", "0", "0", "--seed-order", "2")
    assert code == 2 and report is None
    assert "required" in err


def test_fixpoint_direct_pole(capsys):
    code, report, _ = run_cli(
        capsys, "fixpoint", "--config", POLE_CFG,
        "--seed-kind", "pole", "--seed-location", "0", "0")
    assert code == 0
    out = report["outputs"]
    assert out["route"] == "direct"
    assert out["terms"] == [{"kind": "pole", "location": [0.0, 0.0],
                             "weight": [1.0, 0.0], "order": 1}]
    assert out["residual"]["value"] < 1e-8


def test_fixpoint_derivative_route(capsys):
    code, report, _ = run_cli(
        capsys, "fixpoint", "--config", GOLDEN_CFG, "--radius", "1.2",
        "--seed-location", "0", "0", "--seed-order", "3",
        "--route", "derivative")
    assert code == 0
    out = report["outputs"]
    assert out["route"] == "derivative(3)"
    assert out["residual"]["value"] < 1e-8
    code, _, err = run_cli(
        capsys, "fixpoint", "--config", GOLDEN_CFG, "--radius", "1.2",
        "--seed-location", "0.25", "0", "--route", "derivative")
    assert code == 2 and "no map fixes" in err


def long_golden_config(tmp_path, truncation: int) -> str:
    doc = json.loads(Path(GOLDEN_CFG).read_text())
    doc["truncation"] = truncation
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps(doc))
    return str(cfg)


def test_fixpoint_derivative_route_past_closed_form(capsys, tmp_path):
    # N = 1100 takes operator_matrix well past its closed-form columns
    code, report, _ = run_cli(
        capsys, "fixpoint", "--config", long_golden_config(tmp_path, 1100),
        "--radius", "1.2", "--seed-location", "0", "0", "--seed-order", "2",
        "--route", "derivative")
    assert code == 0
    out = report["outputs"]
    assert out["route"] == "derivative(2)" and "iterations" not in out
    assert out["residual"]["value"] < out["residual"]["tolerance"] == 1e-8


def test_fixpoint_derivative_stage_names_its_tolerance(capsys):
    # the induced operator's solve runs at tol / (4 max(1, R)^m); its exit 3
    # names that stage, its own tolerance and the tolerance asked for
    code, report, err = run_cli(
        capsys, "fixpoint", "--config", GOLDEN_CFG, "--route", "derivative",
        "--seed-location", "0", "0", "--seed-order", "2", "--tol", "1e-15",
        "--radius", "1.2")
    assert code == 3 and report is None
    assert err.startswith("error: induced operator's order-2 solve, at its tolerance "
                          "tol/(4 max(1, R)^2) for tol 1e-15: residual ")
    assert err.endswith(" above tolerance 1.7361111111111112e-16\n")


def test_fixpoint_long_truncation_on_D2(capsys, tmp_path):
    # in the unit-disc chart no power R^n is formed: N = 1100 on D_2 solves,
    # and the reported c_k = b_k 2^-k of high degree underflow to 0
    code, report, err = run_cli(
        capsys, "fixpoint", "--config", long_golden_config(tmp_path, 1100),
        "--pin", repr(-W), "0", "--seed-location", "0", "0",
        "--route", "generalized")
    assert code == 0 and err == ""
    out = report["outputs"]
    assert out["residual"]["value"] < out["residual"]["tolerance"] == 1e-8
    coeffs = out["series"]["coefficients"]
    assert len(coeffs) == 1100
    assert all(math.isfinite(x) for pair in coeffs for x in pair)


def rescaled_golden(tmp_path, lam: float, truncation: int = 128) -> tuple[str, list]:
    """golden M conjugated by z -> lam z: the second fixed point at lam,
    radius 2 lam; returns the config and the argv pinned at W lam with the
    seed at lam."""
    doc = json.loads(Path(GOLDEN_CFG).read_text())
    doc["terms"][1]["fix"] = [lam, 0.0]
    doc["radius"] = 2.0 * lam
    doc["truncation"] = truncation
    cfg = tmp_path / "rescaled.json"
    cfg.write_text(json.dumps(doc))
    return str(cfg), ["--pin", repr(W * lam), "0", "--seed-location", repr(lam), "0",
                      "--route", "generalized"]


def test_fixpoint_rescaled_large_disc(capsys, tmp_path):
    cfg, argv = rescaled_golden(tmp_path, 1e3)
    code, report, err = run_cli(capsys, "fixpoint", "--config", cfg, *argv)
    assert code == 0 and err == ""
    out = report["outputs"]
    assert out["radius"] == 2000.0
    assert out["residual"]["value"] < 1e-14
    assert math.isfinite(out["norm"]["value"])


def test_fixpoint_rescaled_small_disc_reported_coefficient_overflows(capsys, tmp_path):
    # the solve on D_0.002 succeeds in the chart; c_k = b_k 500^k of the
    # report overflows float64, which exits 2 with no warning on stderr
    cfg, argv = rescaled_golden(tmp_path, 1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report, err = run_cli(capsys, "fixpoint", "--config", cfg, *argv)
    assert code == 2 and report is None
    assert err == "error: reported coefficient overflows float64 at degree 121 on D_0.002\n"


@pytest.mark.parametrize("truncation", [MAX_TRUNCATION + 1, 10 ** 400])
@pytest.mark.parametrize("config,argv", [
    (POLE_CFG, ["--seed-kind", "pole", "--seed-location", "0", "0"]),
    (GOLDEN_CFG, ["--radius", "1.2", "--seed-location", "0", "0", "--seed-order", "2",
                  "--route", "derivative"]),
])
def test_huge_truncation_exits_2_before_any_matrix(capsys, no_matrix_builds, tmp_path,
                                                   truncation, config, argv):
    doc = json.loads(Path(config).read_text())
    doc["truncation"] = truncation
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(doc))
    code, report, err = run_cli(capsys, "fixpoint", "--config", str(cfg), *argv)
    assert code == 2 and report is None
    assert err == f"error: truncation N exceeds the cap of {MAX_TRUNCATION} coefficients\n"


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("argv", [
    ["fixpoint", "--config", POLE_CFG, "--seed-kind", "pole", "--seed-location", "0", "0"],
    ["fixpoint", "--config", GOLDEN_CFG, "--radius", "1.2", "--seed-location", "0", "0",
     "--seed-order", "3", "--route", "derivative"],
    ["golden", "fp"],
])
def test_bad_tolerance_exits_2_before_any_matrix(capsys, no_matrix_builds, argv, tol):
    code, report, err = run_cli(capsys, *argv, "--tol", tol)
    assert code == 2 and report is None
    assert err == "error: tolerance must be positive and finite\n"


def test_fixpoint_convergence_failure_exits_3(capsys, tmp_path):
    doc = json.loads(Path(POLE_CFG).read_text())
    doc["truncation"] = 16
    cfg = tmp_path / "starved.json"
    cfg.write_text(json.dumps(doc))
    code, report, err = run_cli(
        capsys, "fixpoint", "--config", str(cfg), "--tol", "1e-16",
        "--seed-kind", "pole", "--seed-location", "0", "0")
    assert code == 3 and report is None
    assert "residual" in err


def test_golden_identity_command(capsys):
    code, report, _ = run_cli(capsys, "golden", "identity", "--depth", "10")
    assert code == 0
    out = report["outputs"]
    assert len(out["partial_products"]) == 11
    assert abs(out["partial_products"][0] - math.sqrt(5.0)) < 1e-12
    assert out["final_error"]["value"] == abs(out["partial_products"][-1]
                                              - out["limit"])
    assert out["final_error"]["value"] < 1e-3


def test_golden_fp_command(capsys):
    code, report, _ = run_cli(capsys, "golden", "fp")
    assert code == 0
    params = json.dumps({"cmd": "fp", "depth": 18, "tol": 1e-8}, sort_keys=True)
    assert report["inputs_digest"] == hashlib.sha256(params.encode()).hexdigest()
    out = report["outputs"]
    assert out["route"] == "generalized_seed(1)"
    assert len(out["comparison"]) == 20
    assert out["max_abs_diff"]["value"] < out["max_abs_diff"]["tolerance"]
    assert out["pin_value"]["value"] < out["pin_value"]["tolerance"]


def test_golden_figure_command(capsys, tmp_path):
    dest = tmp_path / "fig.csv"
    code, report, _ = run_cli(capsys, "golden", "figure", "--depth", "4",
                              "--out", str(dest))
    assert code == 0
    out = report["outputs"]
    assert out["rows"] == 401 and out["csv"] == str(dest)
    assert out["max_ratio_dev"]["value"] < 1e-9
    lines = dest.read_text().split("\n")
    assert lines[0] == "x,re_exp_f1,re_exp_f2,ratio_dev"
    assert lines[-1] == "" and len(lines) == 403
    assert "-0.0" not in lines[201]
    for line in lines[1:-1]:
        cells = line.split(",")
        assert len(cells) == 4
        assert all(math.isfinite(float(c)) for c in cells)
    first = dest.read_bytes()
    run_cli(capsys, "golden", "figure", "--depth", "4", "--out", str(dest))
    assert dest.read_bytes() == first


def test_golden_sfs_command(capsys):
    code, report, _ = run_cli(capsys, "golden", "sfs", "--depth", "2")
    assert code == 0
    out = report["outputs"]
    assert out["fixed_vector_exact"] is True
    tops = sorted((e[0] for e in out["eigenvalues"]), reverse=True)
    assert abs(tops[0] - 1.0) < 1e-10 and abs(tops[1] - 0.25) < 1e-10
    assert out["matrix"][0][1] == "-1"


def test_polyfix_command(capsys, tmp_path):
    cfg = tmp_path / "half.json"
    cfg.write_text(json.dumps({
        "radius": 2.0,
        "terms": [{"a": [1, 0], "s": [0.5, 0], "fix": [0, 0]},
                  {"a": [1, 0], "s": [0.5, 0], "fix": [1, 0]}],
    }))
    code, report, _ = run_cli(capsys, "polyfix", "--config", str(cfg),
                              "--depth", "50")
    assert code == 0
    out = report["outputs"]
    assert out["degrees"] == [1] and out["cutoff"] == 2
    assert len(out["basis"]) == 1
    head = out["basis"][0][:2]
    assert abs(head[0][0] + 0.5) < 1e-12 and abs(head[1][0] - 1.0) < 1e-12
    assert max(out["kernel_residuals"]["values"]) < 1e-10
    code, report, _ = run_cli(capsys, "polyfix", "--config", GOLDEN_CFG)
    assert report["outputs"]["degrees"] == []


@pytest.mark.parametrize("depth", ["40", "100"])
def test_polyfix_ill_conditioned_operator_reports_no_basis(capsys, tmp_path, depth):
    # f(0.5i z) + f(0.5i (z - 1) + 1): no degree, so no basis vector
    cfg = tmp_path / "ill.json"
    cfg.write_text(json.dumps({
        "radius": 1.0,
        "terms": [{"a": [1, 0], "s": [0, 0.5], "fix": [0, 0]},
                  {"a": [1, 0], "s": [0, 0.5], "fix": [1, 0]}],
    }))
    code, report, _ = run_cli(capsys, "polyfix", "--config", str(cfg),
                              "--depth", depth)
    assert code == 0
    out = report["outputs"]
    assert out["degrees"] == [] and out["basis"] == []
    assert out["kernel_residuals"]["values"] == []


def test_polyfix_overflowing_matrix_exits_2(capsys, tmp_path):
    cfg = tmp_path / "far.json"
    cfg.write_text(json.dumps({
        "radius": 2.0,
        "terms": [{"a": [0.5, 0], "s": [0.5, 0], "fix": [10, 0]},
                  {"a": [0.3, 0], "s": [0.2, 0], "fix": [0, 0]}],
    }))
    code, report, err = run_cli(capsys, "polyfix", "--config", str(cfg),
                                "--depth", "500")
    assert code == 2 and report is None
    assert "operator matrix overflows float64 at degree 419" in err


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["golden"])


@pytest.mark.parametrize("argv", [
    ["diagnose", "--config", GOLDEN_CFG, "--tol", "1e-3"],
    ["diagnose", "--config", GOLDEN_CFG, "--parallel"],
    ["fixpoint", "--config", POLE_CFG, "--seed-location", "0", "0", "--parallel"],
    ["polyfix", "--config", GOLDEN_CFG, "--radius", "1.5"],
    ["polyfix", "--config", GOLDEN_CFG, "--tol", "1e-3"],
    ["golden", "fp", "--radius", "1.5"],
    ["golden", "identity", "--tol", "1e-3"],
    ["golden", "figure", "--radius", "1.5"],
    ["golden", "figure", "--parallel"],
    ["golden", "sfs", "--parallel"],
])
def test_ignored_flags_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_golden_digest_covers_what_the_subcommand_reads(capsys):
    def digest(params):
        return hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()

    _, report, _ = run_cli(capsys, "golden", "identity", "--depth", "10")
    assert report["inputs_digest"] == digest({"cmd": "identity", "depth": 10})
    _, report, _ = run_cli(capsys, "golden", "sfs", "--depth", "2")
    assert report["inputs_digest"] == digest({"cmd": "sfs", "depth": 2})


def test_derivative_route_non_polynomial_remainder_exits_3(capsys, monkeypatch):
    # an integration that adds z^(m+1) leaves T h - h with a part no degree
    # < m correction removes; the residual gate rejects it
    original = fixpoint.integrate_from_zero

    def skewed(f):
        return linear_combine([(1.0, original(f)), (1.0, monomial(3, f.radius))])

    monkeypatch.setattr(fixpoint, "integrate_from_zero", skewed)
    code, report, err = run_cli(
        capsys, "fixpoint", "--config", GOLDEN_CFG, "--radius", "1.2",
        "--seed-location", "0", "0", "--seed-order", "2", "--route", "derivative")
    assert code == 3 and report is None
    assert err.startswith("error: residual ") and " above tolerance 1e-08" in err
