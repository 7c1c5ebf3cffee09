import argparse
import functools
import json
import re
import shlex
from pathlib import Path

import pytest

from semicontract import cli, signals
from semicontract.cli import build_parser, main
from semicontract.signals import SwitchingSignal
from semicontract.testdata import bundled_config_path


def strip_timestamp(text: str) -> str:
    return re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', text)


def strict_json(text: str):
    """json.loads that rejects NaN and Infinity, which are not JSON."""
    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="module")
def saddle2d_report(tmp_path_factory):
    """The report of a default analyze of the bundled saddle2d, whose family
    dwell bounds simulate --bounds-from checks a run against."""
    out = tmp_path_factory.mktemp("analysis")
    assert main(["analyze", "--out", str(out)]) == 0
    return out / "report.json"


def test_analyze_bundled_config_passes(tmp_path):
    code = main(["analyze", "--grid", "21", "--out", str(tmp_path)])
    assert code == 0
    report = strict_json((tmp_path / "report.json").read_text())
    assert report["all_pass"] is True
    names = {s["name"] for s in report["subspaces"]}
    assert names == {"antidiag", "diag"}
    assert report["family"]["separating"] is True
    for verdict in report["verdicts"]:
        assert set(verdict) == {"name", "ok"}
    diag = next(s for s in report["subspaces"] if s["name"] == "diag")
    assert diag["modes"]["1"]["tag"] == "S"
    assert diag["modes"]["2"]["tag"] == "U"
    # bounds from the configured constants match the published figures
    family = report["family"]["dwell_bounds"]
    for q in ("1", "2"):
        assert abs(family["lower"][q] - 0.1584) <= 1e-4
        assert abs(family["upper"][q] - 0.3960) <= 1e-4
    # every numeric verdict carries value, bound, margin, tolerance
    rate = diag["modes"]["1"]["rate_check"]
    assert {"value", "bound", "margin", "tolerance"} <= set(rate)
    coupling = diag["coupling"]["1->2"]
    assert {"ratio", "bound", "margin", "tolerance"} <= set(coupling)


def test_analyze_deterministic_output(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert main(["analyze", "--grid", "11", "--out", str(a_dir)]) == 0
    assert main(["analyze", "--grid", "11", "--out", str(b_dir)]) == 0
    a = strip_timestamp((a_dir / "report.json").read_text())
    b = strip_timestamp((b_dir / "report.json").read_text())
    assert a == b


@pytest.mark.parametrize("golden, argv", [
    ("analyze_saddle2d_grid41.json", ["--grid", "41"]),
    ("analyze_saddle4d_grid5.json", ["--config", "saddle4d", "--search-weights", "--grid", "5"]),
    ("analyze_saddle4d_grid9.json", ["--config", "saddle4d", "--search-weights", "--grid", "9"]),
    ("analyze_saddle4d_grid13.json", ["--config", "saddle4d", "--search-weights", "--grid", "13"]),
])
def test_analyze_reports_equal_the_golden_reports(tmp_path, golden, argv):
    # tests/data holds reports from the AST-evaluated Jacobians and per-matrix
    # solves (numpy 2.4.6); the fast paths must keep every byte but generated_at.
    # The saddle4d reports were regenerated once the scalar-weight search read
    # the unit weight's growth for the escalated weight: 17 floats moved 1 ulp
    argv = [str(bundled_config_path(a)) if a == "saddle4d" else a for a in argv]
    assert main(["analyze", *argv, "--out", str(tmp_path)]) == 0
    expected = (Path(__file__).parent / "data" / golden).read_text(encoding="utf-8")
    assert strip_timestamp((tmp_path / "report.json").read_text(encoding="utf-8")) == \
        strip_timestamp(expected)


def test_analyze_search_weights_recovers_ratio(tmp_path):
    # drop the P matrices, keep the published constants
    doc = json.loads(bundled_config_path("saddle2d").read_text())
    for cert in doc["certificates"]:
        del cert["P"]
    config = tmp_path / "nop.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["analyze", "--config", str(config), "--grid", "21",
                 "--search-weights", "--out", str(out)])
    assert code == 0
    report = strict_json((out / "report.json").read_text())
    diag = next(s for s in report["subspaces"] if s["name"] == "diag")
    ratio = diag["constants"]["tightest_beta_stable"]
    assert abs(ratio - 1.6084) < 1e-3


def test_analyze_single_subspace_not_separating(tmp_path):
    doc = json.loads(bundled_config_path("saddle2d").read_text())
    doc["subspaces"] = doc["subspaces"][:1]
    doc["certificates"] = doc["certificates"][:1]
    config = tmp_path / "single.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["analyze", "--config", str(config), "--grid", "11", "--out", str(out)])
    assert code == 1
    report = strict_json((out / "report.json").read_text())
    assert report["family"]["separating"] is False
    assert any(v["name"] == "family:separating" and not v["ok"] for v in report["verdicts"])


def test_analyze_reports_a_failed_jump_factor_verdict(tmp_path, capsys):
    # equal weights make every jump ratio 1, above the unstable factor 0.5;
    # the family still separates, and its decay constants at the reference
    # dwell have a norm prefactor below 1, which only the coupling verdicts judge
    doc = json.loads(bundled_config_path("saddle2d").read_text())
    for cert in doc["certificates"]:
        cert["P"]["2"] = cert["P"]["1"]
        cert.update(beta_S=1.0, beta_U=0.5)
    config = tmp_path / "equal_weights.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(config), "--grid", "5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("failed conditions: antidiag:coupling:1->2, "
                                       "diag:coupling:2->1\n")
    report = strict_json((out / "report.json").read_text())
    assert [v["name"] for v in report["verdicts"] if not v["ok"]] == \
        ["antidiag:coupling:1->2", "diag:coupling:2->1"]
    decay = report["family"]["decay_at_reference_dwell"]["per_subspace"]
    assert decay["diag"]["norm_prefactor"] < 1.0


def test_analyze_raises_a_derived_stable_jump_factor_below_1_to_1(tmp_path, capsys):
    # swapped diag weights drop on the switch out of the stable mode 1, so the
    # tightest stable factor is 1/1.6084; the report states it and judges 1.0
    doc = json.loads(bundled_config_path("saddle2d").read_text())
    diag = next(cert for cert in doc["certificates"] if cert["subspace"] == "diag")
    diag["P"]["1"], diag["P"]["2"] = diag["P"]["2"], diag["P"]["1"]
    del diag["beta_S"]
    config = tmp_path / "swapped.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(config), "--grid", "5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "failed conditions: diag:coupling:2->1\n"
    report = strict_json((out / "report.json").read_text())
    constants = next(s for s in report["subspaces"] if s["name"] == "diag")["constants"]
    assert constants["beta_stable"] == 1.0
    assert constants["tightest_beta_stable"] == pytest.approx(0.6217402757046272)


def axis_config(tmp_path):
    """saddle2d with antidiag spanned by [1, 0]: its complement span [0, 1]
    is invariant under neither mode."""
    doc = json.loads(bundled_config_path("saddle2d").read_text())
    antidiag = next(s for s in doc["subspaces"] if s["name"] == "antidiag")
    antidiag["span"] = [[1.0, 0.0]]
    config = tmp_path / "axis.json"
    config.write_text(json.dumps(doc))
    return config


def test_analyze_reports_a_complement_that_is_not_invariant(tmp_path, capsys):
    config = axis_config(tmp_path)
    out = tmp_path / "out"
    argv = ["analyze", "--config", str(config), "--search-weights", "--grid", "11"]
    assert main([*argv, "--out", str(out)]) == 1
    report = strict_json((out / "report.json").read_text())
    rejected, certified = report["subspaces"]
    assert rejected["name"] == "antidiag" and certified["name"] == "diag"
    assert list(rejected) == ["name", "dimension", "basis", "invariance"]
    inv = rejected["invariance"]["1"]
    assert inv["ok"] is False
    assert inv["worst_residual"] > inv["tolerance"] == 1e-9
    assert len(inv["worst_point"]) == 2
    assert {"modes", "coupling", "constants", "dwell_bounds"} <= set(certified)
    failed = [v["name"] for v in report["verdicts"] if not v["ok"]]
    assert "antidiag:invariance:mode1" in failed
    assert not any(name.startswith("diag:") for name in failed)
    # the family is the certified diag alone, which does not separate R^2
    assert report["family"]["separating"] is False
    assert "family:separating" in failed
    assert "failed conditions: antidiag:invariance:mode1" in capsys.readouterr().err


def test_invariance_is_judged_at_its_own_tolerance_whatever_tol(tmp_path):
    # --tol sets the semidefinite checks; the complement is accepted at 1e-9
    assert main(["analyze", "--grid", "11", "--tol", "1e-6", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "report.json").read_text()
    report = strict_json(text)
    assert report["provenance"]["tolerance"] == 1e-6
    for section in report["subspaces"]:
        for inv in section["invariance"].values():
            assert inv["tolerance"] == 1e-9
    assert text.count('"tolerance": 1e-09') == 4


def test_simulate_skips_the_bounds_when_a_complement_is_not_invariant(tmp_path, capsys):
    # without a report the run has no bounds verdict; the report analyze writes
    # for this configuration holds no family bounds, so simulate refuses it
    config = str(axis_config(tmp_path))
    out = tmp_path / "out"
    argv = ["simulate", "--config", config, "--horizon", "2", "--step", "2e-3",
            "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    report = strict_json((out / "simulation.json").read_text())
    assert "signal_within_bounds" not in report
    assert "signal_within_bounds" not in {v["name"] for v in report["verdicts"]}
    assert main(["analyze", "--config", config, "--search-weights", "--grid", "11",
                 "--out", str(tmp_path)]) == 1
    capsys.readouterr()
    assert main([*argv, "--bounds-from", str(tmp_path / "report.json")]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: report holds no family dwell bounds")


def saddle4d_without_subspaces(tmp_path):
    doc = json.loads(bundled_config_path("saddle4d").read_text())
    doc["subspaces"], doc["certificates"] = [], []
    config = tmp_path / "bare.json"
    config.write_text(json.dumps(doc))
    return config


# where analyze refuses, there is no report, and simulate runs without a
# bounds verdict; saddle4d configures no P matrices, so only --search-weights
# certifies it
@pytest.mark.parametrize("config, flags, reason", [
    (lambda tmp_path: bundled_config_path("saddle4d"), [],
     "no certificates for subspaces ['antidiag', 'diag']; supply P matrices or use weight "
     "search"),
    (lambda tmp_path: bundled_config_path("saddle4d"), ["--search-weights"], None),
    (saddle4d_without_subspaces, ["--search-weights"], "configuration declares no subspaces"),
])
def test_simulate_skips_the_bounds_where_analyze_refuses(tmp_path, capsys, config, flags,
                                                         reason):
    config = str(config(tmp_path))
    out = tmp_path / "out"
    argv = ["simulate", "--config", config, "--initial", "1,0,0,0", "0,1,0,0",
            "--horizon", "1", "--step", "2e-3", "--out", str(out)]
    code = main(["analyze", "--config", config, "--grid", "3", *flags, "--out", str(tmp_path)])
    if reason is None:
        assert code == 0
        argv += ["--bounds-from", str(tmp_path / "report.json")]
    else:
        assert code == 1
        assert capsys.readouterr().err == f"analysis failed: {reason}\n"
        assert not (tmp_path / "report.json").exists()
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    report = strict_json((out / "simulation.json").read_text())
    if reason is None:
        assert report["signal_within_bounds"]["ok"] is True
    else:
        assert "signal_within_bounds" not in report


def two_axes_config(tmp_path, field_1, field_2):
    """A 2-D configuration on the box [-1, 1]^2 with the axis subspaces 'a'
    and 'b' and no P matrices, whose modes have the fields field_1, field_2."""
    doc = {"name": "axes", "dimension": 2, "domain": [[-1.0, 1.0], [-1.0, 1.0]],
           "modes": [{"id": 1, "field": field_1}, {"id": 2, "field": field_2}],
           "subspaces": [{"name": "a", "span": [[1.0, 0.0]]},
                         {"name": "b", "span": [[0.0, 1.0]]}],
           "certificates": []}
    config = tmp_path / "axes.json"
    config.write_text(json.dumps(doc))
    return str(config)


# the pole used to end analyze in an EvaluationError traceback, which no
# handler caught; the infeasible subspace used to go unnamed
@pytest.mark.parametrize("fields, reason", [
    ((["1/x1", "-x2"], ["-x1", "x2"]), "non-finite value in subexpression -1.0/(x1*x1)"),
    ((["x1", "-x2"], ["x1", "x2"]),
     "subspace 'a': no semi-contracting mode on this subspace: scalar weights cannot make "
     "every expanding-mode exit drop"),
], ids=["jacobian_pole_at_a_sample", "infeasible_subspace"])
def test_an_analysis_that_cannot_certify_fails_in_one_line(tmp_path, capsys, fields, reason):
    config = two_axes_config(tmp_path, *fields)
    out = tmp_path / "out"
    # grid 5 samples x1 = 0
    assert main(["analyze", "--config", config, "--search-weights", "--grid", "5",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"analysis failed: {reason}\n"
    assert not out.exists()


# analyze used to record a --seed that drew nothing as provenance.seed
@pytest.mark.parametrize("flags", [["--grid", "5"], []], ids=["grid", "default_grid"])
def test_analyze_seed_without_random_points_is_a_usage_error(tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert main(["analyze", *flags, "--seed", "9", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("usage error: --seed needs random sample points, and a "
                                       "grid draws none (add --samples)\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, scheme", [
    (["--grid", "3", "--samples", "4", "--seed", "9"],
     {"grid_per_axis": 3, "random_count": 4, "seed": 9}),
    (["--samples", "4"], {"grid_per_axis": 0, "random_count": 4, "seed": 0}),
    # above dimension 3 the default scheme is 1000 seeded random points
    (["--config", str(bundled_config_path("saddle4d")), "--search-weights", "--seed", "3"],
     {"grid_per_axis": 0, "random_count": 1000, "seed": 3}),
], ids=["grid_and_samples", "samples_without_seed", "saddle4d_default_scheme"])
def test_analyze_records_the_seed_it_draws_with(tmp_path, argv, scheme):
    assert main(["analyze", *argv, "--out", str(tmp_path)]) == 0
    provenance = strict_json((tmp_path / "report.json").read_text())["provenance"]
    assert provenance["sample_scheme"] == scheme
    assert provenance["seed"] == scheme["seed"]


def test_analyze_config_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not valid json")
    assert main(["analyze", "--config", str(bad)]) == 2


# an empty --config is a path like any other, not an omitted flag
@pytest.mark.parametrize("command, name", [
    ("analyze", "missing.json"), ("simulate", "missing.json"), ("analyze", ""), ("simulate", ""),
], ids=["analyze", "simulate", "analyze-empty", "simulate-empty"])
def test_a_missing_config_file_is_a_config_error(tmp_path, capsys, command, name):
    missing = str(tmp_path / name) if name else name
    out = tmp_path / "out"
    assert main([command, "--config", missing, "--grid" if command == "analyze" else "--horizon",
                 "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read configuration: ")
    assert missing in err
    assert not out.exists()


# an empty output path is refused by the parser, not read as the flag left out
@pytest.mark.parametrize("argv", [
    ["analyze", "--grid", "5", "--out", ""],
    ["simulate", "--horizon", "2", "--step", "1e-2", "--out", ""],
    ["signal", "gen", "--periodic", "0.35", "--horizon", "2", "--out-file", ""],
    ["reproduce", "--out", ""],
], ids=["analyze", "simulate", "signal-gen", "reproduce"])
def test_an_empty_output_path_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[-2]}: expected a non-empty path, got ''" in captured.err
    assert list(tmp_path.iterdir()) == []


def without_modes(doc):
    doc["modes"] = []


def with_a_zero_span(doc):
    doc["subspaces"][0]["span"] = [[1e-12, 0.0], [0.0, 0.0]]


def with_a_weight_for_mode_3(doc):
    doc["certificates"][0]["P"]["3"] = [[1.0, 0.0], [0.0, 1.0]]


def with_a_weight_for_mode_1_only(doc):
    del doc["certificates"][0]["P"]["2"]


def with_a_first_component(text):
    """A change that sets mode 1's first field component to text."""
    def change(doc):
        doc["modes"][0]["field"][0] = text
    return change


def too_deep(what, levels):
    return (f"mode 1, {what} is an expression {levels} levels deep, more than the 200 a "
            "generated kernel can hold")


PARENTHESES_300 = "(" * 300 + "x1" + ")" * 300


def edited(section, index, **fields):
    """A change that sets fields of doc[section][index]; a field set to None
    is deleted."""
    def change(doc):
        entry = doc[section][index]
        for key, value in fields.items():
            if value is None:
                del entry[key]
            else:
                entry[key] = value
    return change


# well-formed JSON that no analysis or simulation can run on
BAD_CONFIGS = {
    "no_modes": (without_modes, "configuration declares no modes"),
    "zero_span": (with_a_zero_span,
                  "subspace 'diag': all spanning vectors are numerically zero"),
    "non_finite_span": (edited("subspaces", 0, span=[[float("nan"), 1.0]]),
                        "subspace 'diag': spanning vector [nan, 1.0] is not finite"),
    "subspace_without_span": (edited("subspaces", 0, span=None), "bad configuration: 'span'"),
    "subspace_without_name": (edited("subspaces", 0, name=None), "bad configuration: 'name'"),
    "subspace_name_with_markup": (edited("subspaces", 0, name="d<i&ag"),
                                  "subspace 'd<i&ag': a name is a non-empty run of ASCII "
                                  "letters, digits, '_', '-' or '.'"),
    "subspace_name_with_a_comma": (edited("subspaces", 0, name="a,b"),
                                   "subspace 'a,b': a name is a non-empty run of ASCII "
                                   "letters, digits, '_', '-' or '.'"),
    "certificate_without_subspace": (edited("certificates", 0, subspace=None),
                                     "bad configuration: 'subspace'"),
    "weight_key_not_a_mode_id": (edited("certificates", 0, P={"x": [[1.0, 0.0], [0.0, 1.0]]}),
                                 "bad configuration: invalid literal for int() with base 10: 'x'"),
    "weights_not_a_mapping": (edited("certificates", 0, P=[[1.0, 0.0], [0.0, 1.0]]),
                              "bad configuration: 'list' object has no attribute 'items'"),
    "jump_factor_not_a_number": (edited("certificates", 0, beta_S="abc"),
                                 "bad configuration: could not convert string to float: 'abc'"),
    "jump_factor_not_finite": (edited("certificates", 0, beta_S="nan"),
                               "certificate constant beta_S is not finite: 'nan'"),
    "rate_not_finite": (edited("certificates", 0, eta_U="inf"),
                        "certificate constant eta_U is not finite: 'inf'"),
    "non_finite_weight": (edited("certificates", 0, P={"1": [[float("nan"), 0.5], [0.5, 0.5]],
                                                         "2": [[1.0, 1.0], [1.0, 1.0]]}),
                          "the certificate of subspace 'diag' weights mode 1 by "
                          "[[nan, 0.5], [0.5, 0.5]], not a 2x2 matrix of finite numbers"),
    "weight_of_the_wrong_shape": (edited("certificates", 0, P={"1": [[1.0, 1.0, 0.0]] * 2,
                                                                "2": [[1.0, 1.0], [1.0, 1.0]]}),
                                  "the certificate of subspace 'diag' weights mode 1 by "
                                  "[[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]], not a 2x2 matrix of "
                                  "finite numbers"),
    "weight_for_some_modes_only": (with_a_weight_for_mode_1_only,
                                   "the certificate of subspace 'diag' weights some modes "
                                   "but not mode 2"),
    "weight_for_an_unknown_mode": (with_a_weight_for_mode_3,
                                   "the certificate of subspace 'diag' weights mode 3, "
                                   "which the system lacks"),
    "certificate_for_an_unknown_subspace": (edited("certificates", 0, subspace="nowhere"),
                                            "a certificate names the unknown subspace 'nowhere'"),
    "two_subspaces_with_one_name": (edited("subspaces", 1, name="diag"),
                                    "two subspaces are named 'diag'"),
    "two_certificates_for_one_subspace": (edited("certificates", 1, subspace="diag"),
                                          "subspace 'diag' has two certificates"),
    # each used to fail with a RecursionError or a SyntaxError in a generated kernel
    "sum_of_600_terms": (with_a_first_component("+".join(["x1"] * 600)),
                         too_deep("field component 1", 600)),
    "sum_of_1200_terms": (with_a_first_component("+".join(["x1"] * 1200)),
                          too_deep("field component 1", 1200)),
    "sum_of_210_terms": (with_a_first_component("+".join(["x1"] * 210)),
                         too_deep("field component 1", 210)),
    "product_of_120_factors": (with_a_first_component("*".join(["x1"] * 120)),
                               too_deep("Jacobian entry (1, 1)", 238)),
    "300_nested_parentheses": (with_a_first_component(PARENTHESES_300),
                               "bad configuration: parentheses nested more than 200 deep at "
                               f"position 200: {PARENTHESES_300!r}"),
    # each used to stop analyze with "analysis failed" (exit 1)
    "stable_jump_factor_below_1": (edited("certificates", 0, beta_S=0.9),
                                   "the certificate of subspace 'diag' has beta_S = 0.9, "
                                   "not >= 1"),
    "unstable_jump_factor_of_0": (edited("certificates", 0, beta_U=0),
                                  "the certificate of subspace 'diag' has beta_U = 0.0, "
                                  "not in (0, 1)"),
    "unstable_jump_factor_of_1": (edited("certificates", 0, beta_U=1),
                                  "the certificate of subspace 'diag' has beta_U = 1.0, "
                                  "not in (0, 1)"),
    "stable_rate_of_0": (edited("certificates", 0, eta_S=0),
                         "the certificate of subspace 'diag' has eta_S = 0.0, not > 0"),
    "unstable_rate_of_0": (edited("certificates", 1, eta_U=-0.0),
                           "the certificate of subspace 'antidiag' has eta_U = 0.0, not > 0"),
    # each used to be truncated or read as a number, changing the system analysed
    "dimension_with_a_fraction": (lambda doc: doc.update(dimension=2.7),
                                  "dimension is not an integer: 2.7"),
    # used to die with an OverflowError traceback
    "infinite_dimension": (lambda doc: doc.update(dimension=float("inf")),
                           "dimension is not an integer: inf"),
    "mode_id_with_a_fraction": (edited("modes", 1, id=2.9), "mode id is not an integer: 2.9"),
    "mode_id_true": (edited("modes", 0, id=True), "mode id is not an integer: True"),
    "jump_factor_true": (edited("certificates", 0, beta_S=True),
                         "certificate constant beta_S is not a number: True"),
    # each used to be read as 1, changing the system analysed
    "domain_bound_true": (lambda doc: doc.update(domain=[[-5, True], [-5, 5]]),
                          "domain holds a boolean, not a number: [[-5, True], [-5, 5]]"),
    "span_entry_true": (edited("subspaces", 0, span=[[True, 1.0]]),
                        "subspace 'diag': span holds a boolean, not a number: [[True, 1.0]]"),
    "weight_entry_true": (edited("certificates", 0, P={"1": [[True, 0.5], [0.5, 0.5]],
                                                         "2": [[1.0, 1.0], [1.0, 1.0]]}),
                          "subspace 'diag': P['1'] holds a boolean, not a number: "
                          "[[True, 0.5], [0.5, 0.5]]"),
}


@pytest.mark.parametrize("command", [["analyze", "--grid", "5"], ["simulate", "--horizon", "1"]])
@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_a_bad_config_is_a_config_error(tmp_path, capsys, command, case):
    doc = json.loads(bundled_config_path("saddle2d").read_text())
    change, message = BAD_CONFIGS[case]
    change(doc)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([*command, "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "--grid", "5", "--out"],
    ["simulate", "--horizon", "1", "--out"],
    ["reproduce", "--out"],
    ["signal", "gen", "--periodic", "0.35", "--out-file"],
], ids=["analyze", "simulate", "reproduce", "signal gen"])
def test_an_output_path_below_a_file_is_an_output_error(tmp_path, capsys, argv):
    blocker = tmp_path / "f"
    blocker.touch()
    target = blocker / "x.csv" if argv[-1] == "--out-file" else blocker
    assert main([*argv, str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ")
    assert str(blocker) in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert blocker.is_file() and blocker.read_bytes() == b""


def test_strict_flag_reports_open_bounds(tmp_path):
    out = tmp_path / "out"
    assert main(["analyze", "--grid", "11", "--margin", "0", "--out", str(out)]) == 0
    report = strict_json((out / "report.json").read_text())
    assert report["subspaces"][0]["dwell_bounds"]["boundary"] == "open"
    assert report["subspaces"][0]["dwell_bounds"]["margin"] == 0.0


def test_simulate_periodic_035_decays(tmp_path, saddle2d_report):
    code = main([
        "simulate", "--periodic", "0.35", "--horizon", "6", "--step", "2e-3",
        "--bounds-from", str(saddle2d_report), "--out", str(tmp_path), "--plot",
    ])
    assert code == 0
    report = strict_json((tmp_path / "simulation.json").read_text())
    assert report["distance_ratio"] < 0.1
    assert report["signal_within_bounds"]["ok"] is True
    assert (tmp_path / "distance.svg").exists()
    assert (tmp_path / "trajectory_a.csv").exists()
    header = (tmp_path / "distance.csv").read_text().splitlines()[0]
    assert header == "time,norm_full,norm_antidiag,norm_diag"


def test_simulate_dwell_1_flags_bounds_violation(tmp_path, capsys, saddle2d_report):
    code = main([
        "simulate", "--periodic", "1.0", "--horizon", "6", "--step", "2e-3",
        "--bounds-from", str(saddle2d_report), "--out", str(tmp_path),
    ])
    assert code == 1
    err = capsys.readouterr().err
    # the detail names the mode, the activation, its length and the broken bound
    detail = ("bounds violated by signal in mode 1, activation 0: "
              "activation lasts 1 > 0.39608")
    assert err.splitlines()[-1] == detail
    report = strict_json((tmp_path / "simulation.json").read_text())
    assert report["signal_within_bounds"] == {"ok": False, "detail": detail}


def test_simulate_random_signal_compliant(tmp_path, saddle2d_report):
    code = main([
        "simulate", "--random-signal", "--seed", "7", "--horizon", "6",
        "--step", "2e-3", "--bounds-from", str(saddle2d_report), "--out", str(tmp_path),
    ])
    assert code == 0
    report = strict_json((tmp_path / "simulation.json").read_text())
    assert report["signal_within_bounds"]["ok"] is True
    assert report["distance_ratio"] < 1.0


def test_simulate_checks_the_bounds_the_report_states(tmp_path, capsys, saddle2d_report):
    # the 0.35 s periodic signal meets the analysed bounds but not a report
    # whose upper bounds were edited down to 0.34
    doc = json.loads(saddle2d_report.read_text())
    doc["family"]["dwell_bounds"]["upper"] = {"1": 0.34, "2": 0.34}
    edited_report = tmp_path / "edited.json"
    edited_report.write_text(json.dumps(doc))
    argv = ["simulate", "--periodic", "0.35", "--horizon", "2", "--step", "2e-3"]
    assert main([*argv, "--bounds-from", str(saddle2d_report), "--out", str(tmp_path)]) == 0
    assert main([*argv, "--bounds-from", str(edited_report), "--out", str(tmp_path)]) == 1
    detail = ("bounds violated by signal in mode 1, activation 0: "
              "activation lasts 0.35 > 0.34")
    assert capsys.readouterr().err.splitlines()[-1] == detail
    report = strict_json((tmp_path / "simulation.json").read_text())
    assert report["signal_within_bounds"] == {"ok": False, "detail": detail}


@pytest.mark.parametrize("signal_flag", ["--periodic", "--random-signal"])
def test_simulate_refuses_a_report_without_bounds_for_a_mode(tmp_path, capsys, saddle2d_report,
                                                             signal_flag):
    doc = json.loads(saddle2d_report.read_text())
    for side in ("lower", "upper"):
        del doc["family"]["dwell_bounds"][side]["2"]
    edited_report = tmp_path / "edited.json"
    edited_report.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = ["simulate", signal_flag, *(["0.35"] if signal_flag == "--periodic" else []),
            "--horizon", "2", "--bounds-from", str(edited_report), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "config error: report has no dwell bounds for mode 2\n"
    assert not out.exists()


def saddle2d_with_another_comment(tmp_path):
    doc = json.loads(bundled_config_path("saddle2d").read_text())
    doc["comment"] = "the same system, another document"
    config = tmp_path / "other.json"
    config.write_text(json.dumps(doc))
    return config


@pytest.mark.parametrize("config, initial", [
    (saddle2d_with_another_comment, ["2,-1", "-2,1"]),
    (lambda tmp_path: bundled_config_path("saddle4d"), ["1,0,0,0", "0,1,0,0"]),
])
def test_simulate_refuses_a_report_for_another_configuration(tmp_path, capsys, saddle2d_report,
                                                             config, initial):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config(tmp_path)), "--initial", *initial,
                 "--horizon", "1", "--bounds-from", str(saddle2d_report),
                 "--out", str(out)]) == 2
    recorded = strict_json(saddle2d_report.read_text())["provenance"]["config_sha256"]
    err = capsys.readouterr().err
    assert err.startswith(f"config error: report was made from another configuration "
                          f"(config_sha256 {recorded}, not ")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_simulate_divergence_is_reported_not_raised(tmp_path, capsys):
    config = tmp_path / "blowup.json"
    config.write_text(json.dumps({
        "dimension": 1, "domain": [[-10, 10]],
        "modes": [{"id": 1, "field": ["x1^2"]}, {"id": 2, "field": ["x1^2"]}],
    }))
    code = main(["simulate", "--config", str(config), "--initial", "1", "0.5",
                 "--horizon", "5", "--periodic", "1.0", "--out", str(tmp_path)])
    assert code == 1
    assert "finite_trajectories" in capsys.readouterr().err
    report = strict_json((tmp_path / "simulation.json").read_text())
    assert report["verdicts"] == [{"name": "finite_trajectories", "ok": False}]
    assert 1.0 < report["divergence_time"] < 5.0


def test_simulate_reports_leaving_the_domain(tmp_path, capsys):
    code = main(["simulate", "--initial", "4.5,-4.5", "-2,1", "--horizon", "1",
                 "--step", "2e-3", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == ("failed: trajectories_within_domain\n"
                   "trajectory a leaves the domain box at t = 0.24\n")
    report = strict_json((tmp_path / "simulation.json").read_text())
    assert {"name": "trajectories_within_domain", "ok": False} in report["verdicts"]
    assert report["domain_exit"] == {"trajectory": "a", "time": pytest.approx(0.24)}


def test_simulate_random_signal_without_certified_bounds_exits_2(tmp_path, capsys):
    # --random-signal draws within a report's family bounds: without a report
    # it is a usage error, and a report whose family does not separate has none
    out = tmp_path / "out"
    assert main(["simulate", "--random-signal", "--horizon", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "usage error: --random-signal needs --bounds-from")
    report = non_separating_report(tmp_path)
    capsys.readouterr()
    assert main(["simulate", "--config", str(tmp_path / "single.json"), "--random-signal",
                 "--bounds-from", str(report), "--horizon", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: report holds no family dwell bounds")
    assert not out.exists()


@pytest.mark.parametrize("signal_flags", [["--periodic", "0.35"], ["--random-signal"],
                                          ["--signal", "events.csv"]])
def test_simulate_too_short_for_the_rate_fit_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                              saddle2d_report, signal_flags):
    # 2 steps of 1e-3: the fit window [t0 + 0.2 (T - t0), T] holds two samples
    monkeypatch.chdir(tmp_path)
    if "--random-signal" in signal_flags:
        signal_flags = [*signal_flags, "--bounds-from", str(saddle2d_report)]
    out = tmp_path / "out"

    def simulate(horizon):
        # a signal file records its horizon, which --horizon sets for the others
        (tmp_path / "events.csv").write_text(f"time,mode\n0.0,1\n{horizon},end\n")
        flags = [] if "--signal" in signal_flags else ["--horizon", horizon]
        return main(["simulate", *signal_flags, *flags, "--out", str(out)])

    assert simulate("0.002") == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("config error: ") and "raise the horizon or lower --step" in err
    assert not out.exists()
    # no signal starting at 0 ends within TIME_EPS of its start
    assert simulate("1e-12") == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")
    if "--signal" not in signal_flags:
        assert "--horizon 1e-12 must exceed the start time" in err
    assert not out.exists()
    # one more step puts 3 samples in the window
    assert simulate("0.003") == 0


def test_simulate_fits_the_rate_on_the_last_80_percent_of_a_late_signal(tmp_path):
    # a signal from t = 5 to the horizon 10: the window starts at 5 + 0.2 * 5
    signal = tmp_path / "late.csv"
    assert main(["signal", "gen", "--periodic", "0.35", "--t0", "5", "--horizon", "10",
                 "--out-file", str(signal)]) == 0
    assert main(["simulate", "--signal", str(signal), "--step", "1e-2",
                 "--out", str(tmp_path)]) == 0
    report = strict_json((tmp_path / "simulation.json").read_text())
    assert report["rate_fit"]["window"] == [6.0, 10.0]


def test_simulate_replays_the_signal_file_it_wrote(tmp_path, saddle2d_report):
    # the replay used to end at the default --horizon 10, so its last
    # activation lasted 6.15 s and broke the bounds the original run kept
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--random-signal", "--seed", "4", "--horizon", "4",
                 "--bounds-from", str(saddle2d_report), "--out", str(a_dir)]) == 0
    assert main(["simulate", "--signal", str(a_dir / "signal.csv"),
                 "--bounds-from", str(saddle2d_report), "--out", str(b_dir)]) == 0
    runs = [strict_json((out / "simulation.json").read_text()) for out in (a_dir, b_dir)]
    # only the run that drew its signal records the seed
    assert runs[0]["provenance"].pop("seed") == 4
    assert "seed" not in runs[1]["provenance"]
    assert runs[0] == runs[1]
    assert runs[1]["provenance"]["horizon"] == 4.0
    for name in ("signal.csv", "distance.csv", "trajectory_a.csv", "trajectory_b.csv"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


# simulate used to accept --seed with any signal and record it as provenance.seed
@pytest.mark.parametrize("signal_flags", [[], ["--periodic", "0.35"], ["--signal", "{signal}"]],
                         ids=["default", "periodic", "signal"])
def test_simulate_seed_without_random_signal_is_a_usage_error(tmp_path, capsys, signal_flags):
    signal = tmp_path / "sig.csv"
    assert main(["signal", "gen", "--periodic", "0.35", "--horizon", "2",
                 "--out-file", str(signal)]) == 0
    capsys.readouterr()
    flags = [flag.replace("{signal}", str(signal)) for flag in signal_flags]
    assert main(["simulate", *flags, "--seed", "9", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "usage error: --seed needs --random-signal, the only signal it draws\n")
    assert not (tmp_path / "simulation.json").exists()


def test_simulate_records_the_seed_of_a_random_signal_only(tmp_path, saddle2d_report):
    runs = {"default_seed": ["--random-signal", "--bounds-from", str(saddle2d_report)],
            "seed_0": ["--random-signal", "--seed", "0", "--bounds-from", str(saddle2d_report)],
            "periodic": ["--periodic", "0.35"]}
    for name, flags in runs.items():
        assert main(["simulate", *flags, "--horizon", "2", "--step", "1e-2",
                     "--out", str(tmp_path / name)]) == 0
    reports = {name: strict_json((tmp_path / name / "simulation.json").read_text())
               for name in runs}
    assert reports["default_seed"] == reports["seed_0"]
    assert reports["seed_0"]["provenance"]["seed"] == 0
    assert "seed" not in reports["periodic"]["provenance"]


def test_simulate_signal_with_horizon_is_a_usage_error(tmp_path, capsys):
    signal = tmp_path / "sig.csv"
    assert main(["signal", "gen", "--periodic", "0.35", "--horizon", "4",
                 "--out-file", str(signal)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["simulate", "--signal", str(signal), "--horizon", "4", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("usage error: --signal cannot be combined with "
                                       "--horizon, whose file records the horizon\n")
    assert not out.exists()


def test_signal_gen_counts_switches(tmp_path, capsys):
    out = tmp_path / "sig.csv"
    code = main(["signal", "gen", "--periodic", "0.35", "--horizon", "10",
                 "--out-file", str(out)])
    assert code == 0
    assert "28 switches" in capsys.readouterr().out
    assert out.read_text().splitlines()[0] == "time,mode"


def test_signal_check_generated_passes(tmp_path, capsys):
    out = tmp_path / "sig.csv"
    main(["signal", "gen", "--periodic", "0.35", "--horizon", "10",
          "--out-file", str(out)])
    capsys.readouterr()  # drop the generator's status line
    code = main(["signal", "check", "--signal", str(out),
                 "--tau-lower", "0.1584", "--tau-upper", "0.3960"])
    assert code == 0
    report = strict_json(capsys.readouterr().out)
    assert report["per_activation"]["ok"] is True
    assert report["mode_1"]["mdadt"]["ok"] is True
    assert report["mode_1"]["mdalt"]["ok"] is True


def test_signal_check_judges_the_signal_up_to_its_written_horizon(tmp_path, capsys):
    # the check used to extend the last activation to the default horizon 10
    # and fail it with "activation lasts 5.2 > 0.4"
    out = tmp_path / "sig.csv"
    assert main(["signal", "gen", "--periodic", "0.3", "--horizon", "5",
                 "--out-file", str(out)]) == 0
    capsys.readouterr()
    assert main(["signal", "check", "--signal", str(out),
                 "--tau-lower", "0.1", "--tau-upper", "0.4"]) == 0
    report = strict_json(capsys.readouterr().out)
    assert report["mode_1"]["max_dwell"] == pytest.approx(0.3)


def test_signal_check_dwell_1_names_offender(tmp_path, capsys):
    out = tmp_path / "sig.csv"
    main(["signal", "gen", "--periodic", "1.0", "--horizon", "10",
          "--out-file", str(out)])
    capsys.readouterr()  # drop the generator's status line
    code = main(["signal", "check", "--signal", str(out),
                 "--tau-lower", "0.1584", "--tau-upper", "0.3960"])
    assert code == 1
    captured = capsys.readouterr()
    report = strict_json(captured.out)
    assert report["per_activation"]["ok"] is False
    assert "activation" in captured.err


BAD_SIGNAL_FILES = {
    "no_mode_column": ("time,mod\n0.0,1\n10.0,end\n", "'mode'"),
    "non_numeric_cell": ("time,mode\n0.0,one\n10.0,end\n", "one"),
    "missing_file": (None, "No such file"),
    # an empty --signal is a path like any other, not an omitted flag
    "empty_path": (None, "Is a directory"),
    # the last activation, up to the horizon 10, lasts about 1e-13 s
    "tiny_last_activation": ("time,mode\n0.0,1\n9.9999999999999,2\n10.0,end\n",
                             "last activation"),
    "nan_switch_time": ("time,mode\n0.0,1\nnan,2\n10.0,end\n", "finite"),
    "nan_horizon": ("time,mode\n0.0,1\nnan,end\n", "finite"),
    "end_row_only": ("time,mode\n10.0,end\n", "initial mode event"),
    # the horizon row closes the file: no flag supplies a horizon
    "no_end_row": ("time,mode\n0.0,1\n1.0,2\n", "lacks its last row `<time>,end`"),
    "end_row_before_the_last": ("time,mode\n0.0,1\n10.0,end\n11.0,2\n",
                                "lacks its last row `<time>,end`"),
    "empty_file": ("", "lacks its last row `<time>,end`"),
    "header_only": ("time,mode\n", "lacks its last row `<time>,end`"),
}


# a signal file that is well formed but enters a mode the configuration lacks
SIMULATE_BAD_SIGNAL_FILES = {
    **BAD_SIGNAL_FILES,
    "unknown_mode": ("time,mode\n0.0,1\n1.0,3\n10.0,end\n", "mode 3"),
}


def write_bad_signal(tmp_path, case):
    text, _ = SIMULATE_BAD_SIGNAL_FILES[case]
    if case == "empty_path":
        return ""
    path = tmp_path / "signal.csv"
    if text is not None:
        path.write_text(text)
    return path


@pytest.mark.parametrize("case", sorted(BAD_SIGNAL_FILES))
def test_signal_check_bad_signal_file_is_a_config_error(tmp_path, capsys, case):
    path = write_bad_signal(tmp_path, case)
    code = main(["signal", "check", "--signal", str(path), "--tau-lower", "0.1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert BAD_SIGNAL_FILES[case][1] in err


def test_signal_check_without_signal_is_a_config_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["signal", "check", "--tau-lower", "0.1"])
    assert exc.value.code == 2
    assert "the following arguments are required: --signal" in capsys.readouterr().err


@pytest.mark.parametrize("use_report, unbounded_mode", [(False, 1), (True, 2)])
def test_signal_check_mode_without_bounds_is_a_config_error(tmp_path, capsys, use_report,
                                                            unbounded_mode):
    # the signal enters modes 1 and 2; no flag bounds either, the report only mode 1
    signal = tmp_path / "signal.csv"
    signal.write_text("time,mode\n0.0,1\n1.0,2\n10.0,end\n")
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"family": {"dwell_bounds": {"lower": {"1": 0.2}, "upper": {}}}}))
    flags = ["--bounds-from", str(report)] if use_report else []
    assert main(["signal", "check", "--signal", str(signal), *flags]) == 2
    assert capsys.readouterr().err == f"config error: no dwell bounds for mode {unbounded_mode}\n"


def test_signal_gen_refuses_a_mode_the_report_does_not_bound(tmp_path, capsys,
                                                             saddle2d_report):
    # mode 3 would be drawn unbounded, and signal check --bounds-from refuses
    # a signal that enters it
    out = tmp_path / "s.csv"
    assert main(["signal", "gen", "--modes", "1,2,3", "--bounds-from", str(saddle2d_report),
                 "--horizon", "5", "--out-file", str(out)]) == 2
    assert capsys.readouterr().err == "config error: report has no dwell bounds for mode 3\n"
    assert not out.exists()
    assert main(["signal", "gen", "--modes", "2,1", "--bounds-from", str(saddle2d_report),
                 "--horizon", "5", "--out-file", str(out)]) == 0
    assert main(["signal", "check", "--signal", str(out),
                 "--bounds-from", str(saddle2d_report)]) == 0


@pytest.mark.parametrize("case", sorted(SIMULATE_BAD_SIGNAL_FILES))
def test_simulate_bad_signal_file_is_a_config_error(tmp_path, capsys, case):
    path = write_bad_signal(tmp_path, case)
    code = main(["simulate", "--signal", str(path), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert SIMULATE_BAD_SIGNAL_FILES[case][1] in err
    assert not (tmp_path / "simulation.json").exists()


# simulate used to report a file that is not UTF-8 as "no signal to simulate"
# (exit 1), signal check as a config error; a field over the csv module's
# limit ended both in a csv.Error traceback
@pytest.mark.parametrize("content, message", [
    (b"time,mode\n0.0,\xff\n10.0,end\n", "'utf-8' codec can't decode"),
    (b"time,mode\n" + b"1" * 200_000 + b",1\n10.0,end\n", "field larger than field limit"),
], ids=["not_utf8", "field_over_the_csv_limit"])
def test_a_signal_file_that_cannot_be_read_is_a_config_error(tmp_path, capsys, content,
                                                             message):
    path = tmp_path / "signal.csv"
    path.write_bytes(content)
    out = tmp_path / "out"
    assert main(["simulate", "--signal", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert main(["signal", "check", "--signal", str(path), "--tau-lower", "0.1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == err[1]
    assert err[0].startswith(f"config error: {message}")


def test_signal_gen_infeasible_bounds(tmp_path, capsys):
    code = main(["signal", "gen", "--horizon", "5", "--tau-lower", "0.5",
                 "--tau-upper", "0.5", "--out-file", str(tmp_path / "x.csv")])
    assert code == 1
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("t0", ["20", "10", "9.9999999999999"])
@pytest.mark.parametrize("signal_flags", [["--periodic", "0.35"],
                                          ["--tau-lower", "0.2", "--tau-upper", "0.5"]])
def test_signal_gen_horizon_not_after_t0_is_a_config_error(tmp_path, capsys, t0, signal_flags):
    out = tmp_path / "signal.csv"
    code = main(["signal", "gen", *signal_flags, "--t0", t0, "--horizon", "10",
                 "--out-file", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: --horizon 10.0 must exceed --t0")
    assert not out.exists()


# flags only the seeded random generator reads, which --periodic used to ignore
@pytest.mark.parametrize("flags", [["--seed", "0"], ["--seed", "3"], ["--tau-lower", "0.2"],
                                   ["--tau-upper", "0.5"], ["--bounds-from", "report.json"]])
def test_signal_gen_periodic_with_a_random_generator_flag_is_a_usage_error(tmp_path, capsys,
                                                                          flags):
    out = tmp_path / "signal.csv"
    code = main(["signal", "gen", "--periodic", "0.35", *flags, "--out-file", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"usage error: --periodic cannot be combined with {flags[0]}, which only the seeded "
        "random generator reads\n")
    assert not out.exists()


# a report supplies both bounds, which --bounds-from used to let win silently
@pytest.mark.parametrize("action", ["gen", "check"])
@pytest.mark.parametrize("flag", ["--tau-lower", "--tau-upper"])
def test_signal_bounds_from_with_a_tau_flag_is_a_usage_error(tmp_path, capsys, action, flag):
    signal = tmp_path / "signal.csv"
    assert main(["signal", "gen", "--periodic", "0.35", "--out-file", str(signal)]) == 0
    capsys.readouterr()
    argv = ["signal", action, "--bounds-from", str(tmp_path / "absent.json"), flag, "0.3"]
    argv += ["--signal", str(signal)] if action == "check" else ["--out-file", str(signal)]
    before = signal.read_bytes()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"usage error: --bounds-from cannot be combined with {flag}, whose bound the report "
        "supplies\n")
    assert signal.read_bytes() == before


# signal gen used to draw every activation unbounded from [1e-6, 10] s, a
# signal that signal check then refused for want of bounds
@pytest.mark.parametrize("flags", [[], ["--seed", "3"], ["--modes", "1,2,3", "--t0", "1"]])
def test_signal_gen_without_a_kind_of_signal_is_a_config_error(tmp_path, capsys, flags):
    out = tmp_path / "signal.csv"
    assert main(["signal", "gen", *flags, "--horizon", "5", "--out-file", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: signal gen needs --periodic, or a bound for the random generator: "
        "--tau-lower, --tau-upper or --bounds-from\n")
    assert not out.exists()


def test_signal_gen_without_seed_uses_seed_0(tmp_path):
    signals = [tmp_path / "default.csv", tmp_path / "seed0.csv"]
    for out, seed in zip(signals, [[], ["--seed", "0"]]):
        assert main(["signal", "gen", "--tau-lower", "0.2", "--tau-upper", "0.5", *seed,
                     "--out-file", str(out)]) == 0
    assert signals[0].read_bytes() == signals[1].read_bytes()


# simulate used to read --signal, else --random-signal, else --periodic
@pytest.mark.parametrize("argv, second, first", [
    (["--periodic", "0.35", "--random-signal"], "--random-signal", "--periodic"),
    (["--periodic", "0.35", "--signal", "s.csv"], "--signal", "--periodic"),
    (["--random-signal", "--signal", "s.csv"], "--signal", "--random-signal"),
])
def test_simulate_takes_one_signal_flag(argv, second, first, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", *argv])
    assert exc.value.code == 2
    assert f"argument {second}: not allowed with argument {first}" in capsys.readouterr().err


def test_simulate_without_a_signal_flag_runs_the_035_periodic_signal(tmp_path):
    assert build_parser().parse_args(["simulate"]).periodic is None
    runs = [tmp_path / "default", tmp_path / "periodic"]
    for out, flags in zip(runs, [[], ["--periodic", "0.35"]]):
        assert main(["simulate", *flags, "--horizon", "2", "--step", "2e-3",
                     "--out", str(out)]) == 0
    for name in ("simulation.json", "distance.csv", "signal.csv"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


def test_simulate_deterministic_csv(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for out in (a_dir, b_dir):
        assert main(["simulate", "--periodic", "0.35", "--horizon", "2",
                     "--step", "2e-3", "--out", str(out)]) == 0
    assert (a_dir / "distance.csv").read_bytes() == (b_dir / "distance.csv").read_bytes()
    assert (a_dir / "trajectory_a.csv").read_bytes() == (b_dir / "trajectory_a.csv").read_bytes()


HELP = {"-h", "--help"}
SUBCOMMAND_OPTIONS = {
    "analyze": {"--config", "--out", "--seed", "--grid", "--samples", "--tol", "--margin",
                "--search-weights"},
    "simulate": {"--config", "--out", "--seed", "--step", "--plot", "--horizon",
                 "--bounds-from", "--periodic", "--random-signal", "--signal", "--initial"},
    "signal gen": {"--modes", "--periodic", "--t0", "--horizon", "--seed", "--tau-lower",
                   "--tau-upper", "--bounds-from", "--out-file"},
    "signal check": {"--signal", "--tau-lower", "--tau-upper", "--bounds-from"},
    "reproduce": {"--out"},
}


def registered_options(parser, prefix=""):
    """Command name ("signal gen" for a nested one) -> the option strings its
    parser registers besides -h/--help, for every command under parser."""
    sub = next((a for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None)
    if sub is None:
        return {prefix: {s for action in parser._actions for s in action.option_strings} - HELP}
    commands = {}
    for name, subparser in sub.choices.items():
        commands.update(registered_options(subparser, f"{prefix} {name}".strip()))
    return commands


def test_each_subcommand_registers_exactly_its_options():
    assert registered_options(build_parser()) == SUBCOMMAND_OPTIONS


def readme_flag_lists():
    """Command -> the flags of its bullet in the README list "Flags of each
    subcommand"."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("Flags of each subcommand", 1)[1].split("\n\n", 2)[1]
    bullets = re.split(r"^- ", section, flags=re.MULTILINE)[1:]
    return {re.match(r"`([a-z ]+)`", bullet).group(1): set(re.findall(r"`(--[a-z0-9-]+)", bullet))
            for bullet in bullets}


def test_the_readme_flag_list_matches_the_parser():
    assert readme_flag_lists() == registered_options(build_parser())


# flags each subcommand used to accept and ignore
@pytest.mark.parametrize("argv", [
    ["analyze", "--step", "1e-2"],
    ["analyze", "--plot"],
    ["simulate", "--tol", "1e-6"],
    ["reproduce", "--config", "other.json"],
    ["reproduce", "--samples", "10"],
    ["reproduce", "--plot"],
    ["reproduce", "--search-weights"],
    ["reproduce", "--example", "saddle2d"],
    ["reproduce", "--strict"],
    ["analyze", "--strict"],
    ["signal", "check", "--signal", "s.csv", "--periodic", "9"],
    ["signal", "check", "--signal", "s.csv", "--modes", "7"],
    ["signal", "check", "--signal", "s.csv", "--t0", "5"],
    ["signal", "check", "--signal", "s.csv", "--seed", "3"],
    ["signal", "check", "--signal", "s.csv", "--out-file", "x.csv"],
    ["signal", "gen", "--signal", "x"],
    # the signal file records its horizon
    ["signal", "check", "--signal", "s.csv", "--horizon", "10"],
    # simulate reads its bounds from a report, not from a second analysis
    ["simulate", "--margin", "1"],
    ["simulate", "--grid", "5"],
    ["simulate", "--samples", "10"],
    ["simulate", "--search-weights"],
    # reproduce runs only at its published settings
    ["reproduce", "--seed", "19"],
    ["reproduce", "--step", "1e-3"],
    ["reproduce", "--grid", "41"],
    ["reproduce", "--tol", "1e-9"],
    ["reproduce", "--margin", "1e-6"],
])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


BAD_FLAG_VALUES = [
    (["analyze", "--grid", "1"], "--grid"),
    (["analyze", "--grid", "2.5"], "--grid"),
    (["analyze", "--samples", "0"], "--samples"),
    (["simulate", "--step", "0"], "--step"),
    (["simulate", "--horizon", "inf"], "--horizon"),
    (["simulate", "--periodic", "nan"], "--periodic"),
    (["signal", "gen", "--modes", "1,x"], "--modes"),
    (["signal", "gen", "--modes", "0,1"], "--modes"),
    (["signal", "gen", "--modes", "1,1"], "--modes"),
    (["signal", "gen", "--periodic", "-1"], "--periodic"),
    (["signal", "gen", "--horizon", "0"], "--horizon"),
    (["signal", "check", "--tau-lower", "-1"], "--tau-lower"),
    (["signal", "check", "--tau-lower", "0"], "--tau-lower"),
    (["signal", "check", "--tau-upper", "x"], "--tau-upper"),
    (["analyze", "--margin", "nan"], "--margin"),
    (["analyze", "--margin", "-2"], "--margin"),
    (["analyze", "--tol", "nan"], "--tol"),
    (["analyze", "--seed", "-1"], "--seed"),
    (["simulate", "--seed", "-1"], "--seed"),
    (["signal", "gen", "--seed", "-1"], "--seed"),
    (["signal", "gen", "--t0", "nan"], "--t0"),
    (["signal", "gen", "--t0", "inf"], "--t0"),
]


@pytest.mark.parametrize("argv, flag", BAD_FLAG_VALUES,
                         ids=[" ".join(argv) for argv, _ in BAD_FLAG_VALUES])
def test_a_flag_value_out_of_range_is_a_usage_error(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected" in err
    assert f"got {argv[-1]!r}" in err


@pytest.mark.parametrize("initial", [["2,x", "2,1"], ["1,2,3", "2,1"], ["2,1", "1"],
                                     ["2,1", "nan,1"], ["2,1", ""], ["1,1", "1,1"],
                                     ["0,1", "-0.0,1.0"]])
def test_a_bad_initial_state_is_a_config_error(tmp_path, capsys, initial):
    code = main(["simulate", "--initial", *initial, "--horizon", "1", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: initial state")
    assert not (tmp_path / "simulation.json").exists()


@pytest.mark.parametrize("initial", [["2,-1", "-2,1"], ["-.5,1", "-1e-1,-2"]])
def test_initial_states_with_negative_coordinates_parse(initial):
    args = build_parser().parse_args(["simulate", "--initial", *initial])
    assert args.initial == initial


def test_simulate_runs_from_negative_initial_states(tmp_path):
    code = main(["simulate", "--initial", "-2,1", "2,-1", "--horizon", "1",
                 "--step", "2e-3", "--out", str(tmp_path)])
    assert code == 0
    report = strict_json((tmp_path / "simulation.json").read_text())
    assert report["provenance"]["initial_states"] == [[-2.0, 1.0], [2.0, -1.0]]


def non_separating_report(tmp_path):
    doc = json.loads(bundled_config_path("saddle2d").read_text())
    doc["subspaces"] = doc["subspaces"][:1]
    doc["certificates"] = doc["certificates"][:1]
    config = tmp_path / "single.json"
    config.write_text(json.dumps(doc))
    assert main(["analyze", "--config", str(config), "--grid", "5", "--out", str(tmp_path)]) == 1
    return tmp_path / "report.json"


def invalid_json_report(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    return path


BAD_REPORTS = {
    "missing_file": lambda tmp_path: tmp_path / "absent.json",
    "empty_path": lambda tmp_path: "",
    "invalid_json": invalid_json_report,
    "not_separating": non_separating_report,
}


@pytest.mark.parametrize("action", ["gen", "check"])
@pytest.mark.parametrize("case", sorted(BAD_REPORTS))
def test_signal_bounds_from_a_bad_report_is_a_config_error(tmp_path, capsys, case, action):
    signal = tmp_path / "sig.csv"
    assert main(["signal", "gen", "--periodic", "0.35", "--horizon", "2",
                 "--out-file", str(signal)]) == 0
    report = BAD_REPORTS[case](tmp_path)
    capsys.readouterr()
    argv = ["signal", action, "--bounds-from", str(report)]
    argv += ["--signal", str(signal)] if action == "check" else ["--out-file", str(signal)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("edit, message", [
    (None, "the lower dwell bound 0.0 for mode 1"),
    (("upper", "2", -0.3), "the upper dwell bound -0.3 for mode 2"),
    (("lower", "2", "0.2"), "the lower dwell bound '0.2' for mode 2"),
])
@pytest.mark.parametrize("command", ["signal check", "signal gen", "simulate"])
def test_a_report_bound_that_is_not_positive_is_a_config_error(tmp_path, capsys, edit,
                                                               message, command):
    # beta_S = 1 makes ln(beta_S) and so every lower bound 0 at margin 0
    doc = json.loads(bundled_config_path("saddle2d").read_text())
    for cert in doc["certificates"]:
        cert["beta_S"] = 1.0
    config = tmp_path / "beta1.json"
    config.write_text(json.dumps(doc))
    assert main(["analyze", "--config", str(config), "--grid", "5", "--margin", "0",
                 "--out", str(tmp_path)]) == 1
    report = tmp_path / "report.json"
    if edit:
        side, mode, value = edit
        doc = json.loads(report.read_text())
        doc["family"]["dwell_bounds"]["lower"] = {"1": 0.2, "2": 0.2}
        doc["family"]["dwell_bounds"][side][mode] = value
        report.write_text(json.dumps(doc))
    signal = tmp_path / "sig.csv"
    assert main(["signal", "gen", "--periodic", "0.35", "--horizon", "5",
                 "--out-file", str(signal)]) == 0
    capsys.readouterr()
    argv = {"signal check": ["signal", "check", "--signal", str(signal)],
            "signal gen": ["signal", "gen", "--out-file", str(tmp_path / "gen.csv")],
            "simulate": ["simulate", "--config", str(config), "--random-signal",
                         "--out", str(tmp_path)]}[command]
    assert main([*argv, "--bounds-from", str(report)]) == 2
    assert capsys.readouterr().err == f"config error: report has {message}, " \
                                      "not a finite number > 0\n"


def test_signal_check_reads_bounds_from_a_report(tmp_path, capsys):
    assert main(["analyze", "--grid", "11", "--out", str(tmp_path)]) == 0
    signal = tmp_path / "sig.csv"
    main(["signal", "gen", "--periodic", "0.35", "--horizon", "10", "--out-file", str(signal)])
    capsys.readouterr()
    code = main(["signal", "check", "--signal", str(signal),
                 "--bounds-from", str(tmp_path / "report.json")])
    assert code == 0
    bounds = strict_json((tmp_path / "report.json").read_text())["family"]["dwell_bounds"]
    checked = strict_json(capsys.readouterr().out)
    assert checked["mode_1"]["mdadt"]["tau"] == bounds["lower"]["1"]
    assert checked["mode_2"]["mdalt"]["tau"] == bounds["upper"]["2"]


SIGNAL_CHECK_GOLDEN = Path(__file__).parent / "data" / "signal_check_golden.json"
TAU_BOUNDS = ["--tau-lower", "0.1584", "--tau-upper", "0.3960"]
# case -> (signal gen flags, signal check bound flags); {report} is the report
# of a default analyze of saddle2d
SIGNAL_CHECK_CASES = {
    "random_passes": (["--seed", "3", *TAU_BOUNDS], TAU_BOUNDS),
    "periodic_dwell_1_fails": (["--periodic", "1.0"], TAU_BOUNDS),
    "bounds_from_report": (["--periodic", "0.35"], ["--bounds-from", "{report}"]),
}


def signal_check_outputs(tmp_path, capsys, report, case) -> dict:
    """Exit code, stdout and stderr of signal check on the case's generated
    10 s signal."""
    gen_flags, check_flags = SIGNAL_CHECK_CASES[case]
    signal = tmp_path / f"{case}.csv"
    assert main(["signal", "gen", *gen_flags, "--horizon", "10", "--out-file", str(signal)]) == 0
    capsys.readouterr()
    flags = [flag.replace("{report}", str(report)) for flag in check_flags]
    code = main(["signal", "check", "--signal", str(signal), *flags])
    captured = capsys.readouterr()
    return {"exit": code, "stdout": captured.out, "stderr": captured.err}


@pytest.mark.parametrize("case", sorted(SIGNAL_CHECK_CASES))
def test_signal_check_output_equals_its_golden(tmp_path, capsys, saddle2d_report, case):
    # stdout, stderr and exit code are the command's contract: a change to how
    # the scans run must keep every byte
    golden = json.loads(SIGNAL_CHECK_GOLDEN.read_text(encoding="utf-8"))
    assert signal_check_outputs(tmp_path, capsys, saddle2d_report, case) == golden[case]


def test_signal_check_builds_the_activations_once_and_scans_once_per_bound(
        tmp_path, capsys, monkeypatch):
    signal = tmp_path / "sig.csv"
    assert main(["signal", "gen", "--periodic", "0.35", "--out-file", str(signal)]) == 0
    builds, scans = [], []
    build, scan = SwitchingSignal.activations.func, signals._worst

    def counted_build(sig):
        builds.append(sig)
        return build(sig)

    counted = functools.cached_property(counted_build)
    counted.__set_name__(SwitchingSignal, "activations")
    monkeypatch.setattr(SwitchingSignal, "activations", counted)
    monkeypatch.setattr(signals, "_worst", lambda sig, mode, tau, sign:
                        scans.append((mode, tau, sign)) or scan(sig, mode, tau, sign))
    assert main(["signal", "check", "--signal", str(signal), *TAU_BOUNDS]) == 0
    assert len(builds) == 1
    assert sorted(scans) == [(q, tau, sign) for q in (1, 2)
                             for tau, sign in ((0.1584, 1), (0.396, -1))]
    assert not hasattr(cli, "tightest_mdadt_offset")
    assert not hasattr(cli, "tightest_mdalt_offset")


def test_signal_check_names_the_failed_average_condition(tmp_path, capsys):
    # mode 1 lasts 9e-13 s past tau_upper each time: within TIME_EPS of the
    # per-activation bound, but three of them break the leave-time condition
    lengths = {1: 0.396 + 9e-13, 2: 0.2}
    rows, t = [], 0.0
    for k in range(6):
        rows.append(f"{t!r},{1 + k % 2}\n")
        t += lengths[1 + k % 2]
    signal = tmp_path / "edge.csv"
    signal.write_text("time,mode\n" + "".join(rows) + "1.8,end\n")
    code = main(["signal", "check", "--signal", str(signal),
                 "--tau-lower", "0.1584", "--tau-upper", "0.396"])
    captured = capsys.readouterr()
    checked = strict_json(captured.out)
    mdalt = checked["mode_1"]["mdalt"]
    assert code == 1
    assert checked["per_activation"]["ok"] is True
    assert mdalt["ok"] is False and mdalt["tightest_offset"] == pytest.approx(-6.8e-12, rel=0.01)
    sig = signals.read_signal_csv(signal)
    res = signals.verify_mdalt(sig, 1, 0.396, 0.0)
    assert mdalt["worst_window"] == list(res.worst_window) == [0.0, sig.events[-1][0]]
    assert mdalt["worst_value"] == res.worst_value
    assert captured.err == ("signal check failed: mode 1 mdalt at tau 0.396 fails on "
                            "window [0, 1.588]\n")


def readme_commands():
    """The `semicontract ...` commands of the README's CLI block, with
    backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("semicontract ")]


def test_the_readme_cli_block_has_examples_of_every_subcommand():
    commands = []
    for line in readme_commands():
        words = shlex.split(line)[1:]
        commands.append(" ".join(words[:2] if words[0] == "signal" else words[:1]))
    assert set(commands) == set(SUBCOMMAND_OPTIONS)


@pytest.mark.parametrize("line", readme_commands())
def test_every_readme_cli_example_parses(line):
    build_parser().parse_args(shlex.split(line)[1:])
