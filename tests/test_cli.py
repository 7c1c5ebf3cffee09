import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from semicontract.cli import build_parser, main
from semicontract.testdata import bundled_config_path


def strip_timestamp(text: str) -> str:
    return re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', text)


def strict_json(text: str):
    """json.loads that rejects NaN and Infinity, which are not JSON."""
    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=reject)


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
    # solves (numpy 2.4.6); the fast paths must keep every byte but generated_at
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


def test_analyze_reports_a_complement_that_is_not_invariant(tmp_path, capsys):
    # span [1, 0] has complement span [0, 1], which neither mode leaves invariant
    doc = json.loads(bundled_config_path("saddle2d").read_text())
    antidiag = next(s for s in doc["subspaces"] if s["name"] == "antidiag")
    antidiag["span"] = [[1.0, 0.0]]
    config = tmp_path / "axis.json"
    config.write_text(json.dumps(doc))
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


def test_analyze_config_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not valid json")
    assert main(["analyze", "--config", str(bad)]) == 2


def without_modes(doc):
    doc["modes"] = []


def with_a_zero_span(doc):
    doc["subspaces"][0]["span"] = [[1e-12, 0.0], [0.0, 0.0]]


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
    "zero_span": (with_a_zero_span, "subspace 'diag' has a numerically zero span"),
    "subspace_without_span": (edited("subspaces", 0, span=None), "bad configuration: 'span'"),
    "subspace_without_name": (edited("subspaces", 0, name=None), "bad configuration: 'name'"),
    "certificate_without_subspace": (edited("certificates", 0, subspace=None),
                                     "bad configuration: 'subspace'"),
    "weight_key_not_a_mode_id": (edited("certificates", 0, P={"x": [[1.0, 0.0], [0.0, 1.0]]}),
                                 "bad configuration: invalid literal for int() with base 10: 'x'"),
    "weights_not_a_mapping": (edited("certificates", 0, P=[[1.0, 0.0], [0.0, 1.0]]),
                              "bad configuration: 'list' object has no attribute 'items'"),
    "jump_factor_not_a_number": (edited("certificates", 0, beta_S="abc"),
                                 "bad configuration: could not convert string to float: 'abc'"),
    "certificate_for_an_unknown_subspace": (edited("certificates", 0, subspace="nowhere"),
                                            "a certificate names the unknown subspace 'nowhere'"),
    "two_subspaces_with_one_name": (edited("subspaces", 1, name="diag"),
                                    "two subspaces are named 'diag'"),
    "two_certificates_for_one_subspace": (edited("certificates", 1, subspace="diag"),
                                          "subspace 'diag' has two certificates"),
}


@pytest.mark.parametrize("command", [["analyze"], ["simulate", "--horizon", "1"]])
@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_a_bad_config_is_a_config_error(tmp_path, capsys, command, case):
    doc = json.loads(bundled_config_path("saddle2d").read_text())
    change, message = BAD_CONFIGS[case]
    change(doc)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([*command, "--config", str(config), "--grid", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_strict_flag_reports_open_bounds(tmp_path):
    out = tmp_path / "out"
    assert main(["analyze", "--grid", "11", "--strict", "--out", str(out)]) == 0
    report = strict_json((out / "report.json").read_text())
    assert report["subspaces"][0]["dwell_bounds"]["boundary"] == "open"
    assert report["subspaces"][0]["dwell_bounds"]["margin"] == 0.0


def test_simulate_periodic_035_decays(tmp_path):
    code = main([
        "simulate", "--periodic", "0.35", "--horizon", "6", "--step", "2e-3",
        "--out", str(tmp_path), "--plot",
    ])
    assert code == 0
    report = strict_json((tmp_path / "simulation.json").read_text())
    assert report["distance_ratio"] < 0.1
    assert report["signal_within_bounds"]["ok"] is True
    assert (tmp_path / "distance.svg").exists()
    assert (tmp_path / "trajectory_a.csv").exists()
    header = (tmp_path / "distance.csv").read_text().splitlines()[0]
    assert header == "time,norm_full,norm_antidiag,norm_diag"


def test_simulate_dwell_1_flags_bounds_violation(tmp_path, capsys):
    code = main([
        "simulate", "--periodic", "1.0", "--horizon", "6", "--step", "2e-3",
        "--out", str(tmp_path),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "bounds violated by signal" in err
    report = strict_json((tmp_path / "simulation.json").read_text())
    assert report["signal_within_bounds"]["ok"] is False


def test_simulate_random_signal_compliant(tmp_path):
    code = main([
        "simulate", "--random-signal", "--seed", "7", "--horizon", "6",
        "--step", "2e-3", "--out", str(tmp_path),
    ])
    assert code == 0
    report = strict_json((tmp_path / "simulation.json").read_text())
    assert report["signal_within_bounds"]["ok"] is True
    assert report["distance_ratio"] < 1.0


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


def test_simulate_random_signal_without_certified_bounds_exits_1(tmp_path, capsys):
    doc = json.loads(bundled_config_path("saddle2d").read_text())
    doc["subspaces"] = doc["subspaces"][:1]
    doc["certificates"] = doc["certificates"][:1]
    config = tmp_path / "single.json"
    config.write_text(json.dumps(doc))
    code = main(["simulate", "--config", str(config), "--random-signal", "--grid", "11",
                 "--horizon", "2", "--out", str(tmp_path)])
    assert code == 1
    assert "no signal to simulate" in capsys.readouterr().err
    assert not (tmp_path / "simulation.json").exists()


@pytest.mark.parametrize("signal_flags", [["--periodic", "0.35"], ["--random-signal"],
                                          ["--signal", "events.csv"]])
def test_simulate_too_short_for_the_rate_fit_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                              signal_flags):
    # 2 steps of 1e-3: the fit window [t0 + 0.2 (T - t0), T] holds two samples
    monkeypatch.chdir(tmp_path)
    (tmp_path / "events.csv").write_text("time,mode\n0.0,1\n")
    out = tmp_path / "out"
    code = main(["simulate", *signal_flags, "--horizon", "0.002", "--grid", "11",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("config error: ") and "--horizon" in err and "--step" in err
    assert not out.exists()
    # one more step puts 3 samples in the window
    assert main(["simulate", *signal_flags, "--horizon", "0.003", "--grid", "11",
                 "--out", str(out)]) == 0


def test_simulate_fits_the_rate_on_the_last_80_percent_of_a_late_signal(tmp_path):
    # a signal from t = 5 to the horizon 10: the window starts at 5 + 0.2 * 5
    signal = tmp_path / "late.csv"
    assert main(["signal", "gen", "--periodic", "0.35", "--t0", "5", "--horizon", "10",
                 "--out-file", str(signal)]) == 0
    assert main(["simulate", "--signal", str(signal), "--horizon", "10", "--step", "1e-2",
                 "--grid", "5", "--out", str(tmp_path)]) == 0
    report = strict_json((tmp_path / "simulation.json").read_text())
    assert report["rate_fit"]["window"] == [6.0, 10.0]


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
    code = main(["signal", "check", "--signal", str(out), "--horizon", "10",
                 "--tau-lower", "0.1584", "--tau-upper", "0.3960"])
    assert code == 0
    report = strict_json(capsys.readouterr().out)
    assert report["per_activation"]["ok"] is True
    assert report["mode_1"]["mdadt"]["ok"] is True
    assert report["mode_1"]["mdalt"]["ok"] is True


def test_signal_check_dwell_1_names_offender(tmp_path, capsys):
    out = tmp_path / "sig.csv"
    main(["signal", "gen", "--periodic", "1.0", "--horizon", "10",
          "--out-file", str(out)])
    capsys.readouterr()  # drop the generator's status line
    code = main(["signal", "check", "--signal", str(out), "--horizon", "10",
                 "--tau-lower", "0.1584", "--tau-upper", "0.3960"])
    assert code == 1
    captured = capsys.readouterr()
    report = strict_json(captured.out)
    assert report["per_activation"]["ok"] is False
    assert "activation" in captured.err


BAD_SIGNAL_FILES = {
    "no_mode_column": ("time,mod\n0.0,1\n", "'mode'"),
    "non_numeric_cell": ("time,mode\n0.0,one\n", "one"),
    "missing_file": (None, "No such file"),
    # the last activation, up to the default horizon 10, lasts about 1e-13 s
    "tiny_last_activation": ("time,mode\n0.0,1\n9.9999999999999,2\n", "last activation"),
    "nan_switch_time": ("time,mode\n0.0,1\nnan,2\n", "finite"),
}


# a signal file that is well formed but enters a mode the configuration lacks
SIMULATE_BAD_SIGNAL_FILES = {
    **BAD_SIGNAL_FILES,
    "unknown_mode": ("time,mode\n0.0,1\n1.0,3\n", "mode 3"),
}


def write_bad_signal(tmp_path, case):
    text, _ = SIMULATE_BAD_SIGNAL_FILES[case]
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
    assert main(["signal", "check", "--tau-lower", "0.1"]) == 2
    assert capsys.readouterr().err == "config error: signal check needs --signal\n"


@pytest.mark.parametrize("use_report, unbounded_mode", [(False, 1), (True, 2)])
def test_signal_check_mode_without_bounds_is_a_config_error(tmp_path, capsys, use_report,
                                                            unbounded_mode):
    # the signal enters modes 1 and 2; no flag bounds either, the report only mode 1
    signal = tmp_path / "signal.csv"
    signal.write_text("time,mode\n0.0,1\n1.0,2\n")
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"family": {"dwell_bounds": {"lower": {"1": 0.2}, "upper": {}}}}))
    flags = ["--bounds-from", str(report)] if use_report else []
    assert main(["signal", "check", "--signal", str(signal), *flags]) == 2
    assert capsys.readouterr().err == f"config error: no dwell bounds for mode {unbounded_mode}\n"


@pytest.mark.parametrize("case", sorted(SIMULATE_BAD_SIGNAL_FILES))
def test_simulate_bad_signal_file_is_a_config_error(tmp_path, capsys, case):
    path = write_bad_signal(tmp_path, case)
    code = main(["simulate", "--signal", str(path), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert SIMULATE_BAD_SIGNAL_FILES[case][1] in err
    assert not (tmp_path / "simulation.json").exists()


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
                "--strict", "--search-weights"},
    "simulate": {"--config", "--out", "--seed", "--step", "--grid", "--samples", "--margin",
                 "--strict", "--plot", "--search-weights", "--horizon", "--periodic",
                 "--random-signal", "--signal", "--initial"},
    "signal": {"--modes", "--periodic", "--t0", "--horizon", "--seed", "--signal",
               "--tau-lower", "--tau-upper", "--bounds-from", "--out-file"},
    "reproduce": {"--out", "--seed", "--step", "--grid", "--tol", "--margin", "--strict"},
}


def test_each_subcommand_registers_exactly_its_options():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(SUBCOMMAND_OPTIONS)
    for name, subparser in sub.choices.items():
        options = {s for action in subparser._actions for s in action.option_strings}
        assert options == SUBCOMMAND_OPTIONS[name] | HELP, name


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
    (["reproduce", "--step", "-1e-3"], "--step"),
    (["reproduce", "--grid", "0"], "--grid"),
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
    (["simulate", "--margin", "1"], "--margin"),
    (["reproduce", "--margin", "inf"], "--margin"),
    (["analyze", "--tol", "nan"], "--tol"),
    (["reproduce", "--tol", "-1"], "--tol"),
    (["analyze", "--seed", "-1"], "--seed"),
    (["simulate", "--seed", "-1"], "--seed"),
    (["reproduce", "--seed", "-1"], "--seed"),
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
    argv = ["signal", action, "--bounds-from", str(report), "--horizon", "2"]
    argv += ["--signal", str(signal)] if action == "check" else ["--out-file", str(signal)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_signal_check_reads_bounds_from_a_report(tmp_path, capsys):
    assert main(["analyze", "--grid", "11", "--out", str(tmp_path)]) == 0
    signal = tmp_path / "sig.csv"
    main(["signal", "gen", "--periodic", "0.35", "--horizon", "10", "--out-file", str(signal)])
    capsys.readouterr()
    code = main(["signal", "check", "--signal", str(signal), "--horizon", "10",
                 "--bounds-from", str(tmp_path / "report.json")])
    assert code == 0
    bounds = strict_json((tmp_path / "report.json").read_text())["family"]["dwell_bounds"]
    checked = strict_json(capsys.readouterr().out)
    assert checked["mode_1"]["mdadt"]["tau"] == bounds["lower"]["1"]
    assert checked["mode_2"]["mdalt"]["tau"] == bounds["upper"]["2"]


def readme_commands():
    """The `semicontract ...` commands of the README's CLI block, with
    backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("semicontract ")]


def test_the_readme_cli_block_has_examples_of_every_subcommand():
    commands = [shlex.split(line)[1] for line in readme_commands()]
    assert set(commands) == set(SUBCOMMAND_OPTIONS)


@pytest.mark.parametrize("line", readme_commands())
def test_every_readme_cli_example_parses(line):
    build_parser().parse_args(shlex.split(line)[1:])
