import json
import re
import sys

import numpy as np
import pytest

from semicontract import __version__, certificates
from semicontract.certificates import dwell_bounds_family
from semicontract.cli import main
from semicontract.report import analyze, bounds_from_report, certificates_from_report, \
    make_samples
from semicontract.signals import generate_periodic, write_signal_csv
from semicontract.subspaces import check_invariance, orthonormalize
from semicontract.system import ConfigError, load_config
from semicontract.testdata import bundled_config_path


@pytest.fixture(scope="module")
def bundle():
    return load_config(bundled_config_path("saddle2d"))


def test_verdict_order_is_stable(bundle):
    samples = make_samples(bundle, 11, None, 0)
    names_a = [v["name"] for v in analyze(bundle, samples)["verdicts"]]
    names_b = [v["name"] for v in analyze(bundle, samples)["verdicts"]]
    assert names_a == names_b
    assert names_a[0].startswith("antidiag:")  # sorted by subspace name


def test_simulate_replays_signal_file(tmp_path):
    sig = generate_periodic([1, 2], 0.3, 0.0, 4.0)
    path = tmp_path / "replay.csv"
    write_signal_csv(sig, path)
    out = tmp_path / "out"
    code = main([
        "simulate", "--signal", str(path), "--horizon", "4", "--step", "2e-3",
        "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "simulation.json").read_text())
    assert report["distance_ratio"] < 1.0
    written = (out / "signal.csv").read_text()
    assert written == path.read_text()


def test_report_carries_provenance_and_note(bundle):
    samples = make_samples(bundle, 11, None, 3)
    report = analyze(bundle, samples, seed=3)
    prov = report["provenance"]
    assert re.fullmatch(r"[0-9a-f]{64}", prov["config_sha256"])
    assert prov["seed"] == 3
    assert prov["sample_scheme"]["grid_per_axis"] == 11
    assert "not a proof" in prov["note"]
    assert prov["semicontract"] == __version__
    assert prov["numpy"] == np.__version__


def count_calls(monkeypatch, module, name):
    """Wrap module.name in every package namespace that binds it; returns the
    list the wrapper appends each call's positional arguments to."""
    original = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "semicontract" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapper)
    return calls


def bundle_without(*keys):
    doc = json.loads(bundled_config_path("saddle2d").read_text())
    for cert in doc["certificates"]:
        for key in keys:
            del cert[key]
    return load_config(doc)


# configured P matrices and constants; searched weights with the configured
# constants; searched weights with every constant derived from the ratios
@pytest.mark.parametrize("dropped, search_weights", [
    ((), False), (("P",), True), (("P", "beta_S", "beta_U", "eta_S", "eta_U"), True),
])
def test_analyze_checks_each_hypothesis_once(monkeypatch, dropped, search_weights):
    source = bundle_without(*dropped)
    samples = make_samples(source, 11, None, 0)
    invariance = count_calls(monkeypatch, certificates, "check_invariance")
    ratios = count_calls(monkeypatch, certificates, "tightest_beta")
    report = analyze(source, samples, search_weights=search_weights)
    assert report["all_pass"] is True
    # 2 subspaces x 2 modes, and 2 ordered mode pairs per subspace
    checked = [(mode.id, s.basis.tobytes()) for mode, s, _ in invariance]
    assert len(checked) == len(set(checked)) == 4
    pairs = [(id(w_from), id(w_to)) for w_from, w_to in ratios]
    assert len(pairs) == len(set(pairs)) == 4


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_invariance_section_matches_a_direct_check(bundle, tol):
    samples = make_samples(bundle, 11, None, 0)
    report = analyze(bundle, samples, tol=tol)
    spans = {spec.name: spec.span for spec in bundle.subspaces}
    for section in report["subspaces"]:
        s = orthonormalize(spans[section["name"]], ambient=bundle.system.dimension)
        for mode in bundle.system.modes:
            inv = check_invariance(mode, s, samples, tol=max(tol, 1e-9))
            assert section["invariance"][str(mode.id)] == {
                "ok": inv.ok,
                "worst_residual": inv.worst_residual,
                "worst_point": inv.worst_point.tolist(),
                "tolerance": max(tol, 1e-9),
            }


@pytest.mark.parametrize("search_weights", [False, True])
def test_bounds_read_from_a_report_equal_the_family_bounds(bundle, search_weights):
    samples = make_samples(bundle, 41, None, 0)
    certs = certificates_from_report(bundle, samples, search_weights)
    report = analyze(bundle, samples, search_weights=search_weights, certs=certs)
    expected = dwell_bounds_family(certs.values(), margin=report["provenance"]["margin"])
    # in memory, as reproduce reads it, and through JSON, as signal --bounds-from reads it
    for doc in (report, json.loads(json.dumps(report))):
        bounds = bounds_from_report(doc)
        assert bounds.lower == expected.lower
        assert bounds.upper == expected.upper
        assert bounds.margin == expected.margin
        assert list(bounds.lower) == list(expected.lower)
        assert list(bounds.upper) == list(expected.upper)


@pytest.mark.parametrize("doc", [
    {"family": {"separating": False}},
    {"family": {"dwell_bounds": {"lower": {"one": 0.1}, "upper": {}}}},
    {"family": {"dwell_bounds": []}},
    {},
    [],
])
def test_a_report_without_family_bounds_is_a_config_error(doc):
    with pytest.raises(ConfigError, match="no family dwell bounds"):
        bounds_from_report(doc)
