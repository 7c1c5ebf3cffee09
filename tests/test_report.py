import json
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicontract import __version__, certificates, linalg, subspaces, system
from semicontract.certificates import dwell_bounds_family, growth_values, tightest_eta
from semicontract.cli import main
from semicontract.report import analyze, bounds_from_report, certificates_from_report
from semicontract.signals import generate_periodic, write_signal_csv
from semicontract.subspaces import INVARIANCE_TOL, check_invariance, log_seminorm, \
    orthonormalize, projector, reduce_weight
from semicontract.system import ConfigError, eval_jacobian, load_config, sample_domain
from semicontract.testdata import bundled_config_path


@pytest.fixture(scope="module")
def bundle():
    return load_config(bundled_config_path("saddle2d"))


def test_verdict_order_is_stable(bundle):
    samples = sample_domain(bundle.system, 11)
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
        "simulate", "--signal", str(path), "--step", "2e-3",
        "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "simulation.json").read_text())
    assert report["distance_ratio"] < 1.0
    written = (out / "signal.csv").read_text()
    assert written == path.read_text()


def test_report_carries_provenance_and_note(bundle):
    samples = sample_domain(bundle.system, 11, seed=3)
    report = analyze(bundle, samples)
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
    samples = sample_domain(source.system, 11)
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
    samples = sample_domain(bundle.system, 11)
    report = analyze(bundle, samples, tol=tol)
    subspaces = {spec.name: spec.subspace for spec in bundle.subspaces}
    for section in report["subspaces"]:
        s = subspaces[section["name"]]
        for mode in bundle.system.modes:
            inv = check_invariance(mode, s, samples)
            assert section["invariance"][str(mode.id)] == {
                "ok": inv.ok,
                "worst_residual": inv.worst_residual,
                "worst_point": inv.worst_point.tolist(),
                "tolerance": INVARIANCE_TOL,
            }


@pytest.mark.parametrize("search_weights", [False, True])
def test_bounds_read_from_a_report_equal_the_family_bounds(bundle, search_weights):
    samples = sample_domain(bundle.system, 41)
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


@pytest.fixture(scope="module")
def bundle4d():
    return load_config(bundled_config_path("saddle4d"))


def count_analysis_work(monkeypatch):
    """Wrap the memo's layers; returns a callable giving the counts so far."""
    jacobians = count_calls(monkeypatch, system, "eval_jacobian")
    projections = count_calls(monkeypatch, subspaces, "_project")
    eigensolves = count_calls(monkeypatch, linalg, "gen_sym_eig")
    growth = count_calls(monkeypatch, certificates, "growth_values")

    def counts(samples):
        return {
            "full_grid_jacobians": sum(len(x) == len(samples) for _, x in jacobians),
            "projections": len(projections),
            "stacked_eigensolves": sum(np.ndim(s) == 3 for s, _ in eigensolves),
            "growth_values": len(growth),
        }
    return counts


def strip_time(report):
    return {**report, "generated_at": ""}


def test_analyze_computes_each_array_once(monkeypatch, bundle4d):
    samples = sample_domain(bundle4d.system, 5)
    counts = count_analysis_work(monkeypatch)
    first = analyze(bundle4d, samples, search_weights=True)
    once = counts(samples)
    # 2 modes, 2 subspaces x 2 modes; the escalated unstable weight reads the
    # unit weight's values, so each (subspace, mode) has one solve; every
    # growth_values call stays, as memo hits
    assert once["full_grid_jacobians"] == len(bundle4d.system.modes) == 2
    assert once["projections"] == 4
    assert once["stacked_eigensolves"] == 4
    assert once["growth_values"] == 16
    # the memo ends with the call: a second analysis does all the work again
    second = analyze(bundle4d, samples, search_weights=True)
    assert counts(samples) == {key: 2 * value for key, value in once.items()}
    assert strip_time(second) == strip_time(first)


def test_analyze_solves_each_reduced_weight_once(monkeypatch, bundle4d):
    samples = sample_domain(bundle4d.system, 5)
    calls = count_calls(monkeypatch, linalg, "sym_eig")
    analyze(bundle4d, samples, search_weights=True)
    # per subspace, reduce_weight solves the unit weight, which the stable
    # mode keeps, and the expanding mode's escalated weight, and the m-bounds
    # read those eigenvalues back; the one 4 x 4 solve is the separating test
    shapes = [np.shape(a) for a, in calls]
    assert shapes.count((2, 2)) == 4
    assert shapes.count((4, 4)) == 1 and len(shapes) == 5


def test_a_search_analysis_computes_one_growth_array_per_subspace_and_mode(
        monkeypatch, bundle4d):
    samples = sample_domain(bundle4d.system, 5)
    calls = count_calls(monkeypatch, linalg, "gen_sym_eig")
    certs = certificates_from_report(bundle4d, samples, search_weights=True)
    analyze(bundle4d, samples, search_weights=True, certs=certs)
    stacked = [np.shape(s) for s, _ in calls if np.ndim(s) == 3]
    assert stacked == [(625, 2, 2)] * 4
    # 2 Jacobian stacks, 2 subspaces x 2 modes of projections and of growth
    assert len(samples._arrays) == 10
    assert sum(len(key) == 3 for key in samples._arrays) == 4


def test_a_configured_weight_analysis_computes_one_growth_array_per_subspace_and_mode(
        monkeypatch, bundle):
    # reproduce's path: the configured P matrices of saddle2d, two rank-1 subspaces
    samples = sample_domain(bundle.system, 11)
    growth = count_calls(monkeypatch, certificates, "growth_values")
    projections = count_calls(monkeypatch, subspaces, "_project")
    stacked = count_calls(monkeypatch, linalg, "gen_sym_eig")
    solves = count_calls(monkeypatch, linalg, "sym_eig")
    certs = certificates_from_report(bundle, samples)
    analyze(bundle, samples, certs=certs)
    # 2 Jacobian stacks, 2 subspaces x 2 modes of projections and of growth
    assert len(samples._arrays) == 10
    assert sum(len(key) == 3 for key in samples._arrays) == 4
    assert (len(growth), len(projections)) == (12, 4)
    # h = 1 reads growth without an eigensolve; one 1 x 1 solve per reduced
    # weight and the one 2 x 2 solve of the separating test
    assert len(stacked) == 0
    assert sorted(np.shape(a) for a, in solves) == [(1, 1)] * 4 + [(2, 2)]


def test_analyze_runs_the_separating_test_once(monkeypatch, bundle4d):
    samples = sample_domain(bundle4d.system, 5)
    calls = count_calls(monkeypatch, subspaces, "check_separating")
    report = analyze(bundle4d, samples, search_weights=True)
    # its verdict decides family:separating, and the family bounds follow
    assert len(calls) == 1
    assert report["family"]["separating"] and "dwell_bounds" in report["family"]


def test_a_later_analysis_sees_changed_sample_points(bundle4d):
    samples = sample_domain(bundle4d.system, 5)
    before = analyze(bundle4d, samples, search_weights=True)
    samples.points[:] = 0.5 * samples.points
    after = analyze(bundle4d, samples, search_weights=True)
    fresh = sample_domain(bundle4d.system, 5)
    fresh.points[:] = 0.5 * fresh.points
    assert strip_time(after) != strip_time(before)
    assert strip_time(after) == strip_time(analyze(bundle4d, fresh, search_weights=True))


@pytest.fixture(scope="module")
def grid3_4d(bundle4d):
    return sample_domain(bundle4d.system, 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.sampled_from([1, 2]), st.integers(0, 2**32 - 1))
def test_growth_values_equal_log_seminorm_bit_for_bit(bundle4d, grid3_4d, h, mode_id, seed):
    # random subspaces and SPD weights; one sample set serves every example,
    # so the arrays of earlier examples stay stored beside the new ones
    rng = np.random.default_rng(seed)
    s = orthonormalize(rng.standard_normal((h, 4)), ambient=4)
    root = rng.standard_normal((h, h))
    w = reduce_weight(s.basis @ (root @ root.T + h * np.eye(h)) @ s.basis.T, s)
    mode = bundle4d.system.mode(mode_id)
    values = growth_values(mode, w, grid3_4d)
    reference = log_seminorm(w, eval_jacobian(mode, grid3_4d.points))
    assert values.tobytes() == reference.tobytes()
    assert not values.flags.writeable
    assert growth_values(mode, w, grid3_4d) is values


@pytest.mark.parametrize("name, grid, search_weights", [
    ("saddle2d", 11, False), ("saddle4d", 5, True),
])
def test_the_report_reads_each_certificates_growth(name, grid, search_weights):
    source = load_config(bundled_config_path(name))
    samples = sample_domain(source.system, grid)
    report = analyze(source, samples, search_weights=search_weights)
    certs = certificates_from_report(source, samples, search_weights)
    for section in report["subspaces"]:
        cert = certs[section["name"]]
        for mode in source.system.modes:
            w = cert.weights[mode.id]
            assert section["modes"][str(mode.id)]["tightest_eta"] \
                == tightest_eta(mode, w, samples) == cert.sup_growth[mode.id]


@pytest.mark.parametrize("name, grid", [("saddle2d", 11), ("saddle4d", 5)])
def test_a_search_certificate_reads_the_unit_weights_classification(name, grid):
    source = load_config(bundled_config_path(name))
    samples = sample_domain(source.system, grid)
    certs = certificates_from_report(source, samples, search_weights=True)
    for cert in certs.values():
        unit = reduce_weight(projector(cert.subspace).matrix, cert.subspace)
        for mode in source.system.modes:
            q = mode.id
            # a fresh sample set, so the unit weight's array is computed anew
            tag, sup = certificates.classify_mode(mode, unit, replace(samples))
            assert (cert.tags[q], cert.sup_growth[q]) == (tag, sup)
            # the expanding mode's weight is escalated, yet reads the unit growth
            w = cert.weights[q]
            assert (w.reduced[0, 0] > unit.reduced[0, 0]) == (tag == "U")
            eta = cert.eta_stable if tag == "S" else cert.eta_unstable
            assert certificates.check_rate(mode, w, eta, tag == "S", samples).value == sup
            fresh = float(np.max(log_seminorm(w, samples.jacobians(mode))))
            assert abs(fresh - sup) <= 8 * np.spacing(abs(sup))


def test_sample_sets_with_equal_points_share_no_arrays(bundle):
    samples = sample_domain(bundle.system, 11)
    mode = bundle.system.mode(1)
    s = orthonormalize([[1.0, 1.0]])
    w = reduce_weight(projector(s).matrix, s)
    first = growth_values(mode, w, samples)
    for other in (sample_domain(bundle.system, 11), replace(samples)):
        assert np.array_equal(other.points, samples.points)
        assert other.jacobians(mode) is not samples.jacobians(mode)
        assert growth_values(mode, w, other) is not first
        assert growth_values(mode, w, other).tobytes() == first.tobytes()
