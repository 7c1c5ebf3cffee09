import json
import os
import re
import subprocess
import sys

from semicontract import report, reproduce
from semicontract.cli import main


def test_reproduce_end_to_end(tmp_path, capsys):
    code = main(["reproduce", "--out", str(tmp_path / "rep")])
    out = capsys.readouterr().out
    assert code == 0
    summary = json.loads((tmp_path / "rep" / "reproduction.json").read_text())
    assert summary["all_pass"] is True
    names = {c["name"] for c in summary["checks"]}
    assert {"beta_stable", "beta_unstable", "tau_lower_mode1", "tau_upper_mode2",
            "periodic_distance_ratio", "random_envelope_monotone",
            "control_flagged_by_checker", "variational_fd_consistency"} <= names
    # the two documented mismatches are reported, not silently passed
    noted = [c for c in summary["checks"] if c.get("documented_mismatch")]
    assert {c["name"] for c in noted} == {"tightest_eta_unstable", "negative_control_growth"}
    assert all("note" in c and "published" in c for c in noted)
    assert out.count("[PASS]") >= 15
    assert out.count("[NOTE]") == 2
    assert "[FAIL]" not in out
    # artifacts for both experiments exist
    for sub in ("periodic", "random"):
        for name in ("trajectory_a.csv", "trajectory_b.csv", "distance.csv",
                     "signal.csv", "distance.svg", "simulation.json"):
            assert (tmp_path / "rep" / sub / name).exists()
    assert (tmp_path / "rep" / "report.json").exists()
    assert (tmp_path / "rep" / "control_simulation.json").exists()


def test_analysis_section_is_seed_independent(tmp_path):
    # the random-experiment seed must not leak into the certificate analysis
    def strip_volatile(text):
        text = re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', text)
        return re.sub(r'"seed": \d+', '"seed": 0', text)

    for seed, out in (("7", tmp_path / "a"), ("8", tmp_path / "b")):
        assert main(["analyze", "--grid", "11", "--seed", seed, "--out", str(out)]) == 0
    a = strip_volatile((tmp_path / "a" / "report.json").read_text())
    b = strip_volatile((tmp_path / "b" / "report.json").read_text())
    assert a == b


def test_reproduce_does_not_import_the_cli():
    # the reproduction sits below the command-line front end
    code = ("import sys, semicontract.reproduce as r; "
            "assert 'semicontract.cli' not in sys.modules; "
            "assert r.run_simulation.__module__ == 'semicontract.sim'")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_reproduction_builds_its_certificates_once(tmp_path, monkeypatch, capsys):
    built = []
    original = report.certificates_from_report

    def counting(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(report, "certificates_from_report", counting)
    monkeypatch.setattr(reproduce, "certificates_from_report", counting)
    assert reproduce.run_reproduction(tmp_path, step=1e-2, grid=5) == 0
    assert "all_pass=True" in capsys.readouterr().out
    assert len(built) == 1
