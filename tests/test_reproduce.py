import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from semicontract import report, reproduce, system
from semicontract.cli import main
from semicontract.testdata import bundled_config_path


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


def test_analysis_section_is_seed_independent(tmp_path, capsys):
    # the random-experiment seed must not leak into the certificate analysis:
    # a grid draws no random point, so analyze refuses --seed with one, and
    # the grid's points are the same whatever the seed
    for seed, out in (("7", tmp_path / "a"), ("8", tmp_path / "b")):
        assert main(["analyze", "--grid", "11", "--seed", seed, "--out", str(out)]) == 2
        assert not out.exists()
    assert capsys.readouterr().err.count("usage error: --seed needs random sample points") == 2
    saddle2d = system.load_config(bundled_config_path("saddle2d")).system
    a, b = (system.sample_domain(saddle2d, 11, seed=seed) for seed in (7, 8))
    assert np.array_equal(a.points, b.points)


def test_reproduce_does_not_import_the_cli():
    # the reproduction sits below the command-line front end
    code = ("import sys, semicontract.reproduce as r; "
            "assert 'semicontract.cli' not in sys.modules; "
            "assert r.run_simulation.__module__ == 'semicontract.sim'")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_the_cli_starts_without_multiprocessing():
    # run_reproduction imports it for its trace writers; no other command pays for it
    code = "import sys, semicontract.cli; assert 'multiprocessing' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_a_trace_writer_error_is_an_output_error(tmp_path, capsys):
    # the periodic experiment's writer child cannot rename its first CSV into place
    out = tmp_path / "rep"
    blocker = out / "periodic" / "trajectory_a.csv"
    blocker.mkdir(parents=True)
    assert main(["reproduce", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert str(blocker) in err
    assert multiprocessing.active_children() == []
    assert not (out / "reproduction.json").exists()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the child sees the patched write_traces only when forked")
def test_a_trace_writer_that_dies_is_named_with_its_exit_code(tmp_path, monkeypatch, capsys):
    def die(*args):
        raise SystemExit(3)

    monkeypatch.setattr(reproduce, "write_traces", die)
    with pytest.raises(OSError, match="trace writer of periodic_dwell_0.35 exited with code 3"):
        reproduce.run_reproduction(tmp_path, step=1e-2, grid=5)
    assert multiprocessing.active_children() == []


def test_each_experiments_arrays_are_released_before_the_next_runs(tmp_path, monkeypatch,
                                                                   capsys):
    # a writer child has its own copy of its experiment's traces, and nothing
    # reads the analysis's sample set after the decay constants, so the parent
    # holds one stage's arrays at a time
    simulate, sample = reproduce.run_simulation, reproduce.sample_domain
    earlier = []

    def sampling(*args, **kwargs):
        samples = sample(*args, **kwargs)
        earlier.append(weakref.ref(samples))
        return samples

    def simulating(*args):
        assert len(earlier) in (1, 5, 9) and all(ref() is None for ref in earlier)
        result, traces = simulate(*args)
        earlier.extend(weakref.ref(traces[key]) for key in ("times", "a", "b", "distance"))
        return result, traces

    monkeypatch.setattr(reproduce, "sample_domain", sampling)
    monkeypatch.setattr(reproduce, "run_simulation", simulating)
    assert reproduce.run_reproduction(tmp_path, step=1e-2, grid=5) == 0
    assert "all_pass=True" in capsys.readouterr().out
    assert len(earlier) == 13


def test_the_trace_writers_write_the_same_bytes_under_spawn(tmp_path, monkeypatch, capsys):
    # spawn, macOS's default start method, pickles the traces in start(); the
    # parent releases its own copy as soon as start() returns
    assert reproduce.run_reproduction(tmp_path / "default", step=1e-2, grid=5) == 0
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(multiprocessing, "Process", spawn.Process)
    monkeypatch.setattr(multiprocessing, "Pipe", spawn.Pipe)
    assert reproduce.run_reproduction(tmp_path / "spawn", step=1e-2, grid=5) == 0
    assert capsys.readouterr().out.count("all_pass=True") == 2
    assert multiprocessing.active_children() == []
    for sub in ("periodic", "random"):
        names = sorted(p.name for p in (tmp_path / "default" / sub).iterdir())
        assert names == sorted(p.name for p in (tmp_path / "spawn" / sub).iterdir())
        for name in names:
            assert ((tmp_path / "default" / sub / name).read_bytes()
                    == (tmp_path / "spawn" / sub / name).read_bytes()), f"{sub}/{name}"


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


def test_reproduction_evaluates_each_full_grid_jacobian_once(tmp_path, monkeypatch, capsys):
    # one stack per mode serves the certificates and the report built on them
    original = system.eval_jacobian
    full_grid = []

    def counting(mode, x):
        full_grid.append(len(x) == 25)
        return original(mode, x)

    for name, module in list(sys.modules.items()):
        if name.startswith("semicontract") and getattr(module, "eval_jacobian", None) is original:
            monkeypatch.setattr(module, "eval_jacobian", counting)
    assert reproduce.run_reproduction(tmp_path, step=1e-2, grid=5) == 0
    assert "all_pass=True" in capsys.readouterr().out
    assert sum(full_grid) == 2


def test_reproduction_reads_the_simulation_verdicts(tmp_path, capsys):
    # the control's check repeats the detail of its simulation, which names
    # the mode, the activation, its length and the broken leave bound
    assert reproduce.run_reproduction(tmp_path, step=1e-2, grid=5) == 0
    out = capsys.readouterr().out
    summary = json.loads((tmp_path / "reproduction.json").read_text())
    checks = {c["name"]: c for c in summary["checks"]}
    control = json.loads((tmp_path / "control_simulation.json").read_text())
    detail = ("bounds violated by signal in mode 1, activation 0: "
              "activation lasts 1 > 0.39608")
    assert control["signal_within_bounds"] == {"ok": False, "detail": detail}
    assert checks["control_flagged_by_checker"]["detail"] == detail
    assert f"[PASS] control_flagged_by_checker: {detail}" in out
    assert "strict" not in summary["provenance"]


# every output of run_reproduction(out_dir, step=1e-2, grid=5), as
# reproduction_digest gives it
TINY_GOLDEN = Path(__file__).parent / "data" / "reproduce_step1e-2_grid5.json"
VOLATILE_KEYS = ("generated_at", "elapsed_seconds")


def reproduction_digest(out_dir: Path) -> dict:
    """Every JSON file under out_dir (relative path -> document without its
    top-level generated_at and elapsed_seconds) and the sha256 of every other
    file (the CSV traces and SVG plots)."""
    digest = {"json": {}, "sha256": {}}
    for path in sorted(p for p in Path(out_dir).rglob("*") if p.is_file()):
        name = path.relative_to(out_dir).as_posix()
        if path.suffix == ".json":
            doc = json.loads(path.read_text(encoding="utf-8"))
            digest["json"][name] = {k: v for k, v in doc.items() if k not in VOLATILE_KEYS}
        else:
            digest["sha256"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digest


def test_the_tiny_reproduction_writes_its_golden_outputs(tmp_path, capsys):
    assert reproduce.run_reproduction(tmp_path, step=1e-2, grid=5) == 0
    assert "all_pass=True" in capsys.readouterr().out
    assert reproduction_digest(tmp_path) == json.loads(TINY_GOLDEN.read_text(encoding="utf-8"))
