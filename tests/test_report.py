import json
import re

import numpy as np
import pytest

from semicontract import __version__
from semicontract.cli import main
from semicontract.report import analyze, make_samples
from semicontract.signals import generate_periodic, write_signal_csv
from semicontract.system import load_config
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
