"""Self-tests of the benchmark: reference checks, failure counting and the tracer."""

import copy
import shutil
import signal
import subprocess
import sys
import time

import pytest

from perfbench import bench, tracing
from perfbench.workloads import ROOT, WORKLOADS, compare


def tiny(name, seed=0):
    workload = WORKLOADS[name]
    inputs = workload.build(seed, "tiny")
    return workload, inputs, workload.reference(inputs, "tiny")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_matches_its_reference_at_tiny_size(name):
    # seed 5 orders the analyze samples differently from the reference run
    workload, inputs, expected = tiny(name, seed=5)
    assert bench.run_op(workload, inputs, expected).mismatches == []


def test_every_seed_selects_a_committed_reference_case():
    for workload in WORKLOADS.values():
        for size in ("full", "tiny"):
            for seed in range(40):
                workload.reference(workload.build(seed, size), size)


def test_signal_seeds_all_give_the_same_work():
    workload = WORKLOADS["signal-check-k70"]
    for seed in range(len(workload.signal_seeds)):
        inputs = workload.build(seed)
        assert len(inputs["signal"].switch_times) == workload.switches
        outputs = workload.reference(inputs)["outputs"]
        assert {res["checked_windows"] for key, entry in outputs.items()
                if key != "per_activation" for res in entry.values()} == {2556}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_op_counts_its_work(name):
    workload, inputs, expected = tiny(name)
    untraced = bench.run_op(workload, inputs, expected)
    traced = bench.run_op(workload, inputs, expected, tracing.Tracer())
    assert untraced.work > 0
    assert traced.work == untraced.work


def test_perturbed_reference_makes_every_op_fail():
    workload, inputs, expected = tiny("analyze-saddle4d")
    perturbed = copy.deepcopy(expected)
    perturbed["outputs"]["constants"]["diag"]["eta_stable"] *= 1.0 + 1e-6
    records = bench.run_ops(workload, inputs, perturbed, seconds=0.0)
    assert len(records) == 1
    assert "eta_stable" in records[0].mismatches[0]


def test_compare_tolerates_last_bit_float_noise_only():
    assert compare({"x": [1.0, 2.5]}, {"x": [1.0 + 1e-15, 2.5]}) == []
    assert compare({"x": 1.0}, {"x": 1.0 + 1e-6}) != []
    assert compare({"ok": True, "n": 3}, {"ok": 1, "n": 3}) != []
    assert compare({"n": 3}, {"n": 4}) != []
    assert compare({"a": 1}, {"a": 1, "b": 2}) != []


def test_each_stretch_is_scaled_by_the_kernel_times_at_its_ends():
    ref = bench.speed.REFERENCE_S
    record = bench.OpRecord(False, [1.0, 2.0], [ref, 3 * ref, 2 * ref])
    assert record.seconds == 3.0
    assert record.scaled == pytest.approx(1.0 / 2 + 2.0 / 2.5)


def test_sampler_times_the_kernel_during_an_op_and_leaves_that_time_out():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = bench.speed.Sampler(bench.speed.REFERENCE_S)
    start = time.perf_counter()
    with sampler:
        while time.perf_counter() - start < 2.2 * bench.speed.SAMPLE_PERIOD_S:
            pass
    wall = time.perf_counter() - start
    assert len(sampler.stretches) == len(sampler.kernels) >= 3
    assert 0 < wall - sum(sampler.stretches) < wall / 2
    assert signal.getsignal(signal.SIGALRM) == previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tail_needs_ten_ops_beyond_it():
    assert bench.tail([1.0] * 10) is None
    assert bench.tail([float(v) for v in range(1, 21)]) == (50.0, 10.0, 10)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ["op", 0.0, 10.0, None, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["b", 3.0, 6.0, 0, 1],   # overlaps a: the union [1, 6] is covered once
        ["c", 2.0, 3.0, 1, 1],
        ["d", 8.0, 12.0, 0, 1],  # runs past its parent: only [8, 10] counts
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 3.0, 1.0, 4.0]


def package_namespaces():
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == tracing.PACKAGE or name.startswith(tracing.PACKAGE + ".")
            for attr, value in vars(module).items()}


def test_traced_run_restores_the_wrapped_functions():
    workload, inputs, expected = tiny("analyze-saddle4d")
    tracer = tracing.Tracer()
    tracer.install()  # imports every package module before the snapshot
    tracer.restore()
    before = package_namespaces()
    records = bench.run_ops(workload, inputs, expected, seconds=0.0, tracer=tracer)
    after = package_namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert [r.traced for r in records] == [False, True]
    assert all(not r.mismatches for r in records)
    summary = tracer.per_op_summary()[1]
    assert summary["functions"]["certificates.growth_values"]["calls"] == 16
    assert summary["functions"]["report.analyze"]["calls"] == 1
    assert tracer.absent == []


def test_a_missing_function_is_reported_absent():
    tracer = tracing.Tracer(tracing.TARGETS + (("report", "no_such_function"),))
    tracer.install()
    tracer.restore()
    assert tracer.absent == ["report.no_such_function"]


def test_every_listed_metric_is_computed():
    spec = bench.benchmark_spec()
    summary = {"functions": {}, "counts": {}, "pairs": 0}
    for metric in spec["per_layer"]:
        bench.layer_value(metric["name"], summary, 0.0)
    workload = WORKLOADS["signal-check-k70"]
    records = [bench.OpRecord(False, [1.0], [0.01, 0.01], work=10),
               bench.OpRecord(False, [0.5, 0.5], [0.01, 0.02, 0.01], work=10)]
    values, _ = bench.end_to_end(workload, records, [0.5], [0.5])
    assert sorted(values) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(value > 0 for value in values.values())


def test_benchmark_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze-saddle4d",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
