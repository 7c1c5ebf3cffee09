"""The benchmark's measurement loop, metrics and report; `run.py` is its entry point."""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import semicontract

from . import speed
from .run import BLAS_THREAD_VARS, HERE, ROOT, SRC
from .tracing import COUNT_KEYS, Tracer
from .workloads import WORKLOADS

OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
RK4_STAGES = 4  # field evaluations per RK4 step


@dataclass
class OpRecord:
    traced: bool
    stretches: list  # wall seconds of the call into the package, between kernel timings
    kernels: list  # kernel seconds at the stretches' ends; run_ops adds the last
    mismatches: list = field(default_factory=list)
    work: int = 0  # units of work the op did (Workload.work)

    @property
    def seconds(self) -> float:
        return sum(self.stretches)

    @property
    def scaled(self) -> float:
        """Op time at reference machine speed, each stretch scaled by the mean
        kernel time at its two ends."""
        return sum(speed.scaled(s, (a + b) / 2)
                   for s, a, b in zip(self.stretches, self.kernels, self.kernels[1:]))


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_op(workload, inputs, expected, tracer=None, op_id=0,
           kernel_before=speed.REFERENCE_S) -> OpRecord:
    """Run one op, timing only the call into the package, and check its outputs.

    Without a tracer, only the workload's counted functions are wrapped, so
    that every op counts its own work.
    """
    traced = tracer is not None
    if not traced:
        tracer = Tracer(workload.counted)
    tracer.install()
    sampler = speed.Sampler(kernel_before)
    record = OpRecord(traced, sampler.stretches, sampler.kernels)
    try:
        with sampler:
            raw = tracer.run_op(op_id, workload.op, inputs)
    except Exception:  # an op that raises is a failed op; the run goes on
        record.mismatches.append(traceback.format_exc())
        return record
    finally:
        tracer.restore()
    try:
        record.work = workload.work(inputs, raw, tracer.counts[op_id])
        record.mismatches += workload.check(raw, expected)
    except Exception:  # unreadable outputs fail the op, like a wrong value
        record.mismatches.append(traceback.format_exc())
    return record


def run_ops(workload, inputs, expected, seconds: float, tracer=None) -> list[OpRecord]:
    """Timed ops until the next would end past `seconds`.

    The calibration kernel is timed before and after every op, and during it
    (speed.Sampler). With a tracer, ops alternate untraced and traced,
    starting untraced. At least one op, or one of each kind with a tracer,
    always runs.
    """
    least = 1 if tracer is None else 2
    kernel_s = speed.kernel_seconds()
    start = time.perf_counter()
    records: list[OpRecord] = []
    while (len(records) < least or time.perf_counter() - start
           + statistics.median(r.seconds for r in records) <= seconds):
        traced = tracer is not None and len(records) % 2 == 1
        record = run_op(workload, inputs, expected, tracer if traced else None,
                        op_id=len(records), kernel_before=kernel_s)
        kernel_s = speed.kernel_seconds()
        record.kernels.append(kernel_s)
        records.append(record)
    return records


def tail(values):
    """(percentile, value, ops beyond it) for the highest percentile with at
    least 10 ops above it, or None when there are fewer than 11 ops."""
    ordered = sorted(values)
    k = len(ordered) - 10  # 1-based rank of the value with 10 ops beyond it
    if k < 1:
        return None
    return 100.0 * k / len(ordered), ordered[k - 1], len(ordered) - k


def setup_seconds(workload_name: str, seed: int):
    """(scaled, raw) set-up seconds of SETUP_PROBES fresh processes."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload_name, str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True, cwd=ROOT)
        seconds, kernel_s = map(float, done.stdout.split())
        scaled.append(speed.scaled(seconds, kernel_s))
        raw.append(seconds)
    return scaled, raw


def git_commit():
    """Commit of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def provenance(args, inputs) -> dict:
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "workload": args.workload,
        "seed": args.seed,
        "input_case": inputs["case"],
        "seconds": args.seconds,
        "trace": args.trace,
        "SEMICONTRACT_THREADS": os.environ.get("SEMICONTRACT_THREADS"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def end_to_end(workload, records, setup, setup_raw):
    timed = [r.scaled for r in records]
    p50 = statistics.median(timed)
    raw_p50 = statistics.median(r.seconds for r in records)
    speed_factor = statistics.median(k for r in records for k in r.kernels) / speed.REFERENCE_S
    work = statistics.median(r.work for r in records)
    rate = statistics.median(r.work / r.scaled for r in records)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "op_s.p50": p50,
        "work_per_s": rate,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
    }
    lines = [f"op_s.p50 {p50:.6g} s (median of {len(timed)} ops; raw wall {raw_p50:.6g} s, "
             f"machine {speed_factor:.3g}x reference kernel time)"]
    t = tail(timed)
    if t is None:
        lines.append(f"op_s.tail n/a s (needs at least 11 ops, ran {len(timed)})")
    else:
        lines.append(f"op_s.tail {t[1]:.6g} s (p{t[0]:.1f} of {len(timed)} ops, {t[2]} beyond)")
    lines += [
        f"{workload.work_unit} {rate:.6g} 1/s (median over ops; {work:g} per op; work_per_s)",
        f"setup_s {values['setup_s']:.6g} s (median of {len(setup)} fresh processes; "
        f"raw wall {statistics.median(setup_raw):.6g} s)",
        f"peak_rss_mb {rss_mb:.6g} MB",
    ]
    return values, lines


def layer_value(name: str, summary: dict, overhead: float):
    """Value of one per-layer metric from a traced op's summary."""
    functions, counts = summary["functions"], summary["counts"]
    if name == "trace.overhead_s":
        return overhead
    if name == "sim.field_evals":
        return RK4_STAGES * counts.get("sim.integrate.steps", 0)
    if name == "certificates.growth_values.useful_ratio":
        calls = functions.get("certificates.growth_values", {}).get("calls", 0)
        return summary["pairs"] / calls if calls else 0.0
    if name in COUNT_KEYS:
        return counts.get(name, 0)
    label, _, kind = name.rpartition(".")
    if kind in ("calls", "self_s"):
        return functions.get(label, {}).get(kind, 0)
    raise KeyError(f"no rule computes per-layer metric {name!r}")


def per_layer(spec, tracer, records) -> tuple[dict, list[str]]:
    untraced = [r.scaled for r in records if not r.traced]
    traced_ids = [i for i, r in enumerate(records) if r.traced]
    traced = [records[i].scaled for i in traced_ids]
    overhead = statistics.median(traced) - statistics.median(untraced)
    summaries = tracer.per_op_summary()
    values = {}
    for metric in spec["per_layer"]:
        per_op = [layer_value(metric["name"], summaries[i], overhead) for i in traced_ids]
        values[metric["name"]] = statistics.median(per_op)
    lines = [f"traced {len(traced)} ops, untraced {len(untraced)} ops; op_s.p50 traced "
             f"{statistics.median(traced):.6g} s, untraced {statistics.median(untraced):.6g} s"]
    if tracer.absent:
        lines.append("absent functions: " + ", ".join(tracer.absent))
    for metric in spec["per_layer"]:
        note = " (computed)" if metric["name"] == "sim.field_evals" else ""
        lines.append(f"{metric['name']} {values[metric['name']]:.6g} {metric['unit']}{note}")
    return values, lines


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if Path(semicontract.__file__).resolve().parent != SRC / "semicontract":
        print(f"imported semicontract from {semicontract.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    spec = benchmark_spec()
    workload = WORKLOADS[args.workload]
    setup, setup_raw = setup_seconds(workload.name, args.seed) if args.trace == 0 else ([], [])
    inputs = workload.build(args.seed)
    expected = workload.reference(inputs)
    # the warm-up op runs the same code on the tiny inputs of the self-tests
    warm_inputs = workload.build(args.seed, "tiny")
    warmup = run_op(workload, warm_inputs, workload.reference(warm_inputs, "tiny"))
    tracer = Tracer() if args.trace else None
    records = run_ops(workload, inputs, expected, args.seconds, tracer)

    if tracer is None:
        values, lines = end_to_end(workload, records, setup, setup_raw)
        metrics = spec["end_to_end"]
    else:
        values, lines = per_layer(spec, tracer, records)
        metrics = spec["per_layer"]
    checked = [warmup, *records]
    failed = sum(1 for r in checked if r.mismatches)
    lines.append(f"error_rate {failed / len(checked):.6g} ({failed} failed of "
                 f"{len(checked)} ops, warm-up included)")
    result = {
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    prov = provenance(args, inputs)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    detail = {**result, "provenance": prov, "setup_s": setup, "setup_raw_s": setup_raw,
              "ops": [{"traced": r.traced, "seconds": r.seconds, "scaled_s": r.scaled,
                       "stretches": r.stretches, "kernels": r.kernels, "work": r.work,
                       "mismatches": r.mismatches} for r in checked]}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    if tracer is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()),
                                                    encoding="utf-8")

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    for line in lines:
        print("  " + line)
    for r in checked:
        for mismatch in r.mismatches[:5]:
            print("  mismatch: " + mismatch.rstrip().replace("\n", "\n    "))
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0

