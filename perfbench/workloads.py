"""The three benchmark workloads: certify (analyze), reproduce, check a signal.

Each workload turns the benchmark seed into the inputs the package receives,
runs one operation on them, reduces the operation's result to the outputs
that the committed reference records, and says how much work the operation
did. Inputs come in two sizes: "full" is what the benchmark measures, "tiny"
is for the self-tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

# Package functions are called through their modules, so that the traced run
# sees the benchmark's own calls into each layer.
from semicontract import report, reproduce, signals
from semicontract.certificates import DwellBounds
from semicontract.system import SampleSet, load_config, sample_domain

from .run import ROOT

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
WORK_DIR = ROOT / ".perfbench_out" / "work"
SIZES = ("full", "tiny")

# Floats are compared at this relative tolerance (plus a tiny absolute floor for
# values near zero) so that a LAPACK path differing in the last bits still
# matches; verdicts, names and counts are compared exactly.
REL_TOL = 1e-9
ABS_TOL = 1e-12


class Workload:
    """One benchmark workload; subclasses define the inputs and the operation."""

    name = ""
    work_unit = ""  # name of the throughput metric printed for this workload
    cases = 1  # distinct inputs the seeds select; seeds 0..cases-1 reach them all
    counted = ()  # (module, function) pairs wrapped on every op to count its work

    def build(self, seed: int, size: str = "full") -> dict:
        """Inputs for one benchmark run, a pure function of (seed, size)."""
        raise NotImplementedError

    def op(self, inputs: dict):
        """The timed operation; returns its raw result."""
        raise NotImplementedError

    def outputs(self, raw) -> dict:
        """Reduce a raw result to the JSON-able outputs the reference records."""
        raise NotImplementedError

    def work(self, inputs: dict, raw, counts: dict) -> int:
        """Units of work the op did, for the throughput metric; `counts` holds
        the tracer's work counts for the op."""
        raise NotImplementedError

    def check(self, raw, reference: dict) -> list[str]:
        """Differences between an op's outputs and the reference entry."""
        return compare(reference["outputs"], self.outputs(raw))

    def reference(self, inputs: dict, size: str = "full") -> dict:
        """The committed reference entry for these inputs."""
        doc = json.loads((REFERENCE_DIR / f"{self.name}.json").read_text(encoding="utf-8"))
        return doc[size][inputs["case"]]


class AnalyzeSaddle4d(Workload):
    """analyze(bundle, samples, search_weights=True) on the 4-D saddle pair."""

    name = "analyze-saddle4d"
    work_unit = "samples_per_s"
    config_path = HERE / "data" / "saddle4d.json"
    grid = {"full": 5, "tiny": 2}

    def build(self, seed, size="full"):
        bundle = load_config(self.config_path)
        grid = self.grid[size]
        samples = sample_domain(bundle.system, grid_per_axis=grid)
        # the seed orders the sample points; every recorded output is a max
        # or a verdict over the whole set, so the reference does not depend
        # on the order
        order = np.random.default_rng(seed).permutation(len(samples))
        samples = SampleSet(samples.points[order], {**samples.scheme, "order_seed": seed})
        return {"case": f"grid{grid}", "bundle": bundle, "samples": samples}

    def op(self, inputs):
        return report.analyze(inputs["bundle"], inputs["samples"], search_weights=True)

    def outputs(self, raw):
        return {
            "verdicts": raw["verdicts"],
            "all_pass": raw["all_pass"],
            "constants": {s["name"]: s["constants"] for s in raw["subspaces"]},
            "dwell_bounds": raw["family"]["dwell_bounds"],
        }

    def work(self, inputs, raw, counts):
        # the problem size: what a user asks for, however the package does it
        bundle = inputs["bundle"]
        return len(inputs["samples"]) * len(bundle.system.modes) * len(bundle.subspaces)


class ReproduceSaddle2d(Workload):
    """run_reproduction with its defaults, writing into a fresh directory."""

    name = "reproduce-saddle2d"
    work_unit = "rk4_steps_per_s"
    counted = (("sim", "integrate"), ("sim", "integrate_variational"))
    kwargs = {"full": {}, "tiny": {"step": 1e-2, "grid": 5}}

    def build(self, seed, size="full"):
        # the workload is the paper's reproduction at its published defaults,
        # so the benchmark seed does not change its inputs; run_reproduction
        # loads the bundled config itself
        return {"case": "defaults" if size == "full" else "step1e-2-grid5",
                "kwargs": dict(self.kwargs[size])}

    def op(self, inputs):
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        out_dir = Path(tempfile.mkdtemp(prefix="reproduce-", dir=WORK_DIR))
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = reproduce.run_reproduction(out_dir, **inputs["kwargs"])
        except BaseException:
            shutil.rmtree(out_dir, ignore_errors=True)
            raise
        return code, out_dir

    def outputs(self, raw):
        code, out_dir = raw
        try:
            summary = json.loads((out_dir / "reproduction.json").read_text(encoding="utf-8"))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        checks = []
        for c in summary["checks"]:
            entry = {"name": c["name"],
                     "tag": "NOTE" if c.get("documented_mismatch") else
                            ("PASS" if c["ok"] else "FAIL")}
            for key in ("value", "observed"):
                if isinstance(c.get(key), float):
                    entry[key] = c[key]
            checks.append(entry)
        return {"exit_code": code, "checks": checks, "simulation": summary["simulation"]}

    def work(self, inputs, raw, counts):
        # accepted RK4 steps of every integrate/integrate_variational call
        return counts["sim.integrate.steps"] + counts["sim.integrate_variational.steps"]


class SignalCheckK70(Workload):
    """The `semicontract signal check` scans on a seeded random signal."""

    name = "signal-check-k70"
    work_unit = "windows_per_s"
    # saddle2d family bounds, as passed with --tau-lower/--tau-upper
    bounds = DwellBounds({1: 0.1584, 2: 0.1584}, {1: 0.3960, 2: 0.3960}, "flags", 0.0)
    horizon = {"full": 20.0, "tiny": 3.0}
    # generate_random seeds whose 20 s signal has exactly 70 switches, so every
    # benchmark seed checks the same number of windows
    signal_seeds = (1, 3, 6, 10, 15, 18, 22, 34, 57, 62, 64, 79, 85, 94, 95, 101)
    cases = len(signal_seeds)
    switches = 70

    def build(self, seed, size="full"):
        signal_seed = self.signal_seeds[seed % len(self.signal_seeds)]
        sig = signals.generate_random([1, 2], self.bounds, 0.0, self.horizon[size],
                                      seed=signal_seed)
        return {"case": str(signal_seed), "signal": sig}

    def op(self, inputs):
        # the scans of cmd_signal's check branch, in its order
        sig, bounds = inputs["signal"], self.bounds
        check = signals.verify_per_activation(sig, bounds)
        result = {"per_activation": check.ok}
        for q in sig.modes:
            adt = signals.verify_mdadt(sig, q, bounds.lower[q], n_lower=1.0)
            adt_offset = signals.tightest_mdadt_offset(sig, q, bounds.lower[q])
            alt = signals.verify_mdalt(sig, q, bounds.upper[q], n_upper=0.0)
            alt_offset = signals.tightest_mdalt_offset(sig, q, bounds.upper[q])
            result[f"mode_{q}"] = {"mdadt": (adt, adt_offset), "mdalt": (alt, alt_offset)}
        return result

    def outputs(self, raw):
        out = {"per_activation": raw["per_activation"]}
        for key, entry in raw.items():
            if key == "per_activation":
                continue
            out[key] = {
                kind: {"ok": res.ok, "worst_window": list(res.worst_window),
                       "checked_windows": res.checked_windows, "tightest_offset": offset}
                for kind, (res, offset) in entry.items()
            }
        return out

    def work(self, inputs, raw, counts):
        # checked_windows of the verify scans; the offset scans report no count
        return sum(res.checked_windows for key, entry in raw.items()
                   if key != "per_activation" for res, _ in entry.values())


WORKLOADS = {w.name: w for w in (AnalyzeSaddle4d(), ReproduceSaddle2d(), SignalCheckK70())}


def compare(expected, actual, path: str = "") -> list[str]:
    """Differences between a reference and an op's outputs, one line each."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        diffs = [f"{path}/{k}: missing" for k in expected if k not in actual]
        diffs += [f"{path}/{k}: unexpected" for k in actual if k not in expected]
        for key in expected:
            if key in actual:
                diffs += compare(expected[key], actual[key], f"{path}/{key}")
        return diffs
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        diffs = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            diffs += compare(e, a, f"{path}[{i}]")
        return diffs
    if (isinstance(expected, float) and isinstance(actual, (int, float))
            and not isinstance(actual, bool)):
        if math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []
