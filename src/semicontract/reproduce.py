"""End-to-end reproduction of the bundled example: analysis, both simulation
experiments, a negative control, and programmatic result checks."""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from .certificates import decay_constants
from .ioutil import atomic_write_json
from .report import analyze, bounds_from_report, certificates_from_report, make_samples
from .signals import generate_periodic, generate_random, verify_per_activation
from .sim import integrate, integrate_variational, run_simulation, write_traces
from .system import load_config
from .testdata import bundled_config_path

# Expected values carried by the bundled example, with the tolerance each is
# checked at. Two published figures are known to be off for this system and are
# reported as documented mismatches instead of hard checks (see the notes in
# each entry): the tightest expansion rate on the bounded domain, and the
# behaviour of the equal-dwell negative control.
EXPECTED = {
    "beta_stable": (1.6084, 1e-3),
    "beta_unstable": (0.6217, 1e-3),
    "tau_lower": (0.1584, 1e-3),
    "tau_upper": (0.3960, 1e-3),
    "tightest_eta_stable": (1.98, 0.02),
    "norm_rate_at_0.35": (0.079, 1e-3),
}
DOCUMENTED_MISMATCHES = {
    "tightest_eta_unstable": {
        "published": 0.57,
        "note": (
            "0.57 is the global bound 0.5 + 0.07 (attained where the sine "
            "reaches 1, at |x1 - x2| ~ 22.2); on the analysis domain "
            "[-5,5]^2 the sine argument stays below 0.708 rad, capping the "
            "rate at 0.5 + 0.07*sin(0.7071) ~ 0.5455"
        ),
    },
    "negative_control_growth": {
        "published": "pairwise distance grows at dwell 1.0",
        "note": (
            "both modes share the diagonal eigenframe, so equal-dwell "
            "alternation contracts every component by e^(-1.5 tau) per "
            "period regardless of the dwell; the certified leave bound is "
            "sufficient-only. The signal checker still flags the bound "
            "violation, and unequal schedules (e.g. 0.8/0.1) do diverge."
        ),
    },
}

# the result entries of each simulation that reproduction.json repeats
SIMULATION_SUMMARY = ("terminal_distance", "distance_ratio", "rate_fit", "step_halving")


def run_reproduction(out_dir: Path, seed: int = 19, step: float = 1e-3,
                     grid: int = 41, tol: float = 1e-9, margin: float = 1e-6,
                     strict: bool = False) -> int:
    t_start = time.monotonic()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bundle = load_config(bundled_config_path("saddle2d"))
    samples = make_samples(bundle, grid, None, seed)
    checks: list[dict] = []

    def check(name, value, expected, tolerance):
        checks.append({"name": name, "value": value, "expected": expected,
                       "tolerance": tolerance, "ok": bool(abs(value - expected) <= tolerance)})

    def check_flag(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def mismatch(name, observed):
        info = DOCUMENTED_MISMATCHES[name]
        checks.append({
            "name": name, "ok": True, "documented_mismatch": True,
            "observed": observed, "published": info["published"],
            "note": info["note"],
        })

    # certificate analysis
    certs = certificates_from_report(bundle, samples)
    report = analyze(bundle, samples, tol=tol, margin=margin, certs=certs)
    atomic_write_json(out_dir / "report.json", report)
    check_flag("analysis_all_conditions", report["all_pass"],
               "every invariance/rate/coupling/separating verdict")
    diag = next(s for s in report["subspaces"] if s["name"] == "diag")
    consts = diag["constants"]
    check("beta_stable", consts["tightest_beta_stable"], *EXPECTED["beta_stable"])
    check("beta_unstable", consts["tightest_beta_unstable"], *EXPECTED["beta_unstable"])
    check("tightest_eta_stable", consts["tightest_eta_stable"],
          *EXPECTED["tightest_eta_stable"])
    mismatch("tightest_eta_unstable", consts["tightest_eta_unstable"])
    family = report["family"]
    for q in ("1", "2"):
        check(f"tau_lower_mode{q}", family["dwell_bounds"]["lower"][q], *EXPECTED["tau_lower"])
        check(f"tau_upper_mode{q}", family["dwell_bounds"]["upper"][q], *EXPECTED["tau_upper"])
    check_flag("separating_family", family["separating"])

    bounds = bounds_from_report(report)
    decay = decay_constants(certs["diag"], 0.35, 0.35)
    check("norm_rate_at_0.35", decay.norm_rate, *EXPECTED["norm_rate_at_0.35"])

    x_a0, x_b0 = np.array([2.0, -1.0]), np.array([-2.0, 1.0])
    horizon = 10.0
    # periodic switching at dwell 0.35, a seeded random signal satisfying the
    # certified bounds, and the negative control at dwell 1.0, which violates
    # the certified leave bound; the control writes no trace files
    random_signal = generate_random([1, 2], bounds, 0.0, horizon, seed=seed)
    control_signal = generate_periodic([1, 2], 1.0, 0.0, horizon)
    experiments = [
        ("periodic_dwell_0.35", generate_periodic([1, 2], 0.35, 0.0, horizon),
         out_dir / "periodic" / "simulation.json", "periodic switching, dwell 0.35"),
        (f"random_seed_{seed}", random_signal,
         out_dir / "random" / "simulation.json", f"random compliant switching, seed {seed}"),
        ("control_dwell_1.0", control_signal, out_dir / "control_simulation.json", None),
    ]
    simulations = {}
    for name, sig, path, title in experiments:
        result, traces = run_simulation(bundle, sig, x_a0, x_b0, step, bounds)
        path.parent.mkdir(exist_ok=True)
        if title:
            write_traces(path.parent, sig, traces, True, title)
        atomic_write_json(path, result)
        simulations[name] = result
    res1, res2, res3 = simulations.values()

    check_flag("periodic_step_halving",
               res1["step_halving"]["worst_difference"] < 1e-6,
               f"worst difference {res1['step_halving']['worst_difference']:.3e}")
    check_flag("periodic_distance_ratio",
               res1["distance_ratio"] < 1e-3,
               f"terminal/initial = {res1['distance_ratio']:.3e}")
    check_flag("periodic_rate_fit",
               res1["rate_fit"]["rate"] >= 0.9 * decay.norm_rate,
               f"fit {res1['rate_fit']['rate']:.4f} vs certified floor {decay.norm_rate:.4f}")

    check_flag("random_signal_compliant", verify_per_activation(random_signal, bounds).ok)
    check_flag("random_distance_ratio", res2["distance_ratio"] < 1e-2,
               f"terminal/initial = {res2['distance_ratio']:.3e}")
    check_flag("random_envelope_monotone", res2["envelope_monotone"],
               "distance at activation boundaries decays monotonically")

    control_check = verify_per_activation(control_signal, bounds)
    check_flag("control_flagged_by_checker", not control_check.ok, control_check.reason)
    mismatch("negative_control_growth",
             f"distance ratio {res3['distance_ratio']:.3e} (decays)")

    # variational consistency against a finite-difference perturbation
    sig4 = generate_periodic([1, 2], 0.35, 0.0, 2.0)
    y0 = np.array([1.0, 0.5])
    eps = 1e-6
    base = integrate(bundle.system, sig4, x_a0, step)
    bumped = integrate(bundle.system, sig4, x_a0 + eps * y0, step)
    fd = (bumped.states - base.states) / eps
    trace = integrate_variational(bundle.system, sig4, base, y0)
    scale = np.maximum(np.linalg.norm(trace.states, axis=1), 1e-12)
    rel = float(np.max(np.linalg.norm(fd - trace.states, axis=1) / scale))
    check_flag("variational_fd_consistency", rel < 1e-4, f"max relative error {rel:.3e}")

    summary = {
        "example": "saddle2d",
        "elapsed_seconds": time.monotonic() - t_start,
        "provenance": {"seed": seed, "step": step, "grid": grid,
                       "tol": tol, "margin": margin, "strict": strict,
                       "initial_states": [x_a0.tolist(), x_b0.tolist()]},
        "simulation": {name: {key: res[key] for key in SIMULATION_SUMMARY}
                       for name, res in simulations.items()},
        "checks": checks,
        "all_pass": all(c["ok"] for c in checks),
        "documented_mismatches": sorted(DOCUMENTED_MISMATCHES),
        # the bundled config records a published weight/projector variant whose
        # sign assignment is kernel-inconsistent; projectors are recomputed
        # from spans and the bundle uses the consistent reassignment
        "configuration_notes": bundle.raw.get("reference_variant_comment"),
    }
    atomic_write_json(out_dir / "reproduction.json", summary)
    for c in checks:
        tag = "PASS" if c["ok"] else "FAIL"
        if c.get("documented_mismatch"):
            tag = "NOTE"
        detail = c.get("detail") or c.get("observed") or ""
        if "value" in c:
            detail = f"value {c['value']:.6g} expected {c['expected']:.6g} +/- {c['tolerance']:.2g}"
        print(f"[{tag}] {c['name']}: {detail}")
    print(f"wrote {out_dir}/reproduction.json "
          f"({summary['elapsed_seconds']:.1f}s, all_pass={summary['all_pass']})")
    return 0 if summary["all_pass"] else 1
