"""Command-line interface: analyze | simulate | signal | reproduce."""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .certificates import DEFAULT_MARGIN, DwellBounds, InfeasibleError, dwell_bounds_family
from .ioutil import atomic_write_json
from .linalg import PSD_TOL
from .report import analyze, bounds_from_report, certificates_from_report, config_digest, \
    make_samples
from .reproduce import run_reproduction
from .signals import (
    TIME_EPS,
    SwitchingSignal,
    generate_periodic,
    generate_random,
    read_signal_csv,
    tightest_mdadt_offset,
    tightest_mdalt_offset,
    verify_mdadt,
    verify_mdalt,
    verify_per_activation,
    write_signal_csv,
)
from .sim import RateWindowError, run_simulation, write_traces
from .system import ConfigError, load_config
from .testdata import bundled_config_path

CONFIG_EXIT = 2
VERDICT_EXIT = 1


def _flag_type(kind, ok, rule: str):
    """An argparse type: text that kind() turns into a value with ok(value);
    other text is a usage error (exit 2)."""
    def parse(text):
        try:
            value = kind(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {rule}, got {text!r}")
    return parse


POSITIVE = _flag_type(float, lambda v: 0.0 < v < math.inf, "a finite number > 0")
NON_NEGATIVE = _flag_type(float, lambda v: 0.0 <= v < math.inf, "a finite number >= 0")
FINITE = _flag_type(float, math.isfinite, "a finite number")
FRACTION = _flag_type(float, lambda v: 0.0 <= v < 1.0, "a number in [0, 1)")
GRID = _flag_type(int, lambda v: v >= 2, "an integer >= 2")
COUNT = _flag_type(int, lambda v: v >= 1, "an integer >= 1")
SEED = _flag_type(int, lambda v: v >= 0, "an integer >= 0")
MODES = _flag_type(lambda text: [int(m) for m in text.split(",")],
                   lambda v: min(v) >= 1 and len(set(v)) == len(v),
                   "comma-separated distinct positive integers")

# Options shared by analyze, simulate and reproduce; each subcommand registers
# only those it reads.
OPTIONS = {
    "--config": dict(default=None, help="system configuration JSON"),
    "--out": dict(default=None, help="output directory (default: stdout/cwd)"),
    "--seed": dict(type=SEED, default=0),
    "--step": dict(type=POSITIVE, default=1e-3, help="integration step [s]"),
    "--grid": dict(type=GRID, default=None, help="grid points per axis"),
    "--samples": dict(type=COUNT, default=None, help="random sample count"),
    "--tol": dict(type=NON_NEGATIVE, default=PSD_TOL,
                  help="relative tolerance for semidefinite checks"),
    "--margin": dict(type=FRACTION, default=DEFAULT_MARGIN,
                     help="multiplicative margin on derived constants"),
    "--strict": dict(action="store_true", help="margin 0: report bounds as open inequalities"),
    "--plot": dict(action="store_true", help="emit SVG plots"),
    "--search-weights": dict(action="store_true",
                             help="search scalar weights instead of reading P matrices"),
}


def _add_options(parser, *names):
    for name in names:
        parser.add_argument(name, **OPTIONS[name])


def _load(args):
    return load_config(args.config or bundled_config_path("saddle2d"))


def _config_error(exc) -> int:
    print(f"config error: {exc}", file=sys.stderr)
    return CONFIG_EXIT


def _margin(args) -> float:
    return 0.0 if args.strict else args.margin


def _emit_report(report: dict, args, name: str) -> None:
    if args.out:
        atomic_write_json(Path(args.out) / name, report)
    else:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")


def cmd_analyze(args) -> int:
    try:
        bundle = _load(args)
    except (ConfigError, OSError) as exc:
        return _config_error(exc)
    samples = make_samples(bundle, args.grid, args.samples, args.seed)
    try:
        report = analyze(bundle, samples, tol=args.tol, margin=_margin(args),
                         search_weights=args.search_weights)
    except (InfeasibleError, ValueError) as exc:
        print(f"analysis failed: {exc}", file=sys.stderr)
        return VERDICT_EXIT
    _emit_report(report, args, "report.json")
    if not report["all_pass"]:
        failing = [v["name"] for v in report["verdicts"] if not v["ok"]]
        print(f"failed conditions: {', '.join(failing)}", file=sys.stderr)
        return VERDICT_EXIT
    return 0


def _initial_state(text: str, dimension: int) -> np.ndarray:
    try:
        x = np.array([float(v) for v in text.split(",")])
    except ValueError:
        x = np.array([])
    if x.shape != (dimension,) or not np.all(np.isfinite(x)):
        raise ConfigError(f"initial state {text!r} is not {dimension} comma-separated numbers")
    return x


def _simulation_signal(args, mode_ids, bounds: DwellBounds | None) -> SwitchingSignal:
    if args.signal:
        sig = read_signal_csv(args.signal, horizon=args.horizon)
        unknown = sorted(set(sig.modes) - set(mode_ids))
        if unknown:
            raise ConfigError(f"the signal enters mode {unknown[0]}, which the configuration "
                              f"lacks (modes {mode_ids})")
        return sig
    if args.random_signal:
        if bounds is None:
            raise InfeasibleError("a random compliant signal needs the certified bounds")
        return generate_random(mode_ids, bounds, 0.0, args.horizon, seed=args.seed)
    return generate_periodic(mode_ids, args.periodic, 0.0, args.horizon)


def cmd_simulate(args) -> int:
    try:
        bundle = _load(args)
        x_a0, x_b0 = (_initial_state(text, bundle.system.dimension) for text in args.initial)
        if np.array_equal(x_a0, x_b0):
            raise ConfigError(f"initial states {args.initial[0]!r} and {args.initial[1]!r} "
                              "are equal, so the distance ratio is undefined")
    except (ConfigError, OSError) as exc:
        return _config_error(exc)
    samples = make_samples(bundle, args.grid, args.samples, args.seed)
    try:
        certs = certificates_from_report(bundle, samples, args.search_weights)
        bounds = dwell_bounds_family(certs.values(), margin=_margin(args))
    except (InfeasibleError, ValueError) as exc:
        print(f"certificate unavailable, skipping bounds check: {exc}", file=sys.stderr)
        bounds = None
    try:
        sig = _simulation_signal(args, [m.id for m in bundle.system.modes], bounds)
    except (ConfigError, OSError) as exc:
        return _config_error(exc)
    except (InfeasibleError, ValueError) as exc:
        print(f"no signal to simulate: {exc}", file=sys.stderr)
        return VERDICT_EXIT
    try:
        result, traces = run_simulation(bundle, sig, x_a0, x_b0, args.step, bounds)
    except RateWindowError as exc:
        return _config_error(f"the rate-fit window [t0 + 0.2 (T - t0), T] is too short "
                             f"({exc}): raise --horizon or lower --step")
    report = {
        "schema_version": 1,
        "provenance": {
            "config_sha256": config_digest(bundle.raw),
            "seed": args.seed,
            "step": args.step,
            "horizon": args.horizon,
            "initial_states": [x_a0.tolist(), x_b0.tolist()],
        },
        **result,
    }
    out_dir = Path(args.out) if args.out else Path.cwd()
    if traces is not None:
        write_traces(out_dir, sig, traces, args.plot, "trajectory pair distance")
    atomic_write_json(out_dir / "simulation.json", report)
    failed = [v["name"] for v in report["verdicts"] if not v["ok"]]
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        domain_exit = report.get("domain_exit")
        if domain_exit:
            print(f"trajectory {domain_exit['trajectory']} leaves the domain box at "
                  f"t = {domain_exit['time']:.6g}", file=sys.stderr)
        signal_check = report.get("signal_within_bounds")
        if signal_check and not signal_check["ok"]:
            print(signal_check["detail"], file=sys.stderr)
        return VERDICT_EXIT
    return 0


def _bounds_from_args(args, modes) -> DwellBounds:
    if args.bounds_from:
        try:
            doc = json.loads(Path(args.bounds_from).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read report {args.bounds_from}: {exc}") from None
        return bounds_from_report(doc)
    lower = {q: args.tau_lower for q in modes} if args.tau_lower is not None else {}
    upper = {q: args.tau_upper for q in modes} if args.tau_upper is not None else {}
    return DwellBounds(lower, upper, "flags", 0.0)


def cmd_signal(args) -> int:
    if args.action == "gen":
        if args.horizon - args.t0 <= TIME_EPS:
            return _config_error(f"--horizon {args.horizon} must exceed --t0 {args.t0}")
        if args.periodic:
            sig = generate_periodic(args.modes, args.periodic, args.t0, args.horizon)
        else:
            try:
                bounds = _bounds_from_args(args, args.modes)
                sig = generate_random(args.modes, bounds, args.t0, args.horizon, seed=args.seed)
            except ConfigError as exc:
                return _config_error(exc)
            except ValueError as exc:
                print(f"infeasible bounds: {exc}", file=sys.stderr)
                return VERDICT_EXIT
        out = Path(args.out_file) if args.out_file else Path("signal.csv")
        write_signal_csv(sig, out)
        print(f"wrote {out} with {len(sig.switch_times)} switches over "
              f"[{sig.start_time}, {sig.horizon}]")
        return 0

    if not args.signal:
        return _config_error("signal check needs --signal")
    try:
        sig = read_signal_csv(args.signal, horizon=args.horizon)
        modes = list(sig.modes)
        bounds = _bounds_from_args(args, modes)
        check = verify_per_activation(sig, bounds)
    except (ValueError, OSError) as exc:  # a mode without bounds is a ValueError
        return _config_error(exc)
    report = {"per_activation": {"ok": check.ok, "detail": check.reason}}
    ok = check.ok
    for q in modes:
        lengths = [a.length for a in sig.activations() if a.mode == q]
        entry = {"activations": len(lengths), "min_dwell": min(lengths),
                 "max_dwell": max(lengths)}
        if q in bounds.lower:
            res = verify_mdadt(sig, q, bounds.lower[q], n_lower=1.0)
            entry["mdadt"] = {"ok": res.ok, "tau": bounds.lower[q],
                              "tightest_offset": tightest_mdadt_offset(sig, q, bounds.lower[q])}
            ok = ok and res.ok
        if q in bounds.upper:
            res = verify_mdalt(sig, q, bounds.upper[q], n_upper=0.0)
            entry["mdalt"] = {"ok": res.ok, "tau": bounds.upper[q],
                              "tightest_offset": tightest_mdalt_offset(sig, q, bounds.upper[q])}
            ok = ok and res.ok
        report[f"mode_{q}"] = entry
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    if not ok:
        print(f"signal check failed: {check.reason}", file=sys.stderr)
        return VERDICT_EXIT
    return 0


def cmd_reproduce(args) -> int:
    out_dir = Path(args.out) if args.out else Path("reproduction")
    return run_reproduction(out_dir, seed=args.seed, step=args.step,
                            grid=args.grid or 41, tol=args.tol,
                            margin=_margin(args), strict=args.strict)


class _Parser(argparse.ArgumentParser):
    # no flag starts with a minus and a digit, so a token such as -2,1 or
    # -1e-3 is a value (argparse alone reads only -2 and -0.5 as values)
    def _parse_optional(self, arg_string):
        if re.match(r"-\.?\d", arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="semicontract",
        description=(
            "Certify contraction of switched systems whose modes are each "
            "non-contracting, via subspace seminorm certificates and dwell-time "
            "bounds, and validate the certificates by hybrid simulation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="run the certificate analysis")
    _add_options(p_analyze, "--config", "--out", "--seed", "--grid", "--samples", "--tol",
                 "--margin", "--strict", "--search-weights")
    p_analyze.set_defaults(fn=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="integrate a trajectory pair under a signal")
    _add_options(p_sim, "--config", "--out", "--seed", "--step", "--grid", "--samples",
                 "--margin", "--strict", "--plot", "--search-weights")
    p_sim.add_argument("--horizon", type=POSITIVE, default=10.0)
    p_sim.add_argument("--periodic", type=POSITIVE, default=0.35,
                       help="periodic dwell time per mode [s]")
    p_sim.add_argument("--random-signal", action="store_true",
                       help="seeded random signal satisfying the certified bounds")
    p_sim.add_argument("--signal", default=None, help="signal CSV to replay")
    p_sim.add_argument("--initial", nargs=2, default=["2,-1", "-2,1"],
                       metavar=("XA", "XB"), help="two initial states, comma-separated")
    p_sim.set_defaults(fn=cmd_simulate)

    p_signal = sub.add_parser("signal", help="generate or check switching signals")
    p_signal.add_argument("action", choices=["gen", "check"])
    p_signal.add_argument("--modes", type=MODES, default="1,2")
    p_signal.add_argument("--periodic", type=POSITIVE, default=None)
    p_signal.add_argument("--t0", type=FINITE, default=0.0)
    p_signal.add_argument("--horizon", type=POSITIVE, default=10.0)
    p_signal.add_argument("--seed", type=SEED, default=0)
    p_signal.add_argument("--signal", default=None, help="signal CSV to check")
    p_signal.add_argument("--tau-lower", type=POSITIVE, default=None)
    p_signal.add_argument("--tau-upper", type=POSITIVE, default=None)
    p_signal.add_argument("--bounds-from", default=None,
                          help="analysis report JSON supplying family bounds")
    p_signal.add_argument("--out-file", default=None)
    p_signal.set_defaults(fn=cmd_signal)

    p_rep = sub.add_parser("reproduce", help="run the bundled example end to end")
    _add_options(p_rep, "--out", "--seed", "--step", "--grid", "--tol", "--margin", "--strict")
    # default seed gives a random experiment whose switch-boundary envelope is
    # monotone; boundary-level monotonicity is realization-dependent
    p_rep.set_defaults(fn=cmd_reproduce, seed=19)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
