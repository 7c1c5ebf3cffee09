"""Command-line interface: analyze | simulate | signal | reproduce."""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .certificates import DEFAULT_MARGIN, DwellBounds
from .expr import EvaluationError
from .ioutil import atomic_write_json
from .linalg import PSD_TOL
from .report import analyze, bounds_from_report, config_digest
from .reproduce import run_reproduction
from .signals import (
    TIME_EPS,
    generate_periodic,
    generate_random,
    read_signal_csv,
    verify_mdadt,
    verify_mdalt,
    verify_per_activation,
    write_signal_csv,
)
from .sim import RateWindowError, run_simulation, write_traces
from .system import ConfigError, load_config, sample_domain
from .testdata import bundled_config_path

CONFIG_EXIT = 2
VERDICT_EXIT = 1
# simulate's periodic dwell [s] when no signal flag is given
DEFAULT_DWELL = 0.35
DEFAULT_HORIZON = 10.0  # [s], of a signal that simulate or signal gen generates
TAU_FLAGS = ["--tau-lower", "--tau-upper"]
BOUNDS_FROM_CLASH = "whose bound the report supplies"


class UsageError(Exception):
    """A flag combination the parser cannot refuse itself (exit 2)."""


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
OUT_PATH = _flag_type(str, bool, "a non-empty path")
MODES = _flag_type(lambda text: [int(m) for m in text.split(",")],
                   lambda v: min(v) >= 1 and len(set(v)) == len(v),
                   "comma-separated distinct positive integers")

# Options shared by the subcommands; each registers only those it reads.
OPTIONS = {
    "--config": dict(default=None, help="system configuration JSON"),
    "--out": dict(type=OUT_PATH, default=None, help="output directory (default: stdout/cwd)"),
    "--seed": dict(type=SEED, default=None),  # None: omitted, 0 where anything is drawn
    "--step": dict(type=POSITIVE, default=1e-3, help="integration step [s]"),
    "--grid": dict(type=GRID, default=None, help="grid points per axis"),
    "--samples": dict(type=COUNT, default=None, help="random sample count"),
    "--tol": dict(type=NON_NEGATIVE, default=PSD_TOL,
                  help="relative tolerance for semidefinite checks"),
    "--margin": dict(type=FRACTION, default=DEFAULT_MARGIN,
                     help="multiplicative margin on derived constants"),
    "--plot": dict(action="store_true", help="emit SVG plots"),
    "--search-weights": dict(action="store_true",
                             help="search scalar weights instead of reading P matrices"),
    "--horizon": dict(type=POSITIVE, default=DEFAULT_HORIZON),
    "--tau-lower": dict(type=POSITIVE, default=None),
    "--tau-upper": dict(type=POSITIVE, default=None),
    "--bounds-from": dict(default=None, help="analysis report JSON supplying family bounds"),
}


def _add_options(parser, *names):
    for name in names:
        parser.add_argument(name, **OPTIONS[name])


def _load(args):
    return load_config(bundled_config_path("saddle2d") if args.config is None else args.config)


def cmd_analyze(args) -> int:
    bundle = _load(args)
    samples = sample_domain(bundle.system, args.grid, args.samples, args.seed or 0)
    if args.seed is not None and not samples.scheme["random_count"]:
        raise UsageError("--seed needs random sample points, and a grid draws none "
                         "(add --samples)")
    try:
        report = analyze(bundle, samples, tol=args.tol, margin=args.margin,
                         search_weights=args.search_weights)
    except (ValueError, EvaluationError) as exc:  # no certificate, or a non-finite Jacobian
        print(f"analysis failed: {exc}", file=sys.stderr)
        return VERDICT_EXIT
    if args.out:
        atomic_write_json(Path(args.out) / "report.json", report)
    else:
        print(json.dumps(report, indent=2))
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


def cmd_simulate(args) -> int:
    if args.random_signal and args.bounds_from is None:
        raise UsageError("--random-signal needs --bounds-from")
    if args.seed is not None and not args.random_signal:
        raise UsageError("--seed needs --random-signal, the only signal it draws")
    if args.signal is not None:
        _refuse(args, "--signal", ["--horizon"], "whose file records the horizon")
    horizon = args.horizon or DEFAULT_HORIZON
    if horizon <= TIME_EPS:
        raise ConfigError(f"--horizon {horizon} must exceed the start time 0.0")
    bundle = _load(args)
    mode_ids = [m.id for m in bundle.system.modes]
    x_a0, x_b0 = (_initial_state(text, bundle.system.dimension) for text in args.initial)
    if np.array_equal(x_a0, x_b0):
        raise ConfigError(f"initial states {args.initial[0]!r} and {args.initial[1]!r} "
                          "are equal, so the distance ratio is undefined")
    bounds = None if args.bounds_from is None else _report_bounds(args.bounds_from, bundle)
    if args.signal is not None:
        sig = read_signal_csv(args.signal)
        if unknown := sorted(set(sig.modes) - set(mode_ids)):
            raise ConfigError(f"the signal enters mode {unknown[0]}, which the "
                              f"configuration lacks (modes {mode_ids})")
    elif args.random_signal:
        try:
            sig = generate_random(mode_ids, bounds, 0.0, horizon, seed=args.seed or 0)
        except ValueError as exc:  # bounds no signal can meet
            print(f"no signal to simulate: {exc}", file=sys.stderr)
            return VERDICT_EXIT
    else:
        sig = generate_periodic(mode_ids, args.periodic or DEFAULT_DWELL, 0.0, horizon)
    try:
        result, traces = run_simulation(bundle, sig, x_a0, x_b0, args.step, bounds)
    except RateWindowError as exc:
        raise ConfigError(f"the rate-fit window [t0 + 0.2 (T - t0), T] is too short "
                          f"({exc}): raise the horizon or lower --step") from None
    report = {
        "schema_version": 1,
        "provenance": {
            "config_sha256": config_digest(bundle.raw),
            # only a random signal reads the seed
            **({"seed": args.seed or 0} if args.random_signal else {}),
            "step": args.step,
            "horizon": sig.horizon,
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


def _refuse(args, flag: str, others: list, why: str) -> None:
    """Raise UsageError if one of the flags others (read from args by their
    argparse dest) is given with flag, naming the first."""
    given = [other for other in others if getattr(args, other[2:].replace("-", "_")) is not None]
    if given:
        raise UsageError(f"{flag} cannot be combined with {given[0]}, {why}")


def _report_bounds(path, bundle=None) -> DwellBounds:
    """The family dwell bounds of the analysis report at path, as
    bounds_from_report(doc, bundle) reads them."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read report {path}: {exc}") from None
    return bounds_from_report(doc, bundle)


def _bounds_from_args(args, modes) -> DwellBounds:
    if args.bounds_from is not None:
        return _report_bounds(args.bounds_from)
    lower = {q: args.tau_lower for q in modes} if args.tau_lower is not None else {}
    upper = {q: args.tau_upper for q in modes} if args.tau_upper is not None else {}
    return DwellBounds(lower, upper, "flags", 0.0)


def cmd_signal_gen(args) -> int:
    if args.periodic:
        _refuse(args, "--periodic", ["--seed", *TAU_FLAGS, "--bounds-from"],
                "which only the seeded random generator reads")
    if args.bounds_from is not None:
        _refuse(args, "--bounds-from", TAU_FLAGS, BOUNDS_FROM_CLASH)
    if not (args.periodic or args.bounds_from is not None or args.tau_lower or args.tau_upper):
        raise ConfigError("signal gen needs --periodic, or a bound for the random "
                          "generator: --tau-lower, --tau-upper or --bounds-from")
    if args.horizon - args.t0 <= TIME_EPS:
        raise ConfigError(f"--horizon {args.horizon} must exceed --t0 {args.t0}")
    if args.periodic:
        sig = generate_periodic(args.modes, args.periodic, args.t0, args.horizon)
    else:
        bounds = _bounds_from_args(args, args.modes)
        # a mode the report does not bound would be drawn unbounded
        unbounded = [q for q in args.modes if q not in bounds.lower and q not in bounds.upper]
        if args.bounds_from is not None and unbounded:
            raise ConfigError(f"report has no dwell bounds for mode {unbounded[0]}")
        try:
            sig = generate_random(args.modes, bounds, args.t0, args.horizon, seed=args.seed or 0)
        except ValueError as exc:
            print(f"infeasible bounds: {exc}", file=sys.stderr)
            return VERDICT_EXIT
    out = Path(args.out_file) if args.out_file else Path("signal.csv")
    write_signal_csv(sig, out)
    print(f"wrote {out} with {len(sig.switch_times)} switches over "
          f"[{sig.start_time}, {sig.horizon}]")
    return 0


def cmd_signal_check(args) -> int:
    if args.bounds_from is not None:
        _refuse(args, "--bounds-from", TAU_FLAGS, BOUNDS_FROM_CLASH)
    sig = read_signal_csv(args.signal)
    bounds = _bounds_from_args(args, sig.modes)
    check = verify_per_activation(sig, bounds)
    report = {"per_activation": {"ok": check.ok, "detail": check.reason}}
    failure = None if check.ok else check.reason  # the first failed check
    for q in sig.modes:
        lengths = [a.length for a in sig.activations if a.mode == q]
        entry = {"activations": len(lengths), "min_dwell": min(lengths),
                 "max_dwell": max(lengths)}
        # dwell offset n_lower = 1 and leave offset n_upper = 0
        for kind, verify, taus, offset in (("mdadt", verify_mdadt, bounds.lower, 1.0),
                                           ("mdalt", verify_mdalt, bounds.upper, 0.0)):
            if q in taus:
                res = verify(sig, q, taus[q], offset)
                entry[kind] = {"ok": res.ok, "tau": taus[q], "worst_window": res.worst_window,
                               "worst_value": res.worst_value,
                               "tightest_offset": res.tightest_offset}
                if not res.ok and failure is None:
                    t_a, t_b = res.worst_window
                    failure = (f"mode {q} {kind} at tau {taus[q]:.6g} fails on window "
                               f"[{t_a:.6g}, {t_b:.6g}]")
        report[f"mode_{q}"] = entry
    print(json.dumps(report, indent=2))
    if failure is not None:
        print(f"signal check failed: {failure}", file=sys.stderr)
        return VERDICT_EXIT
    return 0


def cmd_reproduce(args) -> int:
    return run_reproduction(Path(args.out or "reproduction"))


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
                 "--margin", "--search-weights")
    p_analyze.set_defaults(fn=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="integrate a trajectory pair under a signal")
    _add_options(p_sim, "--config", "--out", "--seed", "--step", "--plot", "--horizon",
                 "--bounds-from")
    signal_flags = p_sim.add_mutually_exclusive_group()
    signal_flags.add_argument("--periodic", type=POSITIVE, default=None,
                              help="periodic dwell time per mode [s] "
                                   f"({DEFAULT_DWELL} when no signal flag is given)")
    signal_flags.add_argument("--random-signal", action="store_true",
                              help="seeded random signal within the --bounds-from bounds")
    signal_flags.add_argument("--signal", default=None, help="signal CSV to replay")
    p_sim.add_argument("--initial", nargs=2, default=["2,-1", "-2,1"],
                       metavar=("XA", "XB"), help="two initial states, comma-separated")
    # horizon None tells an omitted --horizon from a given one, which --signal refuses
    p_sim.set_defaults(fn=cmd_simulate, horizon=None)

    p_signal = sub.add_parser("signal", help="generate or check switching signals")
    actions = p_signal.add_subparsers(dest="action", required=True)
    p_gen = actions.add_parser("gen", help="write a periodic or seeded random signal CSV")
    p_gen.add_argument("--modes", type=MODES, default="1,2")
    p_gen.add_argument("--periodic", type=POSITIVE, default=None)
    p_gen.add_argument("--t0", type=FINITE, default=0.0)
    p_gen.add_argument("--out-file", type=OUT_PATH, default=None)
    _add_options(p_gen, "--seed", "--horizon", "--tau-lower", "--tau-upper", "--bounds-from")
    p_gen.set_defaults(fn=cmd_signal_gen)
    p_check = actions.add_parser("check", help="check a signal CSV against dwell bounds")
    p_check.add_argument("--signal", required=True, help="signal CSV to check")
    _add_options(p_check, "--tau-lower", "--tau-upper", "--bounds-from")
    p_check.set_defaults(fn=cmd_signal_check)

    p_rep = sub.add_parser("reproduce", help="run the bundled example end to end")
    _add_options(p_rep, "--out")
    p_rep.set_defaults(fn=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
    except OSError as exc:  # every reader of an input raises ConfigError instead
        print(f"output error: {exc}", file=sys.stderr)
    return CONFIG_EXIT


if __name__ == "__main__":
    sys.exit(main())
