"""Span tracer for the benchmark's traced run.

It wraps listed public functions of the `semicontract` modules from outside
the package: every module namespace that binds a listed function gets the
wrapper, and `restore` puts the originals back. Spans (name, start, end,
parent, op id) stay in memory until the run writes them out. Per-step
callables such as `compiled_field` and `_rk4_step` are never wrapped; RK4
step counts come from the lengths of the trajectories `integrate` returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "semicontract"

# (module, function) pairs whose calls become spans; a function a later
# version removes is reported as absent.
TARGETS = (
    ("report", "analyze"),
    ("report", "certificates_from_report"),
    ("certificates", "search_scalar_weights"),
    ("certificates", "build_certificate"),
    ("certificates", "check_rate"),
    ("certificates", "tightest_eta"),
    ("certificates", "growth_values"),
    ("linalg", "gen_sym_eig"),
    ("linalg", "sym_eig"),
    ("linalg", "cholesky"),
    ("linalg", "psd_check"),
    ("system", "eval_jacobian"),
    ("subspaces", "check_invariance"),
    ("sim", "integrate"),
    ("sim", "integrate_variational"),
    ("sim", "step_halving_agreement"),
    ("cli", "run_simulation"),
    ("ioutil", "atomic_write_json"),
    ("ioutil", "atomic_write_text"),
    ("svgplot", "write_line_plot"),
    ("signals", "verify_per_activation"),
    ("signals", "verify_mdadt"),
    ("signals", "verify_mdalt"),
    ("signals", "tightest_mdadt_offset"),
    ("signals", "tightest_mdalt_offset"),
    ("signals", "dwell_stats"),
)

OP_SPAN = "op"

# Span fields, in order.
NAME, START, END, PARENT, OP = range(5)


def _count_growth_values(tracer, args, result):
    samples, mode, w = args.get("samples"), args.get("mode"), args.get("w")
    if samples is not None:
        tracer.add("certificates.growth_values.samples", len(samples))
    if mode is not None and w is not None:
        tracer.pairs.add((tracer.op, w.subspace.basis.tobytes(), mode.id))


def _count_points(tracer, args, result):
    x = args.get("x")
    if x is not None:
        shape = np.shape(x)
        tracer.add("system.eval_jacobian.points", shape[0] if len(shape) > 1 else 1)


def _count_steps(key):
    def count(tracer, args, result):
        tracer.add(key, len(result.states) - 1)
    return count


def _count_bytes(key):
    def count(tracer, args, result):
        path = args.get("path")
        if path is not None:
            tracer.add(key, os.path.getsize(path))
    return count


def _count_windows(tracer, args, result):
    tracer.add("signals.windows", result.checked_windows)


# Work counters, computed from a call's bound arguments and its result after
# the span has ended, and the count keys they add to.
COUNTERS = {
    "certificates.growth_values": _count_growth_values,
    "system.eval_jacobian": _count_points,
    "sim.integrate": _count_steps("sim.integrate.steps"),
    "sim.integrate_variational": _count_steps("sim.integrate_variational.steps"),
    "ioutil.atomic_write_json": _count_bytes("ioutil.atomic_write_json.bytes"),
    "ioutil.atomic_write_text": _count_bytes("ioutil.atomic_write_text.bytes"),
    "signals.verify_mdadt": _count_windows,
    "signals.verify_mdalt": _count_windows,
}
COUNT_KEYS = ("certificates.growth_values.samples", "system.eval_jacobian.points",
              "sim.integrate.steps", "sim.integrate_variational.steps",
              "ioutil.atomic_write_json.bytes", "ioutil.atomic_write_text.bytes",
              "signals.windows")


class Tracer:
    """Records spans and work counts for calls into the package's modules."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[list] = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))  # op -> key -> n
        self.pairs: set = set()  # (op, subspace basis, mode id) seen by growth_values
        self.absent: list[str] = []
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def add(self, key: str, n: int) -> None:
        self.counts[self.op][key] += n

    def install(self) -> None:
        """Wrap every target in each package namespace that binds it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        package = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"{PACKAGE}.{info.name}")
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == PACKAGE or name.startswith(PACKAGE + ".")]
        self.absent = []
        for module_name, func_name in self.targets:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(module, func_name, None)
            label = f"{module_name}.{func_name}"
            if not callable(original):
                self.absent.append(label)
                continue
            wrapper = self._wrap(label, original)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        self._patched.append((namespace, attr, original))
                        setattr(namespace, attr, wrapper)

    def restore(self) -> None:
        """Put every original function back where install found it."""
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)

    def _wrap(self, label, original):
        counter = COUNTERS.get(label)
        signature = inspect.signature(original) if counter else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([label, clock(), None, stack[-1] if stack else None, self.op])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index][END] = clock()
                stack.pop()
            if counter is not None:
                counter(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def run_op(self, op_id, fn, *args):
        """Call fn(*args) under a root span for op op_id; returns its result."""
        self.op = op_id
        index = len(self.spans)
        self.spans.append([OP_SPAN, time.perf_counter(), None, None, op_id])
        self._stack.append(index)
        try:
            return fn(*args)
        finally:
            self.spans[index][END] = time.perf_counter()
            self._stack.pop()
            self.op = None

    def per_op_summary(self) -> dict:
        """op id -> {label: {"calls", "self_s"}} plus that op's work counts."""
        selfs = self_times(self.spans)
        out: dict = defaultdict(lambda: defaultdict(lambda: {"calls": 0, "self_s": 0.0}))
        for span, own in zip(self.spans, selfs):
            entry = out[span[OP]][span[NAME]]
            entry["calls"] += 1
            entry["self_s"] += own
        return {op: {"functions": dict(functions), "counts": dict(self.counts[op]),
                     "pairs": sum(1 for p in self.pairs if p[0] == op)}
                for op, functions in out.items()}

    def dump(self) -> dict:
        names = sorted({span[NAME] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        return {"fields": ["name index", "start", "end", "parent", "op"], "names": names,
                "spans": [[index[s[NAME]], s[START], s[END], s[PARENT], s[OP]]
                          for s in self.spans],
                "absent": list(self.absent)}


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        run_start = run_end = None
        for lo, hi in sorted((max(spans[c][START], start), min(spans[c][END], end))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out

