import gc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicontract.certificates import DwellBounds
from semicontract.signals import (
    TIME_EPS,
    ActivationCheck,
    SwitchingSignal,
    WindowCheck,
    dwell_stats,
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

EXAMPLE_BOUNDS = DwellBounds({1: 0.1584, 2: 0.1584}, {1: 0.3960, 2: 0.3960}, "test", 0.0)


def brute_force_stats(sig, mode, t_a, t_b):
    """Independent scan over activations; same counting convention, separate code."""
    count, total = 0, 0.0
    events = list(sig.events) + [(sig.horizon, None)]
    for (start, m), (end, _) in zip(events, events[1:]):
        if m != mode:
            continue
        lo, hi = max(start, t_a), min(end, t_b)
        if hi - lo > 1e-12:
            count += 1
            total += hi - lo
    return count, total


# Reference window scans: every switching-time window, O(K^2) overall, with
# exact rational scores. The worst window is the first exact maximum of
# sign * (tau * N - T) in (start, end) order; the reported value is the scan's
# own float formula on dwell_stats of that window. The O(K) scans in
# semicontract.signals must agree with these exactly (==), ties included.

def exact_worst_window(sig, mode, tau, sign):
    """(window, count, float total, windows checked) of the first window that
    maximises sign * (tau * N - T) in exact arithmetic."""
    acts, tau = sig.activations, Fraction(tau)
    best, window, checked = None, None, 0
    for i in range(len(acts)):
        count, total = 0, Fraction(0)
        for act in acts[i:]:
            if act.mode == mode:
                count += 1
                total += Fraction(act.length)
            score = sign * (tau * count - total)
            checked += 1
            if best is None or score > best:
                best, window = score, (acts[i].start, act.end)
    stats = dwell_stats(sig, mode, *window)
    return window, stats.count, stats.total_time, checked


def reference_verify_mdadt(sig, mode, tau_lower, n_lower):
    window, n, t, checked = exact_worst_window(sig, mode, tau_lower, +1)
    value = n - n_lower - t / tau_lower
    return WindowCheck(bool(value <= 1e-12), value, window, checked,
                       max(0.0, n - t / tau_lower))


def reference_verify_mdalt(sig, mode, tau_upper, n_upper):
    window, n, t, checked = exact_worst_window(sig, mode, tau_upper, -1)
    value = n_upper + t / tau_upper - n
    return WindowCheck(bool(value <= 1e-12), value, window, checked, n - t / tau_upper)


def random_signal(rng, n_modes=3, horizon=8.0):
    events = [(0.0, int(rng.integers(1, n_modes + 1)))]
    t = 0.0
    while True:
        t += float(rng.uniform(0.05, 1.2))
        if t >= horizon - 0.05:
            break
        prev = events[-1][1]
        options = [m for m in range(1, n_modes + 1) if m != prev]
        events.append((t, int(rng.choice(options))))
    return SwitchingSignal(0.0, tuple(events), horizon)


def test_signal_invariants():
    with pytest.raises(ValueError):
        SwitchingSignal(0.0, (), 1.0)
    with pytest.raises(ValueError):
        SwitchingSignal(0.0, ((0.5, 1),), 1.0)  # first event not at start
    with pytest.raises(ValueError):
        SwitchingSignal(0.0, ((0.0, 1), (0.0, 2)), 1.0)  # zero dwell
    with pytest.raises(ValueError):
        SwitchingSignal(0.0, ((0.0, 1), (0.5, 1)), 1.0)  # non-switch event
    with pytest.raises(ValueError):
        SwitchingSignal(0.0, ((0.0, 1), (2.0, 2)), 1.5)  # horizon before last switch


def test_every_activation_lasts_more_than_time_eps():
    with pytest.raises(ValueError, match="last activation"):
        SwitchingSignal(0.0, ((0.0, 1), (10.0 - 1e-13, 2)), 10.0)
    with pytest.raises(ValueError, match="last activation"):
        SwitchingSignal(0.0, ((0.0, 1),), 1e-13)
    with pytest.raises(ValueError, match="start time"):
        SwitchingSignal(0.0, ((1e-13, 1), (1.0, 2)), 2.0)
    sig = SwitchingSignal(0.5, ((0.5, 1), (1.0, 2), (1.5, 1)), 2.0)
    assert sig.boundaries == (0.5, 1.0, 1.5, 2.0)
    assert [(a.start, a.end) for a in sig.activations] == [(0.5, 1.0), (1.0, 1.5), (1.5, 2.0)]


def test_dwell_stats_periodic_example():
    sig = generate_periodic([1, 2], 0.35, 0.0, 2.5)
    stats = dwell_stats(sig, 1, 0.0, 2.1)
    assert stats.count == 3
    assert stats.total_time == pytest.approx(1.05)


def test_dwell_stats_window_inside_single_activation():
    sig = generate_periodic([1, 2], 0.35, 0.0, 2.5)
    stats = dwell_stats(sig, 1, 0.05, 0.20)
    assert stats.count == 1
    assert stats.total_time == pytest.approx(0.15)


def test_dwell_stats_mode_never_active_in_window():
    sig = generate_periodic([1, 2], 0.35, 0.0, 2.5)
    stats = dwell_stats(sig, 2, 0.0, 0.3)
    assert (stats.count, stats.total_time) == (0, 0.0)
    with pytest.raises(KeyError):
        dwell_stats(sig, 9, 0.0, 1.0)


def test_dwell_stats_partition_of_window():
    rng = np.random.default_rng(3)
    for _ in range(20):
        sig = random_signal(rng)
        t_a, t_b = sorted(rng.uniform(0.0, sig.horizon, size=2))
        if t_b - t_a < 1e-6:
            continue
        total = sum(dwell_stats(sig, q, t_a, t_b).total_time for q in sig.modes)
        assert total == pytest.approx(t_b - t_a, abs=1e-9)


def test_dwell_stats_additive_over_adjacent_windows():
    rng = np.random.default_rng(5)
    for _ in range(20):
        sig = random_signal(rng)
        t_a, t_m, t_b = sorted(rng.uniform(0.0, sig.horizon, size=3))
        if t_m - t_a < 1e-6 or t_b - t_m < 1e-6:
            continue
        for q in sig.modes:
            left = dwell_stats(sig, q, t_a, t_m).total_time
            right = dwell_stats(sig, q, t_m, t_b).total_time
            whole = dwell_stats(sig, q, t_a, t_b).total_time
            assert left + right == pytest.approx(whole, abs=1e-9)


def test_dwell_stats_matches_brute_force_on_dense_windows():
    rng = np.random.default_rng(11)
    for _ in range(20):
        sig = random_signal(rng)
        for _ in range(25):
            t_a, t_b = sorted(rng.uniform(0.0, sig.horizon, size=2))
            if t_b - t_a < 1e-6:
                continue
            for q in sig.modes:
                stats = dwell_stats(sig, q, t_a, t_b)
                count, total = brute_force_stats(sig, q, t_a, t_b)
                assert stats.count == count
                assert stats.total_time == pytest.approx(total, abs=1e-9)


def test_verify_mdadt_periodic_examples():
    sig = generate_periodic([1, 2], 0.35, 0.0, 10.0)
    assert verify_mdadt(sig, 1, tau_lower=0.1584, n_lower=1.0).ok
    # an average-dwell floor above the true dwell accumulates violations over
    # long windows (N grows like T/0.7 but the budget only like T/(2*0.5)),
    # so no small offset can rescue tau_lower=0.5 on this signal
    res = verify_mdadt(sig, 1, tau_lower=0.5, n_lower=0.5)
    assert not res.ok
    assert res.worst_window == (0.0, 10.0)
    res = verify_mdadt(sig, 1, tau_lower=0.5, n_lower=0.1)
    assert not res.ok
    assert res.worst_value > 0


def test_verify_mdadt_single_mode_signal():
    sig = SwitchingSignal(0.0, ((0.0, 1),), 5.0)
    assert verify_mdadt(sig, 1, tau_lower=10.0, n_lower=1.0).ok


def test_verify_mdalt_periodic_examples():
    sig = generate_periodic([1, 2], 0.35, 0.0, 10.0)
    assert verify_mdalt(sig, 1, tau_upper=0.3960, n_upper=0.0).ok
    slow = generate_periodic([1, 2], 0.5, 0.0, 10.0)
    assert not verify_mdalt(slow, 1, tau_upper=0.3960, n_upper=0.0).ok


def test_verify_enumeration_matches_brute_force_grid_windows():
    # worst window over the verifier's enumeration equals an exhaustive
    # all-pairs scan with independently computed statistics
    rng = np.random.default_rng(19)
    for _ in range(20):
        sig = random_signal(rng)
        times = [sig.start_time, *sig.switch_times, sig.horizon]
        for q in sig.modes:
            tau_lb, n_lb = float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.2, 2.0))
            res = verify_mdadt(sig, q, tau_lb, n_lb)
            worst = max(
                brute_force_stats(sig, q, ta, tb)[0]
                - n_lb
                - brute_force_stats(sig, q, ta, tb)[1] / tau_lb
                for i, ta in enumerate(times[:-1])
                for tb in times[i + 1 :]
            )
            assert res.worst_value == pytest.approx(worst, abs=1e-9)
            assert res.ok == (worst <= 1e-12)
            tau_ub = float(rng.uniform(0.1, 1.5))
            res_alt = verify_mdalt(sig, q, tau_ub, n_upper=0.0)
            worst_alt = max(
                brute_force_stats(sig, q, ta, tb)[1] / tau_ub
                - brute_force_stats(sig, q, ta, tb)[0]
                for i, ta in enumerate(times[:-1])
                for tb in times[i + 1 :]
            )
            assert res_alt.worst_value == pytest.approx(worst_alt, abs=1e-9)


def assert_scans_match_reference(sig, tau):
    # each reference check carries its exact offset, so the scans' offsets
    # and the tightest_* functions that repeat them match it too
    for q in sig.modes:
        adt, alt = verify_mdadt(sig, q, tau, 1.0), verify_mdalt(sig, q, tau, 0.0)
        assert adt == reference_verify_mdadt(sig, q, tau, 1.0)
        assert alt == reference_verify_mdalt(sig, q, tau, 0.0)
        assert tightest_mdadt_offset(sig, q, tau) == adt.tightest_offset
        assert tightest_mdalt_offset(sig, q, tau) == alt.tightest_offset


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.floats(0.05, 2.0))
def test_window_scans_equal_the_reference_on_random_signals(seed, n_modes, tau):
    sig = random_signal(np.random.default_rng(seed), n_modes=n_modes, horizon=5.0)
    assert_scans_match_reference(sig, tau)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.sampled_from([0.1, 0.25, 0.35, 0.5, 0.7, 1.0]),
       st.sampled_from([0.7, 1.4, 2.1, 3.0]), st.sampled_from([0.1, 0.35, 0.5, 0.7]))
def test_window_scans_equal_the_reference_on_periodic_signals(n_modes, dwell, horizon, tau):
    # equal dwells make many windows tie for the worst value
    sig = generate_periodic(list(range(1, n_modes + 1)), dwell, 0.0, horizon)
    assert_scans_match_reference(sig, tau)


@pytest.mark.parametrize("switches, window", [(1000, (349.65, 350.1)),
                                               (3000, (1049.6499999999999, 1050.1))])
def test_long_periodic_signals_keep_their_worst_window(switches, window):
    # the windows the O(K^2) float scan reported; only the censored last
    # activation of mode 1 counts, and the earlier of the two tied starts wins
    sig = generate_periodic([1, 2], 0.35, 0.0, 0.35 * switches + 0.1)
    assert verify_mdadt(sig, 1, tau_lower=0.3, n_lower=1.0).worst_window == window


def test_a_scan_of_1e5_activations_checks_every_window():
    sig = generate_periodic([1, 2], 0.35, 0.0, 0.35 * (10**5 - 1) + 0.1)
    k = len(sig.events)
    assert k == 10**5
    assert verify_mdadt(sig, 1, tau_lower=0.3, n_lower=1.0).checked_windows == k * (k + 1) // 2


def test_window_scans_reject_a_mode_that_never_appears():
    sig = generate_periodic([1, 2], 0.35, 0.0, 2.0)
    for scan in (lambda: verify_mdadt(sig, 3, 0.5, 1.0), lambda: verify_mdalt(sig, 3, 0.5, 0.0),
                 lambda: tightest_mdadt_offset(sig, 3, 0.5),
                 lambda: tightest_mdalt_offset(sig, 3, 0.5)):
        with pytest.raises(KeyError):
            scan()


def test_tightest_offsets_are_feasible_boundaries():
    rng = np.random.default_rng(23)
    for _ in range(10):
        sig = random_signal(rng)
        for q in sig.modes:
            tau = float(rng.uniform(0.1, 0.8))
            n_lb = tightest_mdadt_offset(sig, q, tau)
            if n_lb > 0:
                assert verify_mdadt(sig, q, tau, n_lb + 1e-9).ok
                if n_lb > 1e-9:
                    assert not verify_mdadt(sig, q, tau, n_lb - 1e-9).ok
            n_ub = tightest_mdalt_offset(sig, q, tau)
            assert verify_mdalt(sig, q, tau, n_ub - 1e-9).ok
            assert not verify_mdalt(sig, q, tau, n_ub + 1e-9).ok


def test_equal_signals_stay_equal_whatever_they_have_built():
    a = generate_periodic([1, 2], 0.35, 0.0, 2.0)
    b = SwitchingSignal(a.start_time, a.events, a.horizon)
    assert len(a.activations) == 6
    assert "activations" in vars(a) and "activations" not in vars(b)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_per_activation_examples():
    sig = generate_periodic([1, 2], 0.35, 0.0, 10.0)
    assert verify_per_activation(sig, EXAMPLE_BOUNDS).ok
    slow = generate_periodic([1, 2], 0.5, 0.0, 10.0)
    res = verify_per_activation(slow, EXAMPLE_BOUNDS)
    assert not res.ok
    assert res.activation_index == 0
    mid = generate_periodic([1, 2], 0.2, 0.0, 10.0)
    assert verify_per_activation(mid, EXAMPLE_BOUNDS).ok


def test_per_activation_censored_tail():
    # horizon cuts the last activation short; the lower bound must not fire
    sig = generate_periodic([1, 2], 0.35, 0.0, 0.8)
    acts = sig.activations
    assert acts[-1].censored and acts[-1].length < 0.1584
    assert verify_per_activation(sig, EXAMPLE_BOUNDS).ok


def test_per_activation_implies_average_conditions():
    # per-activation compliance gives the average bounds with offsets 1 and 0
    for seed in range(10):
        sig = generate_random([1, 2], EXAMPLE_BOUNDS, 0.0, 12.0, seed=seed)
        assert verify_per_activation(sig, EXAMPLE_BOUNDS).ok
        for q in (1, 2):
            assert verify_mdadt(sig, q, EXAMPLE_BOUNDS.lower[q], 1.0).ok
            assert verify_mdalt(sig, q, EXAMPLE_BOUNDS.upper[q], 0.0).ok


def reference_per_activation(sig, bounds):
    """verify_per_activation as a plain loop over the events: each activation
    runs from its event to the next event (the horizon for the last one)."""
    ends = [t for t, _ in sig.events[1:]] + [sig.horizon]
    seen = {}
    for k, ((start, mode), end) in enumerate(zip(sig.events, ends)):
        index = seen.get(mode, 0)
        seen[mode] = index + 1
        length = end - start
        upper, lower = bounds.upper.get(mode), bounds.lower.get(mode)
        if upper is not None and length > upper + TIME_EPS:
            return ActivationCheck(False, mode, index, f"activation lasts {length:.6g} > {upper:.6g}")
        if lower is not None and k < len(sig.events) - 1 and length < lower - TIME_EPS:
            return ActivationCheck(False, mode, index, f"activation lasts {length:.6g} < {lower:.6g}")
    return ActivationCheck(True, None, None, "all activations within bounds")


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_per_activation_equals_a_reference_loop_on_random_signals(seed, n_modes):
    rng = np.random.default_rng(seed)
    sig = random_signal(rng, n_modes=n_modes, horizon=6.0)
    lower, upper = {}, {}
    for q in sig.modes:
        # each mode gets a lower bound, an upper bound or both
        kind = int(rng.integers(0, 3))
        if kind != 1:
            lower[q] = float(rng.uniform(0.02, 0.4))
        if kind != 0:
            upper[q] = float(rng.uniform(0.4, 1.3))
    bounds = DwellBounds(lower, upper, "test", 0.0)
    assert verify_per_activation(sig, bounds) == reference_per_activation(sig, bounds)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.sampled_from([-2, -1, 0, 1, 2])),
                min_size=1, max_size=12),
       st.floats(0.0, 0.158))
def test_per_activation_equals_a_reference_loop_at_the_eps_edges(steps, tail):
    # each activation lasts tau_lower or tau_upper plus -2..2 TIME_EPS, and the
    # censored tail may be shorter than tau_lower
    tau_lower, tau_upper = 0.1584, 0.396
    events, t = [], 0.0
    for k, (at_upper, shift) in enumerate(steps):
        events.append((t, 1 + k % 2))
        t += (tau_upper if at_upper else tau_lower) + shift * TIME_EPS
    events.append((t, 1 + len(steps) % 2))
    sig = SwitchingSignal(0.0, tuple(events), t + tail + 2 * TIME_EPS)
    bounds = DwellBounds({1: tau_lower, 2: tau_lower}, {1: tau_upper, 2: tau_upper}, "test", 0.0)
    assert verify_per_activation(sig, bounds) == reference_per_activation(sig, bounds)


def test_the_checks_leave_no_per_signal_state_behind():
    # perfbench reuses one signal object across ops, so a check that kept
    # results on the signal would hide work a fresh signal check pays
    sig = generate_periodic([1, 2], 0.35, 0.0, 5.0)
    verify_per_activation(sig, EXAMPLE_BOUNDS)
    for q in sig.modes:
        verify_mdadt(sig, q, 0.1584, 1.0)
        verify_mdalt(sig, q, 0.396, 0.0)
        tightest_mdadt_offset(sig, q, 0.1584)
        tightest_mdalt_offset(sig, q, 0.396)
    assert set(vars(sig)) == {"start_time", "events", "horizon",
                              "modes", "switch_times", "boundaries", "activations"}


def test_generate_periodic_examples():
    sig = generate_periodic([1, 2], 0.35, 0.0, 1.4)
    assert [t for t, _ in sig.events] == pytest.approx([0.0, 0.35, 0.7, 1.05])
    assert [m for _, m in sig.events] == [1, 2, 1, 2]
    single = generate_periodic([1, 2], 0.7, 0.0, 1.4)
    assert len(single.events) == 2


def test_generate_periodic_counts_switches_over_horizon_10():
    sig = generate_periodic([1, 2], 0.35, 0.0, 10.0)
    assert len(sig.switch_times) == 28


def test_generate_periodic_rejects_empty():
    with pytest.raises(ValueError):
        generate_periodic([], 0.5, 0.0, 1.0)


def test_generate_random_compliant_and_seeded():
    a = generate_random([1, 2], EXAMPLE_BOUNDS, 0.0, 10.0, seed=42)
    b = generate_random([1, 2], EXAMPLE_BOUNDS, 0.0, 10.0, seed=42)
    c = generate_random([1, 2], EXAMPLE_BOUNDS, 0.0, 10.0, seed=43)
    assert a.events == b.events
    assert a.events != c.events
    assert verify_per_activation(a, EXAMPLE_BOUNDS).ok
    assert verify_per_activation(c, EXAMPLE_BOUNDS).ok
    margin = 1e-6
    for act in a.activations:
        if not act.censored:
            assert 0.1584 + margin <= act.length <= 0.3960 - margin


def test_generate_random_rejects_degenerate_interval():
    bounds = DwellBounds({1: 0.3, 2: 0.3}, {1: 0.3, 2: 0.3}, "test", 0.0)
    with pytest.raises(ValueError):
        generate_random([1, 2], bounds, 0.0, 5.0, seed=1)


def test_signal_csv_round_trip(tmp_path):
    sig = generate_periodic([1, 2], 0.35, 0.0, 3.0)
    path = tmp_path / "sig.csv"
    write_signal_csv(sig, path)
    text = path.read_text()
    assert text.splitlines()[0] == "time,mode"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        back = read_signal_csv(path, horizon=3.0)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert back.events == sig.events
    assert back.horizon == sig.horizon
