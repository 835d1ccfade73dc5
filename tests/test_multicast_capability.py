"""Tests for L(t) (Eq. 6/7, Theorem 2) and relay receive-time schedules."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multicast import (
    SOURCE,
    build_binomial_tree,
    build_nonblocking_tree,
    build_sequential_tree,
    binomial_out_degree,
    capability_series,
    completion_time_units,
    receive_time_units,
    time_units_to_reach,
)


# ----------------------------------------------------------------------
# capability recurrences
# ----------------------------------------------------------------------
def test_capability_uncapped_doubles():
    """Eq. (6): with d* >= ceil(log2(n+1)) the reached set doubles."""
    series = capability_series(d_star=10, n_destinations=1000, t_max=6)
    assert series == [1, 2, 4, 8, 16, 32, 64]


def test_capability_capped_recurrence():
    """Eq. (7): L(t) = 2L(t-1) - L(t-d*-1) once t > d*."""
    d = 2
    series = capability_series(d_star=d, n_destinations=10**6, t_max=8)
    for t in range(1, 9):
        if t <= d:
            assert series[t] == 2 * series[t - 1]
        else:
            assert series[t] == 2 * series[t - 1] - series[t - d - 1]


def test_capability_saturates_at_n_plus_1():
    series = capability_series(d_star=3, n_destinations=7, t_max=20)
    assert series[-1] == 8
    assert max(series) == 8


def test_capability_validation():
    with pytest.raises(ValueError):
        capability_series(0, 5, 3)
    with pytest.raises(ValueError):
        capability_series(2, 0, 3)
    with pytest.raises(ValueError):
        capability_series(2, 5, -1)


@given(
    n=st.integers(min_value=2, max_value=2000),
    d1=st.integers(min_value=1, max_value=10),
    d2=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=150)
def test_theorem2_monotone_in_dstar(n, d1, d2):
    """Theorem 2: larger d* never reaches fewer nodes at any time."""
    lo, hi = sorted((d1, d2))
    t_max = n + 2
    s_lo = capability_series(lo, n, t_max)
    s_hi = capability_series(hi, n, t_max)
    assert all(a <= b for a, b in zip(s_lo, s_hi))
    assert time_units_to_reach(hi, n) <= time_units_to_reach(lo, n)


def test_time_to_reach_binomial_is_log():
    for n in (7, 15, 31, 480):
        d = binomial_out_degree(n)
        assert time_units_to_reach(d, n) == d


# ----------------------------------------------------------------------
# relay schedules on concrete trees
# ----------------------------------------------------------------------
def test_sequential_completion_is_n():
    t = build_sequential_tree(list(range(30)))
    assert completion_time_units(t) == 30


def test_binomial_completion_is_log():
    t = build_binomial_tree(list(range(480)))
    assert completion_time_units(t) == 9


def test_nonblocking_completion_between_binomial_and_sequential():
    dests = list(range(100))
    seq = completion_time_units(build_sequential_tree(dests))
    bino = completion_time_units(build_binomial_tree(dests))
    nb = completion_time_units(build_nonblocking_tree(dests, d_star=3))
    assert bino <= nb <= seq


def test_receive_times_match_fig6():
    """Fig. 6 multicast procedure: t1 reaches the last instance (T_{4-1})
    in the fourth time unit."""
    t = build_nonblocking_tree(list(range(1, 8)), d_star=2)
    times = receive_time_units(t)
    assert times[SOURCE] == 0
    assert times[1] == 1  # T_{1-1}
    assert times[2] == 2 and times[3] == 2  # T_{2-1}, T_{2-2}
    assert sorted(times[i] for i in (4, 5, 6)) == [3, 3, 3]
    assert times[7] == 4  # T_{4-1}
    assert completion_time_units(t) == 4


@given(
    n=st.integers(min_value=1, max_value=200),
    d_star=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=150)
def test_schedule_agrees_with_recurrence(n, d_star):
    """For Algorithm-1 trees, the concrete relay schedule reaches nodes at
    exactly the rate the closed-form L(t) predicts."""
    tree = build_nonblocking_tree(list(range(n)), d_star=d_star)
    times = receive_time_units(tree)
    t_max = max(times.values())
    series = capability_series(d_star, n, t_max)
    for t in range(t_max + 1):
        reached = sum(1 for v in times.values() if v <= t)
        assert reached == series[t]

