"""Tests for the XOR acker protocol (at-least-once tuple-tree tracking)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsps.acker import Acker


class Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def make_acker(timeout=30.0):
    clock = Clock()
    return Acker(clock, timeout_s=timeout, seed=1), clock


# ----------------------------------------------------------------------
# basic protocol
# ----------------------------------------------------------------------
def test_single_hop_tree_completes():
    acker, clock = make_acker()
    edge = acker.new_edge_id()
    acker.register(root_id=1, first_edge_id=edge)
    clock.t = 0.5
    outcome = acker.ack(1, edge)  # leaf: no emissions
    assert outcome is not None and outcome.completed
    assert outcome.latency_s == pytest.approx(0.5)
    assert acker.pending == 0


def test_multi_hop_tree_completes_only_at_the_end():
    acker, _ = make_acker()
    e1 = acker.new_edge_id()
    acker.register(1, e1)
    # Bolt A consumes e1, emits e2 and e3.
    e2, e3 = acker.new_edge_id(), acker.new_edge_id()
    assert acker.ack(1, e1, [e2, e3]) is None
    # Bolt B consumes e2 (leaf).
    assert acker.ack(1, e2) is None
    # Bolt C consumes e3 (leaf) -> tree complete.
    outcome = acker.ack(1, e3)
    assert outcome is not None and outcome.completed
    assert outcome.edges_seen == 3


def test_out_of_order_acks_still_complete():
    acker, _ = make_acker()
    e1 = acker.new_edge_id()
    acker.register(1, e1)
    e2, e3 = acker.new_edge_id(), acker.new_edge_id()
    # Leaves ack before the intermediate bolt (network reordering).
    assert acker.ack(1, e2) is None
    assert acker.ack(1, e3) is None
    outcome = acker.ack(1, e1, [e2, e3])
    assert outcome is not None and outcome.completed


def test_duplicate_root_rejected():
    acker, _ = make_acker()
    e = acker.new_edge_id()
    acker.register(1, e)
    with pytest.raises(ValueError):
        acker.register(1, e)


def test_zero_edge_ids_rejected():
    acker, _ = make_acker()
    with pytest.raises(ValueError):
        acker.register(1, 0)
    e = acker.new_edge_id()
    acker.register(2, e)
    with pytest.raises(ValueError):
        acker.ack(2, e, [0])


def test_late_ack_is_noop():
    acker, _ = make_acker()
    e = acker.new_edge_id()
    acker.register(1, e)
    acker.ack(1, e)
    assert acker.ack(1, e) is None  # tree already gone


# ----------------------------------------------------------------------
# failure / timeout
# ----------------------------------------------------------------------
def test_explicit_fail():
    acker, clock = make_acker()
    e = acker.new_edge_id()
    acker.register(1, e)
    clock.t = 2.0
    outcome = acker.fail(1)
    assert outcome is not None and not outcome.completed
    assert acker.pending == 0
    assert acker.fail(1) is None


def test_sweep_times_out_old_trees():
    acker, clock = make_acker(timeout=10.0)
    acker.register(1, acker.new_edge_id())
    clock.t = 5.0
    acker.register(2, acker.new_edge_id())
    clock.t = 11.0
    failures = acker.sweep()
    assert [f.root_id for f in failures] == [1]
    assert acker.pending == 1
    assert acker.pending_roots() == [2]


def test_timeout_validation():
    with pytest.raises(ValueError):
        Acker(lambda: 0.0, timeout_s=0.0)


# ----------------------------------------------------------------------
# property: arbitrary random trees always complete, exactly at the end
# ----------------------------------------------------------------------
@given(
    fanouts=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=40),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=100)
def test_random_tree_completes_exactly_once(fanouts, seed):
    """Build a random tree: process tuples BFS; each consumed tuple emits
    ``fanouts[i]`` children.  The acker must report completion exactly
    when the last pending edge acks, never before."""
    acker = Acker(lambda: 0.0, seed=seed)
    root_edge = acker.new_edge_id()
    acker.register(99, root_edge)
    frontier = [root_edge]
    i = 0
    completions = 0
    while frontier:
        edge = frontier.pop(0)
        n_children = fanouts[i % len(fanouts)] if i < len(fanouts) else 0
        i += 1
        children = [acker.new_edge_id() for _ in range(n_children)]
        outcome = acker.ack(99, edge, children)
        frontier.extend(children)
        if outcome is not None:
            completions += 1
            assert not frontier, "completed before all edges were acked"
    assert completions == 1
    assert acker.pending == 0
