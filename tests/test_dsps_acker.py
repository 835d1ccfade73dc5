"""Tests for the acker's pending table (one-level delivery trees)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsps.acker import PendingTable


def test_single_hop_tree_completes():
    table = PendingTable()
    assert not table.arm(1, [10, 11, 12], now=0.0)
    assert not table.ack(1, 10)
    assert not table.ack(1, 12)
    assert table.awaits(1, 11)
    assert table.ack(1, 11)  # the last outstanding destination
    assert len(table) == 0
    assert not table.awaits(1, 11)


def test_out_of_order_acks_still_complete():
    table = PendingTable()
    table.arm(1, [10, 11, 12], now=0.0)
    assert not table.ack(1, 12)
    assert not table.ack(1, 10)
    assert table.ack(1, 11)


def test_late_ack_is_noop():
    table = PendingTable()
    table.arm(1, [10, 11], now=0.0)
    table.arm(2, [10], now=0.0)
    assert not table.ack(1, 10)
    assert not table.ack(1, 10)  # duplicate
    assert not table.ack(1, 99)  # never a destination
    assert not table.ack(3, 10)  # never armed
    assert table.items() == [(1, [11]), (2, [10])]
    assert table.ack(1, 11)
    assert not table.ack(1, 11)  # late: the key already completed
    assert table.items() == [(2, [10])]


def test_rearm_takes_the_union_of_tasks():
    table = PendingTable()
    table.arm(1, [10, 11], now=0.0)
    table.ack(1, 10)
    assert not table.arm(1, [11, 20, 21], now=0.0)  # a second edge
    assert table.items() == [(1, [11, 20, 21])]
    assert not table.ack(1, 11)
    assert not table.ack(1, 20)
    assert table.ack(1, 21)


def test_sweep_times_out_old_trees():
    table = PendingTable()
    table.arm(1, [10], now=0.0)
    table.arm(2, [10, 11], now=5.0)
    table.arm(3, [12], now=6.0)
    assert table.expired(now=9.0, timeout=10.0) == []
    assert table.expired(now=15.0, timeout=10.0) == [(1, [10]), (2, [10, 11])]
    assert table.items() == [(3, [12])]  # expired keys are disarmed
    assert not table.ack(1, 10)


def test_rearm_moves_the_key_to_the_end_of_arm_order():
    table = PendingTable()
    table.arm(1, [10], now=0.0)
    table.arm(2, [10], now=1.0)
    table.arm(1, [11], now=2.0)  # re-armed: now the youngest
    assert [key for key, _ in table.items()] == [2, 1]
    assert table.expired(now=11.5, timeout=10.0) == [(2, [10])]
    assert table.expired(now=12.0, timeout=10.0) == [(1, [10, 11])]


def test_empty_arm_completes_at_once():
    table = PendingTable()
    assert table.arm(1, [], now=0.0)
    assert len(table) == 0
    table.arm(2, [10], now=0.0)
    assert not table.arm(2, [], now=1.0)  # a live key stays armed


@given(
    n_tasks=st.integers(min_value=1, max_value=12),
    acks=st.lists(st.integers(min_value=0, max_value=15), max_size=60),
    data=st.data(),
)
@settings(max_examples=100)
def test_random_tree_completes_exactly_once(n_tasks, acks, data):
    """Any order of acks — duplicates and strangers included — completes
    the key exactly once: at the ack that covers its last destination."""
    table = PendingTable()
    table.arm(99, range(n_tasks), now=0.0)
    order = acks + data.draw(st.permutations(range(n_tasks)))
    seen = set()
    completions = 0
    for task in order:
        if table.ack(99, task):
            completions += 1
            assert seen | {task} >= set(range(n_tasks)), "completed early"
        seen.add(task)
    assert completions == 1
    assert len(table) == 0
