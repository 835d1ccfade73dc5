"""Property tests for the partitioning strategy registry.

Hypothesis drives the pure routing logic (no simulator): consistent
hashing's minimal-remapping contract under task join/leave, key-split's
deterministic replica sets and round-robin fan-out, and the agreement
contracts keyed strategies share (same key -> same task, always).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsps import (
    STRATEGIES,
    ConsistentHashGrouping,
    FieldsGrouping,
    KeySplitGrouping,
    make_grouping,
)
from repro.dsps.tuples import StreamTuple


def _tup(key):
    return StreamTuple(stream="s", values={}, key=key)


#: distinct task-id lists (>= 2 tasks so membership changes are possible)
task_lists = st.lists(
    st.integers(min_value=0, max_value=10_000),
    min_size=2,
    max_size=24,
    unique=True,
)

keys = st.one_of(
    st.text(max_size=12),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.tuples(st.text(max_size=4), st.integers(0, 999)),
)

key_sets = st.lists(keys, min_size=1, max_size=80, unique=True)


# ----------------------------------------------------------------------
# consistent hashing: minimal remapping
# ----------------------------------------------------------------------
@given(tasks=task_lists, new_task=st.integers(10_001, 20_000), ks=key_sets)
def test_consistent_hash_join_remaps_only_onto_the_new_task(
    tasks, new_task, ks
):
    """Adding a task changes a key's owner only if the new owner IS the
    new task — no key moves between two surviving tasks."""
    grouping = ConsistentHashGrouping(virtual_nodes=16)
    before = {k: grouping.owner(k, tasks) for k in ks}
    after = {k: grouping.owner(k, tasks + [new_task]) for k in ks}
    for k in ks:
        if after[k] != before[k]:
            assert after[k] == new_task


@given(tasks=task_lists, ks=key_sets, data=st.data())
def test_consistent_hash_leave_remaps_only_the_leavers_keys(tasks, ks, data):
    """Removing a task moves only the keys it owned; everyone else's
    keys stay put."""
    grouping = ConsistentHashGrouping(virtual_nodes=16)
    leaver = data.draw(st.sampled_from(tasks))
    survivors = [t for t in tasks if t != leaver]
    before = {k: grouping.owner(k, tasks) for k in ks}
    after = {k: grouping.owner(k, survivors) for k in ks}
    for k in ks:
        if before[k] == leaver:
            assert after[k] != leaver
        else:
            assert after[k] == before[k]


@given(tasks=task_lists, new_task=st.integers(10_001, 20_000))
def test_consistent_hash_join_moves_a_bounded_key_fraction(tasks, new_task):
    """Quantitative side of minimal remapping: over a fixed key
    population the fraction moved by one join stays far below the
    near-total reshuffle modular hashing would cause.

    With virtual nodes the expected share is ``1/(n+1)``; the assertion
    allows generous variance headroom while still excluding modular
    hashing, which remaps ``~n/(n+1)`` (>= 2/3 for n >= 2) of keys.
    """
    grouping = ConsistentHashGrouping(virtual_nodes=32)
    population = [f"key-{i}" for i in range(400)]
    moved = sum(
        1
        for k in population
        if grouping.owner(k, tasks) != grouping.owner(k, tasks + [new_task])
    )
    n = len(tasks)
    expected = len(population) / (n + 1)
    assert moved <= 4 * expected + 8


@given(tasks=task_lists, k=keys)
def test_consistent_hash_is_deterministic_across_instances(tasks, k):
    a = ConsistentHashGrouping(virtual_nodes=16)
    b = ConsistentHashGrouping(virtual_nodes=16)
    assert a.choose(_tup(k), tasks) == b.choose(_tup(k), tasks)


# ----------------------------------------------------------------------
# key-split: replica sets and fan-out
# ----------------------------------------------------------------------
@given(tasks=task_lists, k=keys)
def test_key_split_replica_set_is_deterministic_and_distinct(tasks, k):
    """The replica set is a pure function of (key, membership): fresh
    instances agree, members are distinct live tasks, and the set is as
    wide as the membership allows."""
    a = KeySplitGrouping(replicas=3, virtual_nodes=16)
    b = KeySplitGrouping(replicas=3, virtual_nodes=16)
    replicas = a.replica_set(k, tasks)
    assert replicas == b.replica_set(k, tasks)
    assert len(replicas) == len(set(replicas)) == min(3, len(tasks))
    assert set(replicas) <= set(tasks)


@given(tasks=task_lists, k=keys)
def test_key_split_first_replica_is_the_consistent_hash_owner(tasks, k):
    """Cold routing and hot fan-out share one ring: the first replica is
    exactly where the un-split key would have lived, so turning
    splitting on moves no cold keys."""
    split = KeySplitGrouping(replicas=2, virtual_nodes=16)
    ring = ConsistentHashGrouping(virtual_nodes=16)
    assert split.replica_set(k, tasks)[0] == ring.owner(k, tasks)


@given(tasks=task_lists, k=keys, n_tuples=st.integers(4, 40))
def test_key_split_hot_key_round_robins_its_replica_set(tasks, k, n_tuples):
    """An explicitly hot key cycles over its replica set in order —
    every replica gets a near-equal share of the storm."""
    grouping = KeySplitGrouping(
        replicas=3, hot_keys=[k], virtual_nodes=16
    )
    replicas = grouping.replica_set(k, tasks)
    picks = [grouping.choose(_tup(k), tasks)[0] for _ in range(n_tuples)]
    assert picks == [replicas[i % len(replicas)] for i in range(n_tuples)]
    assert k in grouping.split_keys


@given(tasks=task_lists, ks=key_sets)
def test_key_split_cold_keys_route_like_fields_style_single_owner(tasks, ks):
    """Below the hot threshold every key sticks to one task (the hot
    path never engages), so key_split degrades gracefully to consistent
    hashing for balanced workloads."""
    grouping = KeySplitGrouping(
        replicas=3, hot_threshold=1.0, min_samples=10_000, virtual_nodes=16
    )
    for k in ks:
        first = grouping.choose(_tup(k), tasks)
        second = grouping.choose(_tup(k), tasks)
        assert first == second
    assert not grouping.split_keys


# ----------------------------------------------------------------------
# keyed-strategy agreement contracts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["fields", "consistent_hash", "key_split"])
@given(tasks=task_lists, k=keys)
@settings(max_examples=40)
def test_keyed_strategies_send_the_same_key_to_the_same_task(name, tasks, k):
    """The contract fields-style consumers rely on: absent hot-key
    splitting, one key always lands on one task."""
    grouping = make_grouping(name)
    assert grouping.keyed
    first = grouping.choose(_tup(k), tasks)
    assert len(first) == 1
    for _ in range(3):
        assert grouping.choose(_tup(k), tasks) == first


@given(tasks=task_lists, ks=key_sets)
def test_fields_and_consistent_hash_agree_with_themselves_across_instances(
    tasks, ks
):
    """Routing is instance-independent for the stateless keyed
    strategies — a second instance (rt's per-host copy) places every key
    exactly where the first one does."""
    for name in ("fields", "consistent_hash"):
        a, b = make_grouping(name), make_grouping(name)
        for k in ks:
            assert a.choose(_tup(k), tasks) == b.choose(_tup(k), tasks)


@given(tasks=task_lists, k=keys)
def test_keyed_strategies_reject_unkeyed_tuples(tasks, k):
    for name in ("fields", "consistent_hash", "key_split"):
        with pytest.raises(ValueError, match="needs a key"):
            make_grouping(name).choose(
                StreamTuple(stream="s", values={}, key=None), tasks
            )


# ----------------------------------------------------------------------
# registry contracts
# ----------------------------------------------------------------------
def test_registry_exposes_every_expected_strategy():
    assert set(STRATEGIES) >= {
        "shuffle",
        "fields",
        "all",
        "consistent_hash",
        "key_split",
        "locality",
        "load_adaptive",
    }
    for name, factory in STRATEGIES.items():
        grouping = make_grouping(name)
        assert grouping.strategy_name == name
        assert isinstance(grouping, factory)


def test_fields_matches_modular_crc32_hashing_exactly():
    """FieldsGrouping is the legacy modular CRC32 hash, bit for bit —
    the anchor the differential suite leans on."""
    import zlib

    grouping = FieldsGrouping()
    tasks = [7, 11, 13, 17, 19]
    for k in ["a", "b", 42, ("x", 1), "hot-key"]:
        digest = zlib.crc32(repr(k).encode("utf-8"))
        assert grouping.choose(_tup(k), tasks) == [tasks[digest % len(tasks)]]
