"""Unit + property tests for MulticastTree and the three builders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multicast import (
    SOURCE,
    MulticastTree,
    build_binomial_tree,
    build_nonblocking_tree,
    build_sequential_tree,
    build_tree,
    binomial_out_degree,
)
from repro.multicast.tree import TreeError


# ----------------------------------------------------------------------
# MulticastTree structure
# ----------------------------------------------------------------------
def test_tree_add_and_query():
    t = MulticastTree()
    t.add("a", SOURCE)
    t.add("b", SOURCE)
    t.add("c", "a")
    assert t.children(SOURCE) == ["a", "b"]
    assert t.parent("c") == "a"
    assert t.layer("c") == 2
    assert t.out_degree(SOURCE) == 2
    assert len(t) == 4
    assert t.n_destinations == 3
    assert t.depth() == 2


def test_tree_duplicate_node_rejected():
    t = MulticastTree()
    t.add("a", SOURCE)
    with pytest.raises(TreeError):
        t.add("a", SOURCE)


def test_tree_unknown_parent_rejected():
    t = MulticastTree()
    with pytest.raises(TreeError):
        t.add("a", "ghost")


def test_tree_move_reattaches_subtree_and_relayers():
    t = MulticastTree()
    t.add("a", SOURCE)
    t.add("b", "a")
    t.add("c", "b")
    t.move("b", SOURCE)
    assert t.parent("b") == SOURCE
    assert t.layer("b") == 1
    assert t.layer("c") == 2
    assert t.children("a") == []
    t.validate()


def test_tree_move_root_rejected():
    t = MulticastTree()
    t.add("a", SOURCE)
    with pytest.raises(TreeError):
        t.move(SOURCE, "a")


def test_tree_move_under_own_descendant_rejected():
    t = MulticastTree()
    t.add("a", SOURCE)
    t.add("b", "a")
    with pytest.raises(TreeError):
        t.move("a", "b")


def test_tree_validate_catches_degree_violation():
    t = MulticastTree()
    for name in "abc":
        t.add(name, SOURCE)
    t.validate(d_star=3)
    with pytest.raises(TreeError):
        t.validate(d_star=2)


def test_tree_copy_is_independent():
    t = MulticastTree()
    t.add("a", SOURCE)
    clone = t.copy()
    clone.add("b", "a")
    assert "b" in clone and "b" not in t


def test_tree_bfs_order():
    t = MulticastTree()
    t.add("a", SOURCE)
    t.add("b", SOURCE)
    t.add("c", "a")
    assert list(t.bfs()) == [SOURCE, "a", "b", "c"]
    assert t.destinations() == ["a", "b", "c"]


def test_tree_subtree_nodes():
    t = MulticastTree()
    t.add("a", SOURCE)
    t.add("b", "a")
    t.add("c", "a")
    t.add("d", SOURCE)
    assert t.subtree_nodes("a") == ["a", "b", "c"]


# ----------------------------------------------------------------------
# Algorithm 1 (non-blocking builder)
# ----------------------------------------------------------------------
def test_paper_fig6_example():
    """|T| = 7, d* = 2 must reproduce Fig. 6 exactly."""
    t = build_nonblocking_tree(list(range(1, 8)), d_star=2)
    # Round 1: S -> T1.  Round 2: S -> T2, T1 -> T3.
    # Round 3 (S capped): T1 -> T4, T2 -> T5, T3 -> T6.  Round 4: T2 -> T7.
    assert t.children(SOURCE) == [1, 2]
    assert t.children(1) == [3, 4]
    assert t.children(2) == [5, 7]
    assert t.children(3) == [6]
    assert t.layer(1) == 1
    assert {t.layer(2), t.layer(3)} == {2}
    assert {t.layer(4), t.layer(5), t.layer(6)} == {3}
    assert t.layer(7) == 4
    t.validate(d_star=2)


def test_nonblocking_source_degree_capped():
    t = build_nonblocking_tree(list(range(100)), d_star=3)
    assert t.out_degree(SOURCE) == 3
    t.validate(d_star=3)


def test_nonblocking_equals_binomial_when_uncapped():
    """With d* >= ceil(log2(n+1)) the structures coincide (Section 3.2.2)."""
    dests = list(range(20))
    cap = binomial_out_degree(len(dests))
    a = build_nonblocking_tree(dests, d_star=cap)
    b = build_binomial_tree(dests)
    for node in a.bfs():
        assert a.children(node) == b.children(node)


def test_binomial_source_degree():
    t = build_binomial_tree(list(range(480)))
    assert t.out_degree(SOURCE) == 9  # ceil(log2(481))


def test_sequential_tree_shape():
    t = build_sequential_tree(list(range(10)))
    assert t.out_degree(SOURCE) == 10
    assert t.depth() == 1
    assert t.children(SOURCE) == list(range(10))


def test_builders_reject_bad_input():
    with pytest.raises(ValueError):
        build_nonblocking_tree([], d_star=2)
    with pytest.raises(ValueError):
        build_nonblocking_tree([1, 1], d_star=2)
    with pytest.raises(ValueError):
        build_nonblocking_tree([1], d_star=0)
    with pytest.raises(ValueError):
        build_sequential_tree([])
    with pytest.raises(ValueError, match="unknown structure 'ring'"):
        build_tree("ring", [1, 2], d_star=3)


@given(
    n=st.integers(min_value=1, max_value=300),
    d_star=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=150)
def test_nonblocking_tree_invariants(n, d_star):
    """Every destination connected exactly once; cap respected; layers
    consistent (the hypothesis sweep of Algorithm 1)."""
    dests = list(range(n))
    t = build_nonblocking_tree(dests, d_star=d_star)
    t.validate(d_star=d_star)
    assert sorted(t.destinations()) == dests
    assert t.n_destinations == n
    # Source degree never exceeds min(d*, ceil(log2(n+1))).
    assert t.out_degree(SOURCE) == min(d_star, binomial_out_degree(n))


@given(n=st.integers(min_value=1, max_value=300))
@settings(max_examples=100)
def test_binomial_depth_is_logarithmic(n):
    t = build_binomial_tree(list(range(n)))
    assert t.depth() == binomial_out_degree(n)
