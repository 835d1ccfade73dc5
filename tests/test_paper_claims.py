"""The paper's in-text numeric claims, verified against our models.

These are the checkable statements scattered through Sections 3-4 (not
the measured figures — those are claims in ``repro.exp.claims``):
worked examples, closed-form ratios, and protocol properties.
"""


import pytest

from repro.multicast import (
    SOURCE,
    affordable_rate_ratio_vs_binomial,
    binomial_out_degree,
    build_binomial_tree,
    build_nonblocking_tree,
    build_sequential_tree,
    capability_series,
    completion_time_units,
    max_affordable_input_rate,
    nonblocking_source_degree,
    receive_time_units,
)
from repro.net import CostModel, SerializationModel


def test_mnonblock_over_mbinomial_formula():
    """Section 3.2.2: M_nonblock / M_binomial = ceil(log2(n+1)) / d0."""
    te, q = 5e-6, 512.0
    for n, d0 in [(480, 3), (127, 4), (30, 2)]:
        m_nb = max_affordable_input_rate(d0, te, q)
        m_bino = max_affordable_input_rate(binomial_out_degree(n), te, q)
        assert m_nb / m_bino == pytest.approx(
            affordable_rate_ratio_vs_binomial(n, d0)
        )
        assert m_nb >= m_bino  # "M_nonblock >= M_binomial"


def test_source_degree_never_exceeds_binomial_requirement():
    """Section 3.2.2: d0 = min(d*, ceil(log2(n+1))) — if d* is generous,
    all destinations connect before the source reaches d*."""
    for n in (7, 30, 100, 480):
        generous = build_nonblocking_tree(list(range(n)), d_star=10_000)
        assert generous.out_degree(SOURCE) == binomial_out_degree(n)
        assert nonblocking_source_degree(n, 10_000) == binomial_out_degree(n)


def test_fig1_style_colocation_batch_sizes():
    """Fig. 1's deployment: 4 quad-core machines, 16 instances — Whale
    sends 4 BatchTuples of 4 ids instead of 16 messages."""
    ser = SerializationModel(CostModel())
    whale_bytes = ser.worker_oriented_send_bytes(150, [4, 4, 4, 4])
    storm_bytes = ser.sequential_send_bytes(150, 16)
    assert whale_bytes < storm_bytes / 3


def test_capability_example_n7():
    """The Fig. 6 walk-through: with |T|=7 and d*=2 the multicast
    completes in 4 time units; uncapped binomial needs 3."""
    assert completion_time_units(build_nonblocking_tree(range(7), 2)) == 4
    assert completion_time_units(build_binomial_tree(range(7))) == 3
    assert completion_time_units(build_sequential_tree(range(7))) == 7


def test_lt_never_decreases_and_saturates():
    """L(t) is non-decreasing and reaches n+1 for every d*."""
    for d in (1, 2, 3, 5, 9):
        series = capability_series(d, 100, 120)
        assert all(b >= a for a, b in zip(series, series[1:]))
        assert series[-1] == 101


def test_relay_schedule_parents_before_children():
    """No node can relay before it has the tuple."""
    tree = build_nonblocking_tree(list(range(50)), d_star=3)
    times = receive_time_units(tree)
    for node in tree.bfs():
        for child in tree.children(node):
            assert times[child] > times[node]


def test_section4_processing_rate_refinement_always_helps():
    """mu = 1/(d*td + ts) >= 1/(d*(td+ts)) = 1/(d*te): paying
    serialization once can only raise the processing rate."""
    from repro.multicast import processing_rate, processing_rate_worker_oriented

    for d in (1, 4, 16, 64):
        woc = processing_rate_worker_oriented(d, td=1e-6, ts=5e-6)
        inst = processing_rate(d, te=6e-6)
        assert woc >= inst


def test_storm_fig9_format_overhead_vs_whale():
    """Fig. 9: for n destinations on one worker, Storm's wire bytes grow
    with full payload replication, Whale's only with 4-byte ids."""
    ser = SerializationModel(CostModel())
    payload = 150
    for n in (2, 8, 16, 64):
        storm = ser.sequential_send_bytes(payload, n)
        whale = ser.batch_message_bytes(payload, n)
        # Marginal cost per extra destination:
        storm_marginal = storm / n
        whale_marginal = (whale - ser.batch_message_bytes(payload, 1)) / (
            n - 1
        )
        assert whale_marginal == pytest.approx(ser.costs.dst_id_bytes)
        assert storm_marginal > 40 * whale_marginal


def test_paper_cluster_shape():
    """Section 5.1: 30 machines x 16 cores = 480 max instances — the
    evaluation's top parallelism is exactly full occupancy."""
    from repro.net import Cluster

    cluster = Cluster(30, 1, 16)
    assert cluster.total_cores == 480
