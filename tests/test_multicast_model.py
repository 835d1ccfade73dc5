"""Unit + property tests for the M/D/1 model (Eq. 1-5, Theorem 1)."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multicast import (
    MD1Model,
    avg_queue_length,
    binomial_out_degree,
    max_affordable_input_rate,
    max_out_degree,
    max_out_degree_paper_eq3,
    nonblocking_source_degree,
    processing_rate,
    processing_rate_worker_oriented,
)
from repro.multicast.model import queue_headroom_factor


def test_processing_rate_eq1():
    # d0 = 4 replicas at 2 us each -> 125k tuples/s.
    assert processing_rate(4, 2e-6) == pytest.approx(125_000.0)


def test_processing_rate_worker_oriented_eq_section4():
    # mu = 1/(d*td + ts): serialization paid once.
    mu = processing_rate_worker_oriented(4, td=1e-6, ts=4e-6)
    assert mu == pytest.approx(1.0 / 8e-6)
    # Versus instance-oriented where serialization is paid per replica.
    mu_inst = processing_rate(4, te=5e-6)
    assert mu > mu_inst


def test_avg_queue_length_known_value():
    # M/D/1 with rho = 0.5: E(L) = rho^2/(2(1-rho)) + rho = 0.25 + 0.5.
    assert avg_queue_length(0.5, 1.0) == pytest.approx(0.75)


def test_avg_queue_length_unstable_rejected():
    with pytest.raises(ValueError):
        avg_queue_length(2.0, 1.0)
    with pytest.raises(ValueError):
        avg_queue_length(1.0, 1.0)


def test_headroom_factor_bounds():
    for q in (1, 10, 100, 10_000):
        rho = queue_headroom_factor(q)
        assert 0.0 < rho < 1.0
    # Larger queues tolerate utilisation closer to 1.
    assert queue_headroom_factor(100) > queue_headroom_factor(10)


def test_max_out_degree_consistency_with_el():
    """d* is the largest degree whose predicted E(L) fits within Q."""
    lam, te, q = 10_000.0, 2e-6, 100.0
    d = max_out_degree(lam, te, q)
    model = MD1Model(te=te, q_capacity=q)
    assert model.expected_queue_length(lam, d) <= q
    # One more cascading instance either destabilises the queue or
    # overflows the capacity.
    mu_next = processing_rate(d + 1, te)
    if lam < mu_next:
        assert avg_queue_length(lam, mu_next) > q
    else:
        assert True  # queue outright unstable


def test_max_out_degree_at_least_one():
    assert max_out_degree(1e9, 1.0, 1.0) == 1


def test_paper_eq3_is_larger_root():
    """Documented erratum: literal Eq. (3) overshoots the consistent d*."""
    lam, te, q = 10_000.0, 2e-6, 100.0
    assert max_out_degree_paper_eq3(lam, te, q) > max_out_degree(lam, te, q)


def test_theorem1_m_inverse_in_d0():
    te, q = 2e-6, 100.0
    m1 = max_affordable_input_rate(1, te, q)
    m2 = max_affordable_input_rate(2, te, q)
    m4 = max_affordable_input_rate(4, te, q)
    assert m1 == pytest.approx(2 * m2) == pytest.approx(4 * m4)


@given(
    d0=st.integers(min_value=1, max_value=64),
    te=st.floats(min_value=1e-7, max_value=1e-3),
    q=st.floats(min_value=1.0, max_value=1e5),
)
@settings(max_examples=200)
def test_theorem1_property(d0, te, q):
    """M * d0 is constant in d0 (Theorem 1), and feeding the system at
    rate M keeps E(L) <= Q."""
    m = max_affordable_input_rate(d0, te, q)
    m1 = max_affordable_input_rate(1, te, q)
    assert m * d0 == pytest.approx(m1, rel=1e-9)
    mu = processing_rate(d0, te)
    assert m < mu
    assert avg_queue_length(m, mu) <= q * 1.01 + 0.01


@given(
    lam=st.floats(min_value=1.0, max_value=1e6),
    te=st.floats(min_value=1e-7, max_value=1e-3),
    q=st.floats(min_value=1.0, max_value=1e4),
)
@settings(max_examples=200)
def test_dstar_keeps_queue_bounded(lam, te, q):
    if lam * te >= queue_headroom_factor(q):
        # Even d* = 1 cannot satisfy E(L) <= Q; max_out_degree clamps to 1
        # (the structure cannot have out-degree 0) and the bound is moot.
        assert max_out_degree(lam, te, q) == 1
        return
    d = max_out_degree(lam, te, q)
    mu = processing_rate(d, te)
    assert lam < mu
    assert avg_queue_length(lam, mu) <= q * 1.01 + 0.01


def test_binomial_out_degree_values():
    assert binomial_out_degree(1) == 1
    assert binomial_out_degree(7) == 3
    assert binomial_out_degree(8) == 4
    assert binomial_out_degree(480) == 9


def test_binomial_out_degree_validation():
    with pytest.raises(ValueError):
        binomial_out_degree(0)


def test_nonblocking_source_degree_min_rule():
    assert nonblocking_source_degree(480, 3) == 3
    assert nonblocking_source_degree(7, 10) == 3  # capped by log2(n+1)
    with pytest.raises(ValueError):
        nonblocking_source_degree(7, 0)


def test_md1_model_bundle():
    model = MD1Model(te=2e-6, q_capacity=100.0)
    assert model.mu(4) == pytest.approx(125_000.0)
    assert model.expected_queue_length(10_000.0, 4) <= model.q_capacity
    d = model.d_star(10_000.0)
    assert d >= 1
    assert max_affordable_input_rate(d, model.te, model.q_capacity) >= 10_000.0


def test_validation_of_positive_inputs():
    with pytest.raises(ValueError):
        processing_rate(0, 1e-6)
    with pytest.raises(ValueError):
        processing_rate(1, 0.0)
    with pytest.raises(ValueError):
        max_affordable_input_rate(0, 1e-6, 10)
    with pytest.raises(ValueError):
        queue_headroom_factor(0)
