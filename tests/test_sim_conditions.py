"""Tests for RngRegistry."""

from repro.sim import RngRegistry


# ----------------------------------------------------------------------
# RngRegistry
# ----------------------------------------------------------------------
def test_rng_streams_are_stable_across_instances():
    a = RngRegistry(seed=42).stream("spout").random(5)
    b = RngRegistry(seed=42).stream("spout").random(5)
    assert list(a) == list(b)


def test_rng_streams_differ_by_name_and_seed():
    reg = RngRegistry(seed=42)
    x = reg.stream("a").random(3)
    y = reg.stream("b").random(3)
    assert list(x) != list(y)
    other = RngRegistry(seed=43).stream("a").random(3)
    assert list(x) != list(other)


def test_rng_stream_cached():
    reg = RngRegistry(seed=0)
    assert reg.stream("x") is reg.stream("x")
    assert "x" in reg and "y" not in reg
