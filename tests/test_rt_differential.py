"""The sim-vs-real differential harness and its claim wiring.

One real (small) differential run guards the end-to-end path; the rest
pins the verdict logic and the ``sim-predicts-real`` claim check on
synthetic reports, so a regression in either backend or in the claim
arithmetic fails loudly without burning wall-clock.
"""

from collections import Counter

from repro.bench.simreal import ablation_sim_vs_real
from repro.exp.claims import CLAIMS
from repro.exp.registry import get
from repro.rt.differential import (
    GOODPUT_RATIO_BAND,
    DifferentialResult,
    differential_config,
    run_differential,
)
from repro.rt.runtime import RunReport


def _report(executed, first_t=0.0, last_t=1.0, backend="sim") -> RunReport:
    return RunReport(
        backend=backend,
        emitted={"s": sum(executed.values())},
        processed={"t": sum(executed.values())},
        window_s=2.0,
        executed=Counter(executed),
        first_t=first_t,
        last_t=last_t,
    )


# ----------------------------------------------------------------------
# verdict logic on synthetic reports
# ----------------------------------------------------------------------
def test_conservation_is_exact_multiset_equality():
    same = {("count", "{'word': 'reef'}"): 3}
    diff = DifferentialResult("t", _report(same), _report(same))
    assert diff.conserved
    assert diff.mismatch() == []

    lossy = DifferentialResult(
        "t", _report(same), _report({("count", "{'word': 'reef'}"): 2})
    )
    assert not lossy.conserved
    assert lossy.mismatch() == [
        "('count', \"{'word': 'reef'}\"): sim=3 real=2"
    ]


def test_goodput_ratio_and_band():
    executed = {("match", "{'seq': 0}"): 100}
    sim = _report(executed, last_t=1.0)  # 100 tuples/s
    ok = DifferentialResult("t", sim, _report(executed, last_t=0.8))
    low, high = GOODPUT_RATIO_BAND
    assert 1.2 < ok.goodput_ratio < 1.3 and low <= ok.goodput_ratio <= high

    crawl = DifferentialResult("t", sim, _report(executed, last_t=10.0))
    assert crawl.goodput_ratio < low

    starved = DifferentialResult("t", _report({}), _report(executed))
    assert starved.goodput_ratio == float("inf")


def test_differential_config_exercises_the_acker_path():
    config = differential_config()
    assert config.delivery == "at_least_once"
    assert config.reliability_enabled


# ----------------------------------------------------------------------
# one real end-to-end differential (small)
# ----------------------------------------------------------------------
def test_run_differential_word_count_small():
    diff = run_differential(topology="word_count", rate=800.0, budget=24)
    assert diff.sim.backend == "sim"
    assert diff.real.backend == "asyncio"
    assert diff.conserved, diff.mismatch()
    low, high = GOODPUT_RATIO_BAND
    assert low <= diff.goodput_ratio <= high, diff.goodput_ratio


# ----------------------------------------------------------------------
# experiment + claim wiring
# ----------------------------------------------------------------------
def test_ablation_is_registered_with_the_claim():
    spec = get("ablation_sim_vs_real")
    assert spec.category == "ablation"
    claim = next(c for c in CLAIMS if c.name == "sim-predicts-real")
    assert claim.experiments == ("ablation_sim_vs_real",)


def test_sim_predicts_real_claim_passes_on_a_real_table():
    table = ablation_sim_vs_real(
        topologies=["fanout"], rate=800.0, budget=24
    )
    claim = next(c for c in CLAIMS if c.name == "sim-predicts-real")
    ok, details = claim.check({"ablation_sim_vs_real": [table]})
    assert ok, details
    assert any("fanout" in line for line in details)


def test_sim_predicts_real_claim_fails_on_violations():
    from repro.bench.report import Table

    claim = next(c for c in CLAIMS if c.name == "sim-predicts-real")
    headers = ["topology", "conserved", "goodput ratio"]

    unconserved = Table(title="x", headers=headers)
    unconserved.add("word_count", 0, 1.0)
    ok, _ = claim.check({"ablation_sim_vs_real": [unconserved]})
    assert not ok

    out_of_band = Table(title="x", headers=headers)
    out_of_band.add("word_count", 1, GOODPUT_RATIO_BAND[1] * 10)
    ok, _ = claim.check({"ablation_sim_vs_real": [out_of_band]})
    assert not ok

    empty = Table(title="x", headers=headers)
    ok, _ = claim.check({"ablation_sim_vs_real": [empty]})
    assert not ok
