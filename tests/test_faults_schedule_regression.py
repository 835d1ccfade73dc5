"""Regression pin: ``FaultSchedule.random``'s exact event stream.

The schedule is the root of every fault-injection experiment's
determinism — if the draw order inside :meth:`FaultSchedule.random`
changes (a refactor reordering ``rng`` calls, a numpy generator swap),
every published fault benchmark silently measures a different timeline.
This test hard-codes the full stream for one seed so any such drift
fails loudly instead.
"""

import pytest

from repro.faults import FaultSchedule

pytestmark = pytest.mark.faults

# Stream drawn by FaultSchedule.random(machines=range(8), horizon_s=2.0,
# n_crashes=3, seed=1234, n_link_flaps=2).  Do NOT regenerate these on
# failure without bumping a major version: changing them invalidates
# recorded fault traces.
PINNED_SEED = 1234
PINNED_EVENTS = [
    (0.188945972747, "crash", 5, None),
    (0.275210916735, "recover", 5, None),
    (0.418707878182, "crash", 7, None),
    (0.509654286052, "crash", 6, None),
    (0.516572436944, "recover", 7, None),
    (0.704266172828, "recover", 6, None),
    (0.705609795286, "link_down", None, (6, 7)),
    (0.847090416699, "link_up", None, (6, 7)),
    (1.055798956735, "link_down", None, (4, 6)),
    (1.216162611482, "link_up", None, (4, 6)),
]


def _draw():
    return FaultSchedule.random(
        machines=list(range(8)), horizon_s=2.0, n_crashes=3,
        seed=PINNED_SEED, n_link_flaps=2,
    )


def test_random_schedule_event_stream_is_pinned_for_seed_1234():
    events = _draw().events
    assert len(events) == len(PINNED_EVENTS)
    for got, (t, kind, machine, link) in zip(events, PINNED_EVENTS):
        assert got.kind == kind
        assert got.machine == machine
        assert (tuple(sorted(got.link)) if got.link else None) == link
        assert got.time == pytest.approx(t, abs=1e-9)


def test_pinned_schedule_is_stable_across_repeated_draws():
    first = _draw().events
    for _ in range(3):
        assert _draw().events == first
