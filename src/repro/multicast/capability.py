"""Multicast capability analysis (Definitions 1–2, Theorems 1–2).

Two complementary views:

* :func:`capability_series` — the paper's closed-form recurrences for
  ``L(t)``, the number of nodes holding the tuple after ``t`` time units
  (Eq. 6 uncapped / Eq. 7 capped at ``d*``);
* :func:`receive_time_units` — the exact per-node receive times for any
  concrete :class:`~repro.multicast.tree.MulticastTree` under relay
  semantics (each node forwards to its children one per time unit, in
  attachment order).  For trees built by Algorithm 1 the two views agree.
"""

from __future__ import annotations

from typing import Dict, List

from repro.multicast.model import binomial_out_degree
from repro.multicast.tree import MulticastTree, Node


def capability_series(d_star: int, n_destinations: int, t_max: int) -> List[int]:
    """``[L(0), L(1), ..., L(t_max)]`` per Eq. (6)/(7).

    ``L(t)`` counts all nodes (source included) reached after ``t`` time
    units, capped at ``n_destinations + 1``.
    """
    if d_star < 1:
        raise ValueError(f"d* must be >= 1, got {d_star}")
    if n_destinations < 1:
        raise ValueError(f"n must be >= 1, got {n_destinations}")
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    total = n_destinations + 1
    uncapped = d_star >= binomial_out_degree(n_destinations)
    series = [1]
    for t in range(1, t_max + 1):
        if uncapped or t <= d_star:
            nxt = 2 * series[t - 1]  # Eq. (6)
        else:
            nxt = 2 * series[t - 1] - series[t - d_star - 1]  # Eq. (7)
        series.append(min(nxt, total))
    return series


def time_units_to_reach(d_star: int, n_destinations: int) -> int:
    """Smallest ``t`` with ``L(t) >= n + 1`` — multicast completion time
    in relay time units."""
    total = n_destinations + 1
    t = 0
    series = [1]
    # L(t) grows at least by 1 per unit once the tree is rooted, so this
    # terminates in at most `total` steps.
    while series[-1] < total:
        t += 1
        uncapped = d_star >= binomial_out_degree(n_destinations)
        if uncapped or t <= d_star:
            nxt = 2 * series[t - 1]
        else:
            nxt = 2 * series[t - 1] - series[t - d_star - 1]
        series.append(min(nxt, total))
        if t > 4 * total:  # pragma: no cover - safety net
            raise RuntimeError("capability recurrence failed to converge")
    return t


def receive_time_units(tree: MulticastTree) -> Dict[Node, int]:
    """Exact receive time (in relay time units) of every node of ``tree``.

    Relay semantics: a node that received the tuple at time ``r`` sends
    it to its children at times ``r+1, r+2, ...`` in attachment order.
    The root holds the tuple at time 0.
    """
    times: Dict[Node, int] = {tree.root: 0}
    for node in tree.bfs():
        base = times[node]
        for slot, child in enumerate(tree.children(node), start=1):
            times[child] = base + slot
    return times


def completion_time_units(tree: MulticastTree) -> int:
    """Time units until the last destination receives one tuple."""
    return max(receive_time_units(tree).values())
