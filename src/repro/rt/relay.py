"""Relay-based one-to-many fan-out planning (a d*-ary relay tree).

A one-to-many emit on the real runtime is *worker-oriented*: the tuple
crosses the wire once per destination **machine**, never once per task,
and the receiving host's dispatcher fans it out to its local tasks —
Whale's Section 3.5 batching.  On top of that, the *sender* does not
dial every destination machine itself: destinations are arranged in a
d*-ary relay tree and each host forwards the already-decoded tuple to
at most ``d_star`` children, carrying the subtree each child is
responsible for inside the message (``relay`` messages in
:mod:`repro.rt.worker`).  That caps the source's per-emit send cost at
``d_star`` messages while the total number of wire copies stays
``len(members)``.

The tree is **not** the DES's: each hop splits its members into
``d_star`` balanced contiguous chunks, whereas the DES builds
Algorithm 1's non-blocking tree
(:func:`repro.multicast.build.build_nonblocking_tree`), which finishes
sooner for the same members and d* (at d* = 3, 6 send units instead of
7 for 29 machines).  Until rt takes its tree from the same builder,
the sim-vs-real differential compares two different trees.

Planning is a pure function of the (ordered) member list, so every host
computes identical trees with no coordination and the differential
harness can predict exactly which connection carries which copy.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

#: one branch: (child machine, subtree the child must cover further).
Branch = Tuple[int, List[int]]


def plan_relay(members: Sequence[int], d_star: int) -> List[Branch]:
    """Split ``members`` into at most ``d_star`` relay branches.

    ``members`` are the destination machines a sender still owes a copy
    (the sender itself excluded).  Members are chunked into ``d_star``
    balanced contiguous groups; the first machine of each group is the
    branch's child and receives the rest of the group as its subtree.
    Applied recursively at each hop this yields a d*-ary tree of depth
    ``O(log_d n)``.
    """
    if d_star < 1:
        raise ValueError(f"d_star must be >= 1, got {d_star}")
    members = list(members)
    if not members:
        return []
    n_branches = min(d_star, len(members))
    base, extra = divmod(len(members), n_branches)
    branches: List[Branch] = []
    start = 0
    for i in range(n_branches):
        size = base + (1 if i < extra else 0)
        group = members[start : start + size]
        start += size
        branches.append((group[0], group[1:]))
    return branches


def tree_edges(source: int, members: Sequence[int], d_star: int) -> Dict[int, List[int]]:
    """The full relay tree: ``{parent: [children]}`` from ``source``.

    Expands :func:`plan_relay` recursively — what a run would actually
    produce if every host forwarded its subtree.  Used by tests and by
    capacity checks; the runtime itself only ever plans one hop at a
    time.
    """
    edges: Dict[int, List[int]] = {}
    frontier: List[Tuple[int, List[int]]] = [(source, list(members))]
    while frontier:
        parent, subtree = frontier.pop()
        branches = plan_relay(subtree, d_star)
        if branches:
            edges[parent] = [child for child, _ in branches]
        for child, rest in branches:
            frontier.append((child, rest))
    return edges
