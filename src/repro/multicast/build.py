"""Multicast tree builders.

:func:`build_nonblocking_tree` is a line-by-line transcription of the
paper's Algorithm 1: the tree grows in rounds (logical layers); in each
round, every already-connected node whose out-degree is below ``d*``
connects exactly one new destination instance.  With ``d* = inf`` this
degenerates to the classic binomial multicast tree (RDMC); with the list
of destinations attached entirely to the source it degenerates to Storm's
sequential multicast.  All three builders return the same
:class:`~repro.multicast.tree.MulticastTree` type so the relay machinery
and the analytics are structure-agnostic; :func:`build_tree` picks one
by its ``SystemConfig.multicast`` name for every caller (the DES's
multicast service, the latency model and the rt backend's relay hops).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.multicast.model import binomial_out_degree
from repro.multicast.tree import SOURCE, MulticastTree, Node


def _check_destinations(destinations: Sequence[Node]) -> List[Node]:
    dests = list(destinations)
    if not dests:
        raise ValueError("need at least one destination instance")
    if len(set(dests)) != len(dests):
        raise ValueError("duplicate destination ids")
    return dests


def build_nonblocking_tree(
    destinations: Sequence[Node],
    d_star: int,
    root: Node = SOURCE,
) -> MulticastTree:
    """Algorithm 1: build the non-blocking multicast tree.

    Parameters
    ----------
    destinations:
        Destination instances ``T_1 .. T_n`` in assignment order (the
        order determines which instance lands on which layer, exactly as
        ``tClass.newInstance`` consumes them in the paper).
    d_star:
        Maximum out-degree for every node including the source.
    """
    if d_star < 1:
        raise ValueError(f"d* must be >= 1, got {d_star}")
    dests = _check_destinations(destinations)
    tree = MulticastTree(root=root)
    remaining = iter(dests)
    assigned = 0
    n = len(dests)
    # `connected` mirrors Algorithm 1's `list` (in insertion order).
    connected: List[Node] = [root]
    layer = 0
    while assigned < n:
        layer += 1
        made_progress = False
        # Snapshot: only nodes connected before this round relay in it.
        for node in list(connected):
            if tree.out_degree(node) >= d_star:
                continue
            try:
                new_instance = next(remaining)
            except StopIteration:  # pragma: no cover - guarded by assigned<n
                break
            tree.add(new_instance, parent=node, layer=layer)
            connected.append(new_instance)
            assigned += 1
            made_progress = True
            if assigned >= n:
                return tree
        if not made_progress:  # pragma: no cover - cannot happen for d*>=1
            raise RuntimeError("Algorithm 1 stalled (internal error)")
    return tree


def build_binomial_tree(
    destinations: Sequence[Node], root: Node = SOURCE
) -> MulticastTree:
    """RDMC-style static binomial multicast tree.

    Equivalent to Algorithm 1 with an uncapped out-degree: the connected
    set doubles every round, giving the source out-degree
    ``ceil(log2(n+1))``.
    """
    dests = _check_destinations(destinations)
    return build_nonblocking_tree(
        dests, d_star=binomial_out_degree(len(dests)), root=root
    )


def build_sequential_tree(
    destinations: Sequence[Node], root: Node = SOURCE
) -> MulticastTree:
    """Storm's sequential multicast as a depth-1 'tree': the source sends
    to every destination itself, one after another."""
    dests = _check_destinations(destinations)
    tree = MulticastTree(root=root)
    for i, dst in enumerate(dests, start=1):
        # All on layer 1 structurally; transmission order = list order.
        tree.add(dst, parent=root, layer=1)
    return tree


#: ``SystemConfig.multicast`` name -> builder over ``(endpoints, d_star)``.
_BUILDERS: Dict[str, Callable[[Sequence[Node], int], MulticastTree]] = {
    "sequential": lambda endpoints, d_star: build_sequential_tree(endpoints),
    "binomial": lambda endpoints, d_star: build_binomial_tree(endpoints),
    "nonblocking": build_nonblocking_tree,
}

#: the multicast structure names :func:`build_tree` understands.
STRUCTURES = tuple(_BUILDERS)


def build_tree(
    structure: str, endpoints: Sequence[Node], d_star: int
) -> MulticastTree:
    """The ``structure`` multicast tree from :data:`SOURCE` over
    ``endpoints`` (``d_star`` caps out-degrees of the nonblocking tree
    only)."""
    try:
        builder = _BUILDERS[structure]
    except KeyError:
        raise ValueError(f"unknown structure {structure!r}") from None
    return builder(endpoints, d_star)
