"""Stream groupings: how an upstream task picks downstream tasks.

The three groupings of the paper (Section 1/2) are the built-in core:

* :class:`ShuffleGrouping` — round-robin load spreading (one-to-one),
* :class:`FieldsGrouping` — key hashing (one-to-one, deterministic),
* :class:`AllGrouping` — one-to-many: *every* downstream task receives
  every tuple.  This is the grouping whose cost Whale attacks.

Beyond the paper, groupings form a **strategy registry**
(:func:`register_strategy` / :func:`make_grouping`), selectable per edge
in the topology (``inputs={"src": "consistent_hash"}``) or system-wide
via ``SystemConfig.partitioning``.  The extra strategies target skewed
and shifting load:

* :class:`ConsistentHashGrouping` — virtual-node hash ring; when a task
  joins or leaves (rebalancer migrations), only the keys owned by the
  moved task remap;
* :class:`KeySplitGrouping` — consistent hashing plus hot-key splitting:
  once a key exceeds a traffic share it fans out round-robin over ``k``
  ring-successor replicas (downstream must merge partial state — the
  *merge contract*);
* :class:`LocalityAwareGrouping` — prefers same-machine, then same-rack
  tasks using the live placement (bound per emitter);
* :class:`LoadAdaptiveGrouping` — deterministic power-of-two-choices on
  live input-queue depth, feeding observed depths into the
  :class:`~repro.dsps.metrics.MetricsHub` high-water marks.

Key hashing uses CRC32 rather than :func:`hash` so placements are stable
across processes and runs.

**Rewiring safety.** The task list handed to :meth:`Grouping.choose` is
a *live* sequence: the runtime rebalancer mutates it in place when it
migrates partitions.  Stateful groupings therefore must not key internal
state on list positions — the shuffle cursor is monotone (never reset by
a membership change) and per-key state is keyed by the key itself.
Nothing rebuilds a live grouping instance, so no routing state is ever
handed from one instance to another.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from bisect import bisect_right
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from repro.dsps.tuples import StreamTuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.dsps.config import SystemConfig
    from repro.dsps.topology import Topology


class Grouping(ABC):
    """Chooses destination task ids for one emitted tuple."""

    #: True when one emit fans out to every downstream task.
    one_to_many: bool = False
    #: True when routing is a deterministic function of ``tup.key``
    #: (fields/consistent-hash families); such strategies require a key.
    keyed: bool = False
    #: registry name, set by :func:`register_strategy`.
    strategy_name: Optional[str] = None

    @abstractmethod
    def choose(self, tup: StreamTuple, tasks: Sequence[int]) -> List[int]:
        """Return the destination task ids for ``tup``."""

    def for_emitter(self, executor) -> "Grouping":
        """The grouping instance a specific emitter should route through.

        The default shares one instance per topology edge (Storm's
        semantics, and what keeps registry-backed runs bit-identical to
        the legacy ones).  Placement-aware strategies override this to
        return a wrapper bound to the emitter's machine/system.
        """
        return self

    def spec(self) -> Tuple[Optional[str], Dict[str, Any]]:
        """``(registry name, constructor kwargs)`` rebuilding an
        *equivalent* instance via :func:`make_grouping`.

        Execution backends that cannot share one Python object across
        machines (the real :mod:`repro.rt` runtime) construct one
        instance per worker host from this spec.  Strategies with
        constructor parameters override this to capture them;
        unregistered custom groupings return ``(None, {})`` and are
        shared by reference instead.
        """
        return self.strategy_name, {}

    def __repr__(self) -> str:
        return type(self).__name__


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
#: strategy name -> zero-or-keyword-arg factory returning a Grouping.
STRATEGIES: Dict[str, Callable[..., Grouping]] = {}


def register_strategy(name: str):
    """Class decorator registering a grouping under ``name``."""

    def deco(cls):
        if name in STRATEGIES:
            raise ValueError(f"grouping strategy {name!r} already registered")
        STRATEGIES[name] = cls
        cls.strategy_name = name
        return cls

    return deco


def make_grouping(name: str, **params: Any) -> Grouping:
    """Instantiate a registered strategy by name."""
    try:
        factory = STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown grouping strategy {name!r}; "
            f"choices: {sorted(STRATEGIES)}"
        ) from None
    return factory(**params)


def edge_grouping(
    topology: "Topology",
    config: "SystemConfig",
    cache: Dict[Tuple[str, str], Grouping],
    src_operator: str,
    dst_operator: str,
) -> Grouping:
    """The grouping routing the ``src -> dst`` edge, on either backend.

    With ``config.partitioning`` unset this is exactly the instance
    declared on the topology (so existing modes are untouched).  With it
    set, every non-one-to-many edge is replaced by one registry instance
    per edge, kept in ``cache`` — broadcast edges keep their ``all``
    semantics (replacing them would change the topology's meaning and
    break the multicast services built on stable membership).
    """
    declared = topology.operators[dst_operator].inputs[src_operator]
    if config.partitioning is None or declared.one_to_many:
        return declared
    key = (src_operator, dst_operator)
    grouping = cache.get(key)
    if grouping is None:
        params = dict(config.partitioning_params or {})
        grouping = cache[key] = make_grouping(config.partitioning, **params)
    return grouping


def _key_digest(key: Any) -> int:
    """Stable 32-bit digest of a tuple key (process-independent)."""
    return zlib.crc32(repr(key).encode("utf-8"))


def _require_tasks(tasks: Sequence[int]) -> None:
    if not tasks:
        raise ValueError("no downstream tasks to choose from")


def _require_key(tup: StreamTuple, strategy: str) -> Any:
    if tup.key is None:
        raise ValueError(
            f"{strategy} grouping needs a key; tuple {tup.tuple_id} on "
            f"stream {tup.stream!r} has none"
        )
    return tup.key


# ----------------------------------------------------------------------
# the paper's three groupings
# ----------------------------------------------------------------------
@register_strategy("shuffle")
class ShuffleGrouping(Grouping):
    """Round-robin across downstream tasks (per upstream edge).

    The cursor is monotone and independent of list membership, so a
    rebalancer parking or restoring a task mid-run rotates through the
    surviving tasks without restarting from index zero.
    """

    def __init__(self) -> None:
        self._next = 0

    def choose(self, tup: StreamTuple, tasks: Sequence[int]) -> List[int]:
        _require_tasks(tasks)
        task = tasks[self._next % len(tasks)]
        self._next += 1
        return [task]


@register_strategy("fields")
class FieldsGrouping(Grouping):
    """Deterministic key hashing (Storm's fields grouping)."""

    keyed = True

    def choose(self, tup: StreamTuple, tasks: Sequence[int]) -> List[int]:
        _require_tasks(tasks)
        if tup.key is None:
            raise ValueError(
                f"fields grouping needs a key; tuple {tup.tuple_id} on "
                f"stream {tup.stream!r} has none"
            )
        digest = zlib.crc32(repr(tup.key).encode("utf-8"))
        return [tasks[digest % len(tasks)]]


@register_strategy("all")
class AllGrouping(Grouping):
    """One-to-many: broadcast to every downstream task."""

    one_to_many = True

    def choose(self, tup: StreamTuple, tasks: Sequence[int]) -> List[int]:
        _require_tasks(tasks)
        return list(tasks)


# ----------------------------------------------------------------------
# consistent hashing with virtual nodes
# ----------------------------------------------------------------------
@register_strategy("consistent_hash")
class ConsistentHashGrouping(Grouping):
    """Hash ring with virtual nodes: minimal remapping under membership
    change.

    Each task owns ``virtual_nodes`` points on a 32-bit ring; a key goes
    to the owner of the first point at or past its digest.  Because a
    task's points do not move when *other* tasks join or leave, the only
    keys that remap on a membership change are those whose owning arc
    belonged to (or is claimed by) the moved task — roughly a ``1/n``
    share rather than the near-total reshuffle of modular hashing.
    """

    keyed = True

    def __init__(self, virtual_nodes: int = 64):
        if virtual_nodes < 1:
            raise ValueError("virtual_nodes must be >= 1")
        self.virtual_nodes = virtual_nodes
        #: membership tuple -> (sorted ring points, owner per point)
        self._rings: Dict[Tuple[int, ...], Tuple[List[int], List[int]]] = {}

    def _ring(self, tasks: Sequence[int]) -> Tuple[List[int], List[int]]:
        member = tuple(tasks)
        ring = self._rings.get(member)
        if ring is None:
            pairs = sorted(
                (zlib.crc32(f"vn:{task}:{v}".encode("utf-8")), task)
                for task in member
                for v in range(self.virtual_nodes)
            )
            ring = ([p for p, _ in pairs], [t for _, t in pairs])
            self._rings[member] = ring
        return ring

    def owner(self, key: Any, tasks: Sequence[int]) -> int:
        """The task owning ``key`` under the current membership."""
        points, owners = self._ring(tasks)
        index = bisect_right(points, _key_digest(key)) % len(points)
        return owners[index]

    def successors(self, key: Any, tasks: Sequence[int], k: int) -> List[int]:
        """Up to ``k`` *distinct* tasks walking the ring from ``key``."""
        points, owners = self._ring(tasks)
        start = bisect_right(points, _key_digest(key))
        picked: List[int] = []
        for step in range(len(points)):
            owner = owners[(start + step) % len(points)]
            if owner not in picked:
                picked.append(owner)
                if len(picked) >= k:
                    break
        return picked

    def choose(self, tup: StreamTuple, tasks: Sequence[int]) -> List[int]:
        _require_tasks(tasks)
        return [self.owner(_require_key(tup, "consistent_hash"), tasks)]

    def spec(self) -> Tuple[Optional[str], Dict[str, Any]]:
        return self.strategy_name, {"virtual_nodes": self.virtual_nodes}


# ----------------------------------------------------------------------
# hot-key splitting
# ----------------------------------------------------------------------
@register_strategy("key_split")
class KeySplitGrouping(Grouping):
    """Consistent hashing + hot-key fan-out (the skew breaker).

    Cold keys route like :class:`ConsistentHashGrouping`.  A key is
    *hot* when it is listed in ``hot_keys`` or its observed traffic
    share reaches ``hot_threshold`` (after ``min_samples`` tuples); a
    hot key's tuples round-robin over its ``replicas`` ring-successor
    tasks, so no single task eats the whole storm.

    **Merge contract:** splitting a key means per-key downstream state
    is partitioned across the replica set; consumers must either hold
    mergeable partial state (counts, sums, sketches) or re-aggregate
    downstream.  The replica set for a key is a pure function of the
    membership and the ring, so it is stable and seed-deterministic.
    """

    keyed = True
    #: downstream state for a split key is partial per replica.
    merge_contract = True

    def __init__(
        self,
        replicas: int = 3,
        hot_threshold: float = 0.2,
        min_samples: int = 64,
        hot_keys: Optional[Iterable[Any]] = None,
        virtual_nodes: int = 64,
    ):
        if replicas < 2:
            raise ValueError("key_split needs replicas >= 2")
        if not 0 < hot_threshold <= 1:
            raise ValueError("hot_threshold must be a fraction in (0, 1]")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.replicas = replicas
        self.hot_threshold = hot_threshold
        self.min_samples = min_samples
        self.explicit_hot = frozenset(hot_keys) if hot_keys else frozenset()
        self._ring = ConsistentHashGrouping(virtual_nodes)
        self._counts: Dict[Any, int] = {}
        self._total = 0
        #: per-key round-robin cursor over the replica set; keyed by the
        #: key (not a list position) so membership changes are safe.
        self._cursors: Dict[Any, int] = {}
        #: keys ever routed through the split path (observability).
        self.split_keys: set = set()

    def replica_set(self, key: Any, tasks: Sequence[int]) -> List[int]:
        """The (deterministic) replica tasks a hot ``key`` fans over."""
        return self._ring.successors(key, tasks, self.replicas)

    def is_hot(self, key: Any) -> bool:
        if key in self.explicit_hot:
            return True
        if self._total < self.min_samples:
            return False
        return self._counts.get(key, 0) / self._total >= self.hot_threshold

    def choose(self, tup: StreamTuple, tasks: Sequence[int]) -> List[int]:
        _require_tasks(tasks)
        key = _require_key(tup, "key_split")
        self._total += 1
        self._counts[key] = self._counts.get(key, 0) + 1
        if not self.is_hot(key):
            return [self._ring.owner(key, tasks)]
        replicas = self.replica_set(key, tasks)
        self.split_keys.add(key)
        cursor = self._cursors.get(key, 0)
        self._cursors[key] = cursor + 1
        return [replicas[cursor % len(replicas)]]

    def spec(self) -> Tuple[Optional[str], Dict[str, Any]]:
        return self.strategy_name, {
            "replicas": self.replicas,
            "hot_threshold": self.hot_threshold,
            "min_samples": self.min_samples,
            "hot_keys": sorted(self.explicit_hot, key=repr) or None,
            "virtual_nodes": self._ring.virtual_nodes,
        }


# ----------------------------------------------------------------------
# locality/rack-aware grouping
# ----------------------------------------------------------------------
@register_strategy("locality")
class LocalityAwareGrouping(Grouping):
    """Prefer same-machine, then same-rack, downstream tasks.

    The prototype registered on an edge is placement-blind (it degrades
    to round-robin); :meth:`for_emitter` returns a wrapper bound to one
    emitter's machine and the system's cluster/placement, which is what
    executors actually route through.  Keyed tuples pick within the
    preferred class by key hash, unkeyed ones round-robin a monotone
    cursor (rewiring-safe, like shuffle).
    """

    def __init__(self) -> None:
        self._next = 0

    def for_emitter(self, executor) -> "Grouping":
        return _BoundLocality(self, executor)

    def choose(self, tup: StreamTuple, tasks: Sequence[int]) -> List[int]:
        _require_tasks(tasks)
        task = tasks[self._next % len(tasks)]
        self._next += 1
        return [task]


class _BoundLocality(Grouping):
    """A :class:`LocalityAwareGrouping` bound to one emitter."""

    def __init__(self, proto: LocalityAwareGrouping, executor):
        self.proto = proto
        self.system = executor.system
        self.machine_id = executor.machine_id
        self.rack = self.system.cluster.machines[self.machine_id].rack
        self._next = 0

    def _preferred(self, tasks: Sequence[int]) -> List[int]:
        placement = self.system.placement
        machines = self.system.cluster.machines
        same_machine: List[int] = []
        same_rack: List[int] = []
        for task in tasks:
            machine = placement.machine_of[task]
            if machine == self.machine_id:
                same_machine.append(task)
            elif machines[machine].rack == self.rack:
                same_rack.append(task)
        return same_machine or same_rack or list(tasks)

    def choose(self, tup: StreamTuple, tasks: Sequence[int]) -> List[int]:
        _require_tasks(tasks)
        candidates = self._preferred(tasks)
        if tup.key is not None:
            return [candidates[_key_digest(tup.key) % len(candidates)]]
        task = candidates[self._next % len(candidates)]
        self._next += 1
        return [task]

    def __repr__(self) -> str:
        return f"LocalityAwareGrouping@m{self.machine_id}"


# ----------------------------------------------------------------------
# load-adaptive grouping
# ----------------------------------------------------------------------
def inqueue_depth(executor) -> int:
    """Live input-side depth of a bolt executor: the working thread's
    queue level, or the entries of a lazy sink's cohort still running or
    waiting at ``now`` (spouts and unknown tasks report 0).  Finished
    entries only wait to be realised: they must not steer routing."""
    queue = getattr(executor, "inqueue", None)
    depth = queue.level if queue is not None else 0
    cohort = getattr(executor, "cohort", None)
    if cohort is not None:
        now = executor.sim.now
        depth += sum(1 for entry in cohort.fifo if entry[0] > now)
    return depth


@register_strategy("load_adaptive")
class LoadAdaptiveGrouping(Grouping):
    """Deterministic power-of-two-choices on live queue depth.

    Two candidate tasks are probed per tuple (by key digest when keyed,
    by a monotone cursor digest otherwise) and the shallower input queue
    wins, with the :class:`~repro.dsps.metrics.MetricsHub` depth
    high-water mark as the tie-break.  Observed depths are fed back into
    ``metrics.note_queue_depth`` so overload experiments see the same
    waterlines the strategy consulted.  Like locality, the registered
    prototype is system-blind (round-robin) and :meth:`for_emitter`
    binds the real probe to the emitter's system.
    """

    def __init__(self) -> None:
        self._next = 0

    def for_emitter(self, executor) -> "Grouping":
        return _BoundLoadAdaptive(self, executor)

    def choose(self, tup: StreamTuple, tasks: Sequence[int]) -> List[int]:
        _require_tasks(tasks)
        task = tasks[self._next % len(tasks)]
        self._next += 1
        return [task]


class _BoundLoadAdaptive(Grouping):
    """A :class:`LoadAdaptiveGrouping` bound to one emitter's system."""

    def __init__(self, proto: LoadAdaptiveGrouping, executor):
        self.proto = proto
        self.system = executor.system
        self._next = 0

    def choose(self, tup: StreamTuple, tasks: Sequence[int]) -> List[int]:
        _require_tasks(tasks)
        n = len(tasks)
        if n == 1:
            return [tasks[0]]
        if tup.key is not None:
            digest = _key_digest(tup.key)
        else:
            digest = zlib.crc32(str(self._next).encode("ascii"))
            self._next += 1
        first, second = tasks[digest % n], tasks[(digest >> 16) % n]
        if first == second:
            return [first]
        metrics = self.system.metrics
        placement = self.system.placement
        depths = []
        for task in (first, second):
            depth = inqueue_depth(self.system.executors[task])
            where = f"{placement.operator_of[task]}[{task}].inqueue"
            metrics.note_queue_depth(where, depth)
            depths.append((depth, metrics.queue_depth_hwm[where], task))
        return [min(depths)[2]]

    def __repr__(self) -> str:
        return "LoadAdaptiveGrouping(bound)"
