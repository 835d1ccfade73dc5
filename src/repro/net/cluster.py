"""Physical cluster model: machines, racks, cores.

Mirrors the paper's testbed shape (30 machines × 16 cores, 1–5 racks for
Figs. 33/34) without pretending to be it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class Machine:
    """One physical server."""

    machine_id: int
    rack: int
    cores: int = 16

    def __str__(self) -> str:
        return f"m{self.machine_id}(rack{self.rack})"


class Cluster:
    """A set of machines partitioned into racks.

    Machines are assigned to racks round-robin, matching the paper's
    "partitioning the machines into one to five racks" experiment.
    """

    def __init__(self, n_machines: int = 30, n_racks: int = 1, cores: int = 16):
        if n_machines < 1:
            raise ValueError(f"need at least one machine, got {n_machines}")
        if not 1 <= n_racks <= n_machines:
            raise ValueError(
                f"n_racks must be in [1, n_machines], got {n_racks}"
            )
        self.n_racks = n_racks
        self.machines: List[Machine] = [
            Machine(machine_id=i, rack=i % n_racks, cores=cores)
            for i in range(n_machines)
        ]

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.machines)

    def __getitem__(self, machine_id: int) -> Machine:
        return self.machines[machine_id]

    def __iter__(self):
        return iter(self.machines)

    def rack_hops(self, a: int, b: int) -> int:
        """Number of rack boundaries a message between ``a`` and ``b``
        crosses (0 for same rack or same machine)."""
        return 0 if self.machines[a].rack == self.machines[b].rack else 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster(machines={len(self.machines)}, racks={self.n_racks}, "
            f"cores={self.machines[0].cores})"
        )
