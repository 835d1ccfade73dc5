"""Dataset statistics (Table 2) and their laptop-scale equivalents."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DatasetStats:
    """One row of Table 2."""

    name: str
    n_tuples: int
    n_keys: int

    def scaled(self, factor: float) -> "DatasetStats":
        """Scale tuple count (keys scale with the sqrt — key reuse grows
        with trace length) for laptop-size runs."""
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        return DatasetStats(
            name=f"{self.name} (x{factor:g})",
            n_tuples=max(1, int(self.n_tuples * factor)),
            n_keys=max(1, int(self.n_keys * factor**0.5)),
        )


def didi_stats() -> DatasetStats:
    """Didi Orders: 13 B tuples, 6 M keys (drivers)."""
    return DatasetStats(name="Didi Orders", n_tuples=13_000_000_000, n_keys=6_000_000)


def nasdaq_stats() -> DatasetStats:
    """Nasdaq Stock: 274 M tuples, 6.7 K keys (symbols)."""
    return DatasetStats(name="Nasdaq Stock", n_tuples=274_000_000, n_keys=6_649)
