"""Didi-like ride-hailing workload generator.

The paper uses the Didi GAIA trace: 13 B trajectory records for 6 M
drivers and 74 M passenger requests.  The experiments consume only the
records' *shape* — key cardinality, payload size, spatial locality — so
this generator reproduces those marginals at laptop scale: drivers move
in a unit city square (random-waypoint steps), requests arrive uniformly
with small hot-zone skew.

Records are plain dicts; payload sizes model the serialized trace record
(driver id + lat/lon + timestamp ≈ 150 B in the original's format).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

#: Serialized record sizes (bytes) used by the cost model.
DRIVER_RECORD_BYTES = 150
REQUEST_RECORD_BYTES = 150


class DriverLocationGenerator:
    """Stream of driver location updates (the key-grouped stream)."""

    def __init__(
        self,
        rng: np.random.Generator,
        n_drivers: int = 60_000,
        step_scale: float = 0.01,
    ):
        if n_drivers < 1:
            raise ValueError(f"need at least one driver, got {n_drivers}")
        self.rng = rng
        self.n_drivers = n_drivers
        self.step_scale = step_scale
        self._positions = rng.random((n_drivers, 2))

    def next_record(self) -> Dict:
        """One location update: a random driver takes a random-waypoint step."""
        driver = int(self.rng.integers(self.n_drivers))
        pos = self._positions[driver]
        pos += self.rng.normal(0.0, self.step_scale, size=2)
        np.clip(pos, 0.0, 1.0, out=pos)
        return {
            "driver_id": driver,
            "lat": float(pos[0]),
            "lon": float(pos[1]),
        }


class PassengerRequestGenerator:
    """Stream of passenger requests (the all-grouped / broadcast stream)."""

    def __init__(
        self,
        rng: np.random.Generator,
        n_passengers: int = 500_000,
        hot_zone_fraction: float = 0.3,
    ):
        if n_passengers < 1:
            raise ValueError(f"need at least one passenger, got {n_passengers}")
        if not 0.0 <= hot_zone_fraction <= 1.0:
            raise ValueError("hot_zone_fraction must be in [0, 1]")
        self.rng = rng
        self.n_passengers = n_passengers
        self.hot_zone_fraction = hot_zone_fraction
        self._next_request_id = 0

    def next_record(self) -> Dict:
        self._next_request_id += 1
        if self.rng.random() < self.hot_zone_fraction:
            # Hot zone: the city-centre quarter (downtown demand skew).
            lat, lon = 0.5 + self.rng.random(2) * 0.25
        else:
            lat, lon = self.rng.random(2)
        return {
            "request_id": self._next_request_id,
            "passenger_id": int(self.rng.integers(self.n_passengers)),
            "lat": float(lat),
            "lon": float(lon),
        }
