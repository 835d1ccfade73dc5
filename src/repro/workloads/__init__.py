"""Synthetic workloads standing in for the paper's proprietary traces.

* :mod:`repro.workloads.arrivals` — Poisson and piecewise-dynamic arrival
  processes (the paper drives topologies at Poisson rates and, for
  Figs. 23/24, steps the rate over time).
* :mod:`repro.workloads.ridehailing` — Didi-like driver-location and
  passenger-request generators (schema/cardinality matched, laptop scale).
* :mod:`repro.workloads.stocks` — NASDAQ-like order stream (6,649 symbols,
  buy/sell, Zipf volume).
* :mod:`repro.workloads.stats` — dataset statistics (Table 2 shape).
"""

from repro.workloads.arrivals import (
    ConstantArrivals,
    DynamicRateArrivals,
    PoissonArrivals,
    RateStep,
)
from repro.workloads.ridehailing import (
    DriverLocationGenerator,
    PassengerRequestGenerator,
)
from repro.workloads.stocks import StockOrderGenerator
from repro.workloads.stats import DatasetStats, didi_stats, nasdaq_stats

__all__ = [
    "ConstantArrivals",
    "DatasetStats",
    "DriverLocationGenerator",
    "DynamicRateArrivals",
    "PassengerRequestGenerator",
    "PoissonArrivals",
    "RateStep",
    "StockOrderGenerator",
    "didi_stats",
    "nasdaq_stats",
]
