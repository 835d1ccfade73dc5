"""The M/D/1 queueing model of the source's transfer queue (Section 3.2.1).

The source instance with out-degree ``d0`` spends ``d0 * te`` CPU-seconds
per tuple (one replica per directly-cascading instance), so its service
rate is ``mu = 1 / (d0 * te)`` (Eq. 1).  Poisson arrivals at rate
``lambda`` against deterministic service give the M/D/1 mean queue length

    ``E(L) = lambda^2 / (2 mu (mu - lambda)) + lambda / mu``      (Eq. 2)

Whale keeps ``E(L) <= Q`` by capping the out-degree at ``d*``.

.. note:: **Paper erratum.**  Solving ``E(L) <= Q`` for the utilisation
   ``rho = lambda * d0 * te`` gives ``rho <= Q + 1 - sqrt(Q^2 + 1)`` and
   hence ``d0 <= (Q + 1 - sqrt(Q^2+1)) / (lambda * te)``.  The paper's
   Eq. (3) instead prints ``d0 <= 2Q / (lambda * te * (Q+1-sqrt(Q^2+1)))``,
   which — because ``(Q+1-sqrt(Q^2+1)) * (Q+1+sqrt(Q^2+1)) = 2Q`` — equals
   the *larger* root ``(Q+1+sqrt(Q^2+1)) / (lambda*te)`` and is
   inconsistent with the paper's own Eq. (4)/(5) (which use the smaller
   root).  We implement the consistent form as :func:`max_out_degree` and
   keep the literal Eq. (3) available as :func:`max_out_degree_paper_eq3`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _validate_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


def queue_headroom_factor(q_capacity: float) -> float:
    """``Q + 1 - sqrt(Q^2 + 1)`` — the maximum stable utilisation rho
    that keeps ``E(L) <= Q``.  Always in (0, 1)."""
    _validate_positive(q_capacity=q_capacity)
    return q_capacity + 1.0 - math.sqrt(q_capacity**2 + 1.0)


def processing_rate(d0: int, te: float) -> float:
    """Eq. (1): ``mu = 1 / (d0 * te)`` — tuples/s the source can emit."""
    _validate_positive(d0=d0, te=te)
    return 1.0 / (d0 * te)


def processing_rate_worker_oriented(d0: int, td: float, ts: float) -> float:
    """Section 4 refinement for worker-oriented communication:
    ``mu = 1 / (d0 * td + ts)`` — the data item is serialized once
    (``ts``) and scheduled ``d0`` times (``td`` per replica)."""
    _validate_positive(d0=d0, td=td, ts=ts)
    return 1.0 / (d0 * td + ts)


def avg_queue_length(arrival_rate: float, service_rate: float) -> float:
    """Eq. (2): M/D/1 mean number in system.

    Diverges as ``arrival_rate -> service_rate``; raises if unstable.
    """
    _validate_positive(arrival_rate=arrival_rate, service_rate=service_rate)
    if arrival_rate >= service_rate:
        raise ValueError(
            f"unstable queue: arrival rate {arrival_rate} >= service rate "
            f"{service_rate}"
        )
    lam, mu = arrival_rate, service_rate
    return lam**2 / (2.0 * mu * (mu - lam)) + lam / mu


def max_out_degree(arrival_rate: float, te: float, q_capacity: float) -> int:
    """The maximum out-degree ``d*`` keeping ``E(L) <= Q`` (consistent
    derivation; see module erratum note).  At least 1."""
    _validate_positive(arrival_rate=arrival_rate, te=te)
    rho_max = queue_headroom_factor(q_capacity)
    d = math.floor(rho_max / (arrival_rate * te))
    return max(1, d)


def max_out_degree_paper_eq3(
    arrival_rate: float, te: float, q_capacity: float
) -> int:
    """The paper's Eq. (3) taken literally (the larger, inconsistent root).

    Provided for comparison; everything else in the reproduction uses
    :func:`max_out_degree`.
    """
    _validate_positive(arrival_rate=arrival_rate, te=te)
    factor = queue_headroom_factor(q_capacity)
    d = math.floor(2.0 * q_capacity / (arrival_rate * te * factor))
    return max(1, d)


def max_affordable_input_rate(d0: int, te: float, q_capacity: float) -> float:
    """Eq. (5): ``M = (Q + 1 - sqrt(Q^2+1)) / (d0 * te)``.

    Theorem 1: ``M`` is inversely proportional to ``d0``.
    """
    _validate_positive(d0=d0, te=te)
    return queue_headroom_factor(q_capacity) / (d0 * te)


def binomial_out_degree(n_destinations: int) -> int:
    """Source out-degree of a classic binomial multicast tree over ``n``
    destinations: ``ceil(log2(n + 1))``."""
    if n_destinations < 1:
        raise ValueError(f"need at least one destination, got {n_destinations}")
    return math.ceil(math.log2(n_destinations + 1))


def nonblocking_source_degree(n_destinations: int, d_star: int) -> int:
    """Source out-degree of Whale's non-blocking tree:
    ``min(d*, ceil(log2(n+1)))`` (Section 3.2.2)."""
    if d_star < 1:
        raise ValueError(f"d* must be >= 1, got {d_star}")
    return min(d_star, binomial_out_degree(n_destinations))


@dataclass(frozen=True)
class MD1Model:
    """Convenience bundle: one queue configuration, all derived figures."""

    te: float
    q_capacity: float

    def mu(self, d0: int) -> float:
        return processing_rate(d0, self.te)

    def expected_queue_length(self, arrival_rate: float, d0: int) -> float:
        return avg_queue_length(arrival_rate, self.mu(d0))

    def d_star(self, arrival_rate: float) -> int:
        return max_out_degree(arrival_rate, self.te, self.q_capacity)
