"""Multicast-latency model (Section 3.2's four-part hop latency).

A hop costs: serialization + transfer-queue wait + work-request
encapsulation + wire time.  The completion time of a multicast is the
relay schedule's critical path; under load, the M/D/1 queueing wait at
the source dominates — which is exactly why the non-blocking tree
(smaller ``d0`` => higher ``mu`` => shorter queue) wins at high input
rates despite being deeper than the binomial tree.
"""

from __future__ import annotations

import math

from repro.dsps.config import SystemConfig
from repro.multicast.build import build_tree
from repro.multicast.capability import completion_time_units
from repro.net.rdma import message_profile, transport_verb
from repro.net.serialization import SerializationModel


def queueing_wait_md1(arrival_rate: float, service_rate: float) -> float:
    """Mean M/D/1 waiting time (Pollaczek–Khinchine, deterministic
    service): ``Wq = rho / (2 mu (1 - rho))``."""
    if service_rate <= 0:
        raise ValueError("service rate must be positive")
    if arrival_rate < 0:
        raise ValueError("arrival rate must be non-negative")
    rho = arrival_rate / service_rate
    if rho >= 1.0:
        return math.inf
    return rho / (2.0 * service_rate * (1.0 - rho))


def per_hop_time(
    config: SystemConfig,
    payload_bytes: int,
    batch_ids: int = 1,
    serialize: bool = True,
) -> float:
    """Time for one relay hop excluding queueing: serialization (source
    hop only — relays forward bytes), WR post, RNIC service, wire."""
    ser = SerializationModel(config.costs)
    costs = config.costs
    if config.worker_oriented:
        msg_bytes = ser.batch_message_bytes(payload_bytes, batch_ids)
        ser_time = ser.serialize_batch_message(payload_bytes, batch_ids)
    else:
        msg_bytes = ser.instance_message_bytes(payload_bytes)
        ser_time = ser.serialize_instance_message(payload_bytes)
    prof = message_profile(
        costs, transport_verb(config.transport, config.data_verb)
    )
    link = costs.link(config.transport)
    send_cpu = prof.sender_cpu_s
    if prof.rnic:
        send_cpu += costs.rnic_wr_service_s
    wire = link.latency_s + costs.wire_time(msg_bytes, link.bandwidth_bps)
    total = send_cpu + wire + prof.receiver_cpu_s + ser.deserialize(msg_bytes)
    if serialize:
        total += ser_time
    return total


def multicast_latency_estimate(
    config: SystemConfig,
    structure: str,
    n_endpoints: int,
    payload_bytes: int,
    arrival_rate: float,
    d_star: int = 3,
    batch_ids: int = 1,
) -> float:
    """Expected time from tuple production until the last endpoint
    receives it: source queueing wait + critical-path relay hops."""
    tree = build_tree(structure, range(n_endpoints), d_star)
    hops = completion_time_units(tree)
    hop = per_hop_time(config, payload_bytes, batch_ids=batch_ids)
    d0 = max(1, tree.out_degree(tree.root))
    mu = 1.0 / (d0 * hop)
    wait = queueing_wait_md1(arrival_rate, mu)
    return wait + hops * hop
