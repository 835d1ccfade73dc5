"""Saturation-throughput model for every system variant.

The source's sending thread is a single server; its per-tuple service
time under each communication mode is a direct sum of cost-model terms.
The system's sustainable rate is the minimum of the source capacity, the
per-instance downstream capacity (every instance sees every broadcast
tuple), and the spout's own emit capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dsps.config import SystemConfig
from repro.multicast.model import binomial_out_degree
from repro.net.rdma import message_profile, transport_verb
from repro.net.serialization import SerializationModel


@dataclass(frozen=True)
class SystemShape:
    """The placement facts the model needs."""

    parallelism: int  # destination instances of the one-to-many edge
    n_machines: int
    payload_bytes: int

    @property
    def remote_machines(self) -> int:
        # Destinations spread over all machines; one hosts the source.
        return min(self.parallelism, self.n_machines) - (
            1 if self.parallelism >= self.n_machines else 0
        )


def source_service_time(config: SystemConfig, shape: SystemShape) -> float:
    """Per-tuple time in the source's sending thread for the one-to-many
    edge (the M/D/1 model's ``1/mu``)."""
    ser = SerializationModel(config.costs)
    send_cpu = message_profile(
        config.costs, transport_verb(config.transport, config.data_verb)
    ).sender_cpu_s
    n = shape.parallelism
    m = min(n, shape.n_machines)
    remote_machines = shape.remote_machines
    local_tasks = n / shape.n_machines if n >= shape.n_machines else 0.0
    dispatch = config.costs.dispatch_cpu_s * local_tasks

    if config.multicast != "sequential":
        # Relay structure: the source only serves the root's children.
        if config.worker_oriented:
            endpoints = m
            per_batch = n / m
            d0 = min(
                config.d_star
                if config.multicast == "nonblocking"
                else binomial_out_degree(endpoints),
                binomial_out_degree(endpoints),
            )
            serialize = ser.serialize_batch_message(
                shape.payload_bytes, max(1, round(per_batch))
            )
            return d0 * (serialize + send_cpu) + dispatch
        d0 = min(
            config.d_star
            if config.multicast == "nonblocking"
            else binomial_out_degree(n),
            binomial_out_degree(n),
        )
        serialize = ser.serialize_instance_message(shape.payload_bytes)
        return d0 * (serialize + send_cpu) + dispatch

    if config.worker_oriented:
        per_batch = n / m
        serialize = ser.serialize_batch_message(
            shape.payload_bytes, max(1, round(per_batch))
        )
        send = send_cpu
        if config.slicing:
            # One WR per MMS flush amortizes the post cost.
            batch_bytes = ser.batch_message_bytes(
                shape.payload_bytes, max(1, round(per_batch))
            )
            msgs_per_wr = max(1.0, config.costs.mms_bytes / batch_bytes)
            send = send_cpu / msgs_per_wr
        return remote_machines * (serialize + send) + dispatch

    # Instance-oriented sequential (Storm / RDMA-based Storm).
    remote_tasks = n - local_tasks
    serialize = ser.serialize_instance_message(shape.payload_bytes)
    return remote_tasks * (serialize + send_cpu) + dispatch


def source_capacity(config: SystemConfig, shape: SystemShape) -> float:
    """Maximum tuples/s the source's sending thread can emit."""
    return 1.0 / source_service_time(config, shape)


def downstream_capacity(per_tuple_service_s: float) -> float:
    """Tuples/s one destination instance can absorb.  With all-grouping
    every instance processes every tuple, so this is also the system-wide
    broadcast ceiling."""
    if per_tuple_service_s <= 0:
        raise ValueError("service time must be positive")
    return 1.0 / per_tuple_service_s


def sustainable_rate(
    config: SystemConfig,
    shape: SystemShape,
    downstream_service_s: float,
    spout_emit_s: float = 1.0e-6,
    safety: float = 1.0,
) -> float:
    """The broadcast input rate the whole pipeline can sustain."""
    if not 0 < safety <= 1.0:
        raise ValueError(f"safety must be in (0, 1], got {safety}")
    rate = min(
        source_capacity(config, shape),
        downstream_capacity(downstream_service_s),
        1.0 / spout_emit_s,
    )
    return rate * safety
