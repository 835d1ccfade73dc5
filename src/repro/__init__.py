"""Whale (SC '21) reproduction.

Efficient one-to-many data partitioning in RDMA-assisted distributed
stream processing systems, rebuilt as a Python library on a
discrete-event-simulation substrate.

Layers (bottom-up):

* :mod:`repro.sim` — discrete-event simulation kernel,
* :mod:`repro.net` — network/CPU cost substrate (TCP, RDMA verbs, RNIC,
  ring memory region, stream slicing),
* :mod:`repro.multicast` — the non-blocking multicast tree, its M/D/1
  model, and the binomial/sequential baselines,
* :mod:`repro.dsps` — the Storm-like stream processing substrate,
* :mod:`repro.core` — Whale itself (worker-oriented communication,
  monitors, the self-adjusting multicast controller, system presets),
* :mod:`repro.analytic` — closed-form performance cross-checks,
* :mod:`repro.workloads`, :mod:`repro.apps` — synthetic datasets and the
  paper's two applications,
* :mod:`repro.bench` — the experiment harness regenerating every figure.

Quickstart::

    from repro.apps import ride_hailing_topology
    from repro.core import create_system, whale_full_config
    from repro.workloads import PoissonArrivals
    import numpy as np

    topo = ride_hailing_topology(parallelism=64, compute_real_matches=False)
    rng = np.random.default_rng(0)
    system = create_system(
        topo, whale_full_config(),
        arrivals={"requests": PoissonArrivals(2000, rng),
                  "driver_locations": PoissonArrivals(2000, rng)},
    )
    # the spouts stop after the window's 1.0 s; the run then drains to
    # quiet (at most 2.0 s more) inside the window
    metrics = system.run_measured(warmup_s=0.3, measure_s=1.0, drain_s=2.0)
    print(metrics.throughput("matching"), metrics.quiescence.quiet)
"""

__version__ = "1.0.0"

__all__ = [
    "analytic",
    "apps",
    "bench",
    "core",
    "dsps",
    "multicast",
    "net",
    "sim",
    "workloads",
]
