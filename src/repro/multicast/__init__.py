"""One-to-many multicast structures — the paper's core contribution.

* :mod:`repro.multicast.model` — the M/D/1 queueing model of the source's
  transfer queue (Eq. 1–5): processing rate, average queue length, the
  maximum affordable out-degree ``d*`` and input rate ``M``.
* :mod:`repro.multicast.tree` — the multicast tree data structure and its
  invariants.
* :mod:`repro.multicast.build` — Algorithm 1 (non-blocking multicast tree
  construction) plus the binomial (RDMC) and sequential (Storm) builders.
* :mod:`repro.multicast.capability` — the multicast capability ``L(t)``
  recurrences (Eq. 6/7, Theorems 1–2) and exact per-node receive-time
  schedules for any tree.
* :mod:`repro.multicast.switching` — dynamic switching (Section 3.4):
  negative scale-down and active scale-up rewiring plans.
"""

from repro.multicast.model import (
    MD1Model,
    avg_queue_length,
    binomial_out_degree,
    max_affordable_input_rate,
    max_out_degree,
    max_out_degree_paper_eq3,
    nonblocking_source_degree,
    processing_rate,
    processing_rate_worker_oriented,
)
from repro.multicast.tree import MulticastTree, SOURCE
from repro.multicast.build import (
    build_binomial_tree,
    build_nonblocking_tree,
    build_sequential_tree,
    build_tree,
)
from repro.multicast.capability import (
    capability_series,
    completion_time_units,
    receive_time_units,
    time_units_to_reach,
)
from repro.multicast.switching import (
    ControlMessage,
    RewireOp,
    SwitchPlan,
    apply_plan,
    plan_reattach,
    plan_repair,
    plan_switch,
)
from repro.multicast.analysis import (
    SwitchBenefit,
    affordable_rate_ratio_vs_binomial,
    loss_free_switch_bound,
    max_queue_after_switch,
    scale_down_trigger_length,
    scale_up_breakeven_tuples,
    scale_up_is_worthwhile,
    switch_is_loss_free,
)

__all__ = [
    "ControlMessage",
    "MD1Model",
    "SwitchBenefit",
    "affordable_rate_ratio_vs_binomial",
    "loss_free_switch_bound",
    "max_queue_after_switch",
    "scale_down_trigger_length",
    "scale_up_breakeven_tuples",
    "scale_up_is_worthwhile",
    "switch_is_loss_free",
    "MulticastTree",
    "RewireOp",
    "SOURCE",
    "SwitchPlan",
    "apply_plan",
    "avg_queue_length",
    "binomial_out_degree",
    "build_binomial_tree",
    "build_nonblocking_tree",
    "build_sequential_tree",
    "build_tree",
    "capability_series",
    "completion_time_units",
    "max_affordable_input_rate",
    "max_out_degree",
    "max_out_degree_paper_eq3",
    "nonblocking_source_degree",
    "plan_reattach",
    "plan_repair",
    "plan_switch",
    "processing_rate",
    "processing_rate_worker_oriented",
    "receive_time_units",
    "time_units_to_reach",
]
