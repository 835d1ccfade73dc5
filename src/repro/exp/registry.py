"""Declarative registry of every figure/ablation experiment.

Each :class:`ExperimentSpec` names the figure function (lazily, by
``module:attr`` reference), how its sweep decomposes into independently
runnable points, the seed each point is pinned to, and how long one
point may run before the scheduler kills it.

Decomposition rule: the figure functions already accept their sweep as a
list parameter and re-seed every iteration internally, so running them
one sweep value at a time is *bit-identical* to running the whole sweep
— which is what makes points independently schedulable, cacheable, and
mergeable.  :func:`assemble` re-builds the full figure tables from the
per-point tables by concatenating rows in sweep order.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench.report import Table
from repro.exp.points import ExperimentPoint, code_version


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: identity, decomposition, seeds, and outputs."""

    name: str
    fn_ref: str  #: ``module:attr`` of the figure function
    category: str = "figure"  #: ``figure`` or ``ablation``
    #: name of the list-valued kwarg that carries the sweep; ``None``
    #: means the experiment is a single indivisible point
    sweep_param: Optional[str] = None
    sweep_values: Tuple[Any, ...] = ()
    #: sweep values for ``--smoke`` (``None`` -> same as the full sweep)
    smoke_values: Optional[Tuple[Any, ...]] = None
    fixed: Mapping[str, Any] = field(default_factory=dict)
    #: fixed-param overrides for ``--smoke`` (``None`` -> same as full)
    smoke_fixed: Optional[Mapping[str, Any]] = None
    #: explicit seed passed as ``seed=`` (``None`` -> fn takes no seed)
    seed: Optional[int] = None
    #: per-point wall-clock budget before the scheduler kills the worker
    timeout_s: float = 300.0
    #: stem of the rendered files under ``benchmarks/results/``
    output_stem: Optional[str] = None

    @property
    def stem(self) -> str:
        return self.output_stem or self.name

    def resolve(self) -> Callable:
        module_name, _, attr = self.fn_ref.partition(":")
        module = importlib.import_module(module_name)
        return getattr(module, attr)

    def point_params(self, smoke: bool = False) -> List[Dict[str, Any]]:
        """The kwargs of each point, in deterministic sweep order."""
        fixed = dict(self.fixed)
        if smoke and self.smoke_fixed is not None:
            fixed.update(self.smoke_fixed)
        if self.sweep_param is None:
            return [fixed]
        values = self.sweep_values
        if smoke and self.smoke_values is not None:
            values = self.smoke_values
        return [{self.sweep_param: [v], **fixed} for v in values]

    def points(
        self, smoke: bool = False, version: Optional[str] = None
    ) -> List[ExperimentPoint]:
        version = version if version is not None else code_version()
        return [
            ExperimentPoint(
                experiment=self.name,
                index=i,
                params=params,
                seed=self.seed,
                code_version=version,
            )
            for i, params in enumerate(self.point_params(smoke))
        ]

    def run_point(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """Execute one point in-process; returns the store payload."""
        kwargs = dict(params)
        if self.seed is not None:
            kwargs["seed"] = self.seed
        result = self.resolve()(**kwargs)
        tables = result if isinstance(result, tuple) else (result,)
        return {"tables": [t.to_dict() for t in tables]}


def assemble(
    spec: ExperimentSpec, point_results: Sequence[Mapping[str, Any]]
) -> Tuple[Table, ...]:
    """Merge per-point results (in sweep order) into the figure tables.

    Rows concatenate across points; titles/headers must agree; notes are
    taken from the *last* point — the figure functions compute their
    comparison notes from the final sweep value, so the last point's
    notes are the ones the full sweep would have produced.
    """
    if not point_results:
        raise ValueError(f"no point results for experiment {spec.name!r}")
    merged: List[Table] = []
    for result in point_results:
        tables = [Table.from_dict(t) for t in result["tables"]]
        if not merged:
            merged = tables
            continue
        if len(tables) != len(merged):
            raise ValueError(
                f"{spec.name}: point produced {len(tables)} tables, "
                f"expected {len(merged)}"
            )
        for base, part in zip(merged, tables):
            if list(base.headers) != list(part.headers):
                raise ValueError(
                    f"{spec.name}: mismatched headers across points"
                )
            for row in part.rows:
                base.add(*row)
            base.notes = list(part.notes)
    return tuple(merged)


# ----------------------------------------------------------------------
# The registry proper
# ----------------------------------------------------------------------
_EXPERIMENTS = "repro.bench.experiments"
_ABLATIONS = "repro.bench.ablations"
_FAULTS = "repro.bench.faults"
_HOTKEY = "repro.bench.hotkey"
_SIMREAL = "repro.bench.simreal"

SPECS: Tuple[ExperimentSpec, ...] = (
    ExperimentSpec(
        name="fig02",
        fn_ref=f"{_EXPERIMENTS}:fig02_storm_bottleneck",
        sweep_param="parallelisms",
        sweep_values=(30, 120, 240, 480),
        smoke_values=(30, 480),
        seed=42,
        timeout_s=120.0,
    ),
    ExperimentSpec(
        name="fig03",
        fn_ref=f"{_EXPERIMENTS}:fig03_rdmc_blocking",
        sweep_param="rates",
        sweep_values=(2_000, 6_000, 10_000, 12_000, 14_000),
        smoke_values=(2_000, 6_000),
        fixed={"parallelism": 480},
        seed=17,
        timeout_s=600.0,
    ),
    ExperimentSpec(
        name="fig11",
        fn_ref=f"{_EXPERIMENTS}:fig11_mms",
        sweep_param="mms_values",
        sweep_values=(512, 4096, 32768, 262144, 1048576),
        smoke_values=(512, 262144),
        seed=42,
        timeout_s=120.0,
    ),
    ExperimentSpec(
        name="fig12",
        fn_ref=f"{_EXPERIMENTS}:fig12_wtl",
        sweep_param="wtl_values_ms",
        sweep_values=(1, 5, 10, 20, 30),
        smoke_values=(1, 30),
        seed=42,
        timeout_s=120.0,
    ),
    ExperimentSpec(
        name="fig13_14",
        fn_ref=f"{_EXPERIMENTS}:fig13_14_ridehailing",
        sweep_param="parallelisms",
        sweep_values=(120, 240, 480),
        smoke_values=(120,),
        seed=42,
        timeout_s=300.0,
    ),
    ExperimentSpec(
        name="fig15_16",
        fn_ref=f"{_EXPERIMENTS}:fig15_16_stocks",
        sweep_param="parallelisms",
        sweep_values=(120, 240, 480),
        smoke_values=(120,),
        seed=42,
        timeout_s=300.0,
    ),
    ExperimentSpec(
        name="fig17_18_21",
        fn_ref=f"{_EXPERIMENTS}:fig17_18_21_structures_ridehailing",
        sweep_param="parallelisms",
        sweep_values=(120, 240, 480),
        smoke_values=(120,),
        seed=42,
        timeout_s=600.0,
    ),
    ExperimentSpec(
        name="fig19_20_22",
        fn_ref=f"{_EXPERIMENTS}:fig19_20_22_structures_stocks",
        sweep_param="parallelisms",
        sweep_values=(120, 240, 480),
        smoke_values=(120,),
        seed=42,
        timeout_s=600.0,
    ),
    ExperimentSpec(
        name="fig23_24",
        fn_ref=f"{_EXPERIMENTS}:fig23_24_dynamic",
        seed=7,
        timeout_s=300.0,
    ),
    ExperimentSpec(
        name="fig25_26",
        fn_ref=f"{_EXPERIMENTS}:fig25_26_comm_time",
        sweep_param="parallelisms",
        sweep_values=(120, 480),
        smoke_values=(120,),
        seed=42,
        timeout_s=300.0,
    ),
    ExperimentSpec(
        name="fig27_28",
        fn_ref=f"{_EXPERIMENTS}:fig27_28_traffic",
        sweep_param="parallelisms",
        sweep_values=(120, 240, 480),
        smoke_values=(120,),
        seed=42,
        timeout_s=300.0,
    ),
    ExperimentSpec(
        name="fig29_30",
        fn_ref=f"{_EXPERIMENTS}:fig29_30_verbs",
        fixed={"n_messages": 20_000},
        smoke_fixed={"n_messages": 4_000},
        timeout_s=120.0,
    ),
    ExperimentSpec(
        name="fig31_32",
        fn_ref=f"{_EXPERIMENTS}:fig31_32_diffverbs",
        sweep_param="parallelisms",
        sweep_values=(240, 480),
        smoke_values=(240,),
        seed=42,
        timeout_s=300.0,
    ),
    ExperimentSpec(
        name="fig33_34",
        fn_ref=f"{_EXPERIMENTS}:fig33_34_racks",
        sweep_param="rack_counts",
        sweep_values=(1, 2, 3, 4, 5),
        smoke_values=(1, 3),
        seed=42,
        timeout_s=300.0,
    ),
    ExperimentSpec(
        name="table2",
        fn_ref=f"{_EXPERIMENTS}:table2_datasets",
        fixed={"sample": 30_000},
        seed=0,
        timeout_s=120.0,
    ),
    ExperimentSpec(
        name="ablation_dstar",
        fn_ref=f"{_ABLATIONS}:ablation_dstar",
        category="ablation",
        sweep_param="d_values",
        sweep_values=(1, 2, 3, 4, 5),
        seed=3,
        timeout_s=120.0,
    ),
    ExperimentSpec(
        name="ablation_queue",
        fn_ref=f"{_ABLATIONS}:ablation_queue_capacity",
        category="ablation",
        sweep_param="q_values",
        sweep_values=(1, 4, 64, 1024),
        seed=3,
        timeout_s=120.0,
    ),
    ExperimentSpec(
        name="ablation_lossy_network",
        fn_ref=f"{_FAULTS}:ablation_lossy_network",
        category="ablation",
        sweep_param="loss_values",
        sweep_values=(0.0, 0.001, 0.01),
        smoke_values=(0.0, 0.01),
        seed=42,
        timeout_s=180.0,
        output_stem="ablation_loss",
    ),
    ExperimentSpec(
        name="ablation_rack_uplinks",
        fn_ref=f"{_FAULTS}:ablation_oversubscribed_racks",
        category="ablation",
        sweep_param="rack_counts",
        sweep_values=(1, 3, 5),
        smoke_values=(1,),
        seed=42,
        timeout_s=180.0,
        output_stem="ablation_racks",
    ),
    ExperimentSpec(
        name="ablation_node_failure",
        fn_ref=f"{_FAULTS}:ablation_node_failure",
        category="ablation",
        seed=42,
        timeout_s=120.0,
    ),
    ExperimentSpec(
        name="ablation_delivery_semantics",
        fn_ref=f"{_FAULTS}:ablation_delivery_semantics",
        category="ablation",
        seed=42,
        timeout_s=180.0,
    ),
    ExperimentSpec(
        name="ablation_overload",
        fn_ref=f"{_FAULTS}:ablation_overload",
        category="ablation",
        smoke_fixed={
            "duration_s": 0.5,
            "parallelism": 12,
            "n_machines": 6,
            "offered_rate": 150.0,
        },
        seed=42,
        timeout_s=240.0,
    ),
    ExperimentSpec(
        name="ablation_hot_key",
        fn_ref=f"{_HOTKEY}:ablation_hot_key",
        category="ablation",
        sweep_param="strategies",
        sweep_values=(
            "fields",
            "consistent_hash",
            "locality",
            "load_adaptive",
            "key_split",
            "fields+rebalance",
        ),
        smoke_values=("fields", "key_split", "fields+rebalance"),
        smoke_fixed={"duration_s": 0.3},
        seed=42,
        timeout_s=240.0,
    ),
    ExperimentSpec(
        name="ablation_sim_vs_real",
        fn_ref=f"{_SIMREAL}:ablation_sim_vs_real",
        category="ablation",
        sweep_param="topologies",
        sweep_values=("word_count", "fanout"),
        fixed={"rate": 400.0, "budget": 240},
        # the real backend spends actual wall-clock seconds pacing its
        # spouts; smoke trims the budget, not the topology coverage
        smoke_fixed={"rate": 400.0, "budget": 60},
        seed=42,
        timeout_s=120.0,
    ),
)

REGISTRY: Dict[str, ExperimentSpec] = {spec.name: spec for spec in SPECS}


def get(name: str) -> ExperimentSpec:
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choices: {sorted(REGISTRY)}"
        ) from None


def select(names: Optional[Sequence[str]] = None) -> List[ExperimentSpec]:
    """Resolve a name list; reports *all* unknown names at once."""
    if not names:
        return list(SPECS)
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        raise KeyError(
            f"unknown experiments {sorted(set(unknown))}; "
            f"choices: {sorted(REGISTRY)}"
        )
    return [REGISTRY[n] for n in names]
