"""Tests for the experiment point registry and table assembly."""

import pytest

from repro.bench.report import Table
from repro.exp.registry import (
    REGISTRY,
    SPECS,
    ExperimentSpec,
    assemble,
    get,
    select,
)

TOY = ExperimentSpec(
    name="toy",
    fn_ref="tests._exp_toy:toy_experiment",
    sweep_param="values",
    sweep_values=(1, 2, 3),
    smoke_values=(1,),
    fixed={"scale": 2.0},
    seed=5,
    timeout_s=10.0,
)


# ----------------------------------------------------------------------
# registry contents
# ----------------------------------------------------------------------
def test_registry_covers_every_figure_and_ablation():
    figures = {s.name for s in SPECS if s.category == "figure"}
    ablations = {s.name for s in SPECS if s.category == "ablation"}
    assert figures == {
        "fig02", "fig03", "fig11", "fig12", "fig13_14", "fig15_16",
        "fig17_18_21", "fig19_20_22", "fig23_24", "fig25_26", "fig27_28",
        "fig29_30", "fig31_32", "fig33_34", "table2",
    }
    assert ablations == {
        "ablation_dstar", "ablation_queue", "ablation_lossy_network",
        "ablation_rack_uplinks", "ablation_node_failure",
        "ablation_delivery_semantics", "ablation_overload",
        "ablation_hot_key", "ablation_sim_vs_real",
    }


def test_every_spec_resolves_and_seed_param_matches_signature():
    import inspect

    for spec in SPECS:
        fn = spec.resolve()
        signature = inspect.signature(fn)
        if spec.seed is not None:
            assert "seed" in signature.parameters, spec.name
            # the registry pins the function's own default seed, so
            # orchestrated and direct runs produce the same results
            assert signature.parameters["seed"].default == spec.seed, spec.name
        if spec.sweep_param is not None:
            assert spec.sweep_param in signature.parameters, spec.name
        for fixed in (spec.fixed, spec.smoke_fixed or {}):
            for key in fixed:
                assert key in signature.parameters, (spec.name, key)


def test_smoke_points_are_a_subset_scale():
    for spec in SPECS:
        full = spec.point_params(smoke=False)
        smoke = spec.point_params(smoke=True)
        assert 1 <= len(smoke) <= len(full), spec.name


# ----------------------------------------------------------------------
# point decomposition
# ----------------------------------------------------------------------
def test_sweep_decomposes_into_one_point_per_value():
    points = TOY.points(version="v")
    assert [p.params for p in points] == [
        {"values": [1], "scale": 2.0},
        {"values": [2], "scale": 2.0},
        {"values": [3], "scale": 2.0},
    ]
    assert [p.seed for p in points] == [5, 5, 5]
    assert [p.index for p in points] == [0, 1, 2]
    assert len({p.digest for p in points}) == 3


def test_smoke_points_and_fixed_overrides():
    spec = ExperimentSpec(
        name="t",
        fn_ref="tests._exp_toy:toy_experiment",
        fixed={"scale": 1.0},
        smoke_fixed={"scale": 0.5},
    )
    assert spec.point_params(smoke=False) == [{"scale": 1.0}]
    assert spec.point_params(smoke=True) == [{"scale": 0.5}]
    assert TOY.points(smoke=True, version="v")[0].params == {
        "values": [1],
        "scale": 2.0,
    }


def test_run_point_passes_seed_and_wraps_tables():
    result = TOY.run_point({"values": [2], "scale": 2.0})
    (table,) = result["tables"]
    from tests._exp_toy import toy_experiment

    expected = toy_experiment(values=[2], scale=2.0, seed=5)
    assert table == expected.to_dict()


def test_point_decomposition_is_bit_identical_to_full_sweep():
    """Running one sweep value at a time and merging equals the full
    sweep in one call — the property the whole orchestrator rests on."""
    merged = assemble(TOY, [TOY.run_point(p) for p in TOY.point_params()])
    from tests._exp_toy import toy_experiment

    full = toy_experiment(values=[1, 2, 3], scale=2.0, seed=5)
    assert len(merged) == 1
    assert merged[0].to_dict() == full.to_dict()


def test_assemble_multi_table_and_notes_from_last_point():
    spec = ExperimentSpec(
        name="pair",
        fn_ref="tests._exp_toy:toy_pair",
        sweep_param="values",
        sweep_values=(1, 2),
        seed=0,
    )
    results = [spec.run_point(p) for p in spec.point_params()]
    a, b = assemble(spec, results)
    assert [r[0] for r in a.rows] == [1, 2]
    assert [r[0] for r in b.rows] == [1, 2]
    # toy_experiment writes a note naming its own last value; assembly
    # keeps the final point's note (the full-sweep comparison note)
    merged = assemble(TOY, [TOY.run_point(p) for p in TOY.point_params()])
    assert merged[0].notes == ["last value 3"]


def test_assemble_rejects_mismatched_shapes():
    t1 = Table("T", ["a"])
    t2 = Table("T", ["b"])
    with pytest.raises(ValueError):
        assemble(TOY, [{"tables": [t1.to_dict()]}, {"tables": [t2.to_dict()]}])
    with pytest.raises(ValueError):
        assemble(
            TOY,
            [{"tables": [t1.to_dict()]}, {"tables": [t1.to_dict()] * 2}],
        )
    with pytest.raises(ValueError):
        assemble(TOY, [])


# ----------------------------------------------------------------------
# selection
# ----------------------------------------------------------------------
def test_select_reports_all_unknown_names_at_once():
    with pytest.raises(KeyError) as excinfo:
        select(["fig02", "nope", "fig03", "alsonope"])
    message = excinfo.value.args[0]
    assert "nope" in message and "alsonope" in message


def test_select_default_is_every_experiment_and_get_unknown_raises():
    assert [s.name for s in select()] == [s.name for s in SPECS]
    assert get("fig02") is REGISTRY["fig02"]
    with pytest.raises(KeyError):
        get("figXX")
