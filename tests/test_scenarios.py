"""Tests for the scenario engine: registries, caching, matrix runs, CLI."""

import json

import pytest

from repro.errors import InvalidShortcutError
from repro.scenarios import (
    FamilySpec,
    InstanceCache,
    Scenario,
    ScenarioInstance,
    algorithm_names,
    applicable_constructors,
    build_instance,
    constructor,
    constructor_names,
    family,
    family_names,
    register_constructor,
    register_family,
    run_matrix,
    run_scenario,
    scenario_matrix,
)
from repro.scenarios.__main__ import main as scenarios_main
from repro.congest.reference import ReferenceSimulator


# ---------------------------------------------------------------- registries


def test_all_seven_families_registered():
    assert family_names() == [
        "apex",
        "clique_sum",
        "genus",
        "lower_bound",
        "minor_free",
        "planar",
        "treewidth",
    ]


def test_constructor_and_algorithm_registries():
    assert {"empty", "whole_tree", "steiner", "oblivious"} <= set(constructor_names())
    assert {"planar", "treewidth", "clique_sum", "apex", "genus_vortex", "minor_free"} <= set(
        constructor_names()
    )
    assert algorithm_names() == ["aggregate", "mincut", "mst", "quality"]


def test_unknown_names_raise():
    with pytest.raises(KeyError, match="unknown family"):
        family("nope")
    with pytest.raises(KeyError, match="unknown constructor"):
        constructor("nope")
    with pytest.raises(ValueError, match="already registered"):
        register_family(family("planar"))
    with pytest.raises(ValueError, match="already registered"):
        register_constructor(constructor("steiner"))


def test_family_specific_constructors_require_their_witness():
    planar = build_instance("planar", {"side": 5})
    names = applicable_constructors(planar)
    assert "minor_free" not in names
    assert "apex" not in names
    assert "planar" in names
    genus = build_instance("genus", seed=1)
    assert "genus_vortex" in applicable_constructors(genus)
    assert "planar" not in applicable_constructors(genus)  # torus is non-planar


def test_every_family_admits_at_least_two_constructors():
    for name in family_names():
        instance = build_instance(name, family(name).tiny_params, seed=0)
        assert len(applicable_constructors(instance)) >= 2


# ------------------------------------------------------------------ instances


def test_instance_caches_tree_and_parts():
    instance = build_instance("planar", {"side": 5})
    assert instance.tree is instance.tree
    first = instance.parts("tree_fragments", num_parts=4)
    assert instance.parts("tree_fragments", num_parts=4) is first
    assert instance.parts("tree_fragments", num_parts=5) is not first
    with pytest.raises(ValueError, match="unknown parts kind"):
        instance.parts("nope")


def test_weighted_graph_is_a_seeded_copy():
    instance = build_instance("planar", {"side": 4})
    weighted = instance.weighted_graph(seed=3)
    assert weighted is not instance.graph
    assert weighted is instance.weighted_graph(seed=3)  # cached
    assert weighted is not instance.weighted_graph(seed=4)
    # The shared instance graph stays unweighted.
    u, v = next(iter(instance.graph.edges()))
    assert "weight" not in instance.graph[u][v]
    assert "weight" in weighted[u][v]


def test_instance_cache_deduplicates():
    cache = InstanceCache()
    a = build_instance("treewidth", seed=2, cache=cache)
    b = build_instance("treewidth", seed=2, cache=cache)
    c = build_instance("treewidth", seed=3, cache=cache)
    assert a is b
    assert a is not c
    assert len(cache) == 2
    assert cache.hits == 1
    assert cache.misses == 2


# ------------------------------------------------------------------ running


def test_run_scenario_quality_record_shape():
    record = run_scenario(Scenario(
        name="demo", family="planar", constructor="planar",
        params={"side": 5}, seed=1,
    ))
    payload = record.as_dict()
    assert payload["applicable"] is True
    assert payload["instance"]["n"] == 25
    row = payload["result"]["shortcut"]
    assert set(row) >= {"block", "congestion", "quality", "tree_diameter"}
    json.dumps(payload)  # JSON-friendly end to end


def test_run_scenario_inapplicable_is_recorded_not_raised():
    record = run_scenario(Scenario(
        name="demo", family="planar", constructor="minor_free", params={"side": 4},
    ))
    assert record.applicable is False
    assert record.result == {}


def test_run_scenario_is_deterministic():
    spec = Scenario(
        name="d", family="minor_free", constructor="minor_free",
        algorithm="aggregate", seed=5,
    )
    assert run_scenario(spec).as_dict() == run_scenario(spec).as_dict()


def test_run_scenario_mst_records_telemetry_and_is_simulator_agnostic():
    spec = Scenario(
        name="m", family="planar", constructor="steiner", algorithm="mst",
        params={"side": 5}, seed=2,
    )
    cache = InstanceCache()
    fast = run_scenario(spec, cache=cache).as_dict()["result"]
    slow = run_scenario(spec, cache=cache, simulator_cls=ReferenceSimulator).as_dict()["result"]
    assert fast["weight_matches_reference"]
    assert fast["sim_rounds"] > 0
    assert fast["sim_peak_active_nodes"] == 25
    for key in ("mst_rounds", "mst_phases", "mst_weight", "sim_rounds", "sim_messages"):
        assert fast[key] == slow[key]


def test_scenario_matrix_covers_all_families_through_shared_cache():
    cache = InstanceCache()
    scenarios = scenario_matrix(size="tiny", cache=cache)
    records = run_matrix(scenarios, cache=cache)
    families_seen = {record["family"] for record in records if record["applicable"]}
    assert families_seen == set(family_names())
    # One instance per family, reused across all its constructors.
    assert len(cache) == len(family_names())
    assert cache.hits >= len(records)
    assert all(record["applicable"] for record in records)


def test_scenario_matrix_filters():
    scenarios = scenario_matrix(
        families=["planar", "genus"], constructors=["steiner", "planar"], size="tiny"
    )
    labels = {(s.family, s.constructor) for s in scenarios}
    # planar admits both; the genus instance is non-planar so only steiner.
    assert labels == {("planar", "steiner"), ("planar", "planar"), ("genus", "steiner")}
    with pytest.raises(ValueError, match="size must be"):
        scenario_matrix(size="huge")


def test_custom_registry_entries_flow_into_the_matrix():
    from repro.graphs.planar import cycle_graph
    from repro.scenarios import registry as registry_module

    register_family(FamilySpec(
        name="test_cycle",
        description="cycle used by the registry extension test",
        build=lambda seed=0, n=8: ScenarioInstance(
            "test_cycle", {"n": n}, seed, cycle_graph(n)
        ),
        default_params={"n": 10},
        tiny_params={"n": 6},
    ))
    try:
        records = run_matrix(scenario_matrix(families=["test_cycle"], size="tiny"))
        assert {record["constructor"] for record in records if record["applicable"]} >= {
            "empty", "steiner", "oblivious", "whole_tree",
        }
    finally:
        # Keep the global registry pristine for other tests in this session.
        registry_module._FAMILIES.pop("test_cycle", None)


def test_shortcut_validation_still_guards_scenario_shortcuts():
    instance = build_instance("planar", {"side": 4})
    shortcut = constructor("steiner").build(instance, instance.tree, instance.parts("path"))
    shortcut.validate()
    shortcut.edge_sets[0] = frozenset({(("bogus", 0), ("bogus", 1))})
    with pytest.raises(InvalidShortcutError):
        shortcut.validate()


# ----------------------------------------------------------------------- CLI


def test_cli_list_runs(capsys):
    assert scenarios_main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "families:" in out and "constructors:" in out and "algorithms:" in out


def test_cli_tiny_sweep_writes_json(tmp_path):
    output = tmp_path / "records.json"
    code = scenarios_main([
        "--families", "planar", "treewidth",
        "--constructors", "steiner", "oblivious",
        "--size", "tiny", "--output", str(output),
    ])
    assert code == 0
    records = json.loads(output.read_text())
    assert {record["family"] for record in records} == {"planar", "treewidth"}
    assert all(record["applicable"] for record in records)


def test_parallel_matrix_matches_serial():
    """--jobs N: process-pool sweep, record-for-record identical and ordered."""
    cache = InstanceCache()
    scenarios = scenario_matrix(
        families=["planar", "lower_bound"], size="tiny", cache=cache
    )
    serial = run_matrix(scenarios, cache=cache)
    parallel = run_matrix(scenarios, jobs=2)
    assert parallel == serial


def test_cli_algorithms_and_jobs(tmp_path):
    output = tmp_path / "records.json"
    code = scenarios_main([
        "--families", "planar",
        "--constructors", "empty", "steiner",
        "--algorithms", "quality", "mst",
        "--size", "tiny", "--jobs", "2", "--output", str(output),
    ])
    assert code == 0
    records = json.loads(output.read_text())
    assert [record["scenario"] for record in records] == [
        "planar/empty/quality", "planar/steiner/quality",
        "planar/empty/mst", "planar/steiner/mst",
    ]


def test_cli_rejects_empty_family_filter(capsys):
    with pytest.raises(SystemExit):
        scenarios_main(["--families"])
    assert "expected at least one argument" in capsys.readouterr().err


def test_cli_reports_bad_param_values_as_usage_errors(capsys):
    """A builder's typed error ends the run with exit 2 and one error line."""
    with pytest.raises(SystemExit) as exit_info:
        scenarios_main(["--families", "planar", "--params", "side=0"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == [
        "python -m repro.scenarios: error: InvalidGraphError: grid dimensions must be positive"
    ]


# ---------------------------------------------------------------- native path


def test_build_instance_native_matches_classic_structure():
    native = build_instance("planar", {"side": 7}, seed=3, native=True)
    classic = build_instance("planar", {"side": 7}, seed=3)
    assert native.native and not classic.native
    assert native.view.nodes == classic.view.nodes
    assert native.view.core.indptr.tolist() == classic.view.core.indptr.tolist()
    assert native.view.core.indices.tolist() == classic.view.core.indices.tolist()
    assert native.num_nodes == classic.num_nodes == 49
    assert native.num_edges == classic.num_edges
    # Same spanning tree and parts, derived nx-free on the native side.
    assert native.tree.parent == classic.tree.parent
    assert native.parts("tree_fragments", num_parts=4) == classic.parts(
        "tree_fragments", num_parts=4
    )


def test_instance_cache_keys_native_separately():
    cache = InstanceCache()
    native = build_instance("planar", {"side": 5}, seed=1, cache=cache, native=True)
    classic = build_instance("planar", {"side": 5}, seed=1, cache=cache)
    assert native is not classic
    assert build_instance("planar", {"side": 5}, seed=1, cache=cache, native=True) is native


def test_instantiate_native_without_builder_raises():
    with pytest.raises(ValueError, match="no native"):
        family("treewidth").instantiate(seed=0, native=True)


def test_run_scenario_native_mst_is_nx_free_and_oracle_checked():
    from repro.core import nx_materializations

    scenario = Scenario(
        name="nm", family="planar", constructor="oblivious", algorithm="mst",
        params={"side": 6}, seed=2, native=True,
    )
    before = nx_materializations()
    record = run_scenario(scenario).as_dict()
    assert nx_materializations() == before
    assert record["native"] is True
    assert record["applicable"] is True
    assert record["instance"]["n"] == 36
    result = record["result"]
    assert result["weight_matches_reference"]
    assert result["mst_rounds"] > 0
    assert result["sim_rounds"] > 0


def test_native_mincut_record_says_it_materialised_nx():
    from repro.core import nx_materializations

    def mincut(native):
        return Scenario(
            name="mc", family="planar", constructor="oblivious", algorithm="mincut",
            params={"side": 5}, seed=2, native=native,
        )

    before = nx_materializations()
    native = run_scenario(mincut(True)).as_dict()["result"]
    assert nx_materializations() == before + 1
    assert native["nx_materialised"] is True
    before = nx_materializations()
    classic = run_scenario(mincut(False)).as_dict()["result"]
    assert nx_materializations() == before
    assert "nx_materialised" not in classic


def test_classic_records_do_not_carry_a_native_key():
    record = run_scenario(Scenario(
        name="c", family="planar", constructor="planar", params={"side": 5}, seed=1,
    )).as_dict()
    assert "native" not in record


def test_scenario_matrix_native_defaults_to_native_capable_families():
    scenarios = scenario_matrix(algorithm_name="quality", size="tiny", native=True)
    assert scenarios, "at least one family must have a native builder"
    assert {scenario.family for scenario in scenarios} == {"planar"}
    assert all(scenario.native for scenario in scenarios)


def test_cli_native_sweep_with_param_override(tmp_path):
    output = tmp_path / "records.json"
    code = scenarios_main([
        "--families", "planar", "--constructors", "oblivious",
        "--algorithms", "mst", "--native", "--params", "side=6",
        "--output", str(output),
    ])
    assert code == 0
    records = json.loads(output.read_text())
    assert records and all(record["applicable"] for record in records)
    assert all(record["native"] for record in records)
    assert all(record["instance"]["n"] == 36 for record in records)
