"""The benchmark's workloads and the checks on their outputs.

A workload is an endless sequence of *units*.  Unit ``i`` of a run with
seed ``s`` uses the unit seed ``s * 1000 + i``: it builds fresh instances
for that seed (set-up, timed apart) and then runs a fixed list of
scenarios through the public scenario API (timed one by one).  The first
``exact_units`` units of every run always execute; the exact metrics are
summed over them, so they do not depend on how fast the machine is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.core import GraphView
from repro.scenarios import (
    InstanceCache,
    Scenario,
    ScenarioInstance,
    algorithm,
    build_instance,
    run_scenario,
    scenario_matrix,
)

FAULTS = "drop=0.05,delay=0.05,crash=0.01"
ALGORITHMS = ("quality", "aggregate", "mst", "mincut")


@dataclass(frozen=True)
class Job:
    """One scenario plus the run options the workload gives it."""

    scenario: Scenario
    runtime: bool = False
    faults: str | None = None
    fault_seed: int = 0

    def run(self, cache: InstanceCache):
        return run_scenario(
            self.scenario,
            cache=cache,
            runtime=self.runtime,
            faults=self.faults,
            fault_seed=self.fault_seed,
        )


def _grid_mst(side: int, seed: int, constructor: str, faults: str | None = None) -> Job:
    scenario = Scenario(
        name=f"planar{side}/{constructor}/mst",
        family="planar",
        constructor=constructor,
        algorithm="mst",
        params={"side": side},
        seed=seed,
        native=True,
    )
    return Job(scenario, runtime=True, faults=faults, fault_seed=seed)


@dataclass(frozen=True)
class Workload:
    name: str
    # Units that every untraced run completes; the exact metrics sum them.
    exact_units: int
    # Grid sides of a unit's scenarios.  With two sides the traced run fits
    # per-layer scaling exponents, and latency is taken at the larger side.
    sides: tuple[int, ...] = ()

    def jobs_for(self, seed: int) -> Callable[[InstanceCache], list[Job]]:
        """The unit with seed ``seed``, as a function of the unit's cache."""

        def jobs(cache: InstanceCache) -> list[Job]:
            if self.name == "mst-grid":
                return [_grid_mst(side, seed, "oblivious") for side in self.sides]
            if self.name == "fault-mst":
                return [_grid_mst(side, seed, "steiner", FAULTS) for side in self.sides]
            # family-sweep: the registry's default matrix; its applicability
            # probe builds every family's instance into ``cache``.
            return [
                Job(scenario)
                for name in ALGORITHMS
                for scenario in scenario_matrix(algorithm_name=name, seed=seed, cache=cache)
            ]

        return jobs

    def warmup_jobs(self, cache: InstanceCache) -> list[Job]:
        """Small jobs of the same kinds, which pay first-call costs."""
        if self.name == "mst-grid":
            return [_grid_mst(8, 0, "oblivious")]
        if self.name == "fault-mst":
            return [_grid_mst(8, 0, "steiner", FAULTS)]
        return [
            Job(scenario)
            for name in ALGORITHMS
            for scenario in scenario_matrix(
                families=["planar"], algorithm_name=name, size="tiny", cache=cache
            )
        ]

    def latency_job(self, job: Job) -> bool:
        """Whether ``job`` counts towards ``scenario_ref_s.p50``."""
        return not self.sides or job.scenario.params["side"] == max(self.sides)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("mst-grid", exact_units=8, sides=(32, 64)),
        Workload("family-sweep", exact_units=10),
        Workload("fault-mst", exact_units=20, sides=(40,)),
    )
}


def unit_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def prepare(job: Job, cache: InstanceCache) -> ScenarioInstance:
    """Build everything ``run_scenario`` would derive lazily for ``job``."""
    scenario = job.scenario
    instance = build_instance(
        scenario.family, scenario.params, scenario.seed, cache, native=scenario.native
    )
    instance.tree
    if algorithm(scenario.algorithm).uses_parts:
        spec = dict(scenario.parts)
        instance.parts(str(spec.pop("kind", "tree_fragments")), **spec)
    if scenario.algorithm in ("mst", "mincut"):
        instance.weighted_graph(scenario.seed)
    return instance


# -- checks -------------------------------------------------------------------


def oracle_mst_weight(weighted) -> float:
    """MST weight from scipy (CSR instances) or networkx (label instances)."""
    if isinstance(weighted, GraphView):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import minimum_spanning_tree

        core = weighted.core
        matrix = csr_matrix(
            (core.weights, core.indices, core.indptr),
            shape=(core.num_nodes, core.num_nodes),
        )
        return float(minimum_spanning_tree(matrix).sum())
    import networkx as nx

    return float(nx.minimum_spanning_tree(weighted).size(weight="weight"))


def check(job: Job, instance: ScenarioInstance, record, aggregated) -> list[str]:
    """Return the problems found in one scenario's record (empty: correct).

    ``aggregated`` is the ``(shortcut, values, result)`` of the scenario's
    part-wise aggregation call, for the ``aggregate`` algorithm.
    """
    name = job.scenario.name
    if not record.applicable:
        return [f"{name}: constructor not applicable"]
    result = record.result
    kind = job.scenario.algorithm
    problems: list[str] = []
    if kind in ("quality", "aggregate"):
        row = result["shortcut"]
        if row["quality"] != row["block"] * row["tree_diameter"] + row["congestion"]:
            problems.append(f"{name}: quality != block * d_T + congestion")
    if kind == "aggregate":
        if aggregated is None:
            return problems + [f"{name}: no aggregation call seen"]
        shortcut, values, outcome = aggregated
        expected = [min(values[node] for node in part) for part in shortcut.parts]
        if list(outcome.values) != expected:
            problems.append(f"{name}: aggregate values differ from per-part minima")
        if outcome.rounds != result["aggregation_rounds"]:
            problems.append(f"{name}: aggregation rounds not the recorded ones")
    if kind == "mst":
        reference = oracle_mst_weight(instance.weighted_graph(job.scenario.seed))
        if not result["weight_matches_reference"]:
            problems.append(f"{name}: record says weight differs from its oracle")
        if abs(result["mst_weight"] - reference) > 1e-9 * max(1.0, abs(reference)):
            problems.append(f"{name}: MST weight {result['mst_weight']} != {reference}")
        if job.faults is not None and result["announce_reached"] > instance.num_nodes:
            problems.append(f"{name}: announce reached more than n nodes")
    if kind == "mincut":
        epsilon = float(job.scenario.algorithm_params.get("epsilon", 1.0))
        ratio = result["approximation_ratio"]
        if not (math.isfinite(ratio) and ratio <= 1.0 + epsilon + 1e-12):
            problems.append(f"{name}: approximation ratio {ratio} > 1 + {epsilon}")
        if result["mincut_value"] < result["mincut_exact"] - 1e-9:
            problems.append(f"{name}: cut below the exact minimum cut")
    return problems


def exact_counts(job: Job, record) -> dict[str, int]:
    """The exact metrics one scenario contributes."""
    result = record.result
    kind = job.scenario.algorithm
    counts = {"mst_rounds": 0, "shortcut_quality": 0, "sim_messages": 0}
    if kind == "quality":
        counts["shortcut_quality"] = result["shortcut"]["quality"]
    if kind == "mst":
        counts["mst_rounds"] = result["mst_rounds"]
        counts["shortcut_quality"] = sum(result["phase_qualities"])
        counts["sim_messages"] = result["sim_messages"]
    return counts
