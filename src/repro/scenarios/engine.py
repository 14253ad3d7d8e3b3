"""Scenario specs and the matrix runner.

A :class:`Scenario` is a declarative, JSON-friendly description of one run:
*family* x *constructor* x *algorithm*, plus generator parameters, a part
family and a seed.  :func:`run_scenario` executes one spec;
:func:`run_matrix` sweeps a full family-by-constructor grid through a
shared :class:`InstanceCache`; :func:`scenario_matrix` builds the default
sweep (every registered family crossed with every applicable constructor).

:func:`run_matrix` takes ``jobs=N`` to fan the sweep out over a process
pool (one :class:`InstanceCache` per worker process, results in the same
deterministic order as the serial sweep).  ``python -m repro.scenarios`` is
the command-line entry point over these functions.

Scenarios whose workload drives the CONGEST simulator (the ``mst``
algorithm's BFS build and result broadcast) accept a simulator mode:
``simulator_cls`` selects between the active-set default, the full-scan
:class:`~repro.congest.reference.ReferenceSimulator` and the vectorized
:class:`~repro.congest.runtime.RuntimeSimulator`; ``runtime=True`` on
:func:`run_scenario` / :func:`run_matrix` (and ``--simulator runtime`` on
the CLI) is shorthand for the latter.  All three modes produce identical
records -- only the wall-clock differs (see ``docs/simulator.md``).

Those same simulated phases accept seeded fault injection: ``faults`` (a
:class:`~repro.congest.faults.FaultModel` or a spec string such as
``"drop=0.05,crash=0.01:8"``) plus ``fault_seed`` on :func:`run_scenario` /
:func:`run_matrix` (``--faults`` / ``--fault-seed`` on the CLI).  Fault
decisions are pure hashes of (seed, round, edge), so a faulty sweep is as
deterministic -- and as pool-safe under ``jobs=N`` -- as a fail-free one,
and identical across all three simulator modes.  A null model (all rates
zero) is normalised away and reproduces fail-free records byte-for-byte.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..congest.faults import FaultModel, parse_fault_spec
from ..congest.runtime import RuntimeSimulator
from ..congest.simulator import CongestSimulator
from .instances import InstanceCache, ScenarioInstance
from .registry import (
    algorithm,
    applicable_constructors,
    constructor,
    family,
    family_names,
)

__all__ = [
    "Scenario",
    "ScenarioRecord",
    "build_instance",
    "run_matrix",
    "run_scenario",
    "scenario_matrix",
]


@dataclass(frozen=True)
class Scenario:
    """A declarative spec for one runnable scenario.

    Attributes:
        name: free-form label recorded in the result.
        family: registry name of the graph family.
        constructor: registry name of the shortcut construction.
        algorithm: registry name of the workload (default: quality sweep).
        params: family generator parameters (merged over the family
            defaults).
        parts: part-family spec, e.g. ``{"kind": "tree_fragments",
            "num_parts": 6}``.
        algorithm_params: extra keyword arguments for the algorithm runner
            (e.g. ``{"epsilon": 0.5}`` for min-cut).
        seed: the seed shared by the generator and the workload.
        native: build the instance CSR-first through the family's
            ``native_build`` (see :class:`~repro.scenarios.registry.FamilySpec`);
            this admits sizes the ``nx`` generator path cannot.
    """

    name: str
    family: str
    constructor: str
    algorithm: str = "quality"
    params: Mapping[str, object] = field(default_factory=dict)
    parts: Mapping[str, object] = field(default_factory=lambda: {"kind": "tree_fragments"})
    algorithm_params: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0
    native: bool = False

    def describe(self) -> dict[str, object]:
        described = {
            "scenario": self.name,
            "family": self.family,
            "constructor": self.constructor,
            "algorithm": self.algorithm,
            "params": dict(self.params),
            "parts": dict(self.parts),
            "algorithm_params": dict(self.algorithm_params),
            "seed": self.seed,
        }
        if self.native:
            # Only stamped when set, so pre-native records stay byte-identical.
            described["native"] = True
        return described


@dataclass
class ScenarioRecord:
    """The JSON-friendly outcome of one scenario run."""

    scenario: dict[str, object]
    instance: dict[str, object]
    applicable: bool
    result: dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        return {
            **self.scenario,
            "instance": self.instance,
            "applicable": self.applicable,
            "result": dict(self.result),
        }


def build_instance(
    name: str,
    params: Mapping[str, object] | None = None,
    seed: int = 0,
    cache: InstanceCache | None = None,
    native: bool = False,
) -> ScenarioInstance:
    """Build (or fetch from ``cache``) one instance of a registered family."""
    spec = family(name)
    merged = dict(spec.default_params)
    if params:
        merged.update(params)
    if cache is None:
        return spec.instantiate(merged, seed=seed, native=native)
    return cache.get(
        name,
        merged,
        seed,
        lambda: spec.instantiate(merged, seed=seed, native=native),
        native=native,
    )


def _resolve_faults(faults: FaultModel | str | None) -> FaultModel | None:
    """Normalise a ``faults`` argument: spec strings parse, null models drop.

    Returning None for a null model means the fail-free code path runs
    unchanged, so ``faults="drop=0"`` reproduces a no-faults sweep exactly.
    """
    if faults is None:
        return None
    model = parse_fault_spec(faults) if isinstance(faults, str) else faults
    return None if model.is_null else model


def run_scenario(
    scenario: Scenario,
    cache: InstanceCache | None = None,
    simulator_cls: type[CongestSimulator] = CongestSimulator,
    runtime: bool = False,
    faults: FaultModel | str | None = None,
    fault_seed: int = 0,
) -> ScenarioRecord:
    """Execute one scenario spec and return its record.

    A constructor that is not applicable to the instance (e.g. the planar
    construction on a torus) yields a record with ``applicable=False``
    rather than an exception, so matrix sweeps stay total.

    ``runtime=True`` runs the simulated phases under the vectorized
    :class:`~repro.congest.runtime.RuntimeSimulator` (shorthand for
    ``simulator_cls=RuntimeSimulator``); the record is identical to the
    per-node modes, only faster.

    An active ``faults`` model (or spec string) is handed to the workload
    runner together with ``fault_seed``; a null/absent model is not passed
    at all, so fail-free records are unchanged.  Fault settings already in
    ``scenario.algorithm_params`` win over the call-level arguments.
    """
    if runtime:
        simulator_cls = RuntimeSimulator
    instance = build_instance(
        scenario.family, scenario.params, scenario.seed, cache, native=scenario.native
    )
    spec = constructor(scenario.constructor)
    record = ScenarioRecord(
        scenario=scenario.describe(),
        instance=instance.describe(),
        applicable=spec.applicable(instance),
    )
    if not record.applicable:
        return record
    runner = algorithm(scenario.algorithm)
    if runner.uses_parts:
        parts_spec = dict(scenario.parts)
        kind = str(parts_spec.pop("kind", "tree_fragments"))
        parts = instance.parts(kind, **parts_spec)
    else:
        parts = ()
    algorithm_params = dict(scenario.algorithm_params)
    model = _resolve_faults(faults)
    if model is not None:
        algorithm_params.setdefault("faults", model)
        algorithm_params.setdefault("fault_seed", fault_seed)
    record.result = runner.run(
        instance,
        instance.tree,
        parts,
        spec.builder_for(instance),
        seed=scenario.seed,
        simulator_cls=simulator_cls,
        **algorithm_params,
    )
    return record


def scenario_matrix(
    families: Sequence[str] | None = None,
    constructors: Sequence[str] | None = None,
    algorithm_name: str = "quality",
    size: str = "default",
    seed: int = 0,
    parts: Mapping[str, object] | None = None,
    algorithm_params: Mapping[str, object] | None = None,
    cache: InstanceCache | None = None,
    native: bool = False,
) -> list[Scenario]:
    """Build the scenario grid: families x constructors (applicable only).

    Args:
        families: family names (default: every registered family, or --
            with ``native=True`` -- every family carrying a native builder).
        constructors: constructor names to try (default: every registered
            constructor); constructors inapplicable to a family's instance
            are skipped.
        algorithm_name: workload to run on every cell.
        size: ``"default"`` or ``"tiny"`` (the family's CI smoke sizes).
        seed: shared generator/workload seed.
        parts: part-family spec shared by all cells.
        algorithm_params: extra algorithm keyword arguments for all cells.
        cache: pass the cache later handed to :func:`run_matrix` so the
            applicability probe instances are built only once.
        native: build every cell's instance CSR-first (families without a
            ``native_build`` fail loudly when named explicitly).
    """
    if size not in ("default", "tiny"):
        raise ValueError(f"size must be 'default' or 'tiny', got {size!r}")
    if constructors is not None:
        for name in constructors:
            constructor(name)  # typo'd names fail loudly, not as an empty sweep
    if families is not None:
        chosen = list(families)
    elif native:
        chosen = [
            name for name in family_names() if family(name).native_build is not None
        ]
    else:
        chosen = family_names()
    scenarios: list[Scenario] = []
    for family_name in chosen:
        spec = family(family_name)
        params = dict(spec.tiny_params if size == "tiny" else spec.default_params)
        probe = build_instance(family_name, params, seed, cache, native=native)
        names = applicable_constructors(probe)
        if constructors is not None:
            names = [name for name in constructors if name in names]
        for constructor_name in names:
            scenarios.append(Scenario(
                name=f"{family_name}/{constructor_name}/{algorithm_name}",
                family=family_name,
                constructor=constructor_name,
                algorithm=algorithm_name,
                params=params,
                parts=dict(parts) if parts is not None else {"kind": "tree_fragments"},
                algorithm_params=dict(algorithm_params) if algorithm_params else {},
                seed=seed,
                native=native,
            ))
    return scenarios


# Per-worker-process instance cache for parallel sweeps: tasks landing on the
# same worker share generated instances (and their GraphViews) just like a
# serial sweep shares one InstanceCache.
_WORKER_CACHE: InstanceCache | None = None


def _run_scenario_job(
    payload: tuple[Scenario, type, FaultModel | None, int]
) -> dict[str, object]:
    global _WORKER_CACHE
    scenario, simulator_cls, faults, fault_seed = payload
    if _WORKER_CACHE is None:
        _WORKER_CACHE = InstanceCache()
    return run_scenario(
        scenario,
        cache=_WORKER_CACHE,
        simulator_cls=simulator_cls,
        faults=faults,
        fault_seed=fault_seed,
    ).as_dict()


def run_matrix(
    scenarios: Iterable[Scenario],
    cache: InstanceCache | None = None,
    simulator_cls: type[CongestSimulator] = CongestSimulator,
    jobs: int = 1,
    runtime: bool = False,
    faults: FaultModel | str | None = None,
    fault_seed: int = 0,
) -> list[dict[str, object]]:
    """Run every scenario through a shared instance cache; return JSON records.

    With ``jobs > 1`` the scenarios are distributed over a process pool; each
    worker keeps its own :class:`InstanceCache` for the sweep, and the
    records come back in the same order as ``scenarios`` (scenario execution
    is deterministic, so the parallel sweep is record-for-record identical
    to the serial one).  ``runtime=True`` is shorthand for
    ``simulator_cls=RuntimeSimulator`` (simulator classes pickle by
    reference, so the runtime mode fans out over the pool like the others).

    ``faults``/``fault_seed`` apply one seeded fault model to every cell's
    simulated phases.  Fault decisions are stateless hashes, and the resolved
    :class:`~repro.congest.faults.FaultModel` (a frozen dataclass) pickles
    into the workers, so a faulty parallel sweep remains record-for-record
    identical to the serial one.
    """
    if runtime:
        simulator_cls = RuntimeSimulator
    model = _resolve_faults(faults)
    scenarios = list(scenarios)
    if jobs is not None and jobs > 1 and len(scenarios) > 1:
        payloads = [(scenario, simulator_cls, model, fault_seed) for scenario in scenarios]
        with ProcessPoolExecutor(max_workers=min(jobs, len(scenarios))) as pool:
            return list(pool.map(_run_scenario_job, payloads))
    cache = cache if cache is not None else InstanceCache()
    return [
        run_scenario(
            scenario,
            cache=cache,
            simulator_cls=simulator_cls,
            faults=model,
            fault_seed=fault_seed,
        ).as_dict()
        for scenario in scenarios
    ]
