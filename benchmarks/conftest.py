"""Shared helpers for the benchmark harness.

Every benchmark file regenerates one experiment of DESIGN.md Section 3 (one
per "table/figure", i.e. per quantitative claim of the paper), runs it once
under pytest-benchmark for timing, and prints the measured record so that the
numbers quoted in EXPERIMENTS.md can be regenerated with::

    PYTHONPATH=src pytest benchmarks/ --benchmark-only -s

The experiment functions are thin declarative layers over the scenario
engine (:mod:`repro.scenarios`): instances come from the family registry and
shortcuts from the constructor registry.  ``bench_scenarios.py`` runs the
full family x constructor matrix through the engine's single entry point,
and ``bench_simulator_speedup.py`` gates the active-set simulator's >=2x
speedup over the seed full-scan implementation.

Every ``bench_*_speedup.py`` gate appends its record to a
``benchmarks/BENCH_S<k>.json`` trajectory file through
:func:`append_trajectory`, so speedup regressions are visible across
commits (not just against the gate) from the very first run after a fresh
clone; the E8 fault-degradation sweep does the same into
``benchmarks/BENCH_E8.json``.  The trajectory files are gitignored.

The S3-S5 gates time the package against the seed oracles in
``tests/oracles/``; ``tests/`` goes on ``sys.path`` here so that
``from oracles import ...`` works in the bench files as it does in the
tests.
"""

from __future__ import annotations

import json
import os
import sys
import time

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_BENCH_DIR), "tests"))


def run_experiment(benchmark, function, **kwargs):
    """Run ``function`` once under the benchmark fixture and print its record."""
    result = benchmark.pedantic(lambda: function(**kwargs), rounds=1, iterations=1)
    print()
    print(json.dumps(result, indent=2, default=str))
    return result


def best_of(function, repeats: int):
    """Run ``function`` ``repeats`` times; return (best wall-clock, last result).

    Best-of timing is the protocol every S-series speedup gate uses: it
    keeps the measured ratios stable on noisy shared runners.
    """
    times = []
    result = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        result = function()
        times.append(time.perf_counter() - started)
    return min(times), result


def append_trajectory(name: str, result: dict) -> None:
    """Append ``result`` to ``benchmarks/BENCH_<name>.json``.

    The file holds a JSON list, one record per benchmark run; an unreadable
    or missing file starts a fresh trajectory rather than failing the gate.
    """
    path = os.path.join(_BENCH_DIR, f"BENCH_{name}.json")
    history: list[dict] = []
    if os.path.exists(path):
        try:
            with open(path) as handle:
                history = json.load(handle)
        except (OSError, ValueError):
            history = []
    history.append(result)
    with open(path, "w") as handle:
        json.dump(history, handle, indent=2, sort_keys=True)
        handle.write("\n")
