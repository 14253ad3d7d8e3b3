"""Scenario benchmark: end-to-end metrics and a traced per-layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload mst-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--workload`` is ``mst-grid``, ``family-sweep``, ``fault-mst`` or ``all``
(each workload then runs in its own process, one after the other).  With
``--trace 0`` the run reports the end-to-end metrics of ``BENCHMARK.json``,
scenario times in reference seconds (see :mod:`reference`).
With ``--trace 1`` every unit runs twice, once plainly and once with the
per-layer wrappers of :mod:`ledger` installed; the two records must be
identical, and the run reports the per-layer metrics.  Every scenario's
output is checked; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("mst-grid", "family-sweep", "fault-mst")
# Warm-ups whose median is the warm-up part of ``setup_s``: one in the
# benchmark's process and the rest in fresh child processes, since first-call
# costs are paid once per process.
WARMUPS = 5
# Layers whose self time gets a log-log scaling exponent on two-size workloads.
SLOPED = ("congest.aggregation", "shortcuts.engine", "algorithms.mst")


def git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint() -> dict[str, object]:
    """Versions and sources the numbers depend on, to compare checkouts."""
    import networkx
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


class AggregateCapture:
    """Keeps the last call of the registry's ``partwise_aggregate``.

    The ``aggregate`` algorithm's record holds only rounds and messages;
    the capture lets the check compare the aggregated values themselves
    with a direct per-part minimum.
    """

    def __init__(self) -> None:
        self.last = None
        self._original = None

    def install(self) -> None:
        from repro.scenarios import registry

        self._original = original = registry.partwise_aggregate

        def capturing(shortcut, values, *args, **kwargs):
            result = original(shortcut, values, *args, **kwargs)
            self.last = (shortcut, values, result)
            return result

        registry.partwise_aggregate = capturing

    def uninstall(self) -> None:
        from repro.scenarios import registry

        registry.partwise_aggregate = self._original


class Run:
    """Counts, checks and timings of one benchmark process."""

    def __init__(self) -> None:
        self.capture = AggregateCapture()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.exact = {"mst_rounds": 0, "shortcut_quality": 0, "sim_messages": 0}

    def setup(self, jobs_for, cache):
        from workloads import prepare

        jobs = jobs_for(cache)
        return jobs, [prepare(job, cache) for job in jobs]

    def execute(self, jobs, instances, cache, ledger=None, probe=None) -> list[tuple]:
        """Run ``jobs``; return ``(record or error, seconds, aggregated)`` each.

        With a ``probe``, the reference kernel runs after each scenario,
        outside its timing.
        """
        outputs = []
        for job, instance in zip(jobs, instances):
            self.capture.last = None
            started = time.perf_counter()
            try:
                if ledger is None:
                    record = job.run(cache)
                else:
                    record = ledger.scenario(lambda: job.run(cache), instance.num_nodes)
            except Exception as error:  # a raising scenario is a counted failure
                record = error
            seconds = time.perf_counter() - started
            outputs.append((record, seconds, self.capture.last))
            if probe is not None:
                probe.after(seconds)
        return outputs

    def judge(self, jobs, instances, outputs, exact: bool) -> None:
        from workloads import check, exact_counts

        for job, instance, (record, _seconds, aggregated) in zip(jobs, instances, outputs):
            self.attempted += 1
            if isinstance(record, Exception):
                problems = [f"{job.scenario.name}: raised {record!r}"]
            else:
                problems = check(job, instance, record, aggregated)
                if exact:
                    for key, value in exact_counts(job, record).items():
                        self.exact[key] += value
            if problems:
                self.failed += 1
                self.problems.extend(problems)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def comparable(record) -> object:
    """A record without its wall-clock field, for traced/untraced equality."""
    if isinstance(record, Exception):
        return repr(record)
    data = record.as_dict()
    data["result"].pop("sim_seconds", None)
    return data


def seconds_of(outputs) -> list[float]:
    return [seconds for _record, seconds, _aggregated in outputs]


def warm_up(run: Run, workload) -> float:
    """Run one small scenario of each kind; return its reference seconds.

    The scenarios pay the first-call costs (lazy imports such as scipy's
    csgraph) before any unit is timed.
    """
    from reference import SpeedProbe
    from repro.scenarios import InstanceCache

    started = time.perf_counter()
    cache = InstanceCache()
    jobs, instances = run.setup(workload.warmup_jobs, cache)
    run.judge(jobs, instances, run.execute(jobs, instances, cache), exact=False)
    seconds = time.perf_counter() - started
    probe = SpeedProbe()
    probe.after(seconds)
    return seconds / probe.slowdowns[0]


def fresh_warm_up(name: str) -> float:
    """The warm-up of ``name`` in a new process, which it waits for."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--warm-up-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(completed.stdout.split()[-1])


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Warm up, then run units until ``seconds`` have passed; return results."""
    sys.path.insert(0, str(ROOT / "src"))
    from ledger import Ledger
    from reference import SpeedProbe
    from repro.scenarios import InstanceCache
    from workloads import WORKLOADS, unit_seed

    workload = WORKLOADS[name]
    run = Run()
    run.capture.install()
    ledger = Ledger() if trace else None
    setups: list[float] = []
    scenario_s: list[float] = []
    is_latency: list[bool] = []
    plain_s = traced_s = 0.0
    try:
        warmups = [warm_up(run, workload)]
        if not trace:
            warmups += [fresh_warm_up(name) for _ in range(WARMUPS - 1)]
        warmup_s = statistics.median(warmups)
        probe = None if trace else SpeedProbe()

        unit_walls: list[float] = []
        begun = time.perf_counter()
        index = 0
        # The exact metrics need the first ``exact_units`` units; the traced
        # run reports none of them, so one unit is its minimum.
        minimum = 1 if trace else workload.exact_units
        while index < minimum or (
            time.perf_counter() - begun + statistics.fmean(unit_walls) <= seconds
        ):
            unit_started = time.perf_counter()
            jobs_for = workload.jobs_for(unit_seed(seed, index))
            if not trace:
                cache = InstanceCache()
                jobs, instances = run.setup(jobs_for, cache)
                setups.append(time.perf_counter() - unit_started)
                outputs = run.execute(jobs, instances, cache, probe=probe)
                scenario_s.extend(seconds_of(outputs))
                is_latency.extend(workload.latency_job(job) for job in jobs)
                run.judge(jobs, instances, outputs, exact=index < workload.exact_units)
            else:
                plain, traced = traced_unit(run, ledger, jobs_for, index)
                plain_s += sum(seconds_of(plain))
                traced_s += sum(seconds_of(traced))
            unit_walls.append(time.perf_counter() - unit_started)
            index += 1
    finally:
        run.capture.uninstall()

    summary = {
        "workload": name,
        "seed": seed,
        "units": index,
        "attempted": run.attempted,
        "failed": run.failed,
        "env": fingerprint(),
    }
    if trace:
        metrics = layer_metrics(ledger, workload, plain_s, traced_s)
        summary["ledger"] = ledger
    else:
        # Scenario times in reference seconds: each divided by how much
        # slower than nominal the reference kernel ran right after it.  Unit
        # set-ups are too short for a batch of their own; they are divided
        # by the run's slowdown.
        probe.settle()
        reference_s = [t / slow for t, slow in zip(scenario_s, probe.slowdowns)]
        reference_latencies = [t for t, flag in zip(reference_s, is_latency) if flag]
        wall_latencies = [t for t, flag in zip(scenario_s, is_latency) if flag]
        setup_s = warmup_s + statistics.median(setups) / probe.overall()
        metrics = {
            "setup_s": (setup_s, "s"),
            "scenarios_per_ref_s": (len(reference_s) / sum(reference_s), "1/s"),
            "scenario_ref_s.p50": (statistics.median(reference_latencies), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "mst_rounds": (run.exact["mst_rounds"], "count"),
            "shortcut_quality": (run.exact["shortcut_quality"], "count"),
            "sim_messages": (run.exact["sim_messages"], "count"),
        }
        summary["warmup_s"] = warmup_s
        summary["latencies"] = len(reference_latencies)
        summary["slowdown"] = probe.overall()
        summary["probe_calls"] = probe.calls
        summary["scenarios_per_s"] = len(scenario_s) / sum(scenario_s)
        summary["scenario_s.p50"] = statistics.median(wall_latencies)
        if len(wall_latencies) >= 100:
            summary["scenario_s.p90"] = statistics.quantiles(wall_latencies, n=10)[-1]
    return {"summary": summary, "problems": run.problems, "metrics": metrics}


def traced_unit(run, ledger, jobs_for, index: int):
    """Run one unit plainly and traced on fresh instances; compare records."""
    from repro.scenarios import InstanceCache

    outputs = {}
    # Alternate which pass goes first, so neither always runs on a machine
    # the other has just warmed.
    for traced in (False, True) if index % 2 == 0 else (True, False):
        cache = InstanceCache()
        if traced:
            ledger.install()
        try:
            if traced:
                jobs, instances = ledger.setup(lambda: run.setup(jobs_for, cache))
            else:
                jobs, instances = run.setup(jobs_for, cache)
            outputs[traced] = run.execute(jobs, instances, cache, ledger if traced else None)
        finally:
            if traced:
                ledger.uninstall()
        run.judge(jobs, instances, outputs[traced], exact=False)
    for job, (plain, _, _), (traced, _, _) in zip(jobs, outputs[False], outputs[True]):
        if comparable(plain) != comparable(traced):
            run.fail(f"{job.scenario.name}: traced record differs from the plain one")
    return outputs[False], outputs[True]


def slope(by_size: dict[int, float], counts: dict[int, int]) -> float:
    """Log-log slope of mean self time against n between the extreme sizes."""
    sizes = sorted(n for n in counts if by_size.get(n, 0.0) > 0.0)
    if len(sizes) < 2:
        return 0.0
    low, high = sizes[0], sizes[-1]
    ratio = (by_size[high] / counts[high]) / (by_size[low] / counts[low])
    return math.log(ratio) / math.log(high / low)


# Per-layer metrics report each layer's share of the traced units' wall
# time (set-up plus scenarios), not its seconds: a layer a workload never
# calls would read exactly 0 s on every run, and shares do not move with
# the machine's speed.
LAYERS = (
    "congest.aggregation", "shortcuts.engine", "shortcuts.construct",
    "shortcuts.measure", "shortcuts.validate", "congest.simulate",
    "algorithms.mst", "algorithms.mincut", "algorithms.mincut.exact",
    "algorithms.oracle", "graphs.instance", "structure.spanning",
    "shortcuts.parts", "setup.other", "scenarios.other",
)
# Counters summed over a layer's calls and reported per traced scenario.
COUNTS = (
    ("congest.aggregation", "calls"), ("congest.aggregation", "rounds"),
    ("congest.aggregation", "messages"), ("shortcuts.engine", "calls"),
    ("shortcuts.construct", "calls"), ("congest.simulate", "rounds"),
    ("congest.simulate", "messages"), ("congest.simulate", "dropped"),
    ("algorithms.mst", "phases"),
)


def layer_metrics(ledger, workload, plain_s: float, traced_s: float) -> dict:
    totals = ledger.totals()
    scenarios = len(ledger.sizes)
    wall = ledger.wall()
    metrics = {
        f"{layer}.share": (100 * totals.get(layer, {}).get("s", 0.0) / wall, "%")
        for layer in LAYERS
    }
    for layer, key in COUNTS:
        metrics[f"{layer}.{key}"] = (totals.get(layer, {}).get(key, 0) / scenarios, "count")
    simulate = totals.get("congest.simulate", {})
    messages = simulate.get("messages", 0)
    metrics["congest.simulate.delivered_ratio"] = (
        simulate.get("delivered", 0) / messages if messages else 1.0, "ratio"
    )
    metrics["trace.overhead_s"] = ((traced_s - plain_s) / scenarios, "s")
    by_size = ledger.self_time_by_size()
    counts: dict[int, int] = {}
    for n in ledger.sizes.values():
        counts[n] = counts.get(n, 0) + 1
    for layer in SLOPED:
        value = slope(by_size.get(layer, {}), counts) if len(workload.sides) > 1 else 0.0
        metrics[f"{layer}.slope"] = (value, "exponent")
    return metrics


def print_ledger(ledger) -> None:
    totals = ledger.totals()
    scenarios = len(ledger.sizes)
    wall = ledger.wall()
    print("  layer                              share   self s/scen   calls/scen")
    for layer, entry in sorted(totals.items(), key=lambda item: -item[1]["s"]):
        print(f"    {layer:30s} {100 * entry['s'] / wall:6.2f}% "
              f"{entry['s'] / scenarios:12.6f} {entry['calls'] / scenarios:12.2f}")


def report(result: dict) -> None:
    summary = result["summary"]
    attempted, failed = summary["attempted"], summary["failed"]
    print(
        f"workload {summary['workload']}  seed {summary['seed']}  units {summary['units']}  "
        f"failed {failed} of {attempted} (failed_fraction {failed / max(1, attempted):.4f})"
    )
    print("env " + json.dumps(summary["env"], sort_keys=True))
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    if "latencies" in summary:
        print(f"  (latency over {summary['latencies']} scenarios; "
              f"median warm-up of {WARMUPS} processes, {summary['warmup_s']:.3f} ref s, "
              f"is inside setup_s)")
        print(f"  (reference kernel ran {summary['slowdown']:.3f}x nominal time "
              f"over {summary['probe_calls']} calls; wall-clock figures:)")
        for name in ("scenarios_per_s", "scenario_s.p50", "scenario_s.p90"):
            if name in summary:
                unit = "1/s" if name == "scenarios_per_s" else "s"
                print(f"  {name:34s} {summary[name]:14.6g} {unit}")
    if "ledger" in summary:
        print_ledger(summary["ledger"])
    for problem in result["problems"][:20]:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))


def run_all(args) -> int:
    """Run every workload in its own process, one after the other."""
    status = 0
    for name in NAMES:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False,
        )
        status = status or completed.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--warm-up-only", action="store_true",
                        help="only warm up and print the seconds it took")
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    if args.workload == "all":
        return run_all(args)
    if args.warm_up_only:
        sys.path.insert(0, str(ROOT / "src"))
        from workloads import WORKLOADS

        run = Run()
        run.capture.install()
        seconds = warm_up(run, WORKLOADS[args.workload])
        if run.failed:
            print("\n".join(run.problems), file=sys.stderr)
            return 1
        print(seconds)
        return 0
    report(measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
