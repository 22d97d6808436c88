"""Helpers shared by the workloads: statistics, set-up probes, metrics."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from tracer import EXPERIMENT_FUNCTIONS, Counters, Tracer, install_layers, totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Spans and counters of traced runs land here (listed in .gitignore).
OUT_DIR = ROOT / ".perfbench_out"
#: Set-up is repeated this many times per run and the median reported.
SETUP_REPEATS = 5
#: A closed-batch run measures at least this many iterations.
MIN_ITERATIONS = 3
#: Registered caches reported by the cache layer (absent ones read 0).
CACHE_NAMES = ("equilibria", "class_caps", "maxmin_profiles",
               "partition_outcomes", "service_populations")
#: Per-layer metrics measured from the request stream of ``service_mixed``;
#: the closed-batch workloads send no requests, so they read 0 there.
REQUEST_METRICS = ("protocol.bytes_out", "scheduler.wait_s",
                   "scheduler.engine_solves", "scheduler.coalesce_rate",
                   "scheduler.union_points_per_request", "server.other_s",
                   "loadgen.requests", "loadgen.late_ms",
                   "loadgen.conn_wait_ms")
#: Floats in stored references must match to this (absolute or relative).
FLOAT_TOLERANCE = 1e-9


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env() -> Dict[str, str]:
    """Environment for the program's processes: sources on the path, and no
    ``REPRO_*`` overrides, so the default configuration is measured."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def timed_setup_probes(workload: str, seed: int,
                       repeats: int = SETUP_REPEATS) -> List[float]:
    """Wall seconds of ``repeats`` fresh processes that only set up."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"),
                        "--setup-probe", "--workload", workload,
                        "--seed", str(seed)],
                       check=True, cwd=ROOT, env=child_env(),
                       stdout=subprocess.DEVNULL, timeout=120)
        samples.append(time.perf_counter() - start)
    return samples


def diff_values(expected: Any, actual: Any, path: str = "$") -> List[str]:
    """Differences between two decoded JSON values: floats within
    :data:`FLOAT_TOLERANCE`, everything else (partitions included) exact.

    Deliberately not ``repro.runner.compare``: the check must not depend on
    the program it checks.
    """
    if isinstance(expected, float) or isinstance(actual, float):
        if (isinstance(expected, (int, float)) and isinstance(actual, (int, float))
                and not isinstance(expected, bool) and not isinstance(actual, bool)):
            left, right = float(expected), float(actual)
            if left == right or (math.isnan(left) and math.isnan(right)):
                return []
            if (math.isfinite(left) and math.isfinite(right)
                    and abs(left - right) <= FLOAT_TOLERANCE * max(
                        1.0, abs(left), abs(right))):
                return []
        return [f"{path}: {expected!r} != {actual!r}"]
    if type(expected) is not type(actual):
        return [f"{path}: {expected!r} != {actual!r}"]
    if isinstance(expected, dict):
        if set(expected) != set(actual):
            return [f"{path}: keys {sorted(expected)} != {sorted(actual)}"]
        return [line for key in sorted(expected)
                for line in diff_values(expected[key], actual[key],
                                        f"{path}.{key}")]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        return [line for index, (left, right) in enumerate(zip(expected, actual))
                for line in diff_values(left, right, f"{path}[{index}]")]
    return [] if expected == actual else [f"{path}: {expected!r} != {actual!r}"]


def cache_counters(stats: Mapping[str, Mapping[str, Any]]
                   ) -> Dict[str, Dict[str, int]]:
    """Hits, misses and evictions of each reported cache."""
    result = {}
    for name in CACHE_NAMES:
        entry = stats.get(name, {})
        result[name] = {
            "hits": int(entry.get("hits", 0)),
            "misses": int(entry.get("misses", 0)),
            "evictions": int(entry.get("evictions_maxsize", 0))
            + int(entry.get("evictions_bytes", 0)),
        }
    return result


def cache_delta(before: Mapping[str, Mapping[str, int]],
                after: Mapping[str, Mapping[str, int]]
                ) -> Dict[str, Dict[str, int]]:
    return {name: {key: after[name][key] - before[name][key]
                   for key in after[name]} for name in after}


def layer_metrics(counters: Counters,
                  caches: Mapping[str, Mapping[str, int]]) -> Dict[str, float]:
    """Per-layer metrics that every workload derives the same way."""
    ns = 1e-9
    metrics: Dict[str, float] = {}
    metrics["workloads.build_s"] = totals(counters, "workloads.build")[1] * ns
    calls, inclusive, _, _ = totals(counters, "equilibrium.profile_build")
    metrics["equilibrium.profile_builds"] = calls
    metrics["equilibrium.profile_build_s"] = inclusive * ns
    solves, inclusive, _, _ = totals(counters, "equilibrium.cap_solve")
    evaluations = totals(counters, "equilibrium.carried_eval")[0]
    metrics["equilibrium.cap_solves"] = solves
    metrics["equilibrium.cap_solve_s"] = inclusive * ns
    metrics["equilibrium.carried_evals"] = evaluations
    metrics["equilibrium.evals_per_solve"] = (evaluations / solves
                                              if solves else 0.0)
    metrics["equilibrium.materialize_s"] = totals(
        counters, "equilibrium.solve_common_caps")[2] * ns
    metrics["batch.solve_s"] = totals(counters, "batch.solve")[1] * ns
    requested = totals(counters, "batch.warm")[3]
    solved = totals(counters, "batch.solve", parents=("batch.warm",))[3]
    metrics["batch.warm_points_requested"] = requested
    metrics["batch.warm_points_solved"] = solved
    metrics["batch.warm_solved_frac"] = solved / requested if requested else 0.0
    for name in CACHE_NAMES:
        entry = caches.get(name, {"hits": 0, "misses": 0, "evictions": 0})
        lookups = entry["hits"] + entry["misses"]
        metrics[f"cache.{name}.hits"] = entry["hits"]
        metrics[f"cache.{name}.misses"] = entry["misses"]
        metrics[f"cache.{name}.hit_rate"] = (entry["hits"] / lookups
                                             if lookups else 0.0)
        metrics[f"cache.{name}.evictions"] = entry["evictions"]
    for label, span in (("competitive", "core.competitive"),
                        ("nash", "core.nash"),
                        ("market_split", "core.market_split")):
        calls, inclusive, _, _ = totals(counters, span)
        metrics[f"core.{label}_calls"] = calls
        metrics[f"core.{label}_s"] = inclusive * ns
    probes = totals(counters, "core.share_probe")[0]
    splits = metrics["core.market_split_calls"]
    metrics["core.share_probes"] = probes
    metrics["core.probes_per_split"] = probes / splits if splits else 0.0
    for experiment_id, _ in EXPERIMENT_FUNCTIONS:
        metrics[f"experiments.{experiment_id}_s"] = totals(
            counters, f"experiments.{experiment_id}")[1] * ns
    metrics["protocol.parse_s"] = totals(counters, "protocol.parse")[1] * ns
    metrics["protocol.response_s"] = (
        totals(counters, "protocol.build_response")[1]
        + totals(counters, "protocol.write_response")[1]) * ns
    return metrics


def count_signature(counters: Counters,
                    caches: Mapping[str, Mapping[str, int]]) -> Dict[str, Any]:
    """The exact counts two traced runs of one seed must share."""
    return {
        "calls": {f"{name}<{parent}": [entry[0], entry[3]]
                  for (name, parent), entry in sorted(counters.items())},
        "caches": {name: {"hits": value["hits"], "misses": value["misses"]}
                   for name, value in sorted(caches.items())},
    }


def source_digest() -> str:
    """Digest naming the counts a run must repeat: the program's sources,
    the benchmark's own files, and the Python and numpy versions."""
    import numpy

    digest = hashlib.sha256()
    digest.update(f"{sys.version}|{numpy.__version__}".encode("utf-8"))
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def repeat_problems(workload: str, seed: int,
                    signatures: List[Dict[str, Any]]) -> List[str]:
    """Counts must repeat exactly: across the traced iterations of this run,
    and against an earlier traced run of the same seed and sources."""
    if any(signature != signatures[0] for signature in signatures[1:]):
        return ["traced counts differ between iterations"]
    problems = []
    path = OUT_DIR / f"{workload}-{seed}-{source_digest()}-counts.json"
    if path.exists():
        if load_json(path) != signatures[0]:
            problems.append(f"traced counts differ from the earlier run in "
                            f"{path.name}")
    else:
        write_json(path, signatures[0])
    return problems


def write_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


class RunResult:
    """What one workload run reports back to :mod:`run`.

    ``attempted`` counts operations (iterations or requests); ``failed``
    counts those that failed or whose outputs failed a check, and
    ``problems`` says why.
    """

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, problems: Sequence[str]) -> None:
        """Count one operation and the problems found with it."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def load_json(path: Path) -> Any:
    return json.loads(path.read_text(encoding="utf-8"))


#: One closed-batch iteration: ``(wall seconds, problems)``.
Step = Callable[[], Tuple[float, List[str]]]


def _iterate(seconds: float, minimum: int, result: RunResult, step: Step,
             after: Callable[[], None] | None = None) -> List[float]:
    """Run ``step`` at least ``minimum`` times, and then while one more
    iteration of median length still ends within ``seconds``."""
    walls: List[float] = []
    began = time.perf_counter()
    while (len(walls) < minimum
           or time.perf_counter() - began + median(walls) <= seconds):
        wall, problems = step()
        result.record(problems)
        walls.append(wall)
        if after is not None:
            after()
    return walls


def run_batch(workload: str, seed: int, seconds: float, trace: bool,
              setup: Callable[[int], None], step: Step) -> RunResult:
    """Measure a closed-batch workload: iterations for ``seconds``.

    Untraced, it reports the end-to-end metrics over at least
    :data:`MIN_ITERATIONS` iterations; ``wall_s`` is their median (on a
    shared host the fastest iteration moved more between runs).  Traced, it
    gives half of ``seconds`` to an untraced pass (for the overhead) and
    half to at least two traced iterations, reports the median of each
    per-layer metric over them, and fails the run unless every traced
    iteration gave the same counts.
    """
    result = RunResult()
    if not trace:
        setup_samples = timed_setup_probes(workload, seed)
        setup(seed)
        walls = _iterate(seconds, MIN_ITERATIONS, result, step)
        result.metrics.update({
            "setup_s": median(setup_samples),
            "wall_s": median(walls),
            "p50_ms": percentile(walls, 0.50) * 1e3,
            "p99_ms": percentile(walls, 0.99) * 1e3,
            "throughput_rps": len(walls) / sum(walls),
            "peak_rss_mb": peak_rss_mb(),
        })
        return result

    from repro.cache import all_cache_stats, clear_all_caches

    # Set-up runs traced only to time its population builds; the untraced
    # pass then runs with every wrapper removed.
    tracer = Tracer()
    install_layers(tracer)
    tracer.recording = True
    setup(seed)
    tracer.recording = False
    setup_build_ns = totals(tracer.counters(), "workloads.build")[1]
    tracer.uninstall()
    walls = _iterate(seconds / 2, 1, result, step)
    install_layers(tracer)
    per_iteration: List[Dict[str, float]] = []
    signatures: List[Dict[str, Any]] = []

    def start() -> None:
        clear_all_caches()
        tracer.reset()
        tracer.recording = True

    def finish() -> None:
        tracer.recording = False
        counters = tracer.counters()
        caches = cache_counters(all_cache_stats())
        per_iteration.append(layer_metrics(counters, caches))
        signatures.append(count_signature(counters, caches))
        tracer.write_spans(str(OUT_DIR / f"{workload}-{seed}-iter"
                               f"{len(signatures)}-spans.jsonl"))
        start()

    OUT_DIR.mkdir(exist_ok=True)
    try:
        start()
        traced_walls = _iterate(seconds / 2, 2, result, step, finish)
    finally:
        tracer.recording = False
        tracer.uninstall()
    result.record(repeat_problems(workload, seed, signatures))
    for name in per_iteration[0]:
        result.metrics[name] = median([entry[name] for entry in per_iteration])
    result.metrics.update(dict.fromkeys(REQUEST_METRICS, 0.0))
    result.metrics["workloads.build_s"] += setup_build_ns * 1e-9
    overhead = median(traced_walls) - median(walls)
    result.metrics["trace_overhead.wall_s"] = overhead
    result.metrics["trace_overhead.p50_ms"] = overhead * 1e3
    result.metrics["trace_overhead.throughput_rps"] = (
        len(traced_walls) / sum(traced_walls) - len(walls) / sum(walls))
    return result
