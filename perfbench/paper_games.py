"""``paper_games``: FIG4, FIG8 and THM5 on the paper's 1000-CP population.

A closed batch: one iteration clears every solver cache, builds the paper
population and runs the three experiments with the parameters of
``benchmarks/bench_fig04_monopoly_price.py``,
``benchmarks/bench_fig08_duopoly_sweep.py`` and
``benchmarks/bench_thm5_public_option_alignment.py``.  Every
``reproduce-all`` user pays the cold-cache cost, so it is measured.

The inputs are the paper's fixed population, so the workload seed does not
change them; the stored reference (``reference/paper_games.json``) pins
the outputs.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

import harness

REFERENCE = Path(__file__).resolve().parent / "reference" / "paper_games.json"

#: (experiment id, experiment function name, keyword arguments).
EXPERIMENTS: Tuple[Tuple[str, str, Dict[str, Any]], ...] = (
    ("FIG4", "figure4_monopoly_price",
     {"nus": (20.0, 50.0, 100.0, 150.0, 200.0),
      "prices": tuple(np.round(np.linspace(0.0, 1.0, 21), 6)),
      "kappa": 1.0}),
    ("FIG8", "figure8_duopoly_capacity",
     {"kappas": (0.3, 0.9), "prices": (0.2, 0.8),
      "nus": tuple(np.round(np.linspace(25.0, 500.0, 9), 6))}),
    ("THM5", "theorem5_public_option_alignment",
     {"nu": 150.0, "kappas": (0.5, 0.75, 1.0),
      "prices": (0.1, 0.3, 0.5, 0.7, 0.9)}),
)

#: The same experiments on one-point grids: exercises every code path once
#: so lazy imports and first-call costs land in set-up, not in iteration 1.
WARM_UP: Dict[str, Dict[str, Any]] = {
    "FIG4": {"nus": (100.0,), "prices": (0.2, 0.8), "kappa": 1.0},
    "FIG8": {"kappas": (0.9,), "prices": (0.8,), "nus": (100.0,)},
    "THM5": {"nu": 150.0, "kappas": (1.0,), "prices": (0.5,)},
}

#: Findings the committed bench files assert, on top of the registry's.
BENCH_ASSERTIONS = {
    "FIG4": ("psi_linear_small_c",
             "monopoly_misaligned_when_capacity_abundant",
             "psi_collapses_at_high_c"),
    "FIG8": ("strategic_isp_capped_near_half_at_large_nu",
             "phi_insensitive_to_strategy"),
    "THM5": ("theorem5_holds_within_tolerance",),
}


def iteration(parameters: Dict[str, Dict[str, Any]] | None = None
              ) -> Tuple[float, Dict[str, Any]]:
    """One cold iteration: ``(wall seconds, results by experiment id)``."""
    from repro.cache import clear_all_caches
    from repro.simulation import experiments
    from repro.workloads.populations import paper_population

    start = time.perf_counter()
    clear_all_caches()
    population = paper_population(count=1000, utility_model="beta_correlated")
    results: Dict[str, Any] = {}
    for experiment_id, function_name, default in EXPERIMENTS:
        params = default if parameters is None else parameters[experiment_id]
        results[experiment_id] = getattr(experiments, function_name)(
            population=population, **params)
    return time.perf_counter() - start, results


def setup(seed: int) -> None:
    """Imports, population build and one warm-up pass (cold caches after)."""
    from repro.cache import clear_all_caches

    del seed  # the paper population is fixed
    iteration(WARM_UP)
    clear_all_caches()


def check(results: Dict[str, Any], reference: Dict[str, Any]) -> List[str]:
    """Problems with one iteration's results (empty when all hold)."""
    from repro.runner.registry import get_spec

    problems = []
    for experiment_id, result in results.items():
        failed = set(get_spec(experiment_id).failed_findings(result))
        failed.update(name for name in BENCH_ASSERTIONS[experiment_id]
                      if result.findings.get(name) is not True)
        problems.extend(f"{experiment_id}: finding {name} does not hold"
                        for name in sorted(failed))
        differences = harness.diff_values(reference[experiment_id],
                                          result.to_dict())
        problems.extend(f"{experiment_id}: {line}" for line in differences[:5])
    return problems


def reference_payload() -> Dict[str, Any]:
    """The reference outputs, as stored in ``reference/paper_games.json``."""
    _, results = iteration()
    return {experiment_id: result.to_dict()
            for experiment_id, result in results.items()}


def run(seed: int, seconds: float, trace: bool) -> harness.RunResult:
    reference = harness.load_json(REFERENCE)

    def step() -> Tuple[float, List[str]]:
        wall, results = iteration()
        return wall, check(results, reference)

    return harness.run_batch("paper_games", seed, seconds, trace, setup, step)
