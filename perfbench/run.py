"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_games --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end metrics
listed in ``BENCHMARK.json``; ``--trace 1`` also runs a traced pass and
reports the per-layer metrics instead.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are the same metrics as a table.  The exit
code is 0 only when every correctness check held.

``--write-reference`` regenerates ``perfbench/reference/paper_games.json``
from the current program; do that only for a change that is meant to move
the paper's numbers.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_games", "service_mixed")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set the workload up, then exit")
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite the stored paper_games reference")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _program_on_path() -> bool:
    """Put the checkout's ``src/`` first on the path; False if it is absent."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        return False
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(source))
    return True


def _declared_metrics(trace: bool) -> list[dict]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return declared["per_layer" if trace else "end_to_end"]


def _emit(result, declared: list[dict]) -> bool:
    metrics = {}
    missing = []
    for entry in declared:
        name = entry["name"]
        if name not in result.metrics:
            missing.append(name)
            continue
        metrics[name] = {"value": float(result.metrics[name]),
                         "unit": entry["unit"]}
    for problem in result.problems[:20]:
        print(f"check failed: {problem}")
    if missing:
        print(f"check failed: metrics not measured: {', '.join(missing)}")
    correct = not result.problems and not missing and result.failed == 0
    width = max(len(name) for name in metrics) if metrics else 0
    for name, value in metrics.items():
        print(f"{name:<{width}}  {value['value']:>14.6g} {value['unit']}")
    error_frac = result.failed / result.attempted if result.attempted else 1.0
    print(f"{'error_frac':<{width}}  {error_frac:>14.6g} "
          f"({result.failed} failed of {result.attempted} attempted)")
    print(json.dumps({"correct": correct,
                      "attempted": max(1, result.attempted),
                      "failed": result.failed,
                      "metrics": metrics}, sort_keys=False), flush=True)
    return correct


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not _program_on_path():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.write_reference:
        import harness
        import paper_games

        paper_games.setup(args.seed)
        harness.write_json(paper_games.REFERENCE,
                           paper_games.reference_payload())
        return 0
    module = importlib.import_module(args.workload)
    if args.setup_probe:
        module.setup(args.seed)
        return 0
    declared = _declared_metrics(bool(args.trace))
    started = time.perf_counter()
    result = module.run(args.seed, args.seconds, bool(args.trace))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"ran {time.perf_counter() - started:.1f} s")
    return 0 if _emit(result, declared) else 1


if __name__ == "__main__":
    sys.exit(main())
