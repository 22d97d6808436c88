#!/usr/bin/env python
"""Diff two ``BENCH_summary.json`` files and fail on performance regression.

Usage::

    python scripts/bench_compare.py baseline.json current.json \
        [--threshold 1.25] [--min-seconds 0.05]

Prints a per-benchmark table (baseline seconds, current seconds, ratio) and
exits non-zero when any benchmark slowed down by more than ``--threshold``
(a ratio: 1.25 means "25% slower fails").  Benchmarks faster than
``--min-seconds`` in both runs are ignored — their timings are noise.
Benchmarks present in only one file are reported but by default never fail
the check, so adding or retiring benchmarks does not break CI; pass
``--require-baseline`` to instead exit with status 3 when a baseline
benchmark is missing from the current run (a renamed or deleted benchmark
would otherwise silently drop out of the regression gate).

When both summaries carry the equilibrium server's nested ``service``
entry (written by ``benchmarks/bench_service.py``), its per-workload
latency/throughput metrics are gated too: p99 may not grow by more than
``--service-threshold`` (default: ``--threshold``) and throughput may not
shrink by more than the same factor.  p99 comparisons where both sides are
below ``--service-min-ms`` are ignored as noise, mirroring
``--min-seconds``.  Summaries without a ``service`` entry skip the section
cleanly — the serving gate never fails a run that did not measure serving.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_timings(path: Path) -> dict[str, float]:
    """Per-benchmark wall times from a summary file.

    Accepts both the harness schema (``{"benchmarks": {name: {"seconds":
    s}}}``) and a flat ``{name: seconds}`` mapping, so hand-written
    baselines work too.
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"bench_compare: cannot read {path}: {error}")
    entries = payload.get("benchmarks", payload) if isinstance(payload, dict) \
        else None
    if not isinstance(entries, dict):
        raise SystemExit(f"bench_compare: {path} is not a benchmark summary")
    timings: dict[str, float] = {}
    for name, value in entries.items():
        if name in ("schema", "caches", "note"):
            # Harness metadata, not benchmarks — a flat file copied from the
            # harness schema must not grow a fake benchmark named "schema".
            continue
        if isinstance(value, dict):
            value = value.get("seconds")
        if isinstance(value, (int, float)):
            timings[name] = float(value)
    return timings


def compare(baseline: dict[str, float], current: dict[str, float],
            threshold: float, min_seconds: float) -> tuple[list[str], bool]:
    """Render the comparison table; returns (lines, any_regression)."""
    names = sorted(set(baseline) | set(current))
    width = max([len(name) for name in names] + [12])
    header = (f"{'benchmark':<{width}} {'baseline':>10} {'current':>10} "
              f"{'ratio':>8}  status")
    lines = [header, "-" * len(header)]
    regressed = False
    for name in names:
        before = baseline.get(name)
        after = current.get(name)
        if before is None or after is None:
            status = "baseline-only" if after is None else "new"
            shown = before if before is not None else after
            lines.append(f"{name:<{width}} "
                         f"{(before if before is not None else float('nan')):>10.3f} "
                         f"{(after if after is not None else float('nan')):>10.3f} "
                         f"{'':>8}  {status} ({shown:.3f}s)")
            continue
        ratio = after / before if before > 0 else float("inf")
        if max(before, after) < min_seconds:
            status = "ignored (below min-seconds)"
        elif ratio > threshold:
            status = f"REGRESSION (>{threshold:g}x)"
            regressed = True
        elif ratio < 1.0 / threshold:
            status = "improved"
        else:
            status = "ok"
        lines.append(f"{name:<{width}} {before:>10.3f} {after:>10.3f} "
                     f"{ratio:>8.3f}  {status}")
    return lines, regressed


def load_service_workloads(path: Path) -> dict[str, dict] | None:
    """The nested ``service`` entry's per-workload metrics, or ``None``.

    Returns ``None`` (the section is skipped, never failed) when the
    summary has no ``service`` benchmark or its shape predates the serving
    harness.
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict):
        return None
    entries = payload.get("benchmarks", payload)
    if not isinstance(entries, dict):
        return None
    entry = entries.get("service")
    if not isinstance(entry, dict):
        return None
    workloads = entry.get("workloads")
    if not isinstance(workloads, dict):
        return None
    return {name: metrics for name, metrics in workloads.items()
            if isinstance(metrics, dict)}


def compare_service(baseline: dict[str, dict], current: dict[str, dict],
                    threshold: float, min_ms: float
                    ) -> tuple[list[str], bool]:
    """Gate the service workloads' p99 latency and throughput.

    A workload regresses when its p99 grows by more than ``threshold`` (and
    at least one side is >= ``min_ms``), or its throughput shrinks by more
    than the same factor.  Workloads present on only one side are reported
    but never fail.
    """
    names = sorted(set(baseline) | set(current))
    width = max([len(name) for name in names] + [10])
    header = (f"{'workload':<{width}} {'p99 base':>10} {'p99 cur':>10} "
              f"{'rps base':>10} {'rps cur':>10}  status")
    lines = [header, "-" * len(header)]
    regressed = False
    for name in names:
        before = baseline.get(name)
        after = current.get(name)
        if before is None or after is None:
            status = "baseline-only" if after is None else "new"
            lines.append(f"{name:<{width}} {'':>10} {'':>10} {'':>10} "
                         f"{'':>10}  {status}")
            continue
        p99_before = float(before.get("p99_ms", 0.0))
        p99_after = float(after.get("p99_ms", 0.0))
        rps_before = float(before.get("throughput_rps", 0.0))
        rps_after = float(after.get("throughput_rps", 0.0))
        problems = []
        if max(p99_before, p99_after) >= min_ms:
            p99_ratio = (p99_after / p99_before if p99_before > 0
                         else float("inf"))
            if p99_ratio > threshold:
                problems.append(f"p99 {p99_ratio:.2f}x")
        if rps_before > 0 and rps_after < rps_before / threshold:
            problems.append(
                f"throughput {rps_after / rps_before:.2f}x")
        if problems:
            status = f"REGRESSION ({', '.join(problems)})"
            regressed = True
        else:
            status = "ok"
        lines.append(f"{name:<{width}} {p99_before:>10.2f} "
                     f"{p99_after:>10.2f} {rps_before:>10.1f} "
                     f"{rps_after:>10.1f}  {status}")
    return lines, regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when benchmarks regressed between two summaries.")
    parser.add_argument("baseline", type=Path,
                        help="BENCH_summary.json of the reference run")
    parser.add_argument("current", type=Path,
                        help="BENCH_summary.json of the run under test")
    parser.add_argument("--threshold", type=float, default=1.25,
                        help="failure ratio current/baseline (default 1.25)")
    parser.add_argument("--min-seconds", type=float, default=0.05,
                        help="ignore benchmarks faster than this in both runs")
    parser.add_argument("--require-baseline", action="store_true",
                        help="exit 3 when a baseline benchmark is missing "
                             "from the current run (default: report only)")
    parser.add_argument("--service-threshold", type=float, default=None,
                        help="failure ratio for the service entry's p99 "
                             "latency growth / throughput shrink (default: "
                             "--threshold)")
    parser.add_argument("--service-min-ms", type=float, default=1.0,
                        help="ignore service p99 comparisons where both "
                             "runs are below this many milliseconds "
                             "(default 1.0)")
    args = parser.parse_args(argv)
    if args.threshold <= 1.0:
        parser.error("--threshold must be > 1.0")
    service_threshold = (args.service_threshold
                         if args.service_threshold is not None
                         else args.threshold)
    if service_threshold <= 1.0:
        parser.error("--service-threshold must be > 1.0")
    baseline = load_timings(args.baseline)
    current = load_timings(args.current)
    lines, regressed = compare(baseline, current, args.threshold,
                               args.min_seconds)
    print("\n".join(lines))
    service_baseline = load_service_workloads(args.baseline)
    service_current = load_service_workloads(args.current)
    if service_baseline is not None and service_current is not None:
        service_lines, service_regressed = compare_service(
            service_baseline, service_current, service_threshold,
            args.service_min_ms)
        print("\nservice workloads:")
        print("\n".join(service_lines))
        regressed = regressed or service_regressed
    else:
        missing_side = ("both" if service_baseline is None
                        and service_current is None
                        else "baseline" if service_baseline is None
                        else "current")
        print(f"\nservice workloads: no entry in {missing_side} "
              "summary; section skipped")
    missing = sorted(set(baseline) - set(current))
    if regressed:
        print(f"\nFAIL: at least one benchmark slowed by more than "
              f"{args.threshold:g}x", file=sys.stderr)
        return 1
    if args.require_baseline and missing:
        # Distinct exit code: coverage loss, not a timing regression.
        print("\nFAIL: baseline benchmarks missing from the current run: "
              + ", ".join(missing), file=sys.stderr)
        return 3
    print("\nOK: no benchmark regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
