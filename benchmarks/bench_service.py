"""SERVICE — concurrent serving workloads through the equilibrium server.

Spins up in-process :class:`~repro.service.server.EquilibriumServer`
instances on ephemeral ports and replays deterministic request streams
(see :mod:`repro.service.loadgen`) across three key distributions:

* ``hot``   — identical requests: in-flight coalescing should collapse a
  thundering herd to one engine solve per batch window;
* ``cold``  — per-request unique grids: no coalescing, but micro-batching
  still fuses compatible grids into union solves;
* ``mixed`` — 80% hot / 20% cold, the realistic in-between;
* ``naive_hot`` — the hot workload against a ``naive=True`` server (one
  ``solve_rate_equilibria`` per request, no windows, no coalescing, no
  warm caches): the baseline that prices the serving layer.

Throughput, p50/p99 latency and the coalesce rate of every workload are
recorded in ``BENCH_summary.json`` under the nested ``service`` entry that
``scripts/bench_compare.py`` gates, together with the headline
``speedup_hot_vs_naive`` ratio.  The ISSUE's acceptance bar is asserted
here: the coalescing/batched server must beat the naive baseline by >= 3x
on the hot-key workload of the same benchmark run.

The streaming axis (``service_streaming``) runs against real ``serve``
subprocesses and pins the peak RSS of a server streaming 10^5-CP
``detail: true`` responses to < 2x a no-detail baseline.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from conftest import record_benchmark

from repro.service.loadgen import run_loadgen
from repro.service.server import EquilibriumServer

#: Workload shape: enough concurrent identical requests for coalescing to
#: dominate, small enough to keep the whole benchmark in seconds.
_REQUESTS = 240
_CONCURRENCY = 40
_POPULATION_COUNT = 1000
_WINDOW_SECONDS = 0.002

#: CP count of the streaming-RSS comparison; large enough that a buffered
#: ``detail: true`` body would visibly move the server's peak RSS.
_STREAM_COUNT = 100_000

_BANNER = re.compile(r"serving on http://([\d.]+):(\d+)")


class _ServerProcess:
    """A ``repro-netneutrality serve`` subprocess on an ephemeral port.

    Out-of-process on purpose: the streaming-RSS axis needs a clean
    per-server peak-RSS reading (``VmHWM`` of an in-process server would be
    polluted by the benchmark harness itself).
    """

    def __init__(self) -> None:
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True, cwd=str(root))
        assert self.process.stdout is not None
        banner = self.process.stdout.readline()
        match = _BANNER.search(banner)
        if match is None:
            self.process.kill()
            raise RuntimeError(f"no serving banner, got {banner!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def peak_rss_bytes(self) -> int:
        """The server process's high-water RSS (``VmHWM``) in bytes."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+)\s*kB", status)
        if match is None:  # pragma: no cover - Linux always reports VmHWM
            raise RuntimeError("no VmHWM in /proc status")
        return int(match.group(1)) * 1024

    def stop(self) -> int:
        self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - drain hang
            self.process.kill()
            self.process.wait()
            return -9


async def _run_workload(distribution: str, *, naive: bool) -> dict:
    """One workload against a fresh in-process server on an ephemeral port.

    A fresh server (and the autouse cold-caches fixture) means every
    workload starts with cold solver caches — the hot workload's speedup
    comes from coalescing/batching plus the warmth *it* creates, not from
    a predecessor's leftovers.
    """
    server = EquilibriumServer(port=0, window_seconds=_WINDOW_SECONDS,
                               naive=naive)
    await server.start()
    serve_task = asyncio.create_task(server.serve_until_closed())
    host, port = server.address
    try:
        return await run_loadgen(
            host, port, distribution=distribution, requests=_REQUESTS,
            concurrency=_CONCURRENCY, count=_POPULATION_COUNT)
    finally:
        await server.close()
        await serve_task


def test_service_serving_workloads():
    from repro.cache import clear_all_caches

    workloads: dict[str, dict] = {}
    started = time.perf_counter()
    for name, distribution, naive in (
            ("hot", "hot", False),
            ("cold", "cold", False),
            ("mixed", "mixed", False),
            ("naive_hot", "hot", True)):
        clear_all_caches()  # cold start for every workload, incl. the naive
        workloads[name] = asyncio.run(_run_workload(distribution,
                                                    naive=naive))
    elapsed = time.perf_counter() - started

    speedup = (workloads["naive_hot"]["seconds"]
               / workloads["hot"]["seconds"])
    record_benchmark("service", elapsed, extra={
        "workloads": workloads,
        "speedup_hot_vs_naive": speedup,
        "window_seconds": _WINDOW_SECONDS,
        "population_count": _POPULATION_COUNT,
    })

    # The serving layer's reason to exist, measured in this same run:
    # coalescing + micro-batching beat one-solve-per-request by >= 3x on
    # the hot-key workload.
    assert speedup >= 3.0, (
        f"hot workload only {speedup:.2f}x faster than the naive baseline")
    # Coalescing must actually engage on hot keys...
    assert workloads["hot"]["coalesced"] > 0
    assert workloads["hot"]["coalesce_rate"] > 0.5
    # ...and by construction cannot engage on cold keys.
    assert workloads["cold"]["coalesced"] == 0
    # Micro-batching fuses cold compatible grids into union solves.
    assert workloads["cold"]["engine_solves"] < _REQUESTS
    # Every request of every workload succeeded.
    assert all(w["errors"] == 0 for w in workloads.values())


def test_service_streaming_rss():
    """Streamed ``detail: true`` responses must not balloon the server.

    Two fresh subprocess servers solve the same 10^5-CP
    workload; one answers plain requests, the other streams full
    per-provider detail (~tens of MB of JSON per response).  Chunked
    streaming keeps the peak RSS (``VmHWM``) of the detail server below
    2x the no-detail baseline — a fully-buffered body would not.
    """
    peaks: dict[str, int] = {}
    reports: dict[str, dict] = {}
    started = time.perf_counter()
    for name, detail in (("plain", False), ("detail_stream", True)):
        server = _ServerProcess()
        try:
            reports[name] = asyncio.run(run_loadgen(
                server.host, server.port, distribution="hot", requests=4,
                concurrency=2, count=_STREAM_COUNT, detail=detail))
            peaks[name] = server.peak_rss_bytes()
        finally:
            exit_code = server.stop()
        assert exit_code == 0
        assert reports[name]["errors"] == 0
    elapsed = time.perf_counter() - started

    ratio = peaks["detail_stream"] / peaks["plain"]
    record_benchmark("service_streaming", elapsed, extra={
        "population_count": _STREAM_COUNT,
        "peak_rss_bytes": peaks,
        "detail_vs_plain_rss_ratio": ratio,
        "p99_ms": {name: report["p99_ms"]
                   for name, report in reports.items()},
    })
    assert ratio < 2.0, (
        f"streamed detail responses drove peak RSS to {ratio:.2f}x the "
        f"no-detail baseline")
