"""``service_mixed``: a mixed request stream against ``serve --port 0``.

The server runs as a subprocess with default flags (through
``server_launcher.py``).  This process is the only client and holds
``CONNECTIONS`` keep-alive connections.  Two phases share one seeded
request stream:

* an **open loop** of Poisson arrivals at ``RATE`` requests per second for
  ``OPEN_SHARE`` of the run; each latency is timed from when the request
  was due, so a stall also delays the requests queued behind it;
* a **closed loop** for the rest: each connection sends its next request
  as soon as the previous reply is read; it gives the throughput.

The request mix (``MIX``) has four kinds:

* ``hot`` (60%): aggregate grids that repeat on resident populations; they
  read the caches and go through the batch window, parsing and
  serialisation;
* ``cold`` (25%): unique 3-point grids on resident populations; they make
  engine solves and cache writes, and over a run they pass the 2048-entry
  ``equilibria`` cache;
* ``new_population`` (10%): a population seed not seen before; it builds
  and sorts a population and passes the 64-entry ``service_populations``
  cache;
* ``detail`` (5%): ``detail: true`` on a hot grid, a streamed ~250 KB body.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import os
import re
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import harness
from tracer import Counters, totals

#: Open-loop arrivals per second: about 40% of the closed-loop capacity of
#: a 2-core box.  At 150 req/s, queueing on the two connections made p99
#: swing by 30% between runs.
RATE = 100.0
#: Keep-alive connections: two, and never more than the cores.
CONNECTIONS = max(1, min(2, len(os.sched_getaffinity(0))))
COUNT = 1000
RESIDENT = 4
HOT_GRIDS = ((50.0, 100.0, 150.0, 200.0), (25.0, 75.0, 125.0, 175.0),
             (40.0, 80.0, 160.0, 320.0), (60.0, 120.0, 240.0, 480.0))
#: Request kinds per block of 20; each block is shuffled, so every 20
#: consecutive requests hold the mix exactly.
MIX = (("hot", 12), ("cold", 5), ("new_population", 2), ("detail", 1))
#: Share of the run given to the open loop; the closed loop gets the rest.
OPEN_SHARE = 0.8
#: Responses of each kind checked against a direct solve, per phase.
SAMPLES_PER_KIND = 3
#: The open loop is cut into this many equal spans for ``p99_ms``.
P99_WINDOWS = 3
#: Closed-loop completions per timed block (``wall_s`` is the median block).
BLOCK = 50
START_TIMEOUT = 60.0
#: A reply slower than this counts as a failed request.
REQUEST_TIMEOUT = 30.0


# --------------------------------------------------------------------- #
# Seeded inputs
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Request:
    index: int
    kind: str
    seed: int
    nus: Tuple[float, ...]
    body: bytes


class RequestStream:
    """The seeded request sequence; equal seeds give equal sequences."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB0]))
        self.resident = tuple(int(value) for value in self._rng.choice(
            2**31, size=RESIDENT, replace=False))
        self._seen = set(self.resident)
        self._kinds: List[str] = []
        self._index = 0

    def _fresh_seed(self) -> int:
        while True:
            candidate = int(self._rng.integers(2**31, 2**32))
            if candidate not in self._seen:
                self._seen.add(candidate)
                return candidate

    def next(self) -> Request:
        if not self._kinds:
            self._kinds = [kind for kind, count in MIX for _ in range(count)]
            self._rng.shuffle(self._kinds)
        kind = self._kinds.pop()
        resident = self.resident[int(self._rng.integers(RESIDENT))]
        hot = HOT_GRIDS[int(self._rng.integers(len(HOT_GRIDS)))]
        if kind == "cold":
            nus = tuple(sorted(round(float(value), 6)
                               for value in self._rng.uniform(10.0, 400.0, 3)))
            request = make_request(self._index, kind, resident, nus)
        elif kind == "new_population":
            request = make_request(self._index, kind, self._fresh_seed(), hot)
        else:
            request = make_request(self._index, kind, resident, hot)
        self._index += 1
        return request


def make_request(index: int, kind: str, seed: int,
                 nus: Tuple[float, ...]) -> Request:
    payload: Dict[str, Any] = {"population": {"count": COUNT, "seed": seed},
                               "nus": list(nus)}
    if kind == "detail":
        payload["detail"] = True
    return Request(index, kind, seed, nus,
                   json.dumps(payload, sort_keys=True).encode("utf-8"))


def arrivals(seed: int, seconds: float) -> List[float]:
    """Poisson arrival offsets (seconds) for the open-loop phase."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA7]))
    offsets = []
    now = float(rng.exponential(1.0 / RATE))
    while now < seconds:
        offsets.append(now)
        now += float(rng.exponential(1.0 / RATE))
    return offsets


def stream_digest(seed: int, count: int = 200) -> str:
    stream = RequestStream(seed)
    digest = hashlib.sha256(repr(arrivals(seed, 2.0)).encode())
    for _ in range(count):
        digest.update(stream.next().body)
    return digest.hexdigest()


# --------------------------------------------------------------------- #
# A minimal HTTP/1.1 keep-alive client
# --------------------------------------------------------------------- #
class Connection:
    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host,
                                                                 self.port)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.writer = self.reader = None

    async def request(self, method: str, path: str, body: bytes = b"",
                      version: str = "HTTP/1.1") -> Tuple[int, bytes]:
        """``(status, body)``; a reply slower than ``REQUEST_TIMEOUT`` raises
        :class:`asyncio.TimeoutError`."""
        return await asyncio.wait_for(self._exchange(method, path, body,
                                                     version),
                                      REQUEST_TIMEOUT)

    async def _exchange(self, method: str, path: str, body: bytes,
                        version: str) -> Tuple[int, bytes]:
        if self.writer is None:
            await self.open()
        assert self.reader is not None and self.writer is not None
        head = (f"{method} {path} {version}\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        headers: Dict[str, str] = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if headers.get("transfer-encoding", "").lower() == "chunked":
            parts = []
            while True:
                size = int((await self.reader.readline()).strip(), 16)
                if size == 0:
                    await self.reader.readline()
                    break
                parts.append(await self.reader.readexactly(size))
                await self.reader.readline()
            payload = b"".join(parts)
        else:
            payload = await self.reader.readexactly(
                int(headers.get("content-length", "0")))
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, payload


# --------------------------------------------------------------------- #
# Server process
# --------------------------------------------------------------------- #
class Server:
    """One ``serve --port 0`` subprocess, optionally traced."""

    def __init__(self, trace_out: Optional[str] = None) -> None:
        command = [sys.executable, str(harness.HERE / "server_launcher.py")]
        if trace_out is not None:
            command += ["--trace-out", trace_out]
        harness.OUT_DIR.mkdir(exist_ok=True)
        self._log = open(harness.OUT_DIR / "server.log", "ab")
        self.process = subprocess.Popen(
            command, cwd=harness.ROOT, env=harness.child_env(),
            stdout=subprocess.PIPE, stderr=self._log)
        try:
            self.host, self.port = self._read_address()
        except BaseException:
            self.stop()
            raise

    def _read_address(self) -> Tuple[str, int]:
        assert self.process.stdout is not None
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(timeout=START_TIMEOUT):
                raise RuntimeError("server did not start in time")
        line = self.process.stdout.readline().decode("utf-8", "replace")
        match = re.search(r"http://([^:/\s]+):(\d+)", line)
        if match is None:
            raise RuntimeError(f"server did not report its address: {line!r}")
        return match.group(1), int(match.group(2))

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


# --------------------------------------------------------------------- #
# Load phases
# --------------------------------------------------------------------- #
@dataclass
class Outcome:
    request: Request
    status: int
    body: bytes
    due: float
    late: float
    sent: float
    done: float


@dataclass
class PhaseLog:
    outcomes: List[Outcome] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0


async def _send(connection: Connection, request: Request, due: float,
                late: float, log: PhaseLog) -> None:
    sent = time.perf_counter()
    try:
        status, body = await connection.request("POST", "/solve",
                                                request.body)
    except (ConnectionError, OSError, asyncio.IncompleteReadError,
            asyncio.TimeoutError, ValueError) as error:
        await connection.close()
        log.errors.append(f"request {request.index}: {error!r}")
        return
    log.outcomes.append(Outcome(request, status, body, due, late, sent,
                                time.perf_counter()))


async def open_loop(connections: List[Connection], stream: RequestStream,
                    offsets: List[float]) -> PhaseLog:
    log = PhaseLog()
    queue: "asyncio.Queue[Optional[Tuple[float, float, Request]]]" = (
        asyncio.Queue())
    requests = [stream.next() for _ in offsets]

    async def dispatch() -> None:
        for offset, request in zip(offsets, requests):
            due = log.started + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((due, time.perf_counter() - due, request))
        for _ in connections:
            queue.put_nowait(None)

    async def work(connection: Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            due, late, request = item
            await _send(connection, request, due, late, log)

    log.started = time.perf_counter()
    await asyncio.gather(dispatch(), *(work(c) for c in connections))
    log.ended = time.perf_counter()
    return log


async def closed_loop(connections: List[Connection], stream: RequestStream,
                      seconds: float) -> PhaseLog:
    log = PhaseLog()

    async def work(connection: Connection) -> None:
        while time.perf_counter() < log.started + seconds:
            request = stream.next()
            now = time.perf_counter()
            await _send(connection, request, now, 0.0, log)

    log.started = time.perf_counter()
    await asyncio.gather(*(work(c) for c in connections))
    log.ended = time.perf_counter()
    return log


async def _stats(connection: Connection) -> Dict[str, Any]:
    status, body = await connection.request("GET", "/stats")
    if status != 200:
        raise RuntimeError(f"/stats answered {status}")
    return json.loads(body)


async def _warm_up(connections: List[Connection],
                   stream: RequestStream) -> List[str]:
    """One request of each kind; hot grids made resident. Returns problems."""
    requests = [make_request(-1, "hot", seed, grid)
                for seed in stream.resident for grid in HOT_GRIDS]
    requests += [make_request(-1, "cold", stream.resident[0], (33.0, 66.0, 99.0)),
                 make_request(-1, "new_population", 2**32 + 1, HOT_GRIDS[0]),
                 make_request(-1, "detail", stream.resident[0], HOT_GRIDS[0])]
    log = PhaseLog()
    for request in requests:
        await _send(connections[0], request, 0.0, 0.0, log)
    return log.errors + [f"warm-up {o.request.kind} answered {o.status}"
                         for o in log.outcomes if o.status != 200]


async def _set_up(server_trace: Optional[str], stream: RequestStream
                  ) -> Tuple[Server, List[Connection], float]:
    """Start a server, connect and warm up; returns the set-up seconds."""
    began = time.perf_counter()
    server = Server(server_trace)
    try:
        connections = [Connection(server.host, server.port)
                       for _ in range(CONNECTIONS)]
        for connection in connections:
            await connection.open()
        problems = await _warm_up(connections, stream)
        if problems:
            raise RuntimeError("; ".join(problems))
    except BaseException:
        server.stop()
        raise
    return server, connections, time.perf_counter() - began


# --------------------------------------------------------------------- #
# Checks
# --------------------------------------------------------------------- #
def _expected(request: Request) -> Dict[str, Any]:
    from repro.simulation.batch import solve_rate_equilibria
    from repro.workloads.populations import paper_population

    population = paper_population(count=COUNT, seed=request.seed)
    batch = solve_rate_equilibria(population, request.nus)
    expected: Dict[str, Any] = {
        "fingerprint": population.fingerprint().hex(),
        "nus": list(request.nus),
        "series": {
            "aggregate_rates": batch.aggregate_rates.tolist(),
            "utilizations": batch.utilizations.tolist(),
            "consumer_surpluses": batch.consumer_surpluses().tolist(),
        },
    }
    if request.kind == "detail":
        expected["providers"] = {
            "thetas": batch.thetas.tolist(),
            "demands": batch.demands.tolist(),
            "per_capita_rates": batch.per_capita_rates.tolist(),
        }
    return expected


def check_outcome(outcome: Outcome, exact: bool) -> List[str]:
    """Problems with one response; ``exact`` compares it bit for bit with
    a direct ``solve_rate_equilibria`` call."""
    label = f"request {outcome.request.index} ({outcome.request.kind})"
    if outcome.status != 200:
        return [f"{label}: status {outcome.status}"]
    if not exact and outcome.request.kind == "detail":
        return []
    try:
        payload = json.loads(outcome.body)
    except ValueError:
        return [f"{label}: body is not JSON"]
    if payload.get("nus") != list(outcome.request.nus):
        return [f"{label}: grid differs from the request"]
    if not exact:
        return []
    expected = _expected(outcome.request)
    served = {key: payload.get(key) for key in expected}
    if "series" in served and isinstance(served["series"], dict):
        served["series"] = {key: served["series"].get(key)
                            for key in expected["series"]}
    if served != expected:
        return [f"{label}: differs from a direct solve"]
    return []


def check_phase(log: PhaseLog) -> Tuple[int, List[str]]:
    """``(failed requests, problems)``; samples each kind exactly."""
    taken: Dict[str, int] = {}
    failed = len(log.errors)
    problems = list(log.errors)
    for outcome in log.outcomes:
        kind = outcome.request.kind
        exact = taken.get(kind, 0) < SAMPLES_PER_KIND
        if exact:
            taken[kind] = taken.get(kind, 0) + 1
        found = check_outcome(outcome, exact)
        if found:
            failed += 1
            problems.extend(found)
    missing = [kind for kind, _ in MIX if taken.get(kind, 0) == 0]
    if missing:
        problems.append(f"no {', '.join(missing)} response was checked")
    return failed, problems


async def check_streaming(connection: Connection,
                          stream: RequestStream) -> List[str]:
    """A streamed detail body decodes to the buffered (HTTP/1.0) body."""
    request = make_request(-1, "detail", stream.resident[1], HOT_GRIDS[1])
    status, streamed = await connection.request("POST", "/solve", request.body)
    buffer = Connection(connection.host, connection.port)
    try:
        buffered_status, buffered = await buffer.request(
            "POST", "/solve", request.body, version="HTTP/1.0")
    finally:
        await buffer.close()
    if status != 200 or buffered_status != 200:
        return [f"detail answered {status} streamed, {buffered_status} buffered"]
    left, right = json.loads(streamed), json.loads(buffered)
    left.pop("served", None)
    right.pop("served", None)
    return [] if left == right else ["streamed detail body differs from "
                                     "the buffered body"]


# --------------------------------------------------------------------- #
# One measured session against one server
# --------------------------------------------------------------------- #
@dataclass
class Session:
    open_log: PhaseLog
    closed_log: PhaseLog
    stats_before: Dict[str, Any]
    stats_after: Dict[str, Any]
    peak_rss_mb: float
    trace: Optional[Dict[str, Any]] = None


async def session(seed: int, seconds: float, traced: bool,
                  result: harness.RunResult,
                  setup_samples: List[float]) -> Session:
    stream = RequestStream(seed)
    trace_path = (str(harness.OUT_DIR / f"service_mixed-{seed}-server-trace.json")
                  if traced else None)
    for _ in range(len(setup_samples), harness.SETUP_REPEATS - 1):
        server, connections, elapsed = await _set_up(None, RequestStream(seed))
        for connection in connections:
            await connection.close()
        server.stop()
        setup_samples.append(elapsed)
    if trace_path is not None:
        # A trace left by an earlier run must not stand in for this one.
        Path(trace_path).unlink(missing_ok=True)
    server, connections, elapsed = await _set_up(trace_path, stream)
    setup_samples.append(elapsed)
    try:
        result.record(await check_streaming(connections[0], stream))
        before = await _stats(connections[0])
        if traced:
            server.process.send_signal(signal.SIGUSR1)
            await asyncio.sleep(0.1)
        open_log = await open_loop(connections, stream,
                                   arrivals(seed, seconds * OPEN_SHARE))
        closed_log = await closed_loop(connections, stream,
                                       seconds * (1.0 - OPEN_SHARE))
        if traced:
            server.process.send_signal(signal.SIGUSR2)
            await asyncio.sleep(0.1)
        after = await _stats(connections[0])
        peak = server.peak_rss_mb()
    finally:
        for connection in connections:
            await connection.close()
        server.stop()
    trace = None
    if trace_path is not None:
        if not Path(trace_path).is_file():
            raise RuntimeError("the traced server wrote no trace")
        trace = harness.load_json(Path(trace_path))
    for log in (open_log, closed_log):
        failed, problems = check_phase(log)
        result.attempted += len(log.outcomes) + len(log.errors)
        result.failed += failed
        result.problems.extend(problems)
    return Session(open_log, closed_log, before, after, peak, trace)


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #
def _throughput(log: PhaseLog) -> float:
    return len(log.outcomes) / (log.ended - log.started)


def _block_seconds(log: PhaseLog) -> float:
    """Median seconds per ``BLOCK`` closed-loop completions."""
    ends = sorted(outcome.done for outcome in log.outcomes)
    marks = [log.started] + ends[BLOCK - 1::BLOCK]
    return harness.median([b - a for a, b in zip(marks, marks[1:])])


def _windowed_p99_ms(log: PhaseLog) -> float:
    """Median over ``P99_WINDOWS`` equal spans of the open loop of each
    span's p99 latency: one host stall moves one window, not the metric."""
    span = (log.ended - log.started) / P99_WINDOWS
    windows: List[List[float]] = [[] for _ in range(P99_WINDOWS)]
    for outcome in log.outcomes:
        index = min(P99_WINDOWS - 1, int((outcome.due - log.started) / span))
        windows[index].append((outcome.done - outcome.due) * 1e3)
    return harness.median([harness.percentile(window, 0.99)
                           for window in windows if window])


def end_to_end(measured: Session, setup_samples: List[float]
               ) -> Dict[str, float]:
    latencies = [(outcome.done - outcome.due) * 1e3
                 for outcome in measured.open_log.outcomes]
    return {
        "setup_s": harness.median(setup_samples),
        "wall_s": _block_seconds(measured.closed_log),
        "p50_ms": harness.percentile(latencies, 0.50),
        "p99_ms": _windowed_p99_ms(measured.open_log),
        "throughput_rps": _throughput(measured.closed_log),
        "peak_rss_mb": measured.peak_rss_mb,
    }


def _wait_ns(spans: List[List[Any]]) -> int:
    """Time requests spent in the scheduler outside their engine solve.

    The engine (``batch.warm`` on the solver thread) that served a request
    is the last one to end before the request's ``scheduler.solve`` span
    ends; the rest of that span is the batch window plus the executor
    queue.
    """
    engines = sorted((end, start) for _id, parent, name, start, end in spans
                     if name == "batch.warm" and parent == 0)
    ends = [end for end, _ in engines]
    total = 0
    for _id, _parent, name, start, end in spans:
        if name != "scheduler.solve":
            continue
        index = bisect.bisect_right(ends, end) - 1
        overlap = 0
        if index >= 0:
            engine_end, engine_start = engines[index]
            overlap = max(0, min(end, engine_end) - max(start, engine_start))
        total += (end - start) - overlap
    return total


def per_layer(traced_session: Session, baseline: Session) -> Dict[str, float]:
    trace = traced_session.trace
    assert trace is not None, "a traced session carries the server trace"
    counters: Counters = {(name, parent): [calls, inclusive, self_ns, units]
                          for name, parent, calls, inclusive, self_ns, units
                          in trace["counters"]}
    caches = harness.cache_delta(
        harness.cache_counters(traced_session.stats_before["caches"]),
        harness.cache_counters(traced_session.stats_after["caches"]))
    metrics = harness.layer_metrics(counters, caches)
    ns = 1e-9
    scheduled = totals(counters, "scheduler.solve")[1] * ns
    outcomes = (traced_session.open_log.outcomes
                + traced_session.closed_log.outcomes)
    client_s = sum(outcome.done - outcome.sent for outcome in outcomes)
    before = traced_session.stats_before["scheduler"]
    after = traced_session.stats_after["scheduler"]
    requests = max(1, after["requests"] - before["requests"])
    open_outcomes = traced_session.open_log.outcomes
    metrics.update({
        "protocol.bytes_out": sum(len(outcome.body) for outcome in outcomes),
        "scheduler.wait_s": _wait_ns(trace["spans"]) * ns,
        "scheduler.engine_solves": after["engine_solves"]
        - before["engine_solves"],
        "scheduler.coalesce_rate": (after["coalesced"] - before["coalesced"])
        / requests,
        "scheduler.union_points_per_request": (
            after["union_points"] - before["union_points"]) / requests,
        "server.other_s": client_s - metrics["protocol.parse_s"]
        - metrics["protocol.response_s"] - scheduled,
        "loadgen.requests": len(outcomes),
        "loadgen.late_ms": harness.percentile(
            [outcome.late * 1e3 for outcome in open_outcomes], 0.99),
        "loadgen.conn_wait_ms": harness.percentile(
            [(outcome.sent - outcome.due - outcome.late) * 1e3
             for outcome in open_outcomes], 0.99),
    })
    traced_e2e = end_to_end(traced_session, [0.0])
    base_e2e = end_to_end(baseline, [0.0])
    for name in ("wall_s", "p50_ms", "throughput_rps"):
        metrics[f"trace_overhead.{name}"] = traced_e2e[name] - base_e2e[name]
    return metrics


async def _run(seed: int, seconds: float, trace: bool) -> harness.RunResult:
    result = harness.RunResult()
    digest = stream_digest(seed)
    if digest != stream_digest(seed) or digest == stream_digest(seed + 1):
        result.problems.append("request stream is not a function of the seed")
    setup_samples: List[float] = []
    measured = await session(seed, seconds, False, result, setup_samples)
    if not trace:
        result.metrics.update(end_to_end(measured, setup_samples))
        return result
    traced_session = await session(seed, seconds, True, result,
                                   setup_samples)
    result.metrics.update(per_layer(traced_session, measured))
    return result


def run(seed: int, seconds: float, trace: bool) -> harness.RunResult:
    return asyncio.run(_run(seed, seconds, trace))
