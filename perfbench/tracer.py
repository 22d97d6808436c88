"""Span tracer that times the program's layers from outside the program.

The benchmark never edits ``src/``: it replaces public functions and
methods of the program with timing wrappers at run time.  A function that
other modules import by name (``from repro.core.migration import
solve_market_split``) is replaced under *every* name that a loaded
``repro`` module binds it to, because the caller resolves its own module
global, not the defining module's attribute.

Each recorded call is a span ``(id, parent id, name, start ns, end ns)``
kept in memory and written out by :meth:`Tracer.write_spans`.  Alongside
the spans the tracer keeps counters per ``(name, parent name)``: calls,
inclusive time, self time (inclusive time minus the time of child spans)
and an optional work size (for example grid points).  Calls into the
hottest kernels are *leaf* wrappers: they count and time but store no span
object, which keeps the half-million carried-load evaluations of one
duopoly sweep cheap to trace.

The current span lives in a :class:`contextvars.ContextVar`, so spans nest
correctly inside asyncio tasks as well as in plain threads.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_now = time.perf_counter_ns

#: (name, parent name) -> [calls, inclusive ns, self ns, units]
Counters = Dict[Tuple[str, str], List[int]]


class _Span:
    __slots__ = ("span_id", "name", "child_ns")

    def __init__(self, span_id: int, name: str) -> None:
        self.span_id = span_id
        self.name = name
        self.child_ns = 0


_CURRENT: "contextvars.ContextVar[Optional[_Span]]" = contextvars.ContextVar(
    "perfbench_current_span", default=None)


class Tracer:
    """Wraps program callables and records spans and counters while on."""

    def __init__(self) -> None:
        self.recording = False
        self.spans: List[Tuple[int, int, str, int, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._all_counters: List[Counters] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Counters
    # ------------------------------------------------------------------ #
    def _counters(self) -> Counters:
        counters = getattr(self._local, "counters", None)
        if counters is None:
            counters = {}
            self._local.counters = counters
            with self._lock:
                self._all_counters.append(counters)
        return counters

    def _count(self, name: str, parent: Optional[_Span], inclusive: int,
               self_ns: int, units: int) -> None:
        key = (name, parent.name if parent is not None else "")
        counters = self._counters()
        entry = counters.get(key)
        if entry is None:
            counters[key] = [1, inclusive, self_ns, units]
        else:
            entry[0] += 1
            entry[1] += inclusive
            entry[2] += self_ns
            entry[3] += units
        if parent is not None:
            parent.child_ns += inclusive

    def counters(self) -> Counters:
        """Counters merged over every thread that recorded."""
        merged: Counters = {}
        with self._lock:
            sources = list(self._all_counters)
        for counters in sources:
            for key, (calls, inclusive, self_ns, units) in list(counters.items()):
                entry = merged.setdefault(key, [0, 0, 0, 0])
                entry[0] += calls
                entry[1] += inclusive
                entry[2] += self_ns
                entry[3] += units
        return merged

    def reset(self) -> None:
        """Drop every counter and span recorded so far."""
        with self._lock:
            for counters in self._all_counters:
                counters.clear()
        self.spans.clear()

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #
    def wrap(self, name: str, function: Callable[..., Any], *,
             leaf: bool = False,
             units: Optional[Callable[..., int]] = None,
             is_async: bool = False) -> Callable[..., Any]:
        """A wrapper of ``function`` that records under ``name``.

        A call made while a span of the same name is open (a solver calling
        its own overload, say) passes straight through, so one logical call
        counts once.  ``units(*args, **kwargs)`` gives the work size of a
        call.  ``leaf`` wrappers keep counters but no span objects and see
        no children, so they skip that check and take no ``units``.
        """
        tracer = self

        if is_async:
            @functools.wraps(function)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                parent = _CURRENT.get()
                if not tracer.recording or (parent is not None
                                            and parent.name == name):
                    return await function(*args, **kwargs)
                span = _Span(next(tracer._ids), name)
                token = _CURRENT.set(span)
                start = _now()
                try:
                    return await function(*args, **kwargs)
                finally:
                    end = _now()
                    _CURRENT.reset(token)
                    tracer._finish(span, parent, start, end, units, args,
                                   kwargs)
            return async_wrapper

        if leaf:
            @functools.wraps(function)
            def leaf_wrapper(*args: Any, **kwargs: Any) -> Any:
                if not tracer.recording:
                    return function(*args, **kwargs)
                parent = _CURRENT.get()
                start = _now()
                try:
                    return function(*args, **kwargs)
                finally:
                    elapsed = _now() - start
                    tracer._count(name, parent, elapsed, elapsed, 0)
            return leaf_wrapper

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = _CURRENT.get()
            if not tracer.recording or (parent is not None
                                        and parent.name == name):
                return function(*args, **kwargs)
            span = _Span(next(tracer._ids), name)
            token = _CURRENT.set(span)
            start = _now()
            try:
                return function(*args, **kwargs)
            finally:
                end = _now()
                _CURRENT.reset(token)
                tracer._finish(span, parent, start, end, units, args, kwargs)
        return wrapper

    def _finish(self, span: _Span, parent: Optional[_Span], start: int,
                end: int, units: Optional[Callable[..., int]],
                args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> None:
        inclusive = end - start
        self.spans.append((span.span_id,
                           parent.span_id if parent is not None else 0,
                           span.name, start, end))
        self._count(span.name, parent, inclusive,
                    max(0, inclusive - span.child_ns),
                    units(*args, **kwargs) if units else 0)

    # ------------------------------------------------------------------ #
    # Installing wrappers into the program
    # ------------------------------------------------------------------ #
    def patch_function(self, module_name: str, attribute: str, name: str,
                       **options: Any) -> None:
        """Replace a module-level function under every name that binds it."""
        original = getattr(importlib.import_module(module_name), attribute)
        wrapper = self.wrap(name, original, **options)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if (namespace is None
                    or not getattr(module, "__name__", "").startswith("repro")):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((module, key, value))
                    setattr(module, key, wrapper)

    def patch_method(self, owner: type, attribute: str, name: str,
                     **options: Any) -> None:
        """Replace a method defined on ``owner`` (plain or classmethod)."""
        original = owner.__dict__[attribute]
        if isinstance(original, classmethod):
            replacement: Any = classmethod(
                self.wrap(name, original.__func__, **options))
        else:
            replacement = self.wrap(name, original, **options)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def write_spans(self, path: str) -> None:
        """Write the spans as JSON lines (one ``[id, parent, name, start,
        end]`` array per line, times in perf-counter nanoseconds)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _population_grid_size(_population: Any, nus: Any, *_args: Any,
                          **_kwargs: Any) -> int:
    return len(nus)


#: Experiments timed as their own layer: (id, function in experiments).
EXPERIMENT_FUNCTIONS = (("FIG4", "figure4_monopoly_price"),
                        ("FIG8", "figure8_duopoly_capacity"),
                        ("THM5", "theorem5_public_option_alignment"))


def install_layers(tracer: Tracer, *, service: bool = False) -> None:
    """Wrap the program's layer boundaries (see perfbench/README.md).

    Imports the layer modules first, so every module that imports one of
    the wrapped functions by name is loaded and gets patched too.
    """
    modules = ["repro.workloads", "repro.network.equilibrium",
               "repro.simulation.batch", "repro.simulation.experiments",
               "repro.core"]
    if service:
        modules.append("repro.service.server")
    for module in modules:
        importlib.import_module(module)
    from repro.core.cp_game import CPPartitionGame
    from repro.network.equilibrium import (CommonCapProfile,
                                           ExponentialMaxMinProfile,
                                           GenericCapProfile)

    # repro.workloads: population build.
    tracer.patch_function("repro.workloads.populations", "random_population",
                          "workloads.build")
    tracer.patch_function("repro.workloads.populations", "paper_population",
                          "workloads.build")
    # repro.network.equilibrium + repro.backends: profile build, cap
    # root-finding, carried-load kernel calls and (G, n) materialisation.
    tracer.patch_method(ExponentialMaxMinProfile, "__init__",
                        "equilibrium.profile_build")
    tracer.patch_method(ExponentialMaxMinProfile, "from_sorted",
                        "equilibrium.profile_build")
    for owner, attribute in ((CommonCapProfile, "solve_cap"),
                             (CommonCapProfile, "solve_caps"),
                             (ExponentialMaxMinProfile, "solve_cap")):
        tracer.patch_method(owner, attribute, "equilibrium.cap_solve")
    for owner, attribute in ((ExponentialMaxMinProfile, "carried_scalar"),
                             (ExponentialMaxMinProfile, "carried"),
                             (GenericCapProfile, "carried")):
        tracer.patch_method(owner, attribute, "equilibrium.carried_eval",
                            leaf=True)
    tracer.patch_function("repro.network.equilibrium", "solve_common_caps",
                          "equilibrium.solve_common_caps")
    # repro.simulation.batch: the grid engine and cache warming.
    tracer.patch_function("repro.simulation.batch", "solve_rate_equilibria",
                          "batch.solve", units=_population_grid_size)
    tracer.patch_function("repro.simulation.batch", "warm_equilibrium_cache",
                          "batch.warm", units=_population_grid_size)
    # repro.simulation.experiments: the figure and theorem reproductions.
    for experiment_id, function in EXPERIMENT_FUNCTIONS:
        tracer.patch_function("repro.simulation.experiments", function,
                              f"experiments.{experiment_id}")
    # repro.core: the games.
    tracer.patch_method(CPPartitionGame, "competitive_equilibrium",
                        "core.competitive")
    tracer.patch_method(CPPartitionGame, "nash_equilibrium", "core.nash")
    tracer.patch_function("repro.core.migration", "solve_market_split",
                          "core.market_split")
    tracer.patch_function("repro.core.migration", "isp_outcome_at_share",
                          "core.share_probe")
    if service:
        install_service_layers(tracer)


def install_service_layers(tracer: Tracer) -> None:
    """Wrap the service's protocol, scheduler and response-writing stages."""
    from repro.service.scheduler import MicroBatchScheduler

    tracer.patch_function("repro.service.protocol", "parse_solve_request",
                          "protocol.parse")
    tracer.patch_function("repro.service.protocol", "build_solve_response",
                          "protocol.build_response")
    # The buffered-JSON encode and the chunked stream both happen inside the
    # server's response writer; it is the only non-public name wrapped.
    tracer.patch_function("repro.service.server", "_write_response",
                          "protocol.write_response", is_async=True)
    tracer.patch_method(MicroBatchScheduler, "solve", "scheduler.solve",
                        is_async=True)


def totals(counters: Counters, name: str,
           parents: Optional[Iterable[str]] = None) -> Tuple[int, int, int, int]:
    """``(calls, inclusive ns, self ns, units)`` summed over parents."""
    wanted = None if parents is None else set(parents)
    calls = inclusive = self_ns = units = 0
    for (key_name, parent), entry in counters.items():
        if key_name == name and (wanted is None or parent in wanted):
            calls += entry[0]
            inclusive += entry[1]
            self_ns += entry[2]
            units += entry[3]
    return calls, inclusive, self_ns, units
