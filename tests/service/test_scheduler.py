"""Micro-batching and coalescing semantics of the scheduler.

The acceptance contract lives here: identical concurrent requests cost one
engine solve, compatible overlapping grids fuse into one union solve with
exact per-request fan-out, and every served series is bit-identical to a
direct ``solve_rate_equilibria`` call (property-tested under the reference
backend, whose multi-target bisection treats grid points independently).
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.config import SolverConfig
from repro.network.allocation import (
    MaxMinFairAllocation,
    ProportionalToDemandAllocation,
)
from repro.service.scheduler import MicroBatchScheduler
from repro.simulation.batch import solve_rate_equilibria
from repro.workloads.populations import paper_population

POPULATION = paper_population(count=60, seed=13)
MAXMIN = MaxMinFairAllocation()
CONFIG = SolverConfig()


def run(coro):
    return asyncio.run(coro)


async def with_scheduler(body, **kwargs):
    scheduler = MicroBatchScheduler(**kwargs)
    try:
        return await body(scheduler)
    finally:
        await scheduler.aclose()


def assert_batches_equal(served, direct):
    """Bit-identity: every served array equals the direct solve's exactly."""
    np.testing.assert_array_equal(served.nus, direct.nus)
    np.testing.assert_array_equal(served.thetas, direct.thetas)
    np.testing.assert_array_equal(served.demands, direct.demands)
    np.testing.assert_array_equal(served.per_capita_rates,
                                  direct.per_capita_rates)
    np.testing.assert_array_equal(served.consumer_surpluses(),
                                  direct.consumer_surpluses())


class TestCoalescing:
    def test_identical_concurrent_requests_cost_one_solve(self):
        async def body(scheduler):
            nus = (50.0, 100.0)
            outcomes = await asyncio.gather(*[
                scheduler.solve(POPULATION, nus, MAXMIN, CONFIG)
                for _ in range(10)])
            return outcomes, scheduler.stats()

        outcomes, stats = run(with_scheduler(body, window_seconds=0.01))
        assert stats["engine_solves"] == 1
        assert stats["requests"] == 10
        assert stats["coalesced"] == 9
        assert stats["coalesce_rate"] == pytest.approx(0.9)
        coalesced_flags = sorted(flag for _, _, flag in outcomes)
        assert coalesced_flags == [False] + [True] * 9
        direct = solve_rate_equilibria(POPULATION, (50.0, 100.0), MAXMIN,
                                       CONFIG)
        for batch, batch_size, _ in outcomes:
            assert batch_size == 1  # one pending entry: the leader
            assert_batches_equal(batch, direct)

    def test_different_grids_are_not_coalesced(self):
        async def body(scheduler):
            await asyncio.gather(
                scheduler.solve(POPULATION, (50.0,), MAXMIN, CONFIG),
                scheduler.solve(POPULATION, (60.0,), MAXMIN, CONFIG))
            return scheduler.stats()

        stats = run(with_scheduler(body, window_seconds=0.01))
        assert stats["coalesced"] == 0
        assert stats["engine_solves"] == 1  # fused instead: one union solve


class TestUnionGridFusion:
    def test_each_client_gets_exactly_its_grid(self):
        grids = [(50.0, 100.0), (100.0, 150.0), (75.0,),
                 (150.0, 50.0, 125.0)]

        async def body(scheduler):
            outcomes = await asyncio.gather(*[
                scheduler.solve(POPULATION, grid, MAXMIN, CONFIG)
                for grid in grids])
            return outcomes, scheduler.stats()

        outcomes, stats = run(with_scheduler(body, window_seconds=0.02))
        assert stats["engine_solves"] == 1
        assert stats["batches"] == 1
        assert stats["fused_requests"] == len(grids)
        assert stats["union_points"] == 5  # |{50, 75, 100, 125, 150}|
        for grid, (batch, batch_size, coalesced) in zip(grids, outcomes):
            assert batch_size == len(grids)
            assert not coalesced
            assert tuple(batch.nus.tolist()) == grid  # request order kept
            assert_batches_equal(
                batch, solve_rate_equilibria(POPULATION, grid, MAXMIN,
                                             CONFIG))

    def test_fanout_rows_do_not_alias_each_other(self):
        async def body(scheduler):
            return await asyncio.gather(
                scheduler.solve(POPULATION, (50.0, 100.0), MAXMIN, CONFIG),
                scheduler.solve(POPULATION, (100.0, 50.0), MAXMIN, CONFIG))

        (first, _, _), (second, _, _) = run(
            with_scheduler(body, window_seconds=0.02))
        assert not np.shares_memory(first.thetas, second.thetas)
        np.testing.assert_array_equal(first.thetas, second.thetas[::-1])

    def test_incompatible_requests_solve_separately(self):
        async def body(scheduler):
            await asyncio.gather(
                scheduler.solve(POPULATION, (50.0,), MAXMIN, CONFIG),
                scheduler.solve(POPULATION, (50.0,),
                                ProportionalToDemandAllocation(), CONFIG),
                scheduler.solve(
                    POPULATION, (50.0,), MAXMIN,
                    SolverConfig(bisection_tolerance=1e-12)))
            return scheduler.stats()

        stats = run(with_scheduler(body, window_seconds=0.02))
        assert stats["engine_solves"] == 3
        assert stats["coalesced"] == 0
        assert stats["fused_requests"] == 0


class TestNaiveBaseline:
    def test_naive_mode_never_batches_or_coalesces(self):
        async def body(scheduler):
            outcomes = await asyncio.gather(*[
                scheduler.solve(POPULATION, (50.0, 100.0), MAXMIN, CONFIG)
                for _ in range(6)])
            return outcomes, scheduler.stats()

        outcomes, stats = run(
            with_scheduler(body, naive=True, window_seconds=0.01))
        assert stats["engine_solves"] == 6
        assert stats["coalesced"] == 0
        assert stats["batches"] == 0
        direct = solve_rate_equilibria(POPULATION, (50.0, 100.0), MAXMIN,
                                       CONFIG)
        for batch, batch_size, coalesced in outcomes:
            assert (batch_size, coalesced) == (1, False)
            assert_batches_equal(batch, direct)


class TestFailureAndLifecycle:
    def test_solver_failure_propagates_to_every_waiter(self, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("bisection diverged")

        monkeypatch.setattr("repro.service.scheduler.warm_equilibrium_cache",
                            explode)

        async def body(scheduler):
            results = await asyncio.gather(
                *[scheduler.solve(POPULATION, (50.0,), MAXMIN, CONFIG)
                  for _ in range(4)],
                return_exceptions=True)
            return results, scheduler.stats()

        results, stats = run(with_scheduler(body, window_seconds=0.01))
        assert len(results) == 4
        assert all(isinstance(result, RuntimeError) for result in results)
        assert stats["errors"] == 1  # one failed engine solve, four waiters

    def test_drain_flushes_pending_without_waiting_for_window(self):
        async def body(scheduler):
            task = asyncio.create_task(
                scheduler.solve(POPULATION, (50.0,), MAXMIN, CONFIG))
            await asyncio.sleep(0)  # let the request register
            await scheduler.drain()
            assert task.done()
            return scheduler.stats()

        stats = run(with_scheduler(body, window_seconds=30.0))
        assert stats["engine_solves"] == 1

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            MicroBatchScheduler(-0.001)


@settings(max_examples=15, deadline=None)
@given(
    grids=st.lists(
        st.lists(st.floats(min_value=1.0, max_value=400.0,
                           allow_nan=False, allow_infinity=False),
                 min_size=1, max_size=4, unique=True),
        min_size=1, max_size=4),
    mechanism_index=st.integers(min_value=0, max_value=1),
)
def test_property_served_series_bit_identical_to_direct_solve(
        grids, mechanism_index):
    """Any mix of concurrently fused grids serves bit-identical numbers."""
    mechanism = (MAXMIN, ProportionalToDemandAllocation())[mechanism_index]
    tuple_grids = [tuple(grid) for grid in grids]

    async def body(scheduler):
        return await asyncio.gather(*[
            scheduler.solve(POPULATION, grid, mechanism, CONFIG)
            for grid in tuple_grids])

    outcomes = run(with_scheduler(body, window_seconds=0.02))
    for grid, (batch, _, _) in zip(tuple_grids, outcomes):
        direct = solve_rate_equilibria(POPULATION, grid, mechanism, CONFIG)
        assert tuple(batch.nus.tolist()) == grid
        assert_batches_equal(batch, direct)
