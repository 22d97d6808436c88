"""The Theorem-1 cap root-finder: stopping rules, grid ≡ point, cost.

``CommonCapProfile.solve_cap`` is the one root-finder of the cap equation
``carried(cap) = min(nu, unconstrained_load)``.  These tests pin what it
promises: every finite cap it returns meets the residual rule or the width
rule, a grid solve is exactly a loop of point solves (also for the generic
profile's vectorised grid solver, chunked or not), targets sitting on the
saturation breakpoints of the sorted-prefix profile converge, subnormal
capacities give finite equilibria, and on the paper's 1000-CP population the
median solve costs at most 8 carried-load evaluations.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.backends import reference_backend
from repro.network import equilibrium
from repro.network.allocation import (
    MaxMinFairAllocation,
    ProportionalToDemandAllocation,
    WeightedFairAllocation,
)
from repro.network.equilibrium import (
    ExponentialMaxMinProfile,
    GenericCapProfile,
    common_cap_profile,
)
from repro.network.provider import Population
from repro.simulation.batch import solve_rate_equilibria
from repro.workloads.populations import (
    PopulationSpec,
    paper_population,
    random_population,
)

MECHANISMS = {
    "maxmin": MaxMinFairAllocation,
    "proportional": ProportionalToDemandAllocation,
    "weighted": lambda: WeightedFairAllocation({"cp-0001": 3.0},
                                               default_weight=0.5),
}


class CountingBackend:
    """Reference kernels that count carried-load evaluations."""

    name = "counting"
    solve_scalar = None

    def __init__(self) -> None:
        self.calls = 0

    def carried_scalar(self, profile: ExponentialMaxMinProfile,
                       cap: float) -> float:
        self.calls += 1
        return reference_backend().carried_scalar(profile, cap)


def counting_profile(population) -> tuple[ExponentialMaxMinProfile,
                                           CountingBackend]:
    backend = CountingBackend()
    profile = ExponentialMaxMinProfile(population.alphas,
                                       population.theta_hats,
                                       population.betas, backend=backend)
    return profile, backend


def assert_stopping_rule_met(profile, nu: float, cap: float) -> None:
    """``cap`` meets the residual rule, or brackets the root to the width."""
    target = min(nu, profile.unconstrained_load)
    residual_tol = equilibrium._RESIDUAL_TOLERANCE * max(1.0, target)
    width_tol = equilibrium._CAP_WIDTH_TOLERANCE * max(1.0, profile.upper)
    assert 0.0 <= cap <= profile.upper
    value = profile.carried_scalar(cap)
    if abs(value - target) <= residual_tol:
        return
    # Width rule: the solver returns the high end of a bracket at most
    # ``width_tol`` wide whose low end carries less than the target; the
    # carried load is non-decreasing, so ``cap - width_tol`` does too.
    assert value >= target
    below = profile.carried_scalar(max(0.0, cap - width_tol))
    assert below <= target + residual_tol


@pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
@given(count=st.integers(min_value=1, max_value=30),
       seed=st.integers(min_value=0, max_value=10_000),
       fraction=st.floats(min_value=1e-6, max_value=1.2))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_finite_cap_meets_a_stopping_rule(mechanism, count, seed,
                                                 fraction):
    population = random_population(PopulationSpec(count=count), seed=seed)
    profile = common_cap_profile(population, MECHANISMS[mechanism]())
    nu = fraction * population.unconstrained_per_capita_load
    cap = profile.solve_cap(nu)
    if math.isfinite(cap):
        assert_stopping_rule_met(profile, nu, cap)


@pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
def test_grid_solve_is_exactly_a_loop_of_point_solves(mechanism):
    population = random_population(PopulationSpec(count=60), seed=5)
    profile = common_cap_profile(population, MECHANISMS[mechanism]())
    if mechanism == "maxmin":
        assert isinstance(profile, ExponentialMaxMinProfile)
    else:
        assert isinstance(profile, GenericCapProfile)
    load = population.unconstrained_per_capita_load
    nus = np.concatenate([[0.0, 1e-12, load, 2.0 * load],
                          np.linspace(0.01, 0.99, 25) * load])
    caps = profile.solve_caps(nus)
    assert caps.shape == nus.shape
    for nu, cap in zip(nus, caps):
        assert cap == profile.solve_cap(float(nu))


@pytest.mark.parametrize("mechanism", ["proportional", "weighted"])
def test_chunked_generic_grid_solve_matches_point_solves(monkeypatch,
                                                         mechanism):
    population = random_population(PopulationSpec(count=40), seed=9)
    profile = common_cap_profile(population, MECHANISMS[mechanism]())
    nus = np.linspace(0.0, 1.1, 23) * population.unconstrained_per_capita_load
    whole = profile.solve_caps(nus)
    # Three points per vectorised pass instead of the whole grid.
    monkeypatch.setattr(equilibrium, "_GRID_ELEMENTS", 3 * profile.size)
    assert np.array_equal(profile.solve_caps(nus), whole)
    for nu, cap in zip(nus, whole):
        assert cap == profile.solve_cap(float(nu))


@pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
def test_zero_sensitivity_at_a_subnormal_capacity_stays_finite(mechanism):
    # theta_hat / cap overflows to inf at these caps; with beta = 0 the
    # demand must still be 1, not exp(-0 * inf) = nan.
    population = Population.from_columns(alphas=[1.0, 0.5],
                                          theta_hats=[1.0, 3.0],
                                          betas=[0.0, 0.0])
    batch = solve_rate_equilibria(population, [5e-324, 1e-320, 1e-300],
                                  MECHANISMS[mechanism]())
    assert np.all(np.isfinite(batch.common_caps))
    assert np.array_equal(batch.demands, np.ones_like(batch.demands))
    assert np.all(np.isfinite(batch.thetas * batch.demands))


def test_targets_on_saturation_breakpoints_converge():
    population = random_population(PopulationSpec(count=200), seed=13)
    profile, backend = counting_profile(population)
    for k in range(1, profile.size):
        target = float(profile._prefix[k])
        backend.calls = 0
        cap = profile.solve_cap(target)
        assert math.isfinite(cap)
        assert_stopping_rule_met(profile, target, cap)
        # Far inside the iteration budget: the secant steps plus the
        # midpoint fallback handle the kinks at the breakpoints.
        assert backend.calls <= 40


def test_median_evaluations_per_solve_on_the_paper_population():
    profile, backend = counting_profile(paper_population())
    load = profile.unconstrained_load
    counts = []
    for fraction in np.linspace(0.02, 0.98, 49):
        backend.calls = 0
        profile.solve_cap(float(fraction * load))
        counts.append(backend.calls)
    assert float(np.median(counts)) <= 8.0
