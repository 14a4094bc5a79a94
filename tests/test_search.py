"""bisection_search: the heterogeneous period/latency search — one
scalar search, exercised for both bisected criteria (oracle agreement,
witness details, bounds, floor, probe budget, argument checks)."""

import numpy as np
import pytest

from repro.algorithms import search
from repro.algorithms.search import bisection_search
from repro.core import Platform, TaskChain
from repro.solve import Problem, solve
from repro.util.logrel import from_reliability

pytestmark = pytest.mark.parametrize("criterion", ["period", "latency"])

#: The other criterion, whose bound every probe holds fixed.
OTHER = {"period": "latency", "latency": "period"}


@pytest.fixture
def het_instance():
    chain = TaskChain([6.0, 4.0, 5.0], [1.0, 2.0, 0.0])
    platform = Platform(
        speeds=[2.0, 1.0, 1.5], failure_rates=[1e-4, 1e-5, 1e-4],
        link_failure_rate=1e-5, max_replication=2,
    )
    return chain, platform


@pytest.fixture
def small_instance():
    chain = TaskChain([6.0, 6.0], [1.0, 0.0])
    platform = Platform(
        speeds=[2.0, 1.0, 1.0], failure_rates=[1e-4] * 3, max_replication=2,
    )
    return chain, platform


def analytic_floor(criterion, chain, platform):
    """Heaviest task (period) or all tasks (latency) on the fastest
    processor — no mapping beats it."""
    reduce = np.max if criterion == "period" else np.sum
    return float(reduce(chain.work)) / float(np.max(platform.speeds))


def test_matches_oracle_on_tiny_instance(het_instance, criterion):
    chain, platform = het_instance
    problem = Problem(chain, platform, objective=criterion, min_reliability=0.5)
    result = solve(problem)  # auto -> het-<criterion>-search
    oracle = solve(problem, method="brute-force")
    assert result.method == f"het-{criterion}-search" and result.feasible
    assert result.objective_value(criterion) >= (
        oracle.objective_value(criterion) - 1e-9
    )
    assert result.evaluation.reliability >= 0.5


def test_answer_is_a_probed_witness(het_instance, criterion):
    chain, platform = het_instance
    result = bisection_search(chain, platform, criterion)
    assert result.feasible and result.method == f"het-{criterion}-search"
    optimum = result.details[f"optimal_{criterion}"]
    assert optimum == float(
        getattr(result.evaluation, f"worst_case_{criterion}")
    )
    assert optimum >= analytic_floor(criterion, chain, platform)


def test_honors_other_bound_and_cap(het_instance, criterion):
    chain, platform = het_instance
    other = OTHER[criterion]
    bounded = bisection_search(chain, platform, criterion, **{f"max_{other}": 20.0})
    assert bounded.feasible
    assert getattr(bounded.evaluation, f"worst_case_{other}") <= 20.0
    # A cap below the analytic floor is infeasible after one probe.
    cap = analytic_floor(criterion, chain, platform) / 2
    capped = bisection_search(chain, platform, criterion, **{f"max_{criterion}": cap})
    assert not capped.feasible
    assert capped.method == f"het-{criterion}-search"
    assert capped.details["probes"] == 1


def test_reliability_floor_can_defeat_it(het_instance, criterion):
    chain, platform = het_instance
    floored = bisection_search(
        chain, platform, criterion,
        min_log_reliability=from_reliability(1.0 - 1e-15),
    )
    assert not floored.feasible


def test_exhausted_probe_budget_reports_not_converged(
    small_instance, criterion, monkeypatch
):
    # Regression: with the probe budget exhausted before the bracket
    # met the tolerance, the search returned a witness whose details
    # were indistinguishable from a converged run.
    monkeypatch.setattr(search, "MAX_PROBES", 1)
    starved = bisection_search(*small_instance, criterion)
    assert starved.feasible
    assert starved.details["probes"] == 1
    assert starved.details["converged"] is False
    lo, hi = starved.details["bracket"]
    assert hi - lo > search.REL_TOL * max(hi, 1.0)


def test_default_budget_converges(small_instance, criterion):
    result = bisection_search(*small_instance, criterion)
    assert result.details["converged"] is True
    assert result.details["probes"] < search.MAX_PROBES
    lo, hi = result.details["bracket"]
    assert hi - lo <= search.REL_TOL * max(hi, 1.0)


def test_validates_arguments(het_instance, criterion):
    chain, platform = het_instance
    with pytest.raises(ValueError, match="log-probability"):
        bisection_search(chain, platform, criterion, min_log_reliability=0.5)
    with pytest.raises(ValueError, match="bounds"):
        bisection_search(chain, platform, criterion, **{f"max_{criterion}": 0.0})
    with pytest.raises(ValueError, match="criterion"):
        bisection_search(chain, platform, f"{criterion}-ish")
