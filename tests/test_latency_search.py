"""het-latency-search: the heterogeneous latency gap-closer — registry
metadata, planner/facade resolution, and the sweep round-trip (the
scalar search itself is covered, for both criteria, in test_search)."""

import math

import numpy as np

from repro.core import Platform, TaskChain
from repro.experiments import get_method, run_sweep
from repro.solve import Problem, plan_methods, solve


class TestRegistrationAndPlanning:
    def test_registry_metadata(self):
        method = get_method("het-latency-search")
        assert method.objectives == ("latency",)
        assert not method.homogeneous_only
        assert not method.exact
        assert method.solve_batch is not None
        # Pricier than the exact hom DP, so auto keeps dp-latency on
        # homogeneous platforms.
        assert method.cost_hint > get_method("dp-latency").cost_hint

    def test_planner_selects_it_for_het_scenarios(self):
        plan = plan_methods("high-heterogeneity", objective="latency")
        assert plan.selected == ("het-latency-search",)
        reasons = {s.method: s.reason for s in plan.skipped}
        assert "homogeneous" in reasons["dp-latency"]

    def test_hom_platforms_still_resolve_to_dp(self):
        chain = TaskChain([6.0, 6.0], [1.0, 0.0])
        platform = Platform.homogeneous_platform(
            3, failure_rate=1e-4, link_failure_rate=1e-5, max_replication=2
        )
        result = solve(Problem(chain, platform, objective="latency"))
        assert result.method == "dp-latency"

    def test_latency_sweep_on_het_scenario(self):
        sweep = run_sweep(
            "high-heterogeneity",
            [get_method("het-latency-search")],
            [(math.inf, math.inf)],
            n_instances=3,
            objective="latency",
        )
        assert int(sweep.counts("het-latency-search")[0]) == 3
        q = sweep.objective_quantiles("het-latency-search")
        assert np.all(np.isfinite(q)) and np.all(q > 0)
