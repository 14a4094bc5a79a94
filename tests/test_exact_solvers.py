"""Cross-validation of the exact tri-criteria solvers: brute force,
Pareto DP, and the Section 5.4 ILP on both backends.

The validation chain of DESIGN.md: all four must agree on feasibility
and optimal reliability on common instances."""


import numpy as np
import pytest

from repro.algorithms import (
    brute_force_best,
    heuristic_best,
    ilp_best,
    optimize_reliability,
    optimize_reliability_period,
    pareto_dp_best,
)
from repro.core import Platform, TaskChain, random_chain


def hom_platform(p, K):
    return Platform.homogeneous_platform(
        p, failure_rate=1e-8, link_failure_rate=1e-5, max_replication=K
    )


class TestParetoDP:
    def test_reduces_to_algorithm1_without_bounds(self):
        chain = random_chain(7, rng=0)
        plat = hom_platform(5, 3)
        a1 = optimize_reliability(chain, plat)
        pd = pareto_dp_best(chain, plat)
        assert pd.log_reliability == pytest.approx(a1.log_reliability, rel=1e-12)

    def test_reduces_to_algorithm2_with_period_only(self):
        chain = random_chain(7, rng=1)
        plat = hom_platform(5, 3)
        for P in (80.0, 150.0, 300.0):
            a2 = optimize_reliability_period(chain, plat, max_period=P)
            pd = pareto_dp_best(chain, plat, max_period=P)
            assert a2.feasible == pd.feasible
            if a2.feasible:
                assert pd.log_reliability == pytest.approx(
                    a2.log_reliability, rel=1e-12
                )

    def test_latency_bound_infeasible_below_compute(self):
        chain = TaskChain([10.0, 10.0], [1.0, 0.0])
        plat = hom_platform(4, 2)
        res = pareto_dp_best(chain, plat, max_latency=19.0)
        assert not res.feasible

    def test_latency_bound_changes_structure(self):
        # Generous latency: split (period-friendly); tight latency: merge.
        chain = TaskChain([5.0, 5.0], [8.0, 0.0])
        plat = hom_platform(4, 2)
        loose = pareto_dp_best(chain, plat, max_period=10.0, max_latency=30.0)
        tight = pareto_dp_best(chain, plat, max_period=10.0, max_latency=12.0)
        assert loose.feasible and tight.feasible
        assert tight.mapping.m == 1
        # The tight solution sacrifices reliability.
        assert tight.log_reliability <= loose.log_reliability

    def test_rejects_heterogeneous(self):
        plat = Platform([1.0, 2.0], [1e-8, 1e-8], max_replication=1)
        with pytest.raises(ValueError, match="homogeneous"):
            pareto_dp_best(TaskChain([1.0], [0.0]), plat)

    def test_rejects_nonpositive_bounds(self):
        chain = TaskChain([1.0], [0.0])
        with pytest.raises(ValueError):
            pareto_dp_best(chain, hom_platform(1, 1), max_period=0.0)


class TestParetoOracle:
    """pareto_dp_best against the brute-force oracle on chains of up to
    six tasks, in the shapes where a frontier DP can slip: one task,
    one processor, K >= p, tied work values, no failures at all, and
    latency bounds at and just below the compute lower bound."""

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(3000 + seed)
        n = 1 + seed % 6
        p = int(rng.integers(1, 5))
        K = int(rng.integers(1, 6))  # K >= p on some seeds
        chain = random_chain(n, rng)
        if seed % 4 == 1:
            chain = TaskChain([20.0] * n, [3.0] * (n - 1) + [0.0])
        if seed % 4 == 2:
            plat = Platform.homogeneous_platform(p, max_replication=K)
        else:
            plat = hom_platform(p, K)
        compute = float(np.sum(chain.work)) / float(plat.speeds[0])
        for P in (np.inf, float(rng.uniform(10, 200))):
            for L in (np.inf, compute * float(rng.uniform(1.0, 1.6)),
                      compute, float(np.nextafter(compute, 0.0))):
                bf = brute_force_best(chain, plat, max_period=P, max_latency=L)
                pd = pareto_dp_best(chain, plat, max_period=P, max_latency=L)
                assert pd.feasible == bf.feasible
                if bf.feasible:
                    assert pd.log_reliability == pytest.approx(
                        bf.log_reliability, rel=1e-12, abs=1e-300
                    )
                    assert pd.evaluation.worst_case_period <= P
                    assert pd.evaluation.worst_case_latency <= L * (1 + 1e-12)


class TestILP:
    def test_simple_instance(self):
        chain = TaskChain([6.0, 6.0], [4.0, 0.0])
        plat = hom_platform(4, 2)
        res = ilp_best(chain, plat, max_period=7.0, max_latency=17.0)
        assert res.feasible
        assert res.mapping.m == 2
        assert res.evaluation.worst_case_period <= 7.0

    def test_infeasible_period(self):
        chain = TaskChain([10.0], [0.0])
        plat = hom_platform(2, 2)
        res = ilp_best(chain, plat, max_period=5.0)
        assert not res.feasible

    def test_backends_agree(self):
        chain = random_chain(6, rng=12)
        plat = hom_platform(5, 2)
        hi = ilp_best(chain, plat, max_period=200.0, max_latency=700.0)
        bb = ilp_best(
            chain, plat, max_period=200.0, max_latency=700.0, backend="branch-bound"
        )
        assert hi.feasible == bb.feasible
        if hi.feasible:
            assert hi.log_reliability == pytest.approx(bb.log_reliability, rel=1e-9)

    def test_latency_terms_paper_is_looser(self):
        # Dropping the comm terms from the latency constraint can only
        # enlarge the feasible set.
        chain = random_chain(6, rng=13)
        plat = hom_platform(5, 2)
        for L in (400.0, 500.0, 600.0):
            full = ilp_best(chain, plat, max_latency=L, latency_terms="full")
            paper = ilp_best(chain, plat, max_latency=L, latency_terms="paper")
            assert (not full.feasible) or paper.feasible
            if full.feasible and paper.feasible:
                assert paper.log_reliability >= full.log_reliability - 1e-18

    def test_rejects_heterogeneous(self):
        plat = Platform([1.0, 2.0], [1e-8, 1e-8], max_replication=1)
        with pytest.raises(ValueError, match="homogeneous"):
            ilp_best(TaskChain([1.0], [0.0]), plat)

    def test_rejects_unknown_backend(self):
        chain = TaskChain([1.0], [0.0])
        with pytest.raises(ValueError, match="backend"):
            ilp_best(chain, hom_platform(1, 1), backend="cplex")

    def test_rejects_unknown_latency_terms(self):
        chain = TaskChain([1.0], [0.0])
        with pytest.raises(ValueError, match="latency_terms"):
            ilp_best(chain, hom_platform(1, 1), latency_terms="typo")


class TestCrossValidation:
    @pytest.mark.parametrize("seed", range(15))
    def test_all_exact_methods_agree(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, 5))
        K = int(rng.integers(1, 4))
        chain = random_chain(n, rng)
        plat = hom_platform(p, K)
        P = float(rng.uniform(30, 400))
        L = float(rng.uniform(100, 900))

        bf = brute_force_best(chain, plat, max_period=P, max_latency=L)
        pd = pareto_dp_best(chain, plat, max_period=P, max_latency=L)
        hi = ilp_best(chain, plat, max_period=P, max_latency=L)

        assert bf.feasible == pd.feasible == hi.feasible
        if bf.feasible:
            assert pd.log_reliability == pytest.approx(bf.log_reliability, rel=1e-9)
            assert hi.log_reliability == pytest.approx(bf.log_reliability, rel=1e-6)

    @pytest.mark.parametrize("seed", range(8))
    def test_heuristics_never_beat_exact(self, seed):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(2, 6))
        p = int(rng.integers(2, 5))
        chain = random_chain(n, rng)
        plat = hom_platform(p, 2)
        P = float(rng.uniform(50, 400))
        L = float(rng.uniform(150, 900))
        exact = pareto_dp_best(chain, plat, max_period=P, max_latency=L)
        heur = heuristic_best(chain, plat, max_period=P, max_latency=L)
        # Heuristic feasibility implies exact feasibility, and the exact
        # optimum dominates.
        assert (not heur.feasible) or exact.feasible
        if heur.feasible:
            assert exact.log_reliability >= heur.log_reliability - 1e-15
