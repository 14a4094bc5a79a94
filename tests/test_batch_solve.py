"""The batched solving layer: kernel-level bit-identity with the
per-instance heuristics, the harness's batch serving and fallback, the
registry's solve_batch capability, and how parallel sweeps split work
between the parent's kernels and the worker shards."""

import math

import numpy as np
import pytest

from repro.algorithms import (
    BatchResult,
    BatchUnsupported,
    batch_bisection_search,
    batch_heuristic_best,
    batch_minimize_latency,
    batch_minimize_period,
    batch_pareto_dp,
    heuristic_best,
    heuristic_solve_batch,
)
from repro.experiments import Method, get_method, run_sweep
from repro.experiments.cache import ResultCache
from repro.core.ensemble import Ensemble
from repro.experiments.harness import _unit_arrays
from repro.obs import telemetry as obs
from repro.scenarios import generate_ensemble, generate_ensembles, get_scenario

BOUNDS = [(math.inf, math.inf), (600.0, 900.0), (150.0, 400.0)]

#: Unbounded-latency sweep points: the shape the batched dp-period
#: kernel covers (its probe is the Algorithm 2 DP).
PERIOD_BOUNDS = [(math.inf, math.inf), (600.0, math.inf), (150.0, math.inf)]

#: Every builtin scenario, shrunk to equivalence-test size (the full
#: dimensions are benchmark territory; bit-identity does not care).
SHRINK = {
    "section8-hom": {"n_instances": 3},
    "section8-het": {"n_instances": 2},
    "long-chain": {"n_instances": 2, "n_tasks": 30},
    "scaling-stress": {"n_instances": 2, "n_tasks": 20, "p": 8},
    "high-heterogeneity": {"n_instances": 2},
    "unreliable-links": {"n_instances": 3},
    "hot-spare": {"n_instances": 2},
}

#: The method exercised per (objective, homogeneous-platform) cell.
#: None marks a genuinely uncovered cell (no registered method).
OBJECTIVE_METHOD = {
    ("reliability", True): "heuristic",
    ("reliability", False): "heur-l",
    ("period", True): "dp-period",
    ("period", False): "het-period-search",
    ("latency", True): "dp-latency",
    ("latency", False): "het-latency-search",
    ("energy", True): "energy-greedy",
    ("energy", False): "energy-greedy",
}

#: Cells whose kernel serves every unit of a BOUNDS sweep.  dp-period
#: is absent: BOUNDS carries finite latency bounds, which its kernel
#: refuses (reason "latency-bound") — see TestForcedAndFallback.
#: energy has no kernel at all.
FULLY_BATCHED = {
    ("reliability", True),
    ("reliability", False),
    ("period", False),
    ("latency", True),
    ("latency", False),
}


def shrunk_spec(name):
    return get_scenario(name).spec.with_(**SHRINK[name])


def sweep_pair(tmp_path, spec, method, objective, bounds=BOUNDS,
               min_reliability=0.0):
    """The same sweep through the batched and the per-row path, each
    into its own cold cache (*spec* may also be generated ensembles)."""
    sweeps, caches = [], []
    for batch in ("auto", False):
        cache = ResultCache(tmp_path / f"cache-{batch}")
        sweeps.append(run_sweep(
            spec, [method], bounds,
            cache=cache, objective=objective, batch=batch,
            min_reliability=min_reliability,
        ))
        caches.append(cache)
    return sweeps, caches


def cache_keys(cache):
    return {key for key, _ in cache.backend.scan()}


def n_units(sweep):
    n_methods, _, n_instances = sweep.solved.shape
    return n_methods * n_instances


class TestSweepEquivalenceMatrix:
    """run_sweep(batch="auto") is bit-identical to the per-row path for
    every builtin scenario x objective, cache entries included."""

    @pytest.mark.parametrize("scenario", sorted(SHRINK))
    @pytest.mark.parametrize(
        "objective", ["reliability", "period", "latency", "energy"]
    )
    def test_batched_sweep_matches_per_row(self, tmp_path, scenario, objective):
        entry = get_scenario(scenario)
        method_name = OBJECTIVE_METHOD[objective, entry.homogeneous]
        if method_name is None:
            pytest.skip(f"no {objective!r} method for heterogeneous platforms")
        method = get_method(method_name)
        (batched, looped), (bcache, lcache) = sweep_pair(
            tmp_path, shrunk_spec(scenario), method, objective
        )
        assert np.array_equal(batched.solved, looped.solved)
        assert np.array_equal(batched.failure, looped.failure)
        assert np.array_equal(batched.objective_values, looped.objective_values)
        # Both paths write entries under identical keys with identical
        # payloads — a sweep warmed by one path serves the other.
        assert cache_keys(bcache) == cache_keys(lcache) != set()
        assert looped.batch_units == 0
        if (objective, entry.homogeneous) in FULLY_BATCHED:
            assert batched.batch_units == n_units(batched)
        else:
            assert batched.batch_units == 0
        if method_name == "dp-period":
            # The refused cell is attributed, not silent.
            reasons = {e.get("batch_fallback") for e in batched.unit_events}
            assert reasons == {"latency-bound"}

    def test_batch_warmed_cache_serves_per_row_sweep(self, tmp_path):
        spec = shrunk_spec("section8-hom")
        cache = ResultCache(tmp_path / "shared")
        cold = run_sweep(spec, [get_method("heur-p")], BOUNDS, cache=cache)
        assert cold.batch_units == n_units(cold) > 0
        warm_cache = ResultCache(cache.root)
        warm = run_sweep(
            spec, [get_method("heur-p")], BOUNDS,
            cache=warm_cache, batch=False,
        )
        assert warm_cache.hits == n_units(cold) and warm_cache.puts == 0
        assert np.array_equal(cold.failure, warm.failure)

    def test_parallel_sweep_runs_kernels_in_parent(self):
        """At jobs=2 a kernel method is served whole in the parent, and
        only the units its kernel refused reach the worker shards —
        each counted as a fallback exactly once."""
        spec = shrunk_spec("section8-hom")
        cells = [
            ("heur-l", "reliability", "batch", None),
            ("dp-period", "period", "worker", "latency-bound"),
        ]
        for method_name, objective, source, fallback in cells:
            method = get_method(method_name)
            serial = run_sweep(spec, [method], BOUNDS, objective=objective,
                               batch=False)
            with obs.collect() as telemetry:
                forked = run_sweep(spec, [method], BOUNDS, objective=objective,
                                   jobs=2)
            assert np.array_equal(serial.solved, forked.solved)
            assert np.array_equal(serial.failure, forked.failure)
            assert np.array_equal(serial.objective_values, forked.objective_values)
            units = n_units(forked)
            assert [e["source"] for e in forked.unit_events] == [source] * units
            assert [e.get("batch_fallback") for e in forked.unit_events] == (
                [fallback] * units
            )
            fallbacks = {k: v for k, v in telemetry.counters.items()
                         if k.startswith("sweep.units.fallback")}
            if fallback is None:
                assert forked.batch_units == units and fallbacks == {}
            else:
                assert forked.batch_units == 0
                assert fallbacks == {f"sweep.units.fallback[{fallback}]": units}

    def test_batch_flag_validated(self):
        with pytest.raises(ValueError, match="batch"):
            run_sweep(
                shrunk_spec("section8-hom"), [get_method("heur-l")],
                BOUNDS, batch="yes",
            )


class TestKernelBitIdentity:
    """batch_heuristic_best against the per-row heuristic_best loop."""

    @pytest.mark.parametrize("which", ["heur-l", "heur-p", "both"])
    @pytest.mark.parametrize(
        "scenario",
        ["section8-hom", "unreliable-links", "high-heterogeneity", "hot-spare"],
    )
    def test_matches_per_row_loop(self, scenario, which):
        ensemble = generate_ensemble(shrunk_spec(scenario), seed=11)
        out = batch_heuristic_best(ensemble, BOUNDS, which=which)
        assert out.infos == [None] * len(ensemble)
        for i, (chain, platform) in enumerate(ensemble):
            for pt, (P, L) in enumerate(BOUNDS):
                res = heuristic_best(
                    chain, platform, max_period=P, max_latency=L,
                    which=which, selection="feasible-best",
                )
                assert bool(out.solved[i, pt]) == res.feasible
                assert float(out.failure[i, pt]) == res.failure_probability
                assert float(out.objective_values[i, pt]) == res.objective_value(
                    "reliability"
                )

    def test_rows_subset(self):
        ensemble = generate_ensemble(shrunk_spec("section8-hom"), seed=3)
        full = batch_heuristic_best(ensemble, BOUNDS)
        part = batch_heuristic_best(ensemble, BOUNDS, rows=[2, 0])
        for whole, sub in zip(full[:3], part[:3]):
            assert np.array_equal(sub[0], whole[2])
            assert np.array_equal(sub[1], whole[0])
        assert part.infos == [None, None]

    def test_empty_rows(self):
        ensemble = generate_ensemble(shrunk_spec("section8-hom"), seed=3)
        out = batch_heuristic_best(ensemble, BOUNDS, rows=[])
        assert (out.solved.shape == out.failure.shape
                == out.objective_values.shape == (0, len(BOUNDS)))
        assert out.infos == []

    def test_unsupported_shapes_raise(self):
        het = generate_ensemble(shrunk_spec("high-heterogeneity"), seed=5)
        hom = generate_ensemble(shrunk_spec("section8-hom"), seed=5)
        # Heterogeneous rows and reliability floors are covered cells
        # now; only a mismatched objective remains unsupported here.
        out = batch_heuristic_best(het, BOUNDS, min_reliability=0.5)
        assert out.solved.shape == (len(het), len(BOUNDS))
        with pytest.raises(BatchUnsupported, match="objective"):
            batch_heuristic_best(hom, BOUNDS, objective="period")
        with pytest.raises(ValueError, match="unknown heuristic"):
            batch_heuristic_best(hom, BOUNDS, which="heur-x")
        with pytest.raises(ValueError, match="unknown heuristic"):
            heuristic_solve_batch("heur-x")

    def test_unsupported_reasons_and_messages(self):
        """Snapshot of each kernel's refusal: the machine-readable
        reason class the telemetry counts, and the message text."""
        het = generate_ensemble(shrunk_spec("high-heterogeneity"), seed=5)
        hom = generate_ensemble(shrunk_spec("section8-hom"), seed=5)
        cases = [
            (
                lambda: batch_heuristic_best(hom, BOUNDS, objective="period"),
                "objective",
                "batched heuristics cover objective 'reliability' only, "
                "got 'period'",
            ),
            (
                lambda: batch_minimize_period(hom, BOUNDS),
                "latency-bound",
                "the batched dp-period kernel probes with the Algorithm 2 "
                "DP, which requires an unbounded latency; points with a "
                "finite max_latency take the per-row Pareto-DP probe "
                "instead",
            ),
            (
                lambda: batch_minimize_period(het, PERIOD_BOUNDS),
                "heterogeneous",
                "the batched dp-period kernel requires fully homogeneous "
                "rows (the Section 5 DPs are only optimal there; Section 6 "
                "proves the heterogeneous problem NP-complete)",
            ),
            (
                lambda: batch_minimize_latency(het, BOUNDS),
                "heterogeneous",
                "the batched dp-latency kernel requires fully homogeneous "
                "rows (the Section 5 DPs are only optimal there; Section 6 "
                "proves the heterogeneous problem NP-complete)",
            ),
            (
                lambda: batch_minimize_latency(hom, BOUNDS, objective="period"),
                "objective",
                "the batched dp-latency kernel covers objective 'latency' "
                "only, got 'period'",
            ),
            (
                lambda: get_method("het-period-search").solve_batch(
                    het, BOUNDS, objective="latency"
                ),
                "objective",
                "the batched period-search kernel covers objective "
                "'period' only, got 'latency'",
            ),
            (
                lambda: get_method("het-latency-search").solve_batch(
                    het, BOUNDS, objective="period"
                ),
                "objective",
                "the batched latency-search kernel covers objective "
                "'latency' only, got 'period'",
            ),
        ]
        for call, reason, message in cases:
            with pytest.raises(BatchUnsupported) as exc:
                call()
            assert exc.value.reason == reason
            assert str(exc.value) == message

    def test_scaling_stress_variants(self):
        # Tuple-axis specs expand to differently-shaped ensembles; the
        # kernel must hold on each variant independently.
        spec = get_scenario("scaling-stress").spec.with_(n_instances=2)
        for ensemble in generate_ensembles(spec, seed=7):
            out = batch_heuristic_best(ensemble, BOUNDS[:2], which="heur-p")
            for i, (chain, platform) in enumerate(ensemble):
                for pt, (P, L) in enumerate(BOUNDS[:2]):
                    res = heuristic_best(
                        chain, platform, max_period=P, max_latency=L,
                        which="heur-p", selection="feasible-best",
                    )
                    assert float(out.failure[i, pt]) == res.failure_probability
                    assert float(out.objective_values[i, pt]) == res.objective_value(
                        "reliability"
                    )


class TestMethodCapability:
    def test_builtin_methods_declare_solve_batch(self):
        for name in (
            "heur-l", "heur-p", "heuristic",
            "pareto-dp", "dp-period", "dp-latency",
            "het-period-search", "het-latency-search",
        ):
            assert get_method(name).solve_batch is not None
        for name in ("anneal", "heur-l-paper", "ilp",
                     "brute-force", "energy-greedy"):
            assert get_method(name).solve_batch is None

    def test_fingerprint_covers_solve_batch(self):
        base = get_method("heur-l")
        stripped = Method(
            name=base.name, solve=base.solve,
            exact=base.exact, homogeneous_only=base.homogeneous_only,
        )
        assert base.fingerprint() != stripped.fingerprint()

    def test_malformed_kernel_infos_rejected(self):
        """solve_batch may be user code: a result whose per-row infos do
        not match the rows fails the sweep instead of misattributing."""
        base = get_method("heur-l")

        def short_infos(ensemble, bounds, **kwargs):
            out = base.solve_batch(ensemble, bounds, **kwargs)
            return out._replace(infos=out.infos[:-1])

        method = Method(name="short-infos", solve=base.solve, exact=False,
                        homogeneous_only=False, solve_batch=short_infos)
        with pytest.raises(ValueError, match="info entries"):
            run_sweep(shrunk_spec("section8-hom"), [method], BOUNDS)

    @pytest.mark.parametrize("method_name,objective,bounds,scenario", [
        ("heur-l", "reliability", BOUNDS, "section8-het"),
        ("heur-p", "reliability", BOUNDS, "section8-hom"),
        ("heuristic", "reliability", BOUNDS, "section8-hom"),
        ("pareto-dp", "reliability", BOUNDS, "section8-hom"),
        ("dp-period", "period", PERIOD_BOUNDS, "section8-hom"),
        ("dp-latency", "latency", BOUNDS, "section8-hom"),
        ("het-period-search", "period", BOUNDS, "section8-het"),
        ("het-latency-search", "latency", BOUNDS, "section8-het"),
    ])
    def test_builtin_kernels_return_batch_result(
        self, method_name, objective, bounds, scenario
    ):
        """Every builtin solve_batch answers with the one record shape:
        (rows x bounds) arrays and one infos entry per row."""
        ensemble = generate_ensemble(shrunk_spec(scenario), seed=5)
        out = get_method(method_name).solve_batch(
            ensemble, bounds, objective=objective
        )
        assert isinstance(out, BatchResult)
        shape = (len(ensemble), len(bounds))
        assert out.solved.shape == out.failure.shape == shape
        assert out.objective_values.shape == shape
        assert len(out.infos) == len(ensemble)

    def test_solve_batch_closure_matches_kernel(self):
        ensemble = generate_ensemble(shrunk_spec("section8-hom"), seed=2)
        via_method = get_method("heur-p").solve_batch(ensemble, BOUNDS)
        direct = batch_heuristic_best(ensemble, BOUNDS, which="heur-p")
        for field in ("solved", "failure", "objective_values"):
            assert np.array_equal(getattr(via_method, field), getattr(direct, field))
        assert via_method.infos == direct.infos


#: (method, objective, bounds, scenario) per converse-objective kernel
#: cell; the search methods run on both platform kinds.
CONVERSE_CELLS = [
    ("dp-period", "period", PERIOD_BOUNDS, "section8-hom"),
    ("dp-latency", "latency", BOUNDS, "section8-hom"),
    ("het-period-search", "period", BOUNDS, "section8-het"),
    ("het-period-search", "period", BOUNDS, "long-chain"),
    ("het-latency-search", "latency", BOUNDS, "high-heterogeneity"),
    ("het-latency-search", "latency", BOUNDS, "section8-hom"),
]


class TestConverseKernels:
    """The dp/search kernels against the per-row path itself —
    _unit_arrays is byte-for-byte what the harness runs per unit, so
    this pins arrays *and* the per-row info (probes/converged)."""

    @pytest.mark.parametrize("method_name,objective,bounds,scenario",
                             CONVERSE_CELLS)
    @pytest.mark.parametrize("floor", [0.0, 0.9])
    def test_kernel_rows_match_unit_arrays(
        self, method_name, objective, bounds, scenario, floor
    ):
        ensemble = generate_ensemble(shrunk_spec(scenario), seed=13)
        method = get_method(method_name)
        out = method.solve_batch(
            ensemble, bounds, objective=objective, min_reliability=floor
        )
        for i in range(len(ensemble)):
            u_solved, u_failure, u_values, u_info = _unit_arrays(
                method, ensemble[i], bounds, None, objective, floor
            )
            assert np.array_equal(np.asarray(out.solved[i], dtype=bool), u_solved)
            assert np.array_equal(np.asarray(out.failure[i], dtype=float), u_failure)
            assert np.array_equal(
                np.asarray(out.objective_values[i], dtype=float), u_values
            )
            assert out.infos[i] == u_info

    def test_search_infos_count_probes(self):
        ensemble = generate_ensemble(shrunk_spec("section8-het"), seed=13)
        out = batch_bisection_search(ensemble, BOUNDS, criterion="period")
        assert all(info is not None and info["probes"] >= len(BOUNDS)
                   for info in out.infos)

    def test_rows_subset(self):
        ensemble = generate_ensemble(shrunk_spec("section8-hom"), seed=13)
        full = batch_minimize_period(ensemble, PERIOD_BOUNDS)
        part = batch_minimize_period(ensemble, PERIOD_BOUNDS, rows=[2, 0])
        for whole, sub in zip(full[:3], part[:3]):
            assert np.array_equal(sub[0], whole[2])
            assert np.array_equal(sub[1], whole[0])
        assert part.infos == [full.infos[2], full.infos[0]]

    def test_empty_rows(self):
        ensemble = generate_ensemble(shrunk_spec("section8-hom"), seed=13)
        out = batch_minimize_period(ensemble, PERIOD_BOUNDS, rows=[])
        assert out.solved.shape == (0, len(PERIOD_BOUNDS)) and out.infos == []


class TestFloorSweeps:
    """Reliability floors through the batched sweep: batched == per-row
    bit-identity at every floor, infeasible rows included."""

    #: The top floor is chosen so that some (not necessarily all)
    #: units go infeasible on the shrunk scenarios.
    FLOORS = [0.0, 0.9, 1.0 - 1e-12]

    @pytest.mark.parametrize("floor", FLOORS)
    @pytest.mark.parametrize("method_name,objective,bounds,scenario",
                             CONVERSE_CELLS)
    def test_floored_sweep_matches_per_row(
        self, tmp_path, method_name, objective, bounds, scenario, floor
    ):
        method = get_method(method_name)
        (batched, looped), (bcache, lcache) = sweep_pair(
            tmp_path, shrunk_spec(scenario), method, objective,
            bounds=bounds, min_reliability=floor,
        )
        assert np.array_equal(batched.solved, looped.solved)
        assert np.array_equal(batched.failure, looped.failure)
        assert np.array_equal(batched.objective_values, looped.objective_values)
        assert cache_keys(bcache) == cache_keys(lcache) != set()
        assert batched.batch_units == n_units(batched)
        assert looped.batch_units == 0
        if floor == self.FLOORS[-1] and method_name.startswith("dp-"):
            # The hom scenarios cannot clear this floor everywhere; the
            # het ones can (replication pushes failure below 1e-12), so
            # only the DP cells pin the infeasible-row case here.
            assert not batched.solved.all()

    def test_kernel_floor_matches_per_row_heuristics(self):
        # run_sweep rejects floored *reliability* sweeps (the floor is
        # a constraint for the converse objectives), so the floored
        # heuristic cell is pinned at kernel level.
        from repro.util.logrel import from_reliability

        ensemble = generate_ensemble(shrunk_spec("unreliable-links"), seed=13)
        for floor in (0.5, 1.0 - 1e-12):
            out = batch_heuristic_best(ensemble, BOUNDS, min_reliability=floor)
            for i, (chain, platform) in enumerate(ensemble):
                for pt, (P, L) in enumerate(BOUNDS):
                    res = heuristic_best(
                        chain, platform, max_period=P, max_latency=L,
                        which="both", selection="feasible-best",
                        min_log_reliability=from_reliability(floor),
                    )
                    assert bool(out.solved[i, pt]) == res.feasible
                    assert float(out.failure[i, pt]) == res.failure_probability
                    assert float(out.objective_values[i, pt]) == res.objective_value(
                        "reliability"
                    )


class TestForcedAndFallback:
    """batch=True demands the kernels; batch="auto" falls back with an
    attributed reason."""

    def test_forced_batch_raises_on_refused_cell(self):
        with pytest.raises(ValueError, match="latency-bound") as exc:
            run_sweep(
                shrunk_spec("section8-hom"), [get_method("dp-period")],
                BOUNDS, objective="period", batch=True,
            )
        assert "dp-period" in str(exc.value)
        assert "batch='auto'" in str(exc.value)

    def test_forced_batch_passes_on_covered_cell(self):
        sweep = run_sweep(
            shrunk_spec("section8-hom"), [get_method("dp-period")],
            PERIOD_BOUNDS, objective="period", batch=True,
        )
        assert sweep.batch_units == n_units(sweep)

    def test_forced_batch_leaves_kernel_free_methods_alone(self):
        sweep = run_sweep(
            shrunk_spec("section8-hom"), [get_method("heur-l-paper")],
            BOUNDS, batch=True,
        )
        assert sweep.batch_units == 0
        assert all("batch_fallback" not in e for e in sweep.unit_events)

    def test_auto_fallback_attributes_reason(self):
        sweep = run_sweep(
            shrunk_spec("section8-hom"), [get_method("dp-period")],
            BOUNDS, objective="period", batch="auto",
        )
        assert sweep.batch_units == 0
        for event in sweep.unit_events:
            assert event["batch_fallback"] == "latency-bound"
            assert event["source"] == "parent"


def pareto_axes(ensembles):
    """The two pareto-dp sweep axes, scaled to the ensembles' median
    compute lower bound ``T``: period points at one latency bound, and
    latency points at one period bound (the axis a shared frontier
    answers with one DP per row).  Each axis spans feasible and
    infeasible points."""
    T = float(np.median(np.concatenate([
        e.work.sum(axis=1) / np.broadcast_to(e.speeds[:, 0], e.n_instances)
        for e in ensembles
    ])))
    return {
        "period": [(math.inf, 1.3 * T), (T / 2, 1.3 * T), (T / 4, 1.3 * T),
                   (T / 8, 1.3 * T), (T / 16, 1.3 * T)],
        "latency": [(T / 4, math.inf), (T / 4, 1.5 * T), (T / 4, 1.1 * T),
                    (T / 4, 1.02 * T), (T / 4, 0.9 * T)],
    }


def edge_ensemble(shape):
    """Small homogeneous ensembles in the adversarial shapes."""
    rng = np.random.default_rng(7)
    if shape == "n1":
        return Ensemble([[30.0], [50.0]], [[0.0], [0.0]], [[1.0] * 3],
                        [[1e-3] * 3], link_failure_rate=1e-4,
                        max_replication=2)
    if shape == "p1":
        work = rng.uniform(5, 50, (3, 4))
        output = rng.uniform(0, 10, (3, 4))
        return Ensemble(work, output, [[2.0]], [[1e-3]],
                        link_failure_rate=1e-3, max_replication=1)
    if shape == "K>=p":
        work = rng.uniform(5, 50, (3, 4))
        output = rng.uniform(0, 10, (3, 4))
        return Ensemble(work, output, [[1.0] * 3], [[1e-2] * 3],
                        link_failure_rate=1e-3, max_replication=5)
    if shape == "ties":
        # Equal work, equal outputs, no failures anywhere: every
        # mapping has reliability 1 and many share a latency.
        return Ensemble(np.full((2, 5), 10.0), np.full((2, 5), 2.0),
                        [[1.0] * 4], [[0.0] * 4], max_replication=2)
    raise ValueError(shape)


class TestParetoDPKernel:
    """batch_pareto_dp (pareto-dp's solve_batch) against the per-row
    pareto_dp_best path: arrays and cache record bytes."""

    @pytest.mark.parametrize("axis", ["period", "latency"])
    @pytest.mark.parametrize(
        "scenario",
        sorted(name for name in SHRINK if get_scenario(name).homogeneous),
    )
    def test_sweep_matches_per_row(self, tmp_path, scenario, axis):
        ensembles = generate_ensembles(shrunk_spec(scenario), seed=3)
        bounds = pareto_axes(ensembles)[axis]
        (batched, looped), (bcache, lcache) = sweep_pair(
            tmp_path, ensembles, get_method("pareto-dp"), "reliability", bounds
        )
        assert np.array_equal(batched.solved, looped.solved)
        assert np.array_equal(batched.failure, looped.failure)
        assert np.array_equal(batched.objective_values, looped.objective_values)
        assert dict(bcache.backend.scan()) == dict(lcache.backend.scan()) != {}
        assert batched.batch_units == n_units(batched)
        assert looped.batch_units == 0
        # Both axes reach feasible and infeasible points.
        assert batched.solved.any() and not batched.solved.all()

    @pytest.mark.parametrize("shape", ["n1", "p1", "K>=p", "ties"])
    def test_edge_shapes_match_per_row(self, tmp_path, shape):
        ensemble = edge_ensemble(shape)
        T = ensemble.work.sum(axis=1) / ensemble.speeds[0, 0]
        bounds = [
            (math.inf, math.inf),
            # Latency exactly at / just below the compute lower bound
            # of the slowest row.
            (math.inf, float(T.max())),
            (math.inf, float(np.nextafter(T.max(), 0.0))),
            (float(ensemble.work.max()), float(T.max()) * 1.5),
        ]
        (batched, looped), (bcache, lcache) = sweep_pair(
            tmp_path, ensemble, get_method("pareto-dp"), "reliability", bounds
        )
        assert np.array_equal(batched.solved, looped.solved)
        assert np.array_equal(batched.failure, looped.failure)
        assert np.array_equal(batched.objective_values, looped.objective_values)
        assert dict(bcache.backend.scan()) == dict(lcache.backend.scan()) != {}
        assert batched.batch_units == n_units(batched)
        assert batched.solved[0, 0].all()
        assert not batched.solved[0, 2, np.argmax(T)]

    def test_kernel_rows_match_unit_arrays(self):
        ensemble = generate_ensemble(shrunk_spec("unreliable-links"), seed=13)
        method = get_method("pareto-dp")
        for bounds in pareto_axes([ensemble]).values():
            out = batch_pareto_dp(ensemble, bounds, rows=[2, 0])
            for r, i in enumerate([2, 0]):
                u_solved, u_failure, u_values, u_info = _unit_arrays(
                    method, ensemble[i], bounds, None, "reliability", 0.0
                )
                assert np.array_equal(out.solved[r], u_solved)
                assert np.array_equal(out.failure[r], u_failure)
                assert np.array_equal(out.objective_values[r], u_values)
                assert out.infos[r] is None and u_info is None

    def test_refusals(self):
        het = generate_ensemble(shrunk_spec("high-heterogeneity"), seed=5)
        hom = generate_ensemble(shrunk_spec("section8-hom"), seed=5)
        cases = [
            (lambda: batch_pareto_dp(het, BOUNDS), "heterogeneous"),
            (lambda: batch_pareto_dp(hom, BOUNDS, objective="latency"),
             "objective"),
            (lambda: batch_pareto_dp(hom, BOUNDS, min_reliability=0.5), "floor"),
        ]
        for call, reason in cases:
            with pytest.raises(BatchUnsupported) as exc:
                call()
            assert exc.value.reason == reason
        with pytest.raises(ValueError, match="bounds"):
            batch_pareto_dp(hom, [(0.0, math.inf)])
        out = batch_pareto_dp(hom, BOUNDS, rows=[])
        assert out.solved.shape == (0, len(BOUNDS)) and out.infos == []
