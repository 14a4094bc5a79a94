"""One workload's ``scenario run`` pipeline, driven in-process, cold then warm.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/pipeline.py --workload hom-exact --seed 0 --dir DIR --traced 1

Calls the layers' public functions in the order ``repro scenario run``
calls them: ``Planner().plan`` -> ``generate_ensembles`` ->
``derive_bounds_grid`` -> ``run_sweep`` -> ``write_run``.  The first leg
runs on an empty cache under ``DIR``, the second on the cache the first
filled.  With ``--traced 1`` every layer call, and every result-cache
``get_record`` / ``put_record``, is a span kept in memory; the spans and
the per-layer metrics derived from them are printed once, as one JSON
object, when both legs are done.  ``--traced 0`` runs the same calls with
no spans and the plain cache, so the two runs' leg wall clocks give the
tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import sys
import time

from run import TIMESTAMP, WORKLOADS

# The CLI's own serializer of the manifest ``series`` block, so the traced
# run's series digest is comparable with the golden ones.
from repro.cli import _series_record
from repro.experiments.cache import ResultCache, resolve_cache
from repro.experiments.harness import run_sweep
from repro.obs import run_id_for, write_atomic, write_run
from repro.obs import telemetry as obs
from repro.scenarios import generate_ensembles, get_scenario, scenario_hash
from repro.solve import Planner, derive_bounds_grid

GRID_POINTS = 8  # the CLI's --grid-points default
#: Every method a workload plans; metrics are reported for all of them
#: (zero where a workload does not plan the method) so each workload
#: prints the same metric names.
METHODS = ("pareto-dp", "heur-l", "heur-p", "heur-l-paper", "heur-p-paper",
           "dp-period", "het-period-search")


class Tracer:
    """In-memory spans: name, start, end, parent id, and the leg id
    shared by one leg's spans."""

    def __init__(self) -> None:
        self.spans: list = []
        self.leg = ""
        self._open: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "leg": self.leg,
                  "parent": self._open[-1] if self._open else None}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


class NullTracer:
    """The untraced run's stand-in: every span is a no-op."""

    def __init__(self) -> None:
        self.spans: list = []
        self.leg = ""

    def span(self, name: str):
        return contextlib.nullcontext()


class TimedCache(ResultCache):
    """The default file-tree cache, with every record read and write a span.

    ``resolve_cache`` passes instances through unchanged, so the grid and
    the sweep use this object as they would the CLI's cache.
    """

    def __init__(self, root: pathlib.Path, tracer: Tracer) -> None:
        super().__init__(root, backend="files")
        self.tracer = tracer

    def get_record(self, key, method_name=None, n_points=None):
        with self.tracer.span("experiments.cache.get"):
            return super().get_record(key, method_name=method_name, n_points=n_points)

    def put_record(self, key, record):
        with self.tracer.span("experiments.cache.put"):
            super().put_record(key, record)


def tree_bytes(path: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_leg(workload: str, seed: int, leg_dir: pathlib.Path, cache_dir: pathlib.Path,
            tracer) -> dict:
    """One leg, mirroring ``repro scenario run --grid auto --jobs 1``."""
    w = WORKLOADS[workload]
    entry = get_scenario(w["scenario"])
    spec = entry.spec.with_(n_instances=w["n_instances"])
    spec_hash = scenario_hash(spec)
    collector = obs.Telemetry()
    t0 = time.perf_counter()
    with tracer.span("leg"):
        with tracer.span("solve.planner.plan"), obs.collect(collector):
            plan = Planner().plan(entry if entry.spec == spec else spec,
                                  objective=w["objective"])
        with tracer.span("scenarios.generate"):
            instances = generate_ensembles(spec, seed=seed)
        cache = (TimedCache(cache_dir, tracer) if isinstance(tracer, Tracer)
                 else resolve_cache(cache_dir))
        with tracer.span("solve.grid.derive"), obs.collect(collector):
            grid = derive_bounds_grid(instances, n_points=GRID_POINTS, seed=seed, cache=cache)
        bounds = grid.sweep("period")
        with tracer.span("experiments.harness.sweep"), obs.collect(collector):
            sweep = run_sweep(instances, plan.methods(), bounds, xs=grid.xs("period"),
                              jobs=1, cache=cache, scenario_key=spec_hash,
                              objective=w["objective"], min_reliability=0.0)
        series = _series_record(sweep)
        manifest = {
            "command": "scenario-run", "timestamp": TIMESTAMP, "seed": seed,
            "scenario": {"name": spec.name, "spec_hash": spec_hash},
            "plan": plan.describe(), "grid": {"mode": "auto", **grid.describe()},
            "series": series, "timings": sweep.timings, "cache": cache.stats(),
            "telemetry": collector.snapshot(),
        }
        run_id = run_id_for({"command": "scenario-run", "scenario": spec_hash,
                             "seed": seed, "methods": list(plan.selected)}, TIMESTAMP)
        manifest_path = leg_dir / "manifest.json"
        with tracer.span("obs.ledger.write"):
            run_dir = write_run(leg_dir / "runs", run_id, manifest, per_unit=sweep.unit_events)
            write_atomic(manifest_path, json.dumps(manifest, indent=2) + "\n")
    wall = time.perf_counter() - t0
    return {
        "series": series,
        "stats": cache.stats(),
        "metrics": leg_metrics(tracer, sweep, collector.counters, cache.stats(), cache_dir,
                               tree_bytes(run_dir) + manifest_path.stat().st_size, wall),
    }


def leg_metrics(tracer, sweep, counters: dict, stats: dict, cache_dir: pathlib.Path,
                ledger_bytes: int, wall: float) -> dict:
    """The per-layer metrics of the leg whose spans *tracer* holds last."""
    spans = [s for s in tracer.spans if s["leg"] == tracer.leg]
    selfs = self_times(spans)
    seconds: dict = {}
    calls: dict = {}
    for s in spans:
        seconds[s["name"]] = seconds.get(s["name"], 0.0) + s["end"] - s["start"]
        calls[s["name"]] = calls.get(s["name"], 0) + 1
    probes_solved = sum(v for k, v in counters.items() if k.startswith("grid.probe.solved"))
    probes_cached = sum(v for k, v in counters.items() if k.startswith("grid.probe.cached"))
    get_calls = calls.get("experiments.cache.get", 0)
    derive_s = seconds.get("solve.grid.derive", 0.0)
    out = {
        "trace.leg_s": wall,
        "trace.unattributed_s": sum(selfs[s["id"]] for s in spans if s["name"] == "leg"),
        "scenarios.generate_s": seconds.get("scenarios.generate", 0.0),
        "solve.planner.plan_s": seconds.get("solve.planner.plan", 0.0),
        "solve.grid.derive_s": derive_s,
        "solve.grid.probes_solved": probes_solved,
        "solve.grid.probes_cached": probes_cached,
        "solve.grid.s_per_probe": derive_s / probes_solved if probes_solved else 0.0,
        "experiments.harness.sweep_s": seconds.get("experiments.harness.sweep", 0.0),
        "experiments.harness.cache_lookup_s": sweep.timings["cache_lookup"],
        "experiments.cache.get_calls": get_calls,
        "experiments.cache.get_s": seconds.get("experiments.cache.get", 0.0),
        "experiments.cache.hit_ratio": stats["hits"] / get_calls if get_calls else 0.0,
        "experiments.cache.put_calls": calls.get("experiments.cache.put", 0),
        "experiments.cache.put_s": seconds.get("experiments.cache.put", 0.0),
        "experiments.cache.store_bytes": tree_bytes(cache_dir),
        "obs.ledger.write_s": seconds.get("obs.ledger.write", 0.0),
        "obs.ledger.bytes": ledger_bytes,
    }
    # Per-method attribution from the sweep's own per-unit records:
    # "batch" units were served by a kernel (seconds = the group's
    # amortized share), "parent" units by a per-row solve.
    events = sweep.unit_events
    kernel_units = sum(e["source"] == "batch" for e in events)
    computed = kernel_units + sum(e["source"] == "parent" for e in events)
    out.update({
        "experiments.harness.kernel_units": kernel_units,
        "experiments.harness.perrow_units": computed - kernel_units,
        "experiments.harness.fallback_units": sum("batch_fallback" in e for e in events),
        "experiments.harness.kernel_coverage": kernel_units / computed if computed else 0.0,
    })
    for method in METHODS:
        kernel = [e for e in events if e["method"] == method and e["source"] == "batch"]
        perrow = [e for e in events if e["method"] == method and e["source"] == "parent"]
        perrow_s = sum((e["seconds"] for e in perrow), 0.0)
        out[f"algorithms.{method}.kernel_s"] = sum((e["seconds"] for e in kernel), 0.0)
        out[f"algorithms.{method}.perrow_s"] = perrow_s
        out[f"algorithms.{method}.perrow_s_per_unit"] = perrow_s / len(perrow) if perrow else 0.0
        computed = len(kernel) + len(perrow)
        out[f"algorithms.{method}.kernel_coverage"] = len(kernel) / computed if computed else 0.0
    return out


def self_times(spans: list) -> dict:
    """Span id -> its duration minus the durations of its child spans."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=pathlib.Path, required=True,
                        help="empty directory for the cache and the ledgers")
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    tracer = Tracer() if args.traced else NullTracer()
    result = {}
    for leg in ("cold", "warm"):
        tracer.leg = leg
        leg_dir = args.dir / leg
        leg_dir.mkdir()
        result[leg] = run_leg(args.workload, args.seed, leg_dir, args.dir / "cache", tracer)
    selfs = self_times(tracer.spans)
    result["spans"] = [{**s, "self": selfs[s["id"]]} for s in tracer.spans]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
