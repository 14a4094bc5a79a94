"""End-to-end benchmark of ``repro scenario run`` over four Section 8 workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hom-exact --seed 0 --seconds 30 --trace 0

``--trace 0`` times the real command as a subprocess, from process start
to exit: each pair is a **cold** leg on an empty result cache followed by
a **warm** leg on the cache the cold leg filled; the time left after the
last pair that fits buys more warm legs.  It reports
``cold_wall_s``, ``warm_wall_s``, ``setup_s`` (a fresh interpreter that
runs ``import repro.cli``), ``peak_rss_mb`` (the cold leg's child) and
``ok_frac`` (commands that exited 0 and passed every output check, over
commands attempted).  Every timing is the median of the run's samples.

``--trace 1`` gives the per-layer numbers instead: ``python -X importtime``
for the startup layers, then ``perfbench/pipeline.py`` children that drive
the same pipeline in-process through the layers' public functions, once
untraced and once traced, and a spans file under ``.perfbench/``.

Every leg's outputs are checked (``check_cold``, ``check_warm``); a failed check counts
in ``failed`` and makes the exit code 1.  The last stdout line is the JSON
result.  ``--record-golden`` rewrites ``golden.json`` for the given seeds
from cold legs of the current source tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"

#: Scenario, instance count and objective per workload.  Every workload
#: runs ``--grid auto`` (8 period points) with ``--jobs 1``.
WORKLOADS = {
    "hom-exact": {"scenario": "section8-hom", "n_instances": 100, "objective": "reliability"},
    "het-paper": {"scenario": "section8-het", "n_instances": 100, "objective": "reliability"},
    "long-chain-grid": {"scenario": "long-chain", "n_instances": 25, "objective": "reliability"},
    "hom-period-fallback": {"scenario": "section8-hom", "n_instances": 50, "objective": "period"},
}
GOLDEN_SEED = 0
TIMESTAMP = "20260101T000000Z"
IMPORTTIME_PROBES = 3
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    """The pinned environment of every child: source tree on the path,
    no ``REPRO_*`` overrides (so the default file-tree cache backend and
    ``--jobs 1`` hold), single-threaded BLAS."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Child:
    """Outcome of one child process: exit code, wall clock, peak RSS."""

    def __init__(self, argv: list, log: pathlib.Path, stdout: "pathlib.Path | None" = None):
        self.log = log
        t0 = time.perf_counter()
        with open(log, "wb") as err, open(stdout or os.devnull, "wb") as out:
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 rather than wait: it returns this child's own rusage.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        self.wall_s = time.perf_counter() - t0
        self.returncode = proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.ok = self.returncode == 0
        if not self.ok:
            tail = log.read_text(errors="replace")[-2000:]
            print(f"child failed (exit {self.returncode}): {tail}", file=sys.stderr)


def scenario_argv(workload: str, seed: int, leg_dir: pathlib.Path, cache: pathlib.Path) -> list:
    w = WORKLOADS[workload]
    return [
        sys.executable, "-m", "repro", "scenario", "run", w["scenario"],
        "--n-instances", str(w["n_instances"]), "--objective", w["objective"],
        "--grid", "auto", "--seed", str(seed), "--jobs", "1",
        "--cache-dir", str(cache), "--runs-dir", str(leg_dir / "runs"),
        "--manifest", str(leg_dir / "manifest.json"), "--timestamp", TIMESTAMP,
    ]


def series_digest(series: dict) -> str:
    """SHA-256 of a manifest ``series`` block in canonical JSON."""
    text = json.dumps(series, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def golden_digest(workload: str, seed: int) -> "str | None":
    table = json.loads(GOLDEN.read_text())["series_sha256"]
    return table.get(workload, {}).get(str(seed))


def check_cold(workload: str, seed: int, cold: dict) -> list:
    """Output checks on a cold leg's ``series`` block and cache ``stats``;
    returns the failed checks' descriptions."""
    problems = []
    golden = golden_digest(workload, seed)
    digest = series_digest(cold["series"])
    if golden is not None and digest != golden:
        problems.append(f"series digest {digest[:12]} != golden {golden[:12]}")
    if cold["stats"]["hits"] != 0:
        problems.append(f"cold leg: {cold['stats']['hits']} cache hits, not a cold run")
    if workload == "hom-exact":
        # The exact-dominates oracle: no heuristic solves more instances.
        exact = cold["series"]["pareto-dp"]["counts"]
        for name, entry in cold["series"].items():
            if any(h > e for h, e in zip(entry["counts"], exact)):
                problems.append(f"oracle: {name} solves more than pareto-dp "
                                f"({entry['counts']} vs {exact})")
    return problems


def check_warm(cold: dict, warm: dict) -> list:
    """A warm leg must reproduce the cold leg's series byte for byte from
    the cache alone: zero misses and zero puts."""
    problems = []
    if warm["series"] != cold["series"]:
        problems.append("warm leg: series differs from the cold leg")
    stats = warm["stats"]
    if stats["misses"] != 0 or stats["puts"] != 0:
        problems.append(f"warm leg: cache misses={stats['misses']} "
                        f"puts={stats['puts']}, not a warm run")
    return problems


def passed(problems: list) -> bool:
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return not problems


def read_leg(leg_dir: pathlib.Path) -> dict:
    manifest = json.loads((leg_dir / "manifest.json").read_text())
    return {"series": manifest["series"], "stats": manifest["cache"]}


def summarize(name: str, unit: str, samples: list) -> float:
    """Median of *samples*, printed with the sample count and range."""
    value = statistics.median(samples)
    print(f"{name:12s} median {value:.4f} {unit}  min {min(samples):.4f}  "
          f"max {max(samples):.4f}  n={len(samples)}")
    return value


class Tally:
    """Commands attempted and failed (exit code or output check)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += not ok
        return ok


def run_end_to_end(workload: str, seed: int, seconds: float, tmp: pathlib.Path,
                   tally: Tally) -> dict:
    deadline = time.perf_counter() + seconds
    probe = [sys.executable, "-c", "import repro.cli"]
    # One untimed import first: it writes the bytecode caches.
    tally.record(Child(probe, tmp / "import.log").ok)
    setup, cold_s, warm_s, rss = [], [], [], []

    def setup_then_warm(cache: pathlib.Path, cold: dict) -> float:
        """One setup probe, then one warm leg; returns the step's seconds.

        Setup probes are interleaved with the legs, so they sample the
        whole run rather than its first seconds."""
        t_step = time.perf_counter()
        child = Child(probe, tmp / "import.log")
        if tally.record(child.ok):
            setup.append(child.wall_s)
        leg_dir = tmp / "warm"
        leg_dir.mkdir()
        warm = Child(scenario_argv(workload, seed, leg_dir, cache), tmp / "warm.log")
        tally.record(warm.ok and passed(check_warm(cold, read_leg(leg_dir))))
        if warm.ok:
            warm_s.append(warm.wall_s)
        shutil.rmtree(leg_dir)
        return time.perf_counter() - t_step

    # Pairs: a cold leg on an empty cache, then a warm leg on the cache it
    # filled, while another pair fits in the budget (at least one runs).
    cache = tmp / "cache"
    while True:
        t_pair = time.perf_counter()
        shutil.rmtree(cache, ignore_errors=True)
        leg_dir = tmp / "cold"
        leg_dir.mkdir()
        child = Child(scenario_argv(workload, seed, leg_dir, cache), tmp / "cold.log")
        if not child.ok:
            tally.record(False)
            return {}
        cold = read_leg(leg_dir)
        shutil.rmtree(leg_dir)
        tally.record(passed(check_cold(workload, seed, cold)))
        cold_s.append(child.wall_s)
        rss.append(child.peak_rss_mb)
        step = setup_then_warm(cache, cold)
        now = time.perf_counter()
        if now + (now - t_pair) > deadline:
            break
    # The rest of the budget buys more warm legs and setup probes.
    while time.perf_counter() + step <= deadline:
        step = setup_then_warm(cache, cold)

    if not (setup and warm_s):
        return {}
    return {
        "cold_wall_s": summarize("cold_wall_s", "s", cold_s),
        "warm_wall_s": summarize("warm_wall_s", "s", warm_s),
        "setup_s": summarize("setup_s", "s", setup),
        "peak_rss_mb": summarize("peak_rss_mb", "MB", rss),
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }


def import_times(stderr_text: str) -> "tuple[float, float]":
    """``(repro, scipy)`` import seconds from ``python -X importtime`` output.

    The output lists modules children-first, indented by nesting depth.
    Read in reverse it lists parents first, so a stack of ancestors finds
    the outermost ``repro`` / ``scipy`` entries; their cumulative times
    add up to each package tree's import cost, with no double counting.
    """
    totals = {"repro": 0.0, "scipy": 0.0}
    stack: list = []  # (depth, name) of the enclosing modules
    for line in reversed(stderr_text.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and not any(a.split(".")[0] == top for _, a in stack):
            totals[top] += int(cumulative) / 1e6
        stack.append((depth, name))
    return totals["repro"], totals["scipy"]


def run_traced(workload: str, seed: int, seconds: float, tmp: pathlib.Path,
               tally: Tally) -> dict:
    deadline = time.perf_counter() + seconds
    probe = [sys.executable, "-X", "importtime", "-c", "import repro.cli"]
    import_s, scipy_s = [], []
    for _ in range(IMPORTTIME_PROBES):
        child = Child(probe, tmp / "importtime.log")
        if tally.record(child.ok):
            repro_s, scipy_part = import_times(child.log.read_text())
            import_s.append(repro_s)
            scipy_s.append(scipy_part)

    samples: dict = {}
    spans: list = []
    rep = 0
    while True:
        t_rep = time.perf_counter()
        walls, digests = {}, {}
        # Alternate which side runs first, so drift hits both alike.
        for traced in ((0, 1) if rep % 2 == 0 else (1, 0)):
            rep_dir = tmp / f"rep{rep}-{traced}"
            rep_dir.mkdir()
            out = rep_dir / "out.json"
            child = Child(
                [sys.executable, str(HERE / "pipeline.py"), "--workload", workload,
                 "--seed", str(seed), "--dir", str(rep_dir), "--traced", str(traced)],
                rep_dir / "pipeline.log", stdout=out,
            )
            if not child.ok:
                tally.record(False)
                continue
            result = json.loads(out.read_text())
            tally.record(passed(check_cold(workload, seed, result["cold"])
                                + check_warm(result["cold"], result["warm"])))
            walls[traced] = result["cold"]["metrics"]["trace.leg_s"]
            digests[traced] = series_digest(result["cold"]["series"])
            if traced:
                for leg in ("cold", "warm"):
                    prefix = "" if leg == "cold" else "warm."
                    for name, value in result[leg]["metrics"].items():
                        samples.setdefault(prefix + name, []).append(value)
                # Span ids restart in every child; offset them to stay unique.
                base = len(spans)
                spans.extend(
                    {**span, "id": base + span["id"], "leg": f"rep{rep}.{span['leg']}",
                     "parent": None if span["parent"] is None else base + span["parent"]}
                    for span in result["spans"]
                )
            shutil.rmtree(rep_dir)
        if len(set(digests.values())) > 1:
            print("check failed: traced and untraced runs give different series",
                  file=sys.stderr)
            tally.failed += 1
        if len(walls) == 2:
            samples.setdefault("trace.overhead_frac", []).append(walls[1] / walls[0] - 1.0)
        rep += 1
        now = time.perf_counter()
        if now + (now - t_rep) > deadline:
            break

    if not (import_s and "trace.overhead_frac" in samples):
        return {}
    spans_path = WORK / f"spans-{workload}-seed{seed}.json"
    spans_path.write_text(json.dumps({"workload": workload, "seed": seed, "spans": spans}) + "\n")
    print(f"wrote {len(spans)} spans to {spans_path.relative_to(ROOT)}")
    metrics = {
        "startup.import_s": statistics.median(import_s),
        "startup.scipy_import_s": statistics.median(scipy_s),
    }
    metrics.update({name: statistics.median(values) for name, values in samples.items()})
    return metrics


def record_golden(workload: str, seeds: list) -> int:
    table = json.loads(GOLDEN.read_text())
    WORK.mkdir(exist_ok=True)
    for seed in seeds:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            leg_dir = pathlib.Path(tmp) / "cold"
            leg_dir.mkdir()
            child = Child(scenario_argv(workload, seed, leg_dir, leg_dir / "cache"),
                          pathlib.Path(tmp) / "cold.log")
            if not child.ok:
                return 1
            digest = series_digest(read_leg(leg_dir)["series"])
        table["series_sha256"].setdefault(workload, {})[str(seed)] = digest
        print(f"{workload} seed {seed}: {digest}")
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED,
                        help="scenario seed (default: the golden seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring budget; at least one full repetition runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", type=int, nargs="+", metavar="SEED",
                        help="record golden series digests for these seeds and exit")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro source tree at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden(args.workload, args.record_golden)

    WORK.mkdir(exist_ok=True)
    tally = Tally()
    tmp = pathlib.Path(tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-"))
    try:
        run = run_traced if args.trace else run_end_to_end
        values = run(args.workload, args.seed, args.seconds, tmp, tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not values:
        print("no complete repetition: nothing to report", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
