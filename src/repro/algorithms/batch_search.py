"""Batched bisection-search kernels: het-period-search / het-latency-search.

The scalar search (:func:`repro.algorithms.search.bisection_search`)
bisects one criterion with one Heur-L solve per probe.  Its batched
twin runs every probe round as a single vectorized Heur-L call over
*all* not-yet-converged lanes — one lane per (row, sweep point), each
with its own bracket — on the probe tables
:func:`~repro.algorithms.batch.heuristic_probe_tables` exposes
(homogeneous rows reuse the bounds-independent candidate table;
heterogeneous rows re-run the lockstep Section 7.2 allocation per
round).  Because a lane's ``(lo, hi)`` trajectory depends only on
its own probe outcomes, lockstep rounds replicate each scalar search's
probe sequence — and its probe *count* and ``converged`` flag —
exactly; the bit-identity contract of :mod:`repro.algorithms.batch`
carries over unchanged.

The kernels' :class:`~repro.algorithms.batch.BatchResult` ``infos``
carry the per-row details (``probes`` summed over the row's sweep
points — infeasible points count their single refused probe, as the
scalar details do — and ``converged`` ANDed over feasible points),
matching what the harness accumulates from per-row details.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.algorithms.batch import (
    BatchResult,
    BatchUnsupported,
    _failure_map,
    _pyfloat,
    floor_log_reliability,
    heuristic_probe_tables,
)
from repro.algorithms.search import CRITERIA, MAX_PROBES, REL_TOL

__all__ = ["batch_bisection_search", "search_solve_batch"]


def batch_bisection_search(
    ensemble,
    bounds: Sequence[tuple[float, float]],
    *,
    rows: "Sequence[int] | None" = None,
    criterion: str = "period",
    min_reliability: float = 0.0,
) -> BatchResult:
    """Run a bisection search on every ensemble row at every bound.

    The batched twin of calling
    :func:`~repro.algorithms.search.bisection_search` per row per sweep
    point — bit-identical to that loop, one lockstep kernel instead.
    ``criterion`` selects which coordinate is bisected; the other
    coordinate stays at the sweep point's bound, exactly as the scalar
    probe passes it.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"unknown search criterion {criterion!r}")
    if rows is None:
        rows = range(ensemble.n_instances)
    rows = np.asarray(list(rows), dtype=np.int64)
    n_pts = len(bounds)
    r = len(rows)
    solved = np.zeros((r, n_pts), dtype=bool)
    failure = np.ones((r, n_pts), dtype=float)
    values = np.full((r, n_pts), math.inf, dtype=float)
    infos: list = [None] * r
    if r == 0 or n_pts == 0:
        return BatchResult(solved, failure, values, infos)
    for P, L in bounds:
        if float(P) <= 0 or float(L) <= 0:
            raise ValueError("bounds must be > 0")

    floor = floor_log_reliability(min_reliability)
    work = np.asarray(ensemble.work[rows], dtype=float)
    speeds = np.asarray(ensemble.speeds[rows], dtype=float)
    # The scalar lower brackets, per row: max_i w_i / max_u s_u for the
    # period, sum_i w_i / max_u s_u for the latency (per-row reductions
    # — the scalar path's float(np.sum(...)) is over one row, not an
    # axis reduction).
    period = criterion == "period"
    reduce = CRITERIA[criterion].reduce
    lo_row = np.array(
        [float(reduce(work[k])) / float(np.max(speeds[k])) for k in range(r)]
    )

    # Lane layout: lane = ri * n_pts + pt.
    P_lane = np.tile(np.array([float(P) for P, _ in bounds]), r)
    L_lane = np.tile(np.array([float(L) for _, L in bounds]), r)
    lo_lane = np.repeat(lo_row, n_pts)
    probes_lane = np.zeros(r * n_pts, dtype=np.int64)
    ok_lane = np.zeros(r * n_pts, dtype=bool)
    conv_lane = np.zeros(r * n_pts, dtype=bool)
    ell_lane = np.full(r * n_pts, -math.inf)
    val_lane = np.full(r * n_pts, math.inf)

    for idx, table in heuristic_probe_tables(ensemble, np.repeat(rows, n_pts), "heur-l"):
        P_p, L_p = P_lane[idx], L_lane[idx]
        probes = np.ones(idx.size, dtype=np.int64)
        # Loosest probe first, at the sweep point's own bounds.  The
        # scalar probe runs without the floor and checks it after —
        # same thing as masking here, since the probe maximizes ell.
        feas, ell, wp, wl = table.probe(P_p, L_p, -math.inf)
        wit = wp if period else wl
        ok = feas & (ell >= floor)
        b_ell = np.where(ok, ell, -math.inf)
        b_wit = np.where(ok, wit, math.inf)
        lo = lo_lane[idx].copy()
        hi = np.where(ok, wit, 0.0)

        active = ok & (probes < MAX_PROBES) & (
            hi - lo > REL_TOL * np.maximum(hi, 1.0)
        )
        while active.any():
            mid = 0.5 * (lo + hi)
            probes = np.where(active, probes + 1, probes)
            if period:
                bounds_m = (np.where(active, mid, P_p), L_p)
            else:
                bounds_m = (P_p, np.where(active, mid, L_p))
            feas_m, ell_m, wp_m, wl_m = table.probe(*bounds_m, -math.inf)
            wit_m = wp_m if period else wl_m
            ok_m = feas_m & (ell_m >= floor)
            acc = active & ok_m
            b_ell = np.where(acc, ell_m, b_ell)
            b_wit = np.where(acc, wit_m, b_wit)
            hi = np.where(acc, np.minimum(mid, wit_m), hi)
            lo = np.where(active & ~ok_m, mid, lo)
            active = ok & (probes < MAX_PROBES) & (
                hi - lo > REL_TOL * np.maximum(hi, 1.0)
            )

        conv = (hi - lo) <= REL_TOL * np.maximum(hi, 1.0)
        probes_lane[idx] = probes
        ok_lane[idx] = ok
        conv_lane[idx] = conv
        ell_lane[idx] = b_ell
        val_lane[idx] = b_wit

    solved = ok_lane.reshape(r, n_pts)
    # The probe table's ell replicates evaluate_mapping's
    # log-reliability bit for bit, so failure = -expm1(ell) matches the
    # scalar result's failure_probability.
    failure = np.where(ok_lane, _pyfloat(_failure_map(ell_lane)), 1.0).reshape(
        r, n_pts
    )
    values = np.where(ok_lane, val_lane, math.inf).reshape(r, n_pts)
    probes2 = probes_lane.reshape(r, n_pts)
    conv2 = conv_lane.reshape(r, n_pts)
    for ri in range(r):
        info = {"probes": int(probes2[ri].sum())}
        if solved[ri].any():
            info["converged"] = bool(conv2[ri][solved[ri]].all())
        infos[ri] = info
    return BatchResult(solved, failure, values, infos)


def search_solve_batch(criterion: str):
    """Package :func:`batch_bisection_search` as a ``solve_batch`` entry
    for ``het-period-search`` (``criterion="period"``) or
    ``het-latency-search`` (``criterion="latency"``)."""
    if criterion not in CRITERIA:
        raise ValueError(f"unknown search criterion {criterion!r}")

    def solve_batch(
        ensemble,
        bounds,
        *,
        rows=None,
        objective=None,
        min_reliability=0.0,
    ):
        if objective is not None and objective != criterion:
            raise BatchUnsupported(
                f"the batched {criterion}-search kernel covers objective "
                f"{criterion!r} only, got {objective!r}",
                reason="objective",
            )
        return batch_bisection_search(
            ensemble,
            bounds,
            rows=rows,
            criterion=criterion,
            min_reliability=min_reliability,
        )

    return solve_batch
