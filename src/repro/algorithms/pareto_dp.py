"""Exact tri-criteria solver for homogeneous platforms (our addition).

The paper solves the homogeneous tri-criteria problem (maximize
reliability under period *and* latency bounds) with an integer linear
program (Section 5.4) because the bi-criteria (reliability, latency)
problem is NP-complete (Theorem 3).  This module provides an exact
*combinatorial* alternative used to cross-validate the ILP: a dynamic
program over states ``(tasks mapped, processors used)`` whose value is
the Pareto frontier of ``(communication latency so far, log-reliability)``
pairs.

Why this is exact.  On a homogeneous platform the latency of a mapping
is ``W_total / s + sum_j o_{l_j} / b`` (Eq. (5)/(7): the computation term
is partition-invariant), so among prefixes using the same number of
processors, a partial mapping can only be beaten by one with both a
smaller accumulated communication term and a better reliability — the
Pareto frontier keeps every potentially-optimal prefix.  Worst-case
complexity is exponential (consistent with Theorem 3: the frontier can
grow with the number of distinct communication subsets), but frontier
sizes stay tiny on practical instances, which makes this an effective
exact method at the paper's experimental scale (n = 15).

The same frontier answers the *converse* latency question
(:func:`minimize_latency`, the Section 5.3 scope of the tri-criteria
facade): the minimum-latency mapping whose reliability meets a floor is
attained at a final Pareto point — any dominated mapping is beaten on
both coordinates by a frontier one — so minimizing over the frontier's
points with value above the floor is exact, at the cost of one DP run.

Stage table.  Everything the DP reads that does not depend on the
bounds — per interval ``[j, i)`` its computation time and its
log-reliability replicated on ``q = 1..K`` processors — is built once
per instance by :func:`_stage_table`, with a single vectorized
:func:`~repro.util.logrel.parallel_k_many` call, and shared by every DP
run on that instance: the ``dp-period`` probes pass it to
:func:`pareto_dp_best`, and the batched kernels build one per row.

Reconstruction.  A frontier point's payload ``(j, k_prev, q, parent)``
names the interval ``[j, i)`` on ``q`` replicas it appended and the
*index* of its parent point in ``front[j][k_prev]``.  A frontier's
costs are strictly increasing and ``front[j]`` is final before any
``i > j`` reads it, so the walk back from a final point follows exact
links.

Batch kernel.  :func:`~repro.algorithms.batch_dp.batch_pareto_dp` (the
``pareto-dp`` method's ``solve_batch``) runs one DP per (row, distinct
period bound) with the group's largest latency budget and answers each
sweep point with the most reliable final point within its own budget —
the shared-frontier argument of the ``dp-latency`` kernel, through the
same per-row routine.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms._hom_dp import require_homogeneous
from repro.algorithms.result import SolveResult
from repro.core.chain import TaskChain
from repro.core.evaluation import comm_log_reliability, evaluate_mapping
from repro.core.interval import Interval
from repro.core.mapping import Mapping
from repro.core.platform import Platform
from repro.util import logrel
from repro.util.pareto import ParetoFrontier

__all__ = ["pareto_dp_best", "minimize_latency"]


class _StageTable:
    """Everything the DP reads that does not depend on the bounds.

    ``stage[i][j][q - 1]`` is the log-reliability of interval ``[j, i)``
    replicated on ``q`` processors (incoming and outgoing communication
    included); ``compute[i][j]`` is its computation time and
    ``comm_time[j]`` the time of the communication crossing boundary
    ``j``.  Built once per instance by :func:`_stage_table` and shared by
    every DP run on that instance.
    """

    __slots__ = (
        "chain", "platform", "n", "p", "kmax", "total_compute",
        "comm_time", "compute", "stage",
    )

    def __init__(self, chain, platform, kmax, total_compute, comm_time,
                 compute, stage):
        self.chain = chain
        self.platform = platform
        self.n = chain.n
        self.p = platform.p
        self.kmax = kmax
        self.total_compute = total_compute
        self.comm_time = comm_time
        self.compute = compute
        self.stage = stage


def _stage_table(chain: TaskChain, platform: Platform) -> _StageTable:
    """The stage table of one homogeneous instance: every interval's
    replicated log-reliability from a single vectorized
    :func:`~repro.util.logrel.parallel_k_many` call."""
    n, p = chain.n, platform.p
    kmax = min(platform.max_replication, p)
    s = float(platform.speeds[0])
    lam = float(platform.failure_rates[0])
    b = platform.bandwidth

    prefix = np.concatenate(([0.0], np.cumsum(chain.work)))
    ell_comm = [comm_log_reliability(platform, chain.input_of(j)) for j in range(n)]
    ell_comm.append(comm_log_reliability(platform, chain.output_of(n)))
    comm_time = [chain.input_of(j) / b for j in range(n)]
    comm_time.append(chain.output_of(n) / b)

    # Intervals [j, i) in (i, j) order: interval (j, i) is flat row
    # i * (i - 1) / 2 + j.
    compute: list[list[float]] = [[]]
    branch: list[float] = []
    for i in range(1, n + 1):
        row = []
        for j in range(i):
            work = float(prefix[i] - prefix[j])
            row.append(work / s)
            branch.append(ell_comm[j] - lam * work / s + ell_comm[i])
        compute.append(row)
    flat = logrel.parallel_k_many(
        np.array(branch)[:, None], np.arange(1, kmax + 1)
    ).tolist()
    stage = [flat[i * (i - 1) // 2 : i * (i + 1) // 2] for i in range(n + 1)]
    return _StageTable(
        chain, platform, kmax, float(prefix[-1]) / s, comm_time, compute, stage
    )


def _run_dp(
    table: _StageTable, max_period: float, comm_budget: float
) -> list[list["ParetoFrontier | None"]]:
    """Fill the frontier table ``front[i][k]`` for prefixes of *i* tasks
    on exactly *k* processors (see the module docstring).

    ``front[i][k]`` is the Pareto frontier over (comm latency incl. the
    outgoing communication of the interval ending at *i*,
    log-reliability).  Each point's payload ``(j, k_prev, q, parent)``
    links it to point ``parent`` of ``front[j][k_prev]``: every insertion
    into ``front[j]`` happens before any ``i > j`` reads it, so that
    index is final.
    """
    n, p, kmax = table.n, table.p, table.kmax
    comm_time = table.comm_time
    front: list[list[ParetoFrontier | None]] = [
        [None] * (p + 1) for _ in range(n + 1)
    ]
    start = ParetoFrontier()
    start.insert(0.0, 0.0, None)
    front[0][0] = start
    points = [_indexed(front[0])]  # points[j]: row j, once final

    for i in range(1, n + 1):
        out_time = comm_time[i]
        dst_row = front[i]
        if out_time <= max_period:  # else no interval may end at i
            compute_i, stage_i = table.compute[i], table.stage[i]
            for j in range(0, i):
                if compute_i[j] > max_period or comm_time[j] > max_period:
                    continue
                stage = stage_i[j]
                for k_prev, src in enumerate(points[j][:p]):
                    if src is None:
                        continue
                    moved = [
                        (cost + out_time, value, idx)
                        for cost, value, idx in src
                        if cost + out_time <= comm_budget
                    ]
                    if not moved:
                        continue
                    for q in range(1, min(kmax, p - k_prev) + 1):
                        dst_k = k_prev + q
                        dst = dst_row[dst_k]
                        if dst is None:
                            dst = ParetoFrontier()
                            dst_row[dst_k] = dst
                        insert, ell = dst.insert, stage[q - 1]
                        for new_cost, value, idx in moved:
                            insert(new_cost, value + ell, (j, k_prev, q, idx))
        points.append(_indexed(dst_row))

    return front


def _indexed(row: list) -> list:
    """A frontier row as lists of ``(cost, value, index)`` triples
    (``None`` for an absent frontier)."""
    return [
        None if fr is None
        else [(cost, value, idx) for idx, (cost, value, _) in enumerate(fr)]
        for fr in row
    ]


def _reconstruct(table: _StageTable, front, payload) -> Mapping:
    """Follow parent links from a final point's *payload* back to the
    empty prefix; replicas go to processors 0, 1, 2, ..."""
    pieces: list[tuple[int, int, int]] = []
    i = table.n
    while payload is not None:
        j, k_prev, q, parent = payload
        pieces.append((j, i, q))
        payload = front[j][k_prev][parent][2]
        i = j
    pieces.reverse()

    assignment = []
    nxt = 0
    for a, z, q in pieces:
        assignment.append((Interval(a, z), tuple(range(nxt, nxt + q))))
        nxt += q
    return Mapping(table.chain, table.platform, assignment)


def _most_reliable(final, budget: float):
    """Payload of the most reliable final point within *budget* (lowest
    processor count on ties), or ``None``."""
    best = None
    for fr in final:
        if fr is None:
            continue
        hit = fr.best_value_within(budget)
        if hit is not None and (best is None or hit[0] > best[0]):
            best = hit
    return None if best is None else best[1]


def _fastest(final, budget: float, floor: float):
    """Payload of the cheapest final point within *budget* whose value
    meets *floor* — ties broken by value, then lowest processor count —
    or ``None``."""
    best_key, best = None, None
    for k, fr in enumerate(final):
        if fr is None:
            continue
        # Costs and values both increase along a frontier: the first
        # point meeting the floor is this k's cheapest.
        for cost, value, payload in fr:
            if cost > budget:
                break
            if value >= floor:
                key = (cost, -value, k)
                if best_key is None or key < best_key:
                    best_key, best = key, payload
                break
    return best


def pareto_dp_best(
    chain: TaskChain,
    platform: Platform,
    max_period: float = math.inf,
    max_latency: float = math.inf,
    *,
    stages: "_StageTable | None" = None,
) -> SolveResult:
    """Most reliable homogeneous mapping under period and latency bounds.

    Exact.  With ``max_latency = inf`` this reduces to Algorithm 2, and
    with both bounds infinite to Algorithm 1 (both reductions are tested).
    Callers that solve one instance under many bounds (the ``dp-period``
    probes) build its stage table once with ``_stage_table(chain,
    platform)`` and pass it as *stages*.

    Examples
    --------
    >>> from repro.core import TaskChain, Platform
    >>> chain = TaskChain([6.0, 6.0], [4.0, 0.0])
    >>> plat = Platform.homogeneous_platform(4, failure_rate=1e-6,
    ...                                      max_replication=2)
    >>> res = pareto_dp_best(chain, plat, max_period=7.0, max_latency=17.0)
    >>> res.mapping.m     # split needed for P, allowed by L
    2
    """
    require_homogeneous(platform, "the exact Pareto DP")
    if max_period <= 0 or max_latency <= 0:
        raise ValueError("bounds must be > 0")
    table = _stage_table(chain, platform) if stages is None else stages
    comm_budget = max_latency - table.total_compute
    if comm_budget < 0:
        # Even a zero-communication partition exceeds the latency bound.
        return SolveResult.infeasible(
            "pareto-dp", reason="latency below compute lower bound"
        )

    front = _run_dp(table, max_period, comm_budget)
    final = front[chain.n]
    payload = _most_reliable(final, comm_budget)
    if payload is None:
        return SolveResult.infeasible("pareto-dp")

    mapping = _reconstruct(table, front, payload)
    return SolveResult(
        feasible=True,
        mapping=mapping,
        evaluation=evaluate_mapping(mapping),
        method="pareto-dp",
        details={"frontier_final_size": sum(len(f) for f in final if f)},
    )


def minimize_latency(
    chain: TaskChain,
    platform: Platform,
    min_log_reliability: float = -math.inf,
    max_period: float = math.inf,
    max_latency: float = math.inf,
) -> SolveResult:
    """Minimize the latency under a reliability floor and a period bound.

    Exact on homogeneous platforms.  The latency of a mapping is
    ``W_total / s`` plus its accumulated communication term, and the
    minimum-latency mapping meeting the floor is attained at a final
    Pareto point of the same DP :func:`pareto_dp_best` runs (any
    non-frontier mapping is dominated on both coordinates).  One DP run
    with the latency budget as the pruning bound, then a scan of the
    final frontiers for the cheapest point whose value meets the floor.

    Parameters
    ----------
    min_log_reliability:
        Reliability floor as a log-probability (``-inf`` = no floor:
        minimize latency over all mappings within the period bound).
    max_period:
        Period bound honored by every candidate interval.
    max_latency:
        Optional cap on the answer; the result is infeasible when even
        the optimal latency exceeds it.

    Examples
    --------
    >>> from repro.core import TaskChain, Platform
    >>> chain = TaskChain([6.0, 6.0], [4.0, 0.0])
    >>> plat = Platform.homogeneous_platform(4, failure_rate=1e-6,
    ...                                      max_replication=2)
    >>> minimize_latency(chain, plat).details["optimal_latency"]  # 1 interval
    12.0
    >>> minimize_latency(chain, plat, max_period=7.0).details["optimal_latency"]
    16.0
    """
    require_homogeneous(platform, "latency minimization")
    if min_log_reliability > 0.0 or math.isnan(min_log_reliability):
        raise ValueError("min_log_reliability must be a log-probability (<= 0)")
    if max_period <= 0 or max_latency <= 0:
        raise ValueError("bounds must be > 0")
    table = _stage_table(chain, platform)
    comm_budget = max_latency - table.total_compute
    if comm_budget < 0:
        return SolveResult.infeasible(
            "dp-latency", reason="latency cap below compute lower bound"
        )

    front = _run_dp(table, max_period, comm_budget)
    final = front[chain.n]
    payload = _fastest(final, comm_budget, min_log_reliability)
    if payload is None:
        return SolveResult.infeasible(
            "dp-latency",
            min_log_reliability=min_log_reliability,
            max_period=max_period,
            max_latency=max_latency,
        )

    # The chosen point's cost, as the DP summed it: parent cost plus
    # the final outgoing communication.
    j, k_prev, _q, parent = payload
    cost = front[j][k_prev][parent][0] + table.comm_time[chain.n]
    mapping = _reconstruct(table, front, payload)
    return SolveResult(
        feasible=True,
        mapping=mapping,
        evaluation=evaluate_mapping(mapping),
        method="dp-latency",
        details={
            "optimal_latency": table.total_compute + cost,
            "frontier_final_size": sum(len(f) for f in final if f),
        },
    )
