"""The Heur-L and Heur-P heuristics (Section 7).

Each heuristic has two steps: (1) divide the chain into intervals, and
(2) allocate processors to those intervals.  For a given problem
instance, each heuristic computes one division per possible number of
intervals ``i = 1 .. min(n, p)``, allocates processors to each, and the
caller (here :func:`heuristic_best`) selects — among the candidates
meeting the period and latency bounds — the one with the best
reliability (Section 7, first paragraph).

* **Heur-L** (Algorithm 3) targets the latency: for ``i`` intervals it
  cuts the chain at the ``i - 1`` *smallest* output-communication costs,
  minimizing the total communication term of the latency (on a
  homogeneous platform the computation term is partition-invariant).

* **Heur-P** (Algorithm 4) targets the period: a dynamic program
  computes, for each ``i``, the division of the chain into ``i``
  intervals minimizing ``max(max_j W_j / s, max_j o_{l_j} / b)`` — the
  optimal ``i``-interval period on a homogeneous reference platform.

Allocation uses Algo-Alloc on homogeneous platforms (optimal,
Theorem 4) and the Section 7.2 variant with the period bound on
heterogeneous ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from repro.algorithms.allocation import algo_alloc, algo_alloc_het
from repro.algorithms.result import SolveResult
from repro.core.chain import TaskChain
from repro.core.evaluation import MappingEvaluation, evaluate_mapping
from repro.core.interval import Interval, partition_from_cuts
from repro.core.mapping import Mapping
from repro.core.platform import Platform

__all__ = [
    "heur_l_intervals",
    "heur_p_intervals",
    "heuristic_candidates",
    "heuristic_best",
    "HeuristicCandidate",
]

HeuristicName = Literal["heur-l", "heur-p"]


def heur_l_intervals(chain: TaskChain, m: int) -> list[Interval]:
    """Algorithm 3: division into *m* intervals with minimal latency.

    Selects the ``m - 1`` smallest output-communication costs among
    tasks ``tau_1 .. tau_{n-1}`` as cut points (ties broken by chain
    position, matching the stable sort of Algorithm 3 line 1).

    Examples
    --------
    >>> chain = TaskChain([1, 1, 1, 1], [5.0, 1.0, 2.0, 0.0])
    >>> [iv.stop for iv in heur_l_intervals(chain, 3)]
    [2, 3, 4]
    """
    n = chain.n
    if not 1 <= m <= n:
        raise ValueError(f"number of intervals must be in [1, {n}], got {m!r}")
    if m == 1:
        return [Interval(0, n)]
    # Output costs of tasks tau_1 .. tau_{n-1} are output[0 .. n-2].
    order = np.argsort(chain.output[: n - 1], kind="stable")
    cuts = sorted(int(t) + 1 for t in order[: m - 1])
    return partition_from_cuts(n, cuts)


def heur_p_intervals(
    chain: TaskChain,
    m: int,
    reference_speed: float = 1.0,
    bandwidth: float = 1.0,
) -> list[Interval]:
    """Algorithm 4: division into *m* intervals with minimal period.

    Dynamic program over ``F(j, k)`` = the optimal period achievable by
    grouping the first ``j`` tasks into ``k`` intervals, where the
    period of an interval ending at ``j`` is
    ``max(W / reference_speed, o_j / bandwidth)``:

        ``F(j, 1) = max(sum_{l <= j} w_l, o_j)``
        ``F(j, k) = min_{j' < j} max(F(j', k-1), sum_{j' < l <= j} w_l, o_j)``

    The reference speed and bandwidth default to 1, matching the
    homogeneous experiments (the division step of Heur-P is always
    computed "in the homogeneous case", Section 7.1).

    Examples
    --------
    >>> chain = TaskChain([4, 4, 4, 4], [1.0, 1.0, 1.0, 0.0])
    >>> [iv.stop for iv in heur_p_intervals(chain, 2)]
    [2, 4]
    """
    n = chain.n
    if not 1 <= m <= n:
        raise ValueError(f"number of intervals must be in [1, {n}], got {m!r}")
    if reference_speed <= 0 or bandwidth <= 0:
        raise ValueError("reference_speed and bandwidth must be > 0")
    prefix = np.concatenate(([0.0], np.cumsum(chain.work))) / reference_speed
    out_time = chain.output / bandwidth  # o_j / b for j = task index

    INF = math.inf
    # F[k][j]: optimal period for first j tasks in k intervals (1-based j).
    F = np.full((m + 1, n + 1), INF)
    arg = np.full((m + 1, n + 1), -1, dtype=np.int64)
    for j in range(1, n + 1):
        F[1, j] = max(prefix[j], out_time[j - 1])
        arg[1, j] = 0
    for k in range(2, m + 1):
        for j in range(k, n + 1):
            o_j = out_time[j - 1]
            best, best_jp = INF, -1
            # j' ranges over valid previous boundaries.
            for jp in range(k - 1, j):
                cand = max(F[k - 1, jp], prefix[j] - prefix[jp], o_j)
                if cand < best:
                    best, best_jp = cand, jp
            F[k, j] = best
            arg[k, j] = best_jp

    # Reconstruct boundaries right-to-left.
    cuts: list[int] = []
    j, k = n, m
    while k > 1:
        jp = int(arg[k, j])
        if jp < 0:
            raise RuntimeError(
                f"Heur-P DP has no parent boundary for the first {j} tasks "
                f"in {k} intervals (broken parent table)"
            )
        cuts.append(jp)
        j, k = jp, k - 1
    cuts.reverse()
    return partition_from_cuts(n, cuts)


@dataclass(frozen=True)
class HeuristicCandidate:
    """One candidate schedule produced by a heuristic.

    A candidate exists for each attempted number of intervals; it may
    fail at the allocation step (``mapping is None``) or at the bound
    check (``feasible=False`` with a mapping attached for diagnostics).
    """

    m: int
    partition: tuple[Interval, ...]
    mapping: Mapping | None
    evaluation: MappingEvaluation | None
    feasible: bool


def heuristic_candidates(
    chain: TaskChain,
    platform: Platform,
    which: HeuristicName,
    max_period: float = math.inf,
    max_latency: float = math.inf,
    worst_case: bool = True,
    allowed: Callable[[int, int], bool] | None = None,
    allocation: Literal["auto", "het"] = "auto",
) -> list[HeuristicCandidate]:
    """Run one heuristic's two steps for every interval count.

    Returns one :class:`HeuristicCandidate` per ``m = 1 .. min(n, p)``
    (the divisions both heuristics produce, Section 7.1 last paragraph).

    The allocation step is Algo-Alloc on homogeneous platforms (with the
    resulting mapping then checked against both bounds) and the
    Section 7.2 period-bounded variant on heterogeneous platforms;
    ``allocation="het"`` forces the Section 7.2 variant even on
    homogeneous platforms (the Section 8.2 experiments run the same
    allocation code on the homogeneous counterpart platform, where the
    period filter prunes divisions Algo-Alloc would happily allocate).
    ``worst_case`` selects which latency/period the bounds are compared
    against (they coincide on homogeneous platforms); the heterogeneous
    experiments of Section 8.2 use worst-case values, consistent with
    the allocation's per-replica ``W_j / s_u <= P`` filter.
    """
    if which not in ("heur-l", "heur-p"):
        raise ValueError(f"unknown heuristic {which!r}")
    if allocation not in ("auto", "het"):
        raise ValueError(f"unknown allocation mode {allocation!r}")
    divide = (
        heur_l_intervals
        if which == "heur-l"
        else lambda c, m: heur_p_intervals(c, m, bandwidth=platform.bandwidth)
    )
    out: list[HeuristicCandidate] = []
    hom = platform.homogeneous and allocation == "auto"
    for m in range(1, min(chain.n, platform.p) + 1):
        partition = divide(chain, m)
        if hom and allowed is None:
            mapping: Mapping | None = algo_alloc(chain, platform, partition)
        else:
            mapping = algo_alloc_het(
                chain, platform, partition, max_period=max_period, allowed=allowed
            )
        if mapping is None:
            out.append(HeuristicCandidate(m, tuple(partition), None, None, False))
            continue
        ev = evaluate_mapping(mapping)
        ok = ev.meets(
            max_period=max_period, max_latency=max_latency, worst_case=worst_case
        )
        out.append(HeuristicCandidate(m, tuple(partition), mapping, ev, ok))
    return out


def heuristic_best(
    chain: TaskChain,
    platform: Platform,
    max_period: float = math.inf,
    max_latency: float = math.inf,
    which: "HeuristicName | Literal['both']" = "both",
    worst_case: bool = True,
    allowed: Callable[[int, int], bool] | None = None,
    selection: Literal["feasible-best", "best-then-check"] = "feasible-best",
    allocation: Literal["auto", "het"] = "auto",
    min_log_reliability: float = -math.inf,
) -> SolveResult:
    """Best heuristic schedule meeting the period and latency bounds.

    Runs Heur-L, Heur-P, or both (default), and selects among the
    computed candidates per Section 7's opening paragraph.  Two readings
    of that selection exist, and they differ only on heterogeneous
    platforms (on homogeneous ones the allocation step cannot change
    period or latency):

    * ``"feasible-best"`` (default): among the candidates meeting both
      bounds, return the most reliable — never misses a feasible
      candidate.
    * ``"best-then-check"``: pick the most reliable allocated candidate
      first, then check the bounds.  This reproduces the behaviour the
      paper reports for its heterogeneous experiments — "the number of
      results is no longer an increasing curve ... the algorithm
      [allocating] tasks to processors considers only the period bound,
      thereby making the sum of interval costs too long for the latency
      in some cases (while this bound was respected for lower period
      bounds)" (Section 8.2): larger period bounds admit slower extra
      replicas, the reliability-maximal schedule absorbs them, and its
      worst-case latency overshoots even though a feasible candidate
      existed.

    Either way, ties go to the first candidate in run order (Heur-P
    before Heur-L for ``"both"``, interval count ascending).

    ``min_log_reliability`` adds the converse objectives' reliability
    floor as a feasibility constraint: the selected candidate must also
    attain the floor, and a run whose best candidate falls below it is
    infeasible.  Because ``"feasible-best"`` maximizes log-reliability,
    filtering after selection is equivalent to filtering candidates
    before it — the same schedule wins either way.

    Examples
    --------
    >>> from repro.core import TaskChain, Platform
    >>> chain = TaskChain([10.0, 20.0, 15.0], [2.0, 3.0, 0.0])
    >>> plat = Platform.homogeneous_platform(
    ...     4, failure_rate=1e-8, link_failure_rate=1e-5, max_replication=2)
    >>> heuristic_best(chain, plat, max_period=30.0, max_latency=60.0).feasible
    True
    """
    if selection not in ("feasible-best", "best-then-check"):
        raise ValueError(f"unknown selection rule {selection!r}")
    names: Sequence[HeuristicName]
    if which == "both":
        names = ("heur-p", "heur-l")
    else:
        names = (which,)
    best: tuple[float, Mapping, MappingEvaluation, str, bool] | None = None
    tried = 0
    for name in names:
        for cand in heuristic_candidates(
            chain,
            platform,
            name,
            max_period=max_period,
            max_latency=max_latency,
            worst_case=worst_case,
            allowed=allowed,
            allocation=allocation,
        ):
            tried += 1
            ev = cand.evaluation
            if cand.mapping is None or ev is None:
                continue
            if selection == "feasible-best" and not cand.feasible:
                continue
            key = ev.log_reliability
            if best is None or key > best[0]:
                best = (key, cand.mapping, ev, name, cand.feasible)
    if best is None or not best[4] or best[0] < min_log_reliability:
        return SolveResult.infeasible(
            f"heuristic:{which}", candidates_tried=tried, selection=selection
        )
    return SolveResult(
        feasible=True,
        mapping=best[1],
        evaluation=best[2],
        method=f"heuristic:{best[3]}",
        details={"candidates_tried": tried, "selection": selection},
    )
