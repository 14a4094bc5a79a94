"""Heterogeneous period/latency minimization by bisection over heuristic solves.

Section 5.2's converse algorithm (``dp-period``) and the converse
latency scan (``dp-latency``) are exact but homogeneous-only.  On
heterogeneous platforms even *bounding* the period is NP-complete
(Section 6), and the bi-criteria (reliability, latency) problem is
NP-complete too (Theorem 3), so this module closes both
``(objective x platform-kind)`` cells heuristically: reuse the
Section 7 heuristics as feasibility probes and bisect the scalar
criterion.  One search serves both criteria; :data:`CRITERIA` holds
the little that differs between them.

A candidate bound ``B`` on the criterion is *admissible* when the
Heur-L probe — :func:`repro.algorithms.heuristic_best` with
``which="heur-l"`` — finds a mapping within ``B`` (the other bound
held at the caller's value) whose reliability meets the floor.
Admissibility is not guaranteed monotone in ``B`` (the probe is a
heuristic), so the search keeps the *best feasible witness seen*
rather than trusting the bracket: bisection tightens the upper bracket
to each witness's achieved worst-case value (often far below the
probed bound, which is what makes convergence fast) and the final
answer is the witness, never an unprobed bound.

An analytic floor over the fastest processor seeds the lower bracket,
mirroring the bounds-grid derivation in :mod:`repro.solve.grid`: some
interval holds the heaviest task (period, ``max_i w_i / max_u s_u``),
and every task computes somewhere along the chain (latency,
``sum_i w_i / max_u s_u``).

The search stops when the bracket's relative width drops below
:data:`REL_TOL` or after :data:`MAX_PROBES` probes; in the latter case
the answer is still the best witness seen, but
``details["converged"]`` is ``False``.  The batched twin,
:func:`repro.algorithms.batch_search.batch_bisection_search`, reads
the same constants.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from repro.algorithms.heuristics import heuristic_best
from repro.algorithms.result import SolveResult
from repro.core.chain import TaskChain
from repro.core.platform import Platform

__all__ = ["CRITERIA", "MAX_PROBES", "REL_TOL", "bisection_search"]

#: Stop bisecting when the bracket's relative width drops below this.
REL_TOL = 1e-4

#: Hard probe budget per search — each probe is one Heur-L solve.
MAX_PROBES = 48


class Criterion(NamedTuple):
    """What one bisected criterion changes about the search."""

    method: str  #: result label, also the registry name
    key: str  #: details key of the achieved optimum
    reduce: Callable  #: work reduction of the lower bracket (over s_max)
    witness: str  #: evaluation attribute the bracket tightens to


CRITERIA = {
    "period": Criterion(
        "het-period-search", "optimal_period", np.max, "worst_case_period"
    ),
    "latency": Criterion(
        "het-latency-search", "optimal_latency", np.sum, "worst_case_latency"
    ),
}


def bisection_search(
    chain: TaskChain,
    platform: Platform,
    criterion: str,
    *,
    min_log_reliability: float = -math.inf,
    max_period: float = math.inf,
    max_latency: float = math.inf,
) -> SolveResult:
    """Minimize the worst-case period or latency on any platform (heuristic).

    Parameters
    ----------
    criterion:
        ``"period"`` or ``"latency"`` — the bisected coordinate.
    min_log_reliability:
        Reliability floor as a log-probability (``-inf`` = no floor) —
        a probe's mapping is admissible only at or above it.
    max_period, max_latency:
        The bisected criterion's bound caps the answer (infeasible when
        no admissible mapping fits it); the other bound is honored by
        every probe solve.

    Examples
    --------
    >>> chain = TaskChain([6.0, 6.0], [1.0, 0.0])
    >>> plat = Platform(speeds=[2.0, 1.0, 1.0], failure_rates=[1e-4] * 3,
    ...                 max_replication=2)
    >>> bisection_search(chain, plat, "period").feasible
    True
    """
    spec = CRITERIA.get(criterion)
    if spec is None:
        raise ValueError(f"unknown search criterion {criterion!r}")
    if min_log_reliability > 0.0 or math.isnan(min_log_reliability):
        raise ValueError("min_log_reliability must be a log-probability (<= 0)")
    if max_period <= 0 or max_latency <= 0:
        raise ValueError("bounds must be > 0")

    probes = 0

    def probe(bound: float) -> "SolveResult | None":
        """The Heur-L solve under *bound*, or None when not admissible."""
        nonlocal probes
        probes += 1
        res = heuristic_best(
            chain, platform,
            max_period=bound if criterion == "period" else max_period,
            max_latency=bound if criterion == "latency" else max_latency,
            which="heur-l", selection="feasible-best",
        )
        if res.feasible and res.log_reliability >= min_log_reliability:
            return res
        return None

    # Loosest admissible bound first: if even the cap fails, the
    # heuristic sees no admissible mapping at all.
    best = probe(max_period if criterion == "period" else max_latency)
    if best is None:
        return SolveResult.infeasible(
            spec.method,
            probes=probes,
            min_log_reliability=min_log_reliability,
            max_period=max_period,
            max_latency=max_latency,
        )

    lo = float(spec.reduce(chain.work)) / float(np.max(platform.speeds))
    hi = float(getattr(best.evaluation, spec.witness))

    while probes < MAX_PROBES and hi - lo > REL_TOL * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        res = probe(mid)
        if res is not None:
            best = res
            # The witness's achieved value can undershoot the probed
            # bound substantially — tighten to it, not to mid.
            hi = min(mid, float(getattr(res.evaluation, spec.witness)))
        else:
            lo = mid

    # The loop exits either because the bracket met REL_TOL or because
    # the probe budget ran out first; callers reading only the witness
    # could not tell the two apart, so record which one happened.
    converged = hi - lo <= REL_TOL * max(hi, 1.0)
    return SolveResult(
        feasible=True,
        mapping=best.mapping,
        evaluation=best.evaluation,
        method=spec.method,
        details={
            spec.key: float(getattr(best.evaluation, spec.witness)),
            "probes": probes,
            "bracket": (lo, hi),
            "converged": converged,
        },
    )
