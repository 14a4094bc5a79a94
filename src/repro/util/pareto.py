"""Pareto-frontier maintenance for the exact tri-criteria dynamic program.

The exact homogeneous solver (:mod:`repro.algorithms.pareto_dp`) keeps, for
every DP state, the set of non-dominated ``(cost, value)`` pairs where
*cost* (accumulated communication latency) is minimized and *value*
(log-reliability) is maximized.  This module provides a small, well-tested
frontier container for that purpose.

A pair ``a`` dominates ``b`` iff ``a.cost <= b.cost`` and
``a.value >= b.value`` with at least one strict inequality.  The frontier
stores mutually non-dominated points sorted by increasing cost (hence
strictly increasing value).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Iterator, Sequence

__all__ = ["ParetoFrontier", "dominates"]


def dominates(cost_a: float, value_a: float, cost_b: float, value_b: float) -> bool:
    """Return True iff point A dominates point B (min cost, max value)."""
    return (
        cost_a <= cost_b
        and value_a >= value_b
        and (cost_a < cost_b or value_a > value_b)
    )


class ParetoFrontier:
    """Set of non-dominated ``(cost, value, payload)`` points.

    Minimizes *cost*, maximizes *value*.  Points are kept sorted by
    increasing cost; by the non-domination invariant, values are then
    strictly increasing too.

    The optional *payload* carries reconstruction data (e.g. DP parent
    pointers) and plays no role in dominance.

    Examples
    --------
    >>> f = ParetoFrontier()
    >>> f.insert(2.0, -0.5)
    True
    >>> f.insert(1.0, -1.0)   # cheaper but worse: kept
    True
    >>> f.insert(3.0, -0.9)   # dominated by (2.0, -0.5): rejected
    False
    >>> sorted((c, v) for c, v, _ in f)
    [(1.0, -1.0), (2.0, -0.5)]
    """

    __slots__ = ("_costs", "_values", "_payloads")

    def __init__(self) -> None:
        self._costs: list[float] = []
        self._values: list[float] = []
        self._payloads: list[Any] = []

    def __len__(self) -> int:
        return len(self._costs)

    def __iter__(self) -> Iterator[tuple[float, float, Any]]:
        return iter(zip(self._costs, self._values, self._payloads))

    def __getitem__(self, index: int) -> tuple[float, float, Any]:
        """The ``(cost, value, payload)`` point at *index* in cost order."""
        return self._costs[index], self._values[index], self._payloads[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pts = ", ".join(f"({c:g}, {v:g})" for c, v in zip(self._costs, self._values))
        return f"ParetoFrontier([{pts}])"

    @property
    def costs(self) -> Sequence[float]:
        """Costs of frontier points, increasing."""
        return tuple(self._costs)

    @property
    def values(self) -> Sequence[float]:
        """Values of frontier points, increasing (mirrors :attr:`costs`)."""
        return tuple(self._values)

    def insert(self, cost: float, value: float, payload: Any = None) -> bool:
        """Insert a point; return True iff it was non-dominated (kept).

        Any existing points dominated by the new point are removed.
        Ties: a point equal in both coordinates to an existing point is
        considered dominated (the incumbent wins), keeping frontiers small.
        """
        costs, values = self._costs, self._values
        # Any point with cost <= cost and value >= value dominates us.
        # Since values increase with cost, it suffices to check the last
        # point with cost <= our cost.
        j = bisect_right(costs, cost)
        if j > 0 and values[j - 1] >= value:
            # The best point at cost <= ours already achieves >= our value.
            return False
        # Remove points we dominate: cost >= ours and value <= ours.
        # Those are a contiguous run starting at i (first index with
        # cost >= ours; costs are distinct, so at most one equals ours)
        # while their value <= ours.
        i = j - 1 if j > 0 and costs[j - 1] == cost else j
        k = i
        while k < len(costs) and values[k] <= value:
            k += 1
        del costs[i:k], values[i:k], self._payloads[i:k]
        costs.insert(i, cost)
        values.insert(i, value)
        self._payloads.insert(i, payload)
        return True

    def best_value_within(self, max_cost: float) -> tuple[float, Any] | None:
        """Best (max) value among points with ``cost <= max_cost``.

        Returns ``(value, payload)`` or ``None`` if no point qualifies.
        """
        j = bisect_right(self._costs, max_cost)
        if j == 0:
            return None
        return self._values[j - 1], self._payloads[j - 1]

    def prune_cost_above(self, max_cost: float) -> None:
        """Drop all points with ``cost > max_cost`` (bound propagation)."""
        j = bisect_right(self._costs, max_cost)
        del self._costs[j:], self._values[j:], self._payloads[j:]
