"""The uniform result record returned by every solver and heuristic."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.evaluation import MappingEvaluation
from repro.core.mapping import Mapping

__all__ = ["SolveResult"]


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a mapping search.

    Attributes
    ----------
    feasible:
        Whether a mapping satisfying all requested bounds was found.
        ``False`` either because none exists (exact methods) or because
        the method failed to find one (heuristics).
    mapping:
        The best mapping found, or ``None`` when infeasible.
    evaluation:
        The Section 4 objectives of :attr:`mapping`, or ``None``.
    method:
        Human-readable name of the producing algorithm.
    details:
        Method-specific diagnostics (e.g. number of candidate divisions
        tried, ILP node counts).  Never required for correctness.
    """

    feasible: bool
    mapping: Mapping | None = None
    evaluation: MappingEvaluation | None = None
    method: str = ""
    details: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.feasible and (self.mapping is None or self.evaluation is None):
            raise ValueError("a feasible result must carry a mapping and evaluation")
        if not self.feasible and self.mapping is not None:
            raise ValueError("an infeasible result must not carry a mapping")

    @property
    def log_reliability(self) -> float:
        """Log-reliability of the best mapping (``-inf`` when infeasible)."""
        if self.evaluation is None:
            return float("-inf")
        return self.evaluation.log_reliability

    @property
    def failure_probability(self) -> float:
        """Failure probability of the best mapping (1.0 when infeasible)."""
        if self.evaluation is None:
            return 1.0
        return self.evaluation.failure_probability

    def objective_value(self, objective: str = "reliability") -> float:
        """The solved mapping's value under one of the facade objectives.

        ``"reliability"`` returns the plain reliability (0.0 when
        infeasible); the minimized criteria return the achieved
        worst-case period / worst-case latency / energy (``inf`` when
        infeasible).  Energy reads ``details["energy"]`` when the
        producing method recorded it (same power-model parameters as
        the solve) and falls back to
        :func:`repro.extensions.energy.mapping_energy` defaults.
        """
        if objective == "reliability":
            if self.evaluation is None:
                return 0.0
            return self.evaluation.reliability
        if not self.feasible or self.evaluation is None:
            return float("inf")
        if objective == "period":
            return self.evaluation.worst_case_period
        if objective == "latency":
            return self.evaluation.worst_case_latency
        if objective == "energy":
            if "energy" in self.details:
                return float(self.details["energy"])
            from repro.extensions.energy import mapping_energy

            if self.mapping is None:
                raise RuntimeError(
                    f"feasible {self.method} result carries no mapping to "
                    f"price energy on"
                )
            return mapping_energy(self.mapping)
        raise ValueError(f"unknown objective {objective!r}")

    @staticmethod
    def infeasible(method: str, **details: Any) -> "SolveResult":
        """Shorthand for a no-solution outcome."""
        return SolveResult(feasible=False, method=method, details=dict(details))
