"""Implemented future-work directions from the paper's Section 9.

* :mod:`repro.extensions.norouting` — "an interesting future research
  direction would be to investigate whether it is feasible to remove
  this routing procedure, and accurately approximate the reliability of
  general systems (non serial-parallel)": exact factoring evaluation of
  the Figure 4 (no-routing) RBD, the FKG cut-set approximation, and a
  study comparing both against the routed Eq. (9) value.
* :mod:`repro.extensions.energy` — "heuristics for even more difficult
  problems that would mix performance-oriented criteria (period,
  latency) with several other objectives, such as reliability, resource
  costs, and power consumption": a standard dynamic-power energy metric
  and an energy-aware variant of the processor-allocation step.
* :mod:`repro.extensions.annealing` — "the design of heuristics for even
  more difficult problems": a simulated-annealing mapper searching the
  space of complete mappings directly, usable on any platform and as a
  quality yardstick for Heur-L/Heur-P.

Period and latency minimization on heterogeneous platforms (the
``het-period-search`` / ``het-latency-search`` methods) is one
bisection search over Section 7 heuristic solves and lives next to
its batched twin, in :mod:`repro.algorithms.search`.
"""

from repro.extensions.norouting import RoutingComparison, compare_routing
from repro.extensions.energy import (
    mapping_energy,
    energy_aware_alloc_het,
)
from repro.extensions.annealing import AnnealingStats, anneal_mapping

__all__ = [
    "RoutingComparison",
    "compare_routing",
    "mapping_energy",
    "energy_aware_alloc_het",
    "AnnealingStats",
    "anneal_mapping",
]
