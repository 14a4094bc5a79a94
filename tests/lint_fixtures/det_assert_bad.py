# repro-lint-fixture: module=repro.algorithms.search_probe
"""Bad: solver invariants checked with assert, which python -O strips (DET005)."""


def witness_period(result):
    assert result.feasible, "probe must be feasible"  # repro-lint-expect: DET005
    assert result.evaluation is not None  # repro-lint-expect: DET005
    return result.evaluation.worst_case_period
