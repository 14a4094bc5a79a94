# repro-lint-fixture: module=repro.algorithms.search_probe
"""Good: the invariant is an explicit check that survives python -O."""


def witness_period(result):
    if not result.feasible or result.evaluation is None:
        raise RuntimeError("probe reported no feasible witness")
    return result.evaluation.worst_case_period
