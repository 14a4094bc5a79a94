"""DET rules: solver and kernel modules must be pure functions of
their inputs.

Every reproducibility guarantee downstream — bit-identical batched
kernels, content-hash cache keys, byte-identical run-ledger artifacts —
assumes the solve path computes the same answer for the same
:class:`~repro.solve.Problem` every time, on every machine.  These
rules ban the ambient-state reads that silently break that assumption
inside the solver scope (:data:`SCOPE`):

``DET001``
    Wall-clock reads (``time.*``, ``datetime.now`` and friends).
    Timing belongs in the harness/obs layer, which sits outside the
    cache-key boundary.
``DET002``
    Unseeded or global-state randomness: the stdlib ``random`` module
    (process-global generator), NumPy's legacy ``np.random.*``
    functions (global state), zero-argument ``default_rng()`` /
    ``SeedSequence()`` (OS entropy), ``os.urandom``, ``secrets``,
    ``uuid.uuid1/uuid4``.  All randomness must flow through an
    explicit, caller-seeded generator (:mod:`repro.util.rng`).
``DET003``
    Environment reads (``os.environ`` / ``os.getenv``): configuration
    belongs to the experiment layer, where it is recorded in run
    manifests — a solver whose answer depends on an env var poisons
    the cache, whose keys never see the variable.
``DET004``
    Iterating a bare ``set``/``frozenset`` literal, constructor call,
    or comprehension: set order is insertion/hash dependent, so any
    result influenced by the iteration order is not stable across
    processes.  Iterate ``sorted(...)`` instead.
``DET005``
    An ``assert`` statement.  ``python -O`` strips asserts, so a solve
    path that leans on one for control flow or validation behaves
    differently under interpreter flags.  Raise an explicit exception
    (``RuntimeError`` for broken invariants) instead.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import Finding, SourceFile, dotted_name, register_rules

__all__ = ["RULES", "SCOPE", "check"]

RULES = {
    "DET001": "wall-clock read in a solver/kernel module",
    "DET002": "unseeded or global-state randomness in a solver/kernel module",
    "DET003": "environment read in a solver/kernel module",
    "DET004": "iteration over an unordered set in a solver/kernel module",
    "DET005": "assert statement in a solver/kernel module",
}
register_rules(RULES)

#: Module prefixes the determinism contract covers: everything on the
#: solve path, i.e. everything a cache key vouches for.
SCOPE = (
    "repro.algorithms",
    "repro.solve",
    "repro.rbd",
    "repro.util",
    "repro.extensions",
    "repro.simulation",
)

_CLOCKS = {
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "time.strftime", "time.gmtime", "time.localtime",
    "time.ctime", "time.asctime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

_ENTROPY = {"os.urandom", "uuid.uuid1", "uuid.uuid4"}

#: numpy.random attributes that are seeded-by-construction classes or
#: submodules, not legacy global-state functions.
_NUMPY_RANDOM_OK = {
    "Generator", "BitGenerator", "PCG64", "PCG64DXSM", "MT19937",
    "Philox", "SFC64", "RandomState",
}


def in_scope(module: str) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".") for prefix in SCOPE
    )


def check(files: "list[SourceFile]") -> Iterable[Finding]:
    for src in files:
        if not in_scope(src.module):
            continue
        yield from _check_file(src)


def _check_file(src: SourceFile) -> Iterable[Finding]:
    for node in ast.walk(src.tree):
        if isinstance(node, ast.Call):
            name = src.imports.resolve_call(node)
            if name is None:
                continue
            if name in _CLOCKS:
                yield src.finding(
                    node, "DET001",
                    f"call to {name}() reads the wall clock; pass timestamps "
                    f"in from the harness/obs layer",
                )
            else:
                message = _entropy_message(name, node)
                if message:
                    yield src.finding(node, "DET002", message)
                elif name == "os.getenv":
                    yield src.finding(
                        node, "DET003",
                        "os.getenv() read; thread configuration through "
                        "explicit arguments so cache keys see it",
                    )
        elif isinstance(node, ast.Attribute):
            if src.imports.resolve(dotted_name(node)) == "os.environ":
                yield src.finding(
                    node, "DET003",
                    "os.environ read; thread configuration through explicit "
                    "arguments so cache keys see it",
                )
        elif isinstance(node, ast.Assert):
            yield src.finding(
                node, "DET005",
                "assert is stripped under python -O; raise an explicit "
                "exception instead",
            )
        elif isinstance(node, (ast.For, ast.comprehension)):
            target = node.iter
            if _is_bare_set(target, src):
                line = getattr(target, "lineno", getattr(node, "lineno", 0))
                yield src.finding(
                    line, "DET004",
                    "iterating an unordered set; wrap in sorted(...) so the "
                    "order cannot leak into results",
                )


def _entropy_message(name: str, node: ast.Call) -> "str | None":
    has_args = bool(node.args or node.keywords)
    if name in _ENTROPY or name.startswith("secrets."):
        return f"call to {name}() draws OS entropy"
    if name == "random" or name.startswith("random."):
        if name == "random.Random" and has_args:
            return None  # explicitly seeded instance
        return (
            f"call to {name}() uses the process-global stdlib generator; "
            f"use a seeded numpy Generator (repro.util.rng.ensure_rng)"
        )
    if name.startswith("numpy.random."):
        member = name.removeprefix("numpy.random.")
        if member in ("default_rng", "SeedSequence"):
            if not has_args:
                return f"{member}() without a seed draws OS entropy"
            return None
        if member not in _NUMPY_RANDOM_OK and "." not in member:
            return (
                f"call to {name}() mutates/reads numpy's global RNG state; "
                f"use a seeded Generator instead"
            )
    return None


def _is_bare_set(node: ast.AST, src: SourceFile) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return src.imports.resolve_call(node) in ("set", "frozenset")
    return False
