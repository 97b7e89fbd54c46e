"""Determinism rules (RPL1xx).

The paper's sampled-vs-full comparisons (and this repo's result cache,
parallel runner and golden tests) assume a simulation is a pure function
of its seed. These rules ban the constructs that silently break that:

* ``RPL101`` — the process-global ``random`` module (and NumPy's legacy
  global equivalents): unseeded, shared, and irreproducible across
  processes. All randomness must flow through seeded ``Generator``
  objects from :mod:`repro.util.rng`.
* ``RPL102`` — builtin ``hash()``: ``PYTHONHASHSEED`` randomises str and
  bytes hashes per process, so any counter index, cache key or memory
  layout derived from it differs run to run (the exact bug PR 1 fixed in
  the sampling handler by switching to ``zlib.crc32``).
* ``RPL103`` — wall-clock reads (``time.time``, ``datetime.now``/
  ``utcnow``/``today``) inside simulation-result paths. Virtual time
  comes from the simulated clock; host time may only appear in
  telemetry (manifests, progress printing), which lives outside the
  scoped packages or carries an explicit suppression.
* ``RPL104`` — iterating a ``set`` (or ``dict.keys()``) without
  ``sorted()`` in those same paths: set iteration order depends on hash
  seeds and insertion history, so anything accumulated from it can
  differ between processes.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from typing import ClassVar

from repro.lint.dataflow import _target_key
from repro.lint.framework import (
    ParsedModule,
    Rule,
    Violation,
    dotted_name,
    iter_calls,
    register,
)

#: Packages whose code feeds simulated results, seeds or cache keys.
RESULT_SCOPE = (
    "sim",
    "cache",
    "hpm",
    "core",
    "memory",
    "workloads",
    "datastructs",
    "experiments",
    # The MRC engine sits under repro/cache/ (so the "cache" entry already
    # scopes it), but its determinism contract — SHARDS sampling must be a
    # pure function of (stream, rate, seed) — is load-bearing enough that
    # the scope is named explicitly: moving the package out from under
    # cache/ must not silently drop it from these rules.
    "mrc",
)

#: Legacy NumPy global-state RNG entry points (np.random.<fn>).
_NP_LEGACY = {
    "seed",
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "choice",
    "shuffle",
    "permutation",
    "uniform",
    "normal",
}


@register
class UnseededRandomRule(Rule):
    code = "RPL101"
    name = "unseeded-random"
    description = (
        "stdlib `random` / NumPy legacy global RNG: use a seeded "
        "Generator from repro.util.rng instead"
    )

    def check_module(self, module: ParsedModule) -> Iterable[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        yield module.violation(
                            node,
                            self.code,
                            "import of the process-global `random` module; "
                            "use repro.util.rng.make_rng/spawn_rng",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield module.violation(
                        node,
                        self.code,
                        "import from the process-global `random` module; "
                        "use repro.util.rng.make_rng/spawn_rng",
                    )
        for call in iter_calls(module.tree):
            name = dotted_name(call.func)
            if name is None:
                continue
            parts = name.split(".")
            if len(parts) == 2 and parts[0] == "random":
                yield module.violation(
                    call,
                    self.code,
                    f"call to process-global `{name}()`; "
                    "use a seeded numpy Generator",
                )
            elif (
                len(parts) >= 2
                and parts[-2] == "random"
                and parts[0] in ("np", "numpy")
                and parts[-1] in _NP_LEGACY
            ):
                yield module.violation(
                    call,
                    self.code,
                    f"call to NumPy legacy global RNG `{name}()`; "
                    "use np.random.default_rng(seed)",
                )
            elif parts[-1] == "default_rng" and not call.args and not call.keywords:
                yield module.violation(
                    call,
                    self.code,
                    "`default_rng()` without a seed is entropy-seeded and "
                    "irreproducible; pass an explicit seed",
                )


@register
class BuiltinHashRule(Rule):
    code = "RPL102"
    name = "builtin-hash"
    description = (
        "builtin hash() is randomised per process for str/bytes "
        "(PYTHONHASHSEED); use zlib.crc32 or cache_store.stable_hash"
    )

    def check_module(self, module: ParsedModule) -> Iterable[Violation]:
        for call in iter_calls(module.tree):
            if isinstance(call.func, ast.Name) and call.func.id == "hash":
                yield module.violation(
                    call,
                    self.code,
                    "builtin hash() is not stable across processes; use "
                    "zlib.crc32 (indices) or stable_hash (content keys)",
                )


@register
class WallClockRule(Rule):
    code = "RPL103"
    name = "wall-clock"
    description = (
        "host wall-clock read inside a simulation-result path; simulated "
        "behaviour must depend only on virtual time"
    )

    #: Exact dotted names whose *reference* already injects wall-clock.
    _BANNED_REFS: ClassVar[set[str]] = {"time.time", "time.time_ns"}
    _BANNED_METHODS: ClassVar[set[str]] = {"now", "utcnow", "today"}

    def check_module(self, module: ParsedModule) -> Iterable[Violation]:
        if not module.in_packages(*RESULT_SCOPE):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                name = dotted_name(node)
                if name in self._BANNED_REFS:
                    yield module.violation(
                        node,
                        self.code,
                        f"wall-clock `{name}` in a result path; results must "
                        "be a function of config + seed (telemetry needs an "
                        "explicit suppression)",
                    )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None:
                    continue
                parts = name.split(".")
                if parts[-1] in self._BANNED_METHODS and any(
                    p in ("datetime", "date") for p in parts[:-1]
                ):
                    yield module.violation(
                        node,
                        self.code,
                        f"wall-clock `{name}()` in a result path",
                    )


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _ann_is_set(annotation: ast.AST) -> bool:
    text = ast.unparse(annotation)
    return (
        text in ("set", "frozenset")
        or text.startswith(("set[", "frozenset[", "Set[", "FrozenSet["))
    )


@register
class UnsortedSetIterationRule(Rule):
    code = "RPL104"
    name = "unsorted-set-iteration"
    description = (
        "iteration over a set (or .keys()) without sorted() in code that "
        "feeds results, seeds or cache keys"
    )

    def check_module(self, module: ParsedModule) -> Iterable[Violation]:
        if not module.in_packages(*RESULT_SCOPE):
            return
        tainted = self._tainted_names(module.tree)
        for iter_node in self._iteration_sites(module.tree):
            yield from self._check_iter(module, iter_node, tainted)

    # ------------------------------------------------------------ internals

    def _tainted_names(self, tree: ast.Module) -> set[str]:
        """Names/self-attributes bound to set values anywhere in the module.

        Deliberately scope-insensitive (one namespace for the whole file):
        conservative, but simple enough to audit, and precise enough for
        this codebase's shapes.
        """
        tainted: set[str] = set()
        # Iterate to a fixed point so aliases of aliases are caught.
        for _ in range(4):
            grew = False
            for node in ast.walk(tree):
                key: str | None = None
                value: ast.AST | None = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    key, value = _target_key(node.targets[0]), node.value
                elif isinstance(node, ast.AnnAssign):
                    key = _target_key(node.target)
                    if key is not None and _ann_is_set(node.annotation):
                        if key not in tainted:
                            tainted.add(key)
                            grew = True
                    value = node.value
                if key is None or value is None:
                    continue
                is_set = _is_set_expr(value)
                if not is_set:
                    alias = _target_key(value)
                    is_set = alias is not None and alias in tainted
                if is_set and key not in tainted:
                    tainted.add(key)
                    grew = True
            if not grew:
                break
        return tainted

    def _iteration_sites(self, tree: ast.Module) -> Iterator[ast.AST]:
        for node in ast.walk(tree):
            if isinstance(node, ast.For):
                yield node.iter
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                for gen in node.generators:
                    yield gen.iter

    def _check_iter(
        self, module: ParsedModule, node: ast.AST, tainted: set[str]
    ) -> Iterator[Violation]:
        # sorted(...) (or min/max/sum reductions) normalise the order.
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("sorted", "min", "max", "sum", "enumerate"):
                if node.func.id == "enumerate" and node.args:
                    yield from self._check_iter(module, node.args[0], tainted)
                return
        if _is_set_expr(node):
            yield module.violation(
                node,
                self.code,
                "iterating a set literal/constructor; wrap in sorted() for a "
                "deterministic order",
            )
            return
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "keys" and not node.args:
                yield module.violation(
                    node,
                    self.code,
                    "iterating .keys(); iterate the mapping directly "
                    "(insertion order) or wrap in sorted()",
                )
                return
        key = _target_key(node)
        if key is not None and key in tainted:
            yield module.violation(
                node,
                self.code,
                f"iterating set-typed `{key}` without sorted(); set order "
                "varies with hash seed and insertion history",
            )
