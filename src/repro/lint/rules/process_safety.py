"""Process/concurrency safety rules (RPL7xx).

The parallel runner fans grid cells out over ``ProcessPoolExecutor``
workers and asserts that every cell is a *pure function of its spec*.
The failure modes that break that promise are flow-sensitive — state
that looks innocent at its definition site becomes a hazard when a
worker touches it after the fork:

* ``RPL701`` — module-level mutable state written by worker-executed
  code. A dict/list/set at module scope mutated inside a function that
  a pool executes (directly, or through intra-module calls) diverges
  between parent and workers; so does the hidden memo of an
  ``lru_cache``-decorated function in the experiments package — the
  parent's warm cache is fork-copied and silently goes stale.
* ``RPL702`` — a closure crossing the fork boundary: a lambda or a
  locally defined function submitted to a pool carries whatever live
  state it captured. A live RNG, cache or simulator object in a grid
  cell's inputs, whether a direct argument or nested in a task spec, is
  refused at run time instead: ``execute_task`` pickles each cell's
  inputs through a pickler that rejects it
  (``experiments/parallel.py``, ``_refuse_live_state``).
* ``RPL703`` — ``os.environ`` / ``os.getenv`` reads in result-scoped
  packages: environment state is inherited per process and invisible to
  the result-cache key, so two workers can compute different "cached"
  results for one key.
* ``RPL704`` — global registries mutated at call time (import-time
  population is the sanctioned pattern), and — the ``sys.modules``
  special case — ``import`` statements inside worker-executed function
  bodies, which re-enter the import machinery concurrently in every
  worker instead of once before the fork.

The submit graph is intra-module: functions named in ``pool.submit`` /
``pool.map`` calls plus everything they reach through same-module calls
(by simple name, methods included — conservative but auditable).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.lint.framework import (
    ParsedModule,
    Rule,
    Violation,
    dotted_name,
    iter_calls,
    register,
)
from repro.lint.rules.determinism import RESULT_SCOPE

#: Mutating method names on builtin containers.
_MUTATORS = {
    "append", "add", "update", "setdefault", "extend", "insert",
    "pop", "popitem", "clear", "remove", "discard",
}


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                         ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is not None and name.split(".")[-1] in (
            "dict", "list", "set", "defaultdict", "OrderedDict", "Counter",
            "deque",
        ):
            return True
    return False


def _is_cache_decorator(node: ast.AST) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    name = dotted_name(target)
    return name is not None and name.split(".")[-1] in ("lru_cache", "cache")


def _functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


class _ModuleModel:
    """Shared per-module facts the RPL7xx rules query."""

    def __init__(self, module: ParsedModule) -> None:
        tree = module.tree
        #: Module-level mutable container names -> their binding lineno.
        self.mutable_globals: dict[str, int] = {}
        for stmt in tree.body:
            targets: list[ast.expr] = []
            value: ast.AST | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not _is_mutable_literal(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    self.mutable_globals[target.id] = stmt.lineno

        #: Every function/method in the module by simple name. Methods
        #: share the namespace, and several classes may define the same
        #: method name — keep them all; the call-closure walk below is
        #: name-based and must stay conservative.
        self.functions: dict[str, list[ast.FunctionDef]] = {}
        for func in _functions(tree):
            self.functions.setdefault(func.name, []).append(func)

        #: Names bound to ProcessPoolExecutor instances.
        executors: set[str] = set()
        for node in ast.walk(tree):
            value = None
            bound: str | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                if isinstance(node.targets[0], ast.Name):
                    bound, value = node.targets[0].id, node.value
            elif isinstance(node, ast.withitem):
                if isinstance(node.optional_vars, ast.Name):
                    bound, value = node.optional_vars.id, node.context_expr
            if bound is None or not isinstance(value, ast.Call):
                continue
            name = dotted_name(value.func)
            if name is not None and name.split(".")[-1] == "ProcessPoolExecutor":
                executors.add(bound)

        #: submit/map calls on an executor, and the submitted callables.
        self.submissions: list[tuple[ast.Call, ast.expr]] = []
        for call in iter_calls(tree):
            func = call.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in ("submit", "map"):
                continue
            receiver_ok = (
                isinstance(func.value, ast.Name) and func.value.id in executors
            )
            if not receiver_ok and isinstance(func.value, ast.Call):
                name = dotted_name(func.value.func)
                receiver_ok = (
                    name is not None
                    and name.split(".")[-1] == "ProcessPoolExecutor"
                )
            if receiver_ok and call.args:
                self.submissions.append((call, call.args[0]))

        #: Worker-executed functions: submitted names + same-module call
        #: closure (simple names and method attrs, conservatively).
        entries = {
            target.id
            for _, target in self.submissions
            if isinstance(target, ast.Name)
        } | {
            target.attr
            for _, target in self.submissions
            if isinstance(target, ast.Attribute)
        }
        self.worker_closure: set[str] = set()
        work = [name for name in entries if name in self.functions]
        while work:
            name = work.pop()
            if name in self.worker_closure:
                continue
            self.worker_closure.add(name)
            for func in self.functions[name]:
                for call in iter_calls(func):
                    callee: str | None = None
                    if isinstance(call.func, ast.Name):
                        callee = call.func.id
                    elif isinstance(call.func, ast.Attribute):
                        callee = call.func.attr
                    if (
                        callee in self.functions
                        and callee not in self.worker_closure
                    ):
                        work.append(callee)

    def global_mutations(self, func: ast.FunctionDef) -> Iterator[tuple[ast.AST, str]]:
        """(site, name) for each write to a module-level mutable global."""
        declared_global: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    # X[...] = ... or X.attr = ... mutates the global; a
                    # bare `X = ...` only rebinds unless declared global.
                    if isinstance(target, (ast.Subscript, ast.Attribute)):
                        base = target.value
                        if (
                            isinstance(base, ast.Name)
                            and base.id in self.mutable_globals
                        ):
                            yield node, base.id
                    elif (
                        isinstance(target, ast.Name)
                        and target.id in declared_global
                        and target.id in self.mutable_globals
                    ):
                        yield node, target.id
            elif isinstance(node, ast.Call):
                func_expr = node.func
                if (
                    isinstance(func_expr, ast.Attribute)
                    and func_expr.attr in _MUTATORS
                    and isinstance(func_expr.value, ast.Name)
                    and func_expr.value.id in self.mutable_globals
                ):
                    yield node, func_expr.value.id
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        if target.value.id in self.mutable_globals:
                            yield node, target.value.id


class _ProcessRule(Rule):
    """Base: builds one :class:`_ModuleModel` per module, shared via cache."""

    #: The last module modelled, with its model. The slot holds the
    #: module itself, not its ``id()``: a freed module's address can be
    #: reused by the next one parsed, which must not inherit its model.
    #: One entry is enough because run_lint visits files sequentially.
    _last: tuple[ParsedModule, _ModuleModel] | None = None

    @classmethod
    def model(cls, module: ParsedModule) -> _ModuleModel:
        last = _ProcessRule._last
        if last is None or last[0] is not module:
            last = _ProcessRule._last = (module, _ModuleModel(module))
        return last[1]


@register
class WorkerGlobalMutationRule(_ProcessRule):
    code = "RPL701"
    name = "worker-global-mutation"
    description = (
        "module-level mutable state written by worker-executed code "
        "(pool-submitted functions or lru_cache memos in experiments)"
    )

    def check_module(self, module: ParsedModule) -> Iterable[Violation]:
        model = self.model(module)
        for name in sorted(model.worker_closure):
            for func in model.functions[name]:
                for site, global_name in model.global_mutations(func):
                    yield module.violation(
                        site,
                        self.code,
                        f"worker-executed function '{name}' mutates "
                        f"module-level mutable '{global_name}' (bound at "
                        f"line {model.mutable_globals[global_name]}); "
                        "workers fork a copy, so writes diverge between "
                        "processes — pass state through the task spec or "
                        "compute at import time",
                    )
        if not module.in_packages("experiments"):
            return
        for func in _functions(module.tree):
            for decorator in func.decorator_list:
                if _is_cache_decorator(decorator):
                    yield module.violation(
                        decorator,
                        self.code,
                        f"'{func.name}' carries an lru_cache/cache memo — "
                        "module-level mutable state in a package executed by "
                        "pool workers; a fork-copied warm memo silently "
                        "serves stale values. Compute the value eagerly at "
                        "import time instead",
                    )


@register
class ForkCaptureRule(_ProcessRule):
    code = "RPL702"
    name = "live-object-across-fork"
    description = (
        "closure or live RNG/cache/simulator object submitted across the "
        "ProcessPoolExecutor fork boundary; pass specs and seeds instead"
    )

    def check_module(self, module: ParsedModule) -> Iterable[Violation]:
        model = self.model(module)
        if not model.submissions:
            return
        # Map each submission to its enclosing function.
        for func in _functions(module.tree):
            for call, target in model.submissions:
                if not self._encloses(func, call):
                    continue
                if isinstance(target, ast.Lambda):
                    yield module.violation(
                        call,
                        self.code,
                        "lambda submitted to a process pool: closures "
                        "capture live parent-process state (RNGs, caches) "
                        "that pickling silently snapshots; submit a "
                        "module-level function of plain data",
                    )
                elif isinstance(target, ast.Name) and self._is_local_def(
                    func, target.id
                ):
                    yield module.violation(
                        call,
                        self.code,
                        f"locally-defined function '{target.id}' submitted "
                        "to a process pool: its closure crosses the fork "
                        "boundary; submit a module-level function",
                    )

    @staticmethod
    def _encloses(func: ast.FunctionDef, node: ast.AST) -> bool:
        return any(sub is node for sub in ast.walk(func))

    @staticmethod
    def _is_local_def(func: ast.FunctionDef, name: str) -> bool:
        for node in ast.walk(func):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node is not func
                and node.name == name
            ):
                return True
        return False


@register
class EnvReadRule(_ProcessRule):
    code = "RPL703"
    name = "env-read-in-result-path"
    description = (
        "os.environ / os.getenv read inside result-scoped code; "
        "environment state is invisible to the result-cache key"
    )

    def check_module(self, module: ParsedModule) -> Iterable[Violation]:
        if not module.in_packages(*RESULT_SCOPE):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                name = dotted_name(node)
                if name == "os.environ":
                    yield module.violation(
                        node,
                        self.code,
                        "os.environ read in a result path: workers inherit "
                        "arbitrary parent environment, and the result-cache "
                        "key cannot see it — thread the value through the "
                        "task spec instead",
                    )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in ("os.getenv", "getenv"):
                    yield module.violation(
                        node,
                        self.code,
                        f"{name}() read in a result path: environment state "
                        "is per-process and unkeyed; thread the value "
                        "through the task spec instead",
                    )


@register
class CallTimeRegistryRule(_ProcessRule):
    code = "RPL704"
    name = "call-time-registry-mutation"
    description = (
        "global registry mutated at call time (import-time population is "
        "the pattern), or import statements inside worker-executed "
        "functions"
    )

    def check_module(self, module: ParsedModule) -> Iterable[Violation]:
        model = self.model(module)
        # Prong 1: call-time mutation of module registries in result
        # scope, outside the worker closure (inside it RPL701 already
        # reports the sharper finding).
        if module.in_packages(*RESULT_SCOPE):
            for func in _functions(module.tree):
                if func.name in model.worker_closure:
                    continue
                for site, global_name in model.global_mutations(func):
                    yield module.violation(
                        site,
                        self.code,
                        f"module-level registry '{global_name}' mutated at "
                        f"call time in '{func.name}'; registries must be "
                        "fully populated at import time so every process "
                        "(and fork) observes the same mapping",
                    )
        # Prong 2: call-time imports anywhere in the worker closure.
        for name in sorted(model.worker_closure):
            for func in model.functions[name]:
                yield from self._call_time_imports(module, name, func)

    def _call_time_imports(
        self, module: ParsedModule, name: str, func: ast.FunctionDef
    ) -> Iterator[Violation]:
        for node in ast.walk(func):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modname = (
                    node.module
                    if isinstance(node, ast.ImportFrom)
                    else ", ".join(a.name for a in node.names)
                )
                yield module.violation(
                    node,
                    self.code,
                    f"import of '{modname}' inside worker-executed "
                    f"function '{name}': call-time imports mutate the "
                    "process-global module registry in every worker; "
                    "import at module scope so interpreter state is "
                    "identical before the fork",
                )
