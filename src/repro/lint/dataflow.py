"""Intraprocedural dataflow analysis for ``reprolint``.

A single-expression pattern match sees ``submit(f, session)`` but not
``s = session; submit(f, s)``. This module gives rules (RPL702 today)
real flow information, still as a pure AST pass (no imports of checked
code):

* :func:`build_cfg` — a control-flow graph over one statement list
  (function body or module body). Compound statements contribute
  *header atoms* (the ``if``/``while`` test, the ``for`` iterable) to
  blocks; their bodies become successor blocks, so every simple
  statement lands in exactly one block and branch/loop/exception edges
  are explicit.
* :class:`ReachingDefinitions` — the classic gen/kill worklist over the
  CFG. A :class:`Definition` is one binding occurrence of a name
  (assignment, loop target, ``with ... as``, import, parameter, ...).
* :meth:`ReachingDefinitions.use_defs` — use-def chains: for every
  ``Name``/``self.attr`` *load* in the region, the set of definitions
  that may reach it.
* :class:`TaintAnalysis` — a two-point taint lattice propagated to a
  fixpoint over the def-use graph. Rules provide a *seed* predicate
  (which expressions introduce taint) and the analysis answers whether
  an expression may carry a tainted value through any chain of
  assignments and aliases.

Names are tracked as plain identifiers plus ``self.attr`` pseudo-names
(the same convention RPL104 established); attribute/subscript stores on
anything else are mutations of an object, not bindings, and are ignored.
The analysis is deliberately intraprocedural and may-reaching
(conservative over branches); calls neither transfer nor remove taint
unless the rule's seed/sanitiser predicates say so.
"""

from __future__ import annotations

import ast
import itertools
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

__all__ = [
    "Definition",
    "BasicBlock",
    "CFG",
    "build_cfg",
    "ReachingDefinitions",
    "TaintAnalysis",
]


# ----------------------------------------------------------------- names

def _target_key(node: ast.AST) -> str | None:
    """Trackable key for a binding/use site: ``name`` or ``self.attr``."""
    if isinstance(node, ast.Name):
        return node.id
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return f"self.{node.attr}"
    return None


def _pattern_names(pattern: ast.pattern) -> Iterator[str]:
    """Capture names bound by a ``match`` case pattern."""
    for sub in ast.walk(pattern):
        if isinstance(sub, (ast.MatchAs, ast.MatchStar)) and sub.name:
            yield sub.name
        elif isinstance(sub, ast.MatchMapping) and sub.rest:
            yield sub.rest


def _target_names(node: ast.AST) -> Iterator[str]:
    """Names bound by one assignment target (tuples/lists/starred flatten)."""
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _target_names(elt)
    elif isinstance(node, ast.Starred):
        yield from _target_names(node.value)
    else:
        key = _target_key(node)
        if key is not None:
            yield key


def _use_exprs(atom: ast.AST) -> list[ast.AST]:
    """The expression subtrees an atom *evaluates in its own block*.

    Header atoms (``For``, ``withitem``, handlers) contribute only their
    header expressions — their bodies live in successor blocks — and
    nested function/class definitions are opaque (their bodies run in a
    different scope, later).
    """
    if isinstance(atom, (ast.For, ast.AsyncFor)):
        return [atom.iter]
    if isinstance(atom, ast.withitem):
        return [atom.context_expr]
    if isinstance(atom, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    if isinstance(atom, ast.ExceptHandler):
        return [atom.type] if atom.type is not None else []
    if isinstance(atom, ast.match_case):
        return []
    return [atom]


def _binding_names(stmt: ast.AST) -> list[str]:
    """Every name an *atom* binds (its gen set, before kill semantics)."""
    names: list[str] = []
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            names.extend(_target_names(target))
    elif isinstance(stmt, ast.AugAssign):
        names.extend(_target_names(stmt.target))
    elif isinstance(stmt, ast.AnnAssign):
        if stmt.value is not None or isinstance(stmt.target, ast.Name):
            names.extend(_target_names(stmt.target))
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        # Header atom: binds the loop target each trip.
        names.extend(_target_names(stmt.target))
    elif isinstance(stmt, ast.withitem):
        if stmt.optional_vars is not None:
            names.extend(_target_names(stmt.optional_vars))
    elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
        for alias in stmt.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound != "*":
                names.append(bound)
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names.append(stmt.name)
    elif isinstance(stmt, ast.ExceptHandler):
        if stmt.name:
            names.append(stmt.name)
    elif isinstance(stmt, ast.match_case):
        names.extend(_pattern_names(stmt.pattern))
    # Walrus targets bind wherever the atom's own expressions appear.
    for expr in _use_exprs(stmt):
        for sub in ast.walk(expr):
            if isinstance(sub, ast.NamedExpr):
                names.extend(_target_names(sub.target))
    return names


def _value_exprs(stmt: ast.AST) -> list[ast.AST]:
    """The right-hand-side expression(s) an atom evaluates (for taint)."""
    if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, ast.For):
        return [stmt.iter]
    if isinstance(stmt, ast.withitem):
        return [stmt.context_expr]
    if isinstance(stmt, ast.match_case):
        return []
    return []


# ------------------------------------------------------------------- CFG

class Definition:
    """One binding occurrence of a name (identity-hashed)."""

    __slots__ = ("name", "node", "lineno", "index")

    def __init__(self, name: str, node: ast.AST, index: int) -> None:
        self.name = name
        self.node = node
        self.lineno = getattr(node, "lineno", 0)
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Definition({self.name!r}, line {self.lineno})"


@dataclass
class BasicBlock:
    """Straight-line sequence of atoms with explicit successor edges."""

    bid: int
    atoms: list[ast.AST] = field(default_factory=list)
    succs: set[int] = field(default_factory=set)
    preds: set[int] = field(default_factory=set)


class CFG:
    """Control-flow graph over one statement region."""

    def __init__(self) -> None:
        self.blocks: dict[int, BasicBlock] = {}
        self.entry: int = self._new_block().bid
        self.exit: int = self._new_block().bid

    def _new_block(self) -> BasicBlock:
        block = BasicBlock(len(self.blocks))
        self.blocks[block.bid] = block
        return block

    def add_edge(self, src: int, dst: int) -> None:
        self.blocks[src].succs.add(dst)
        self.blocks[dst].preds.add(src)

    def reachable(self) -> list[int]:
        """Block ids reachable from entry, in a stable BFS order."""
        seen = [self.entry]
        seen_set = {self.entry}
        cursor = 0
        while cursor < len(seen):
            for succ in sorted(self.blocks[seen[cursor]].succs):
                if succ not in seen_set:
                    seen_set.add(succ)
                    seen.append(succ)
            cursor += 1
        return seen

    def atoms(self) -> Iterator[tuple[int, ast.AST]]:
        """(block id, atom) over reachable blocks, in flow order."""
        for bid in self.reachable():
            for atom in self.blocks[bid].atoms:
                yield bid, atom


class _CFGBuilder:
    """Recursive-descent CFG construction over a statement list."""

    def __init__(self) -> None:
        self.cfg = CFG()
        #: (loop-header block, loop-exit block) stack for break/continue.
        self._loops: list[tuple[int, int]] = []

    def build(self, body: list[ast.stmt]) -> CFG:
        start = self.cfg._new_block()
        self.cfg.add_edge(self.cfg.entry, start.bid)
        end = self._body(body, start.bid)
        if end is not None:
            self.cfg.add_edge(end, self.cfg.exit)
        return self.cfg

    # ``cur`` is the open block statements append to; a handler returns
    # the block falling through to the next statement, or None when
    # control cannot fall through (return/raise/break/continue).

    def _body(self, stmts: list[ast.stmt], cur: int | None) -> int | None:
        for stmt in stmts:
            if cur is None:
                # Unreachable code after a terminator: park it in a
                # fresh, never-linked block so its atoms still exist
                # (reachability queries then classify them correctly).
                cur = self.cfg._new_block().bid
                self._statement(stmt, cur)
                cur = None
                continue
            cur = self._statement(stmt, cur)
        return cur

    def _statement(self, stmt: ast.stmt, cur: int) -> int | None:
        cfg = self.cfg
        if isinstance(stmt, ast.If):
            cfg.blocks[cur].atoms.append(stmt.test)
            join = cfg._new_block().bid
            then_entry = cfg._new_block().bid
            cfg.add_edge(cur, then_entry)
            then_end = self._body(stmt.body, then_entry)
            if then_end is not None:
                cfg.add_edge(then_end, join)
            if stmt.orelse:
                else_entry = cfg._new_block().bid
                cfg.add_edge(cur, else_entry)
                else_end = self._body(stmt.orelse, else_entry)
                if else_end is not None:
                    cfg.add_edge(else_end, join)
            else:
                cfg.add_edge(cur, join)
            return join if cfg.blocks[join].preds else None
        if isinstance(stmt, ast.While):
            header = cfg._new_block().bid
            cfg.add_edge(cur, header)
            cfg.blocks[header].atoms.append(stmt.test)
            exit_blk = cfg._new_block().bid
            body_entry = cfg._new_block().bid
            cfg.add_edge(header, body_entry)
            is_infinite = (
                isinstance(stmt.test, ast.Constant) and bool(stmt.test.value)
            )
            if not is_infinite:
                cfg.add_edge(header, exit_blk)
            self._loops.append((header, exit_blk))
            body_end = self._body(stmt.body, body_entry)
            self._loops.pop()
            if body_end is not None:
                cfg.add_edge(body_end, header)
            if stmt.orelse and cfg.blocks[exit_blk].preds:
                else_end = self._body(stmt.orelse, exit_blk)
                if else_end is None:
                    return None
                return else_end
            return exit_blk if cfg.blocks[exit_blk].preds else None
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            header = cfg._new_block().bid
            cfg.add_edge(cur, header)
            # The For node itself is the header atom: it evaluates
            # ``iter`` and binds ``target`` each trip.
            cfg.blocks[header].atoms.append(stmt)
            exit_blk = cfg._new_block().bid
            body_entry = cfg._new_block().bid
            cfg.add_edge(header, body_entry)
            cfg.add_edge(header, exit_blk)
            self._loops.append((header, exit_blk))
            body_end = self._body(stmt.body, body_entry)
            self._loops.pop()
            if body_end is not None:
                cfg.add_edge(body_end, header)
            if stmt.orelse:
                return self._body(stmt.orelse, exit_blk)
            return exit_blk
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                cfg.blocks[cur].atoms.append(item)
            return self._body(stmt.body, cur)
        if isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            return self._try(stmt, cur)
        if isinstance(stmt, ast.Match):
            cfg.blocks[cur].atoms.append(stmt.subject)
            join = cfg._new_block().bid
            any_fall = False
            for case in stmt.cases:
                case_entry = cfg._new_block().bid
                cfg.add_edge(cur, case_entry)
                cfg.blocks[case_entry].atoms.append(case)
                case_end = self._body(case.body, case_entry)
                if case_end is not None:
                    cfg.add_edge(case_end, join)
                    any_fall = True
            # No case may match: control continues past the statement.
            cfg.add_edge(cur, join)
            any_fall = True
            return join if any_fall else None
        if isinstance(stmt, (ast.Return, ast.Raise)):
            cfg.blocks[cur].atoms.append(stmt)
            cfg.add_edge(cur, cfg.exit)
            return None
        if isinstance(stmt, ast.Break):
            cfg.blocks[cur].atoms.append(stmt)
            if self._loops:
                cfg.add_edge(cur, self._loops[-1][1])
            return None
        if isinstance(stmt, ast.Continue):
            cfg.blocks[cur].atoms.append(stmt)
            if self._loops:
                cfg.add_edge(cur, self._loops[-1][0])
            return None
        # Simple statement (incl. nested function/class defs, which are
        # opaque single atoms binding their name).
        cfg.blocks[cur].atoms.append(stmt)
        return cur

    def _try(self, stmt: ast.Try, cur: int) -> int | None:
        cfg = self.cfg
        body_entry = cfg._new_block().bid
        cfg.add_edge(cur, body_entry)
        body_end = self._body(stmt.body, body_entry)
        after = cfg._new_block().bid
        # Conservative exception model: any block of the try body may
        # raise into any handler, so each handler is a successor of
        # every body block (definitions before the failing point reach
        # the handler; later ones may not — may-analysis keeps both).
        body_blocks = self._blocks_between(body_entry, body_end)
        handler_falls = False
        for handler in stmt.handlers:
            h_entry = cfg._new_block().bid
            cfg.blocks[h_entry].atoms.append(handler)
            for bid in body_blocks:
                cfg.add_edge(bid, h_entry)
            h_end = self._body(handler.body, h_entry)
            if h_end is not None:
                cfg.add_edge(h_end, after)
                handler_falls = True
        else_end = body_end
        if stmt.orelse and body_end is not None:
            else_end = self._body(stmt.orelse, body_end)
        if else_end is not None:
            cfg.add_edge(else_end, after)
        if not cfg.blocks[after].preds and not handler_falls:
            fall: int | None = None
        else:
            fall = after
        if stmt.finalbody:
            if fall is None:
                fall = after  # finally runs on every path that continues
            return self._body(stmt.finalbody, fall)
        return fall

    def _blocks_between(self, entry: int, end: int | None) -> list[int]:
        """Blocks reachable from ``entry`` (the try body's blocks)."""
        seen = [entry]
        seen_set = {entry}
        cursor = 0
        while cursor < len(seen):
            for succ in sorted(self.cfg.blocks[seen[cursor]].succs):
                if succ not in seen_set and succ != self.cfg.exit:
                    seen_set.add(succ)
                    seen.append(succ)
            cursor += 1
        return seen


def build_cfg(body: list[ast.stmt] | ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """CFG for a function body (or any statement list)."""
    if isinstance(body, (ast.FunctionDef, ast.AsyncFunctionDef)):
        body = body.body
    return _CFGBuilder().build(body)


# ------------------------------------------------- reaching definitions

class ReachingDefinitions:
    """Reaching-definitions worklist over a :class:`CFG`.

    ``params`` names are synthetic entry definitions (a function's
    arguments). After :meth:`compute`, :attr:`block_in` maps each block
    id to ``{name: frozenset[Definition]}`` at block entry.
    """

    def __init__(self, cfg: CFG, params: Iterable[str] = ()) -> None:
        self.cfg = cfg
        self._counter = itertools.count()
        self.param_defs: dict[str, Definition] = {}
        self.block_in: dict[int, dict[str, frozenset[Definition]]] = {}
        self._atom_defs: dict[int, list[Definition]] = {}
        self._params = list(params)
        self.compute()

    def atom_definitions(self, atom: ast.AST) -> list[Definition]:
        """The :class:`Definition` objects one atom creates (cached)."""
        found = self._atom_defs.get(id(atom))
        if found is None:
            found = [
                Definition(name, atom, next(self._counter))
                for name in _binding_names(atom)
            ]
            self._atom_defs[id(atom)] = found
        return found

    def compute(self) -> None:
        cfg = self.cfg
        entry_env: dict[str, frozenset[Definition]] = {}
        for name in self._params:
            definition = Definition(name, ast.arg(arg=name), next(self._counter))
            self.param_defs[name] = definition
            entry_env[name] = frozenset({definition})
        out: dict[int, dict[str, frozenset[Definition]]] = {
            bid: {} for bid in cfg.blocks
        }
        self.block_in = {bid: {} for bid in cfg.blocks}
        self.block_in[cfg.entry] = dict(entry_env)
        out[cfg.entry] = dict(entry_env)
        work = list(cfg.reachable())
        while work:
            bid = work.pop(0)
            if bid != cfg.entry:
                merged: dict[str, set[Definition]] = {}
                for pred in self.cfg.blocks[bid].preds:
                    for name, defs in out[pred].items():
                        merged.setdefault(name, set()).update(defs)
                self.block_in[bid] = {
                    name: frozenset(defs) for name, defs in merged.items()
                }
            env = dict(self.block_in[bid])
            for atom in cfg.blocks[bid].atoms:
                for definition in self.atom_definitions(atom):
                    env[definition.name] = frozenset({definition})
            if env != out[bid]:
                out[bid] = env
                for succ in sorted(cfg.blocks[bid].succs):
                    if succ not in work:
                        work.append(succ)

    def defs_before(self, bid: int, atom: ast.AST) -> dict[str, frozenset[Definition]]:
        """The reaching-definition environment just before ``atom``."""
        env = dict(self.block_in.get(bid, {}))
        for candidate in self.cfg.blocks[bid].atoms:
            if candidate is atom:
                return env
            for definition in self.atom_definitions(candidate):
                env[definition.name] = frozenset({definition})
        return env

    def use_defs(self) -> dict[int, tuple[ast.AST, frozenset[Definition]]]:
        """Use-def chains: ``id(load node) -> (node, reaching defs)``.

        Covers ``Name`` loads and ``self.attr`` loads inside every
        reachable atom's value expressions.
        """
        chains: dict[int, tuple[ast.AST, frozenset[Definition]]] = {}
        for bid, atom in self.cfg.atoms():
            env = self.defs_before(bid, atom)
            for expr in _use_exprs(atom):
                for sub in ast.walk(expr):
                    key: str | None = None
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                        key = sub.id
                    elif isinstance(sub, ast.Attribute) and isinstance(
                        sub.ctx, ast.Load
                    ):
                        key = _target_key(sub)
                    if key is not None and key in env:
                        chains[id(sub)] = (sub, env[key])
        return chains


# ------------------------------------------------------------------ taint

class TaintAnalysis:
    """Two-point taint lattice over one function's dataflow.

    ``seed`` decides whether an *expression node* introduces taint by
    itself (e.g. a call constructing a live session); ``declassify``
    marks expression nodes whose subtree stops propagating (e.g.
    ``len(x)`` — a count derived from a tainted container is clean). Taint
    flows through assignments, aliases, subscripts of tainted
    containers, arithmetic and tuple packing, to a fixpoint over the
    definitions' dependency graph.
    """

    def __init__(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        seed: Callable[[ast.AST], bool],
        declassify: Callable[[ast.AST], bool] | None = None,
    ) -> None:
        self.func = func
        self.seed = seed
        self.declassify = declassify or (lambda node: False)
        self.cfg = build_cfg(func)
        params = [a.arg for a in (
            *func.args.posonlyargs, *func.args.args, *func.args.kwonlyargs
        )]
        if func.args.vararg:
            params.append(func.args.vararg.arg)
        if func.args.kwarg:
            params.append(func.args.kwarg.arg)
        self.rd = ReachingDefinitions(self.cfg, params=params)
        self.tainted_defs: set[Definition] = set()
        self._compute()

    # A definition's taint comes from its atom's value expression(s).

    def _expr_tainted(
        self, expr: ast.AST, env: dict[str, frozenset[Definition]]
    ) -> bool:
        """Whether ``expr`` may evaluate to a tainted value."""
        if self.declassify(expr):
            return False
        if self.seed(expr):
            return True
        if isinstance(expr, (ast.Name, ast.Attribute)):
            key = _target_key(expr)
            if key is not None:
                defs = env.get(key, frozenset())
                return any(d in self.tainted_defs for d in defs)
            if isinstance(expr, ast.Attribute):
                # ``obj.attr`` of a tainted object stays tainted.
                return self._expr_tainted(expr.value, env)
            return False
        if isinstance(expr, ast.Subscript):
            return self._expr_tainted(expr.value, env)
        if isinstance(expr, ast.BinOp):
            return self._expr_tainted(expr.left, env) or self._expr_tainted(
                expr.right, env
            )
        if isinstance(expr, ast.UnaryOp):
            return self._expr_tainted(expr.operand, env)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            return any(self._expr_tainted(e, env) for e in expr.elts)
        if isinstance(expr, ast.Starred):
            return self._expr_tainted(expr.value, env)
        if isinstance(expr, ast.IfExp):
            return self._expr_tainted(expr.body, env) or self._expr_tainted(
                expr.orelse, env
            )
        if isinstance(expr, ast.NamedExpr):
            return self._expr_tainted(expr.value, env)
        if isinstance(expr, ast.Call):
            # Method calls on a tainted receiver (e.g. ``rng.spawn(2)``)
            # keep the taint; other calls are boundaries (the rule's
            # declassify covers reductions, and unknown calls are
            # assumed clean to avoid fp storms).
            if isinstance(expr.func, ast.Attribute):
                return self._expr_tainted(expr.func.value, env)
            return False
        # Compare/BoolOp results are booleans — never tainted.
        return False

    def _compute(self) -> None:
        changed = True
        while changed:
            changed = False
            for bid, atom in self.cfg.atoms():
                env = self.rd.defs_before(bid, atom)
                values = _value_exprs(atom)
                if not values:
                    continue
                tainted = any(self._expr_tainted(v, env) for v in values)
                if not tainted:
                    continue
                for definition in self.rd.atom_definitions(atom):
                    if definition not in self.tainted_defs:
                        self.tainted_defs.add(definition)
                        changed = True

    def expr_tainted(
        self, expr: ast.AST, env: dict[str, frozenset[Definition]]
    ) -> bool:
        """Whether an arbitrary expression may evaluate tainted (public
        entry point for rules checking call arguments and the like)."""
        return self._expr_tainted(expr, env)

    def iter_atoms_with_env(
        self,
    ) -> Iterator[tuple[ast.AST, dict[str, frozenset[Definition]]]]:
        """(atom, reaching environment) for every reachable atom."""
        for bid, atom in self.cfg.atoms():
            yield atom, self.rd.defs_before(bid, atom)
