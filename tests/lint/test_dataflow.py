"""Unit and property tests for the ``repro.lint.dataflow`` engine."""

import ast
import itertools
import textwrap

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint.dataflow import (
    ReachingDefinitions,
    TaintAnalysis,
    build_cfg,
)


def parse_func(src):
    tree = ast.parse(textwrap.dedent(src))
    return tree.body[0]


def reachable_atoms(cfg):
    return [atom for _, atom in cfg.atoms()]


def all_atoms(cfg):
    out = []
    for block in cfg.blocks.values():
        out.extend(block.atoms)
    return out


class TestCFGStructure:
    def test_straight_line_order(self):
        func = parse_func(
            """
            def f():
                a = 1
                b = 2
                return a + b
            """
        )
        cfg = build_cfg(func)
        kinds = [type(a).__name__ for a in reachable_atoms(cfg)]
        assert kinds == ["Assign", "Assign", "Return"]

    def test_if_else_covers_both_arms(self):
        func = parse_func(
            """
            def f(flag):
                if flag:
                    x = 1
                else:
                    x = 2
                return x
            """
        )
        cfg = build_cfg(func)
        assigns = [a for a in reachable_atoms(cfg) if isinstance(a, ast.Assign)]
        assert len(assigns) == 2

    def test_while_has_back_edge(self):
        func = parse_func(
            """
            def f(n):
                i = 0
                while i < n:
                    i = i + 1
                return i
            """
        )
        cfg = build_cfg(func)
        header = next(
            bid
            for bid, block in cfg.blocks.items()
            if any(isinstance(a, ast.Compare) for a in block.atoms)
        )
        body = next(
            bid
            for bid, block in cfg.blocks.items()
            if any(isinstance(a, ast.Assign) for a in block.atoms)
            and header in block.succs
        )
        assert header in cfg.blocks[body].succs  # loop back edge
        assert body in cfg.reachable()

    def test_code_after_return_is_unreachable(self):
        func = parse_func(
            """
            def f():
                return 1
                dead = 2
            """
        )
        cfg = build_cfg(func)
        reach = reachable_atoms(cfg)
        assert not any(isinstance(a, ast.Assign) for a in reach)
        # ...but the atom still exists, in an unlinked block.
        assert any(isinstance(a, ast.Assign) for a in all_atoms(cfg))

    def test_break_skips_rest_of_loop_exit_reachable(self):
        func = parse_func(
            """
            def f(items):
                for item in items:
                    if item:
                        break
                    touched = item
                return 0
            """
        )
        cfg = build_cfg(func)
        names = [type(a).__name__ for a in reachable_atoms(cfg)]
        assert "Break" in names and "Return" in names and "Assign" in names

    def test_try_handler_reachable_from_body(self):
        func = parse_func(
            """
            def f():
                try:
                    x = risky()
                except ValueError:
                    x = 0
                return x
            """
        )
        cfg = build_cfg(func)
        assigns = [a for a in reachable_atoms(cfg) if isinstance(a, ast.Assign)]
        handlers = [
            a for a in reachable_atoms(cfg) if isinstance(a, ast.ExceptHandler)
        ]
        assert len(assigns) == 2 and len(handlers) == 1


class TestReachingDefinitions:
    def _analysis(self, src):
        func = parse_func(src)
        cfg = build_cfg(func)
        params = [a.arg for a in func.args.args]
        return func, cfg, ReachingDefinitions(cfg, params=params)

    @staticmethod
    def _defs_at_return(cfg, rd):
        """The definitions reaching the names the ``return`` reads."""
        ((bid, ret),) = [
            (bid, atom) for bid, atom in cfg.atoms() if isinstance(atom, ast.Return)
        ]
        return rd.defs_before(bid, ret)

    def test_param_reaches_use(self):
        func, cfg, rd = self._analysis(
            """
            def f(addr):
                return addr
            """
        )
        defs = self._defs_at_return(cfg, rd)["addr"]
        assert defs == frozenset({rd.param_defs["addr"]})

    def test_redefinition_kills_earlier_def(self):
        func, cfg, rd = self._analysis(
            """
            def f():
                x = 1
                x = 2
                return x
            """
        )
        defs = self._defs_at_return(cfg, rd)["x"]
        assert len(defs) == 1
        (definition,) = defs
        assert definition.node.value.value == 2  # the second assignment

    def test_branch_merge_unions_definitions(self):
        func, cfg, rd = self._analysis(
            """
            def f(flag):
                if flag:
                    x = 1
                else:
                    x = 2
                return x
            """
        )
        defs = self._defs_at_return(cfg, rd)["x"]
        assert len(defs) == 2  # both arms reach the join


ADDRY = ("addr", "tags", "line_tags")


def taint_of(src):
    func = parse_func(src)
    return TaintAnalysis(
        func,
        seed=lambda n: isinstance(n, ast.Name) and n.id in ADDRY,
        declassify=lambda n: (
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name)
            and n.func.id == "len"
        ),
    )


def return_is_tainted(ta):
    for atom, env in ta.iter_atoms_with_env():
        if isinstance(atom, ast.Return) and atom.value is not None:
            return ta.expr_tainted(atom.value, env)
    raise AssertionError("no return found")


class TestTaintAnalysis:
    def test_direct_alias(self):
        ta = taint_of(
            """
            def f(addr):
                tmp = addr
                return tmp
            """
        )
        assert return_is_tainted(ta)

    def test_arithmetic_preserves_taint(self):
        ta = taint_of(
            """
            def f(addr):
                shifted = addr + 64
                return shifted
            """
        )
        assert return_is_tainted(ta)

    def test_declassify_stops_taint(self):
        ta = taint_of(
            """
            def f(addr):
                n = len(addr)
                return n
            """
        )
        assert not return_is_tainted(ta)

    def test_reassignment_clears(self):
        ta = taint_of(
            """
            def f(addr):
                x = addr
                x = 0
                return x
            """
        )
        assert not return_is_tainted(ta)

    def test_subscript_of_tainted_container(self):
        ta = taint_of(
            """
            def f(tags):
                first = tags[0]
                return first
            """
        )
        assert return_is_tainted(ta)

    def test_taint_survives_one_branch(self):
        ta = taint_of(
            """
            def f(addr, flag):
                x = 0
                if flag:
                    x = addr
                return x
            """
        )
        assert return_is_tainted(ta)


# --------------------------------------------------- coverage property
#
# Random programs built from a small statement grammar, with every
# simple statement replaced by a uniquely-numbered trace call. Actually
# *executing* the program gives ground truth: every marker that ran is
# execution-reachable, so it must sit in a CFG block reachable from
# entry. (The CFG is an over-approximation, so the converse need not
# hold.)

@st.composite
def programs(draw):
    counter = itertools.count()

    def stmt_lines(depth, in_loop, in_try):
        kinds = ["trace", "trace", "if"]
        if depth < 2:
            kinds += ["for", "try"]
        if in_loop:
            kinds += ["break", "continue"]
        if in_try:
            kinds += ["raise"]
        kinds += ["return"]
        kind = draw(st.sampled_from(kinds))
        if kind == "trace":
            return [f"t({next(counter)})"]
        if kind == "return":
            return ["return None"]
        if kind == "break":
            return ["break"]
        if kind == "continue":
            return ["continue"]
        if kind == "raise":
            return ["raise ValueError()"]
        if kind == "if":
            flag = draw(st.integers(0, 2))
            lines = [f"if flags[{flag}]:"] + indent(
                block(depth + 1, in_loop, in_try)
            )
            if draw(st.booleans()):
                lines += ["else:"] + indent(block(depth + 1, in_loop, in_try))
            return lines
        if kind == "for":
            trips = draw(st.integers(0, 2))
            return [f"for _ in range({trips}):"] + indent(
                block(depth + 1, True, in_try)
            )
        assert kind == "try"
        lines = ["try:"] + indent(block(depth + 1, in_loop, True))
        lines += ["except ValueError:"] + indent(
            block(depth + 1, in_loop, in_try)
        )
        return lines

    def indent(lines):
        return ["    " + line for line in lines]

    def block(depth, in_loop, in_try):
        out = []
        for _ in range(draw(st.integers(1, 3))):
            out.extend(stmt_lines(depth, in_loop, in_try))
        return out

    body = block(0, False, False)
    flags = draw(st.lists(st.booleans(), min_size=3, max_size=3))
    return "def f(flags):\n" + "\n".join("    " + line for line in body), flags


@given(programs())
@settings(max_examples=60, deadline=None)
def test_cfg_covers_every_executed_statement(case):
    src, flags = case
    tree = ast.parse(src)
    func = tree.body[0]
    cfg = build_cfg(func)

    markers = {}
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id == "t"
        ):
            markers[node.value.args[0].value] = node

    # Structural totality: every marker exists in *some* block, even
    # when statically dead (parked in an unlinked block).
    everywhere = {
        id(a) for block in cfg.blocks.values() for a in block.atoms
    }
    assert all(id(node) in everywhere for node in markers.values())

    # Execution oracle: run the program; whatever actually executed
    # must be in a block reachable from entry.
    trace = []
    namespace = {"t": trace.append}
    exec(compile(src, "<gen>", "exec"), namespace)
    try:
        namespace["f"](flags)
    except ValueError:
        pass  # uncaught generated raise — trace up to it still counts
    covered = {id(a) for _, a in cfg.atoms()}
    for marker in trace:
        assert id(markers[marker]) in covered
