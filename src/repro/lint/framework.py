"""Core machinery of ``reprolint``: modules, rules, suppressions, output.

The linter is a plain AST pass — no imports of the checked code, no
runtime reflection — so it can gate CI before anything executes and can
be pointed at fixture snippets in tests. A :class:`Rule` inspects one
:class:`ParsedModule` at a time through :meth:`Rule.check_module`.

Suppressions are source comments, checked per line::

    value = hash(name)  # reprolint: disable=RPL102 -- display-only hash

and per file (anywhere in the file, conventionally at the top)::

    # reprolint: disable-file=RPL103 -- wall-clock is bookkeeping here

Every violation carries its rule code, so suppressions are always
targeted — there is deliberately no blanket ``disable=all``. The text
after ``--`` is the justification; it is carried into the JSON report
(``suppressions`` key) so every silenced finding stays auditable. A
suppression naming a code no rule emits (a typo, or a retired code)
silences nothing, so it is itself reported, as ``RPL002``.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Violation",
    "SuppressionRecord",
    "ParsedModule",
    "Rule",
    "register",
    "all_rules",
    "collect_files",
    "run_lint",
    "run_lint_report",
    "LintReport",
    "format_human",
    "format_json",
]

#: Rule code for files the linter cannot parse at all.
PARSE_ERROR_CODE = "RPL001"

#: Rule code for a suppression that names a code no rule emits.
UNKNOWN_SUPPRESSION_CODE = "RPL002"

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(disable|disable-file)\s*=\s*([A-Z0-9,\s]+?)"
    r"(?:\s*--\s*(.+?)\s*)?$"
)


@dataclass(frozen=True, order=True)
class Violation:
    """One rule hit, addressable by file position and rule code."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def as_dict(self) -> dict[str, object]:
        return dataclasses.asdict(self)


@dataclass(frozen=True, order=True)
class SuppressionRecord:
    """One ``# reprolint: disable[-file]=...`` comment, with its reason.

    Reported alongside violations (JSON ``suppressions`` key) so every
    silenced finding stays visible and auditable in machine output.
    """

    path: str
    line: int
    kind: str  # "line" | "file"
    codes: tuple[str, ...]
    reason: str | None

    def as_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "kind": self.kind,
            "codes": list(self.codes),
            "reason": self.reason,
        }


@dataclass
class ParsedModule:
    """One source file, parsed once and shared by every rule."""

    path: Path
    display_path: str
    source: str
    tree: ast.Module
    #: Line number -> codes suppressed on that line.
    line_suppressions: dict[int, set[str]] = field(default_factory=dict)
    #: Codes suppressed for the whole file.
    file_suppressions: set[str] = field(default_factory=set)
    #: Every suppression comment found, with its ``-- reason`` text.
    suppression_records: list[SuppressionRecord] = field(default_factory=list)

    @classmethod
    def parse(cls, path: Path, display_path: str | None = None) -> "ParsedModule":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        module = cls(
            path=path,
            display_path=display_path or str(path),
            source=source,
            tree=tree,
        )
        module._scan_suppressions()
        return module

    def _scan_suppressions(self) -> None:
        for lineno, text in enumerate(self.source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(text)
            if not match:
                continue
            kind, codes_text, reason = match.groups()
            codes = {c.strip() for c in codes_text.split(",") if c.strip()}
            if kind == "disable-file":
                self.file_suppressions |= codes
            else:
                self.line_suppressions.setdefault(lineno, set()).update(codes)
            self.suppression_records.append(
                SuppressionRecord(
                    path=self.display_path,
                    line=lineno,
                    kind="file" if kind == "disable-file" else "line",
                    codes=tuple(sorted(codes)),
                    reason=reason,
                )
            )

    # ------------------------------------------------------------- helpers

    @property
    def parts(self) -> tuple[str, ...]:
        """Directory names on the module's path (used for rule scoping)."""
        return tuple(p.name for p in self.path.parents if p.name)

    def in_packages(self, *names: str) -> bool:
        """Whether any ancestor directory is named one of ``names``."""
        return bool(set(names) & set(self.parts))

    def unknown_suppressions(self, known: set[str]) -> Iterator[Violation]:
        """One finding per suppressed code outside ``known``, the codes
        the rules emit: such a suppression silences nothing."""
        for record in self.suppression_records:
            for code in record.codes:
                if code not in known:
                    yield Violation(
                        path=self.display_path,
                        line=record.line,
                        col=0,
                        code=UNKNOWN_SUPPRESSION_CODE,
                        message=f"suppression names {code}, which no rule emits",
                    )

    def suppressed(self, violation: Violation) -> bool:
        if violation.code in self.file_suppressions:
            return True
        return violation.code in self.line_suppressions.get(violation.line, set())

    def violation(self, node: ast.AST, code: str, message: str) -> Violation:
        return Violation(
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
        )


class Rule:
    """Base class for lint rules.

    Subclasses set ``code`` (the family code reported by default),
    ``name`` and ``description`` and override :meth:`check_module`. One
    instance is created per lint run.
    """

    code: str = "RPL000"
    name: str = "?"
    description: str = ""

    def check_module(self, module: ParsedModule) -> Iterable[Violation]:
        return ()


_REGISTRY: list[type[Rule]] = []


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the default rule set."""
    _REGISTRY.append(rule_cls)
    return rule_cls


def all_rules() -> list[type[Rule]]:
    """Every registered rule class, import-order stable."""
    # Importing the rules package populates the registry exactly once.
    from repro.lint import rules  # noqa: F401

    return list(_REGISTRY)


def collect_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            out.append(path)
    # De-duplicate while keeping the sorted-within-argument order stable.
    seen: set[Path] = set()
    unique: list[Path] = []
    for path in out:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def _selected(code: str, select: Sequence[str] | None) -> bool:
    if not select:
        return True
    return any(code.startswith(prefix) for prefix in select)


@dataclass
class LintReport:
    """Everything one lint pass produced, for the formatters."""

    violations: list[Violation]
    files_checked: int
    suppressions: list[SuppressionRecord]


def run_lint_report(
    paths: Sequence[str | Path], select: Sequence[str] | None = None
) -> LintReport:
    """Lint ``paths`` and return violations plus suppression records.

    ``select`` filters by code prefix (``["RPL1"]`` keeps the whole
    determinism family); suppression comments are honoured before
    selection. Unparseable files yield a single ``RPL001`` violation, and
    each suppressed code no rule emits an ``RPL002`` one.
    """
    instances = [cls() for cls in all_rules()]
    known = {rule.code for rule in instances}
    violations: list[Violation] = []
    suppressions: list[SuppressionRecord] = []
    files = collect_files(paths)
    for path in files:
        try:
            module = ParsedModule.parse(path)
        except (SyntaxError, UnicodeDecodeError) as exc:
            line = getattr(exc, "lineno", 1) or 1
            violations.append(
                Violation(
                    path=str(path),
                    line=line,
                    col=0,
                    code=PARSE_ERROR_CODE,
                    message=f"cannot parse file: {exc.msg if hasattr(exc, 'msg') else exc}",
                )
            )
            continue
        suppressions.extend(module.suppression_records)
        violations.extend(module.unknown_suppressions(known))
        for rule in instances:
            for violation in rule.check_module(module):
                if not module.suppressed(violation):
                    violations.append(violation)
    return LintReport(
        violations=sorted(v for v in violations if _selected(v.code, select)),
        files_checked=len(files),
        suppressions=sorted(suppressions),
    )


def run_lint(
    paths: Sequence[str | Path], select: Sequence[str] | None = None
) -> list[Violation]:
    """Violations only — the original API, kept for rule tests."""
    return run_lint_report(paths, select=select).violations


# ---------------------------------------------------------------- output

def format_human(violations: Sequence[Violation], files_checked: int) -> str:
    lines = [v.render() for v in violations]
    summary = (
        f"{len(violations)} violation(s) in {files_checked} file(s)"
        if violations
        else f"clean: {files_checked} file(s), 0 violations"
    )
    lines.append(summary)
    return "\n".join(lines)


def format_json(
    violations: Sequence[Violation],
    files_checked: int,
    suppressions: Sequence[SuppressionRecord] = (),
) -> str:
    counts: dict[str, int] = {}
    for violation in violations:
        counts[violation.code] = counts.get(violation.code, 0) + 1
    payload = {
        "files_checked": files_checked,
        "violations": [v.as_dict() for v in violations],
        "counts": dict(sorted(counts.items())),
        # Suppressed findings stay auditable: each disable comment is
        # reported with its `-- reason` justification (None if missing).
        "suppressions": [s.as_dict() for s in suppressions],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def iter_calls(tree: ast.AST) -> Iterator[ast.Call]:
    """Every call node in ``tree`` (shared by several rules)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for Name/Attribute chains, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
