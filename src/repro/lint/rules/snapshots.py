"""Snapshot payload completeness (RPL5xx).

Checkpoint/resume is only sound if a snapshot captures *every* piece of
mid-run session state: a field added to :class:`SessionSnapshot` or to
its per-core :class:`CoreState` but never written by the code that
builds it silently restores to its default, and a run resumed from such
a snapshot diverges from the uninterrupted run — the exact bit-identity
bug the session tests exist to prevent, except surfacing only for
crashed-and-resumed cells.

``RPL501`` therefore cross-references, statically, the literal payload
dict each record is built from (the ``payload = {...}`` passed as
``SessionSnapshot(**payload)`` / ``CoreState(**payload)``, or direct
keyword arguments, in any function of the module) against the
dataclass fields:

* every dataclass field must appear as a payload key (state written);
* every payload key must be a dataclass field (no dead keys that mask a
  renamed field);
* ``SessionSnapshot`` must carry a ``version`` field, the format stamp
  that lets :meth:`SessionSnapshot.load` and the experiment checkpoint
  layer refuse snapshots from incompatible code.

Like the RPL2xx cache-key rules, the check is structural rather than
path-bound: any module *defining* a ``SessionSnapshot`` or ``CoreState``
class is checked, which lets fixtures exercise the failure modes without
touching the real tree.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.lint.framework import (
    ParsedModule,
    Rule,
    Violation,
    dotted_name,
    iter_calls,
    register,
)
from repro.lint.rules.cachekey import dataclass_fields

SNAPSHOT_CLASS = "SessionSnapshot"
#: Every record RPL501 checks: the snapshot and its per-core state.
RECORD_CLASSES = (SNAPSHOT_CLASS, "CoreState")


def _class_def(tree: ast.Module, name: str) -> ast.ClassDef | None:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _payload_keys(
    tree: ast.Module, record: str
) -> tuple[set[str], ast.AST] | None:
    """Keys the first ``record(...)`` construction in any function of
    ``tree`` writes.

    Handles both the ``payload = {...}; record(**payload)`` shape (the
    real tree, which keeps the payload dict literal precisely so this
    rule can read it) and direct keyword construction.
    """
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        dict_bindings: dict[str, ast.Dict] = {}
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Dict)
            ):
                dict_bindings[node.targets[0].id] = node.value
        for call in iter_calls(func):
            name = dotted_name(call.func)
            if name is None or name.split(".")[-1] != record:
                continue
            for kw in call.keywords:
                if (
                    kw.arg is None
                    and isinstance(kw.value, ast.Name)
                    and kw.value.id in dict_bindings
                ):
                    payload = dict_bindings[kw.value.id]
                    keys = {
                        k.value
                        for k in payload.keys
                        if isinstance(k, ast.Constant) and isinstance(k.value, str)
                    }
                    return keys, payload
            explicit = {kw.arg for kw in call.keywords if kw.arg is not None}
            if explicit:
                return explicit, call
    return None


@register
class SnapshotPayloadCompletenessRule(Rule):
    code = "RPL501"
    name = "snapshot-payload-completeness"
    description = (
        "SessionSnapshot and CoreState dataclass fields and the payload "
        "dicts that build them must match exactly (and the snapshot must "
        "include a 'version' stamp)"
    )

    def check_module(self, module: ParsedModule) -> Iterable[Violation]:
        for record in RECORD_CLASSES:
            cls = _class_def(module.tree, record)
            if cls is not None:
                yield from self._check_record(module, record, cls)

    def _check_record(
        self, module: ParsedModule, record: str, cls: ast.ClassDef
    ) -> Iterable[Violation]:
        fields = dict(dataclass_fields(cls))
        if record == SNAPSHOT_CLASS and "version" not in fields:
            yield module.violation(
                cls,
                self.code,
                f"{SNAPSHOT_CLASS} lacks a 'version' field; incompatible "
                "snapshot formats could not be rejected on load",
            )
        resolved = _payload_keys(module.tree, record)
        if resolved is None:
            yield module.violation(
                cls,
                self.code,
                f"no function constructs {record} from a literal payload; "
                "completeness cannot be verified statically",
            )
            return
        keys, payload_node = resolved
        for field_name, node in fields.items():
            if field_name not in keys:
                yield module.violation(
                    node,
                    self.code,
                    f"{record} field '{field_name}' is never written by the "
                    "payload that builds it; restored sessions would get its "
                    "default and diverge from the uninterrupted run",
                )
        for key in sorted(keys - fields.keys()):
            yield module.violation(
                payload_node,
                self.code,
                f"payload key '{key}' is not a {record} field; a renamed "
                "or removed field would be silently dropped",
            )
