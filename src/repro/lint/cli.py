"""Command-line entry point for ``reprolint``.

Invoked as ``python -m repro.lint <paths>`` or ``repro lint <paths>``.
Exit status: 0 clean, 1 violations found, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.framework import (
    all_rules,
    collect_files,
    format_human,
    format_json,
    run_lint_report,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "AST-based invariant linter: determinism (RPL1xx) and "
            "process/fork safety (RPL7xx)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the src/ tree this "
        "installation runs from)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        nargs="+",
        metavar="CODE",
        default=None,
        help="only report codes with these prefixes, e.g. RPL1 RPL702",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule and exit",
    )
    return parser


def _default_paths() -> list[str]:
    # The package's own source tree: src/repro/lint/cli.py -> src/
    src_root = Path(__file__).resolve().parent.parent.parent
    return [str(src_root)]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name}: {rule.description}")
        return 0
    paths = args.paths or _default_paths()
    files = collect_files(paths)
    if not files:
        print(f"repro lint: no Python files under {' '.join(paths)}", file=sys.stderr)
        return 2
    report = run_lint_report(paths, select=args.select)
    violations = report.violations
    if args.format == "json":
        print(format_json(violations, report.files_checked, report.suppressions))
    else:
        print(format_human(violations, report.files_checked))
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
