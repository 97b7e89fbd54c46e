"""Suppression reasons in the JSON report and the report object."""

import json

from repro.lint.cli import main
from repro.lint.framework import run_lint_report

BAD_KERNEL = (
    "def f(addr):\n"
    "    return addr / 2\n"
)


class TestSuppressionReasons:
    def test_json_carries_line_suppression_reason(self, tmp_path, capsys):
        pkg = tmp_path / "cache"
        pkg.mkdir()
        mod = pkg / "mod.py"
        mod.write_text(
            "def f(addr):\n"
            "    return addr / 2  "
            "# reprolint: disable=RPL302 -- ratio for a plot only\n"
        )
        assert main([str(mod), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        (record,) = doc["suppressions"]
        assert record["codes"] == ["RPL302"]
        assert record["kind"] == "line"
        assert record["reason"] == "ratio for a plot only"

    def test_json_carries_file_suppression_reason(self, tmp_path, capsys):
        pkg = tmp_path / "cache"
        pkg.mkdir()
        mod = pkg / "mod.py"
        mod.write_text(
            BAD_KERNEL
            + "# reprolint: disable-file=RPL302 -- generated lookup table\n"
        )
        assert main([str(mod), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        (record,) = doc["suppressions"]
        assert record["kind"] == "file"
        assert record["reason"] == "generated lookup table"

    def test_reasonless_suppression_reason_is_null(self, tmp_path, capsys):
        pkg = tmp_path / "cache"
        pkg.mkdir()
        mod = pkg / "mod.py"
        mod.write_text(
            "def f(addr):\n"
            "    return addr / 2  # reprolint: disable=RPL302\n"
        )
        assert main([str(mod), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        (record,) = doc["suppressions"]
        assert record["reason"] is None

    def test_report_object_exposes_suppressions(self, tmp_path):
        pkg = tmp_path / "cache"
        pkg.mkdir()
        mod = pkg / "mod.py"
        mod.write_text(
            "def f(addr):\n"
            "    return addr / 2  # reprolint: disable=RPL302 -- demo\n"
        )
        report = run_lint_report([mod])
        assert report.violations == []
        (record,) = report.suppressions
        assert record.codes == ("RPL302",) and record.reason == "demo"
