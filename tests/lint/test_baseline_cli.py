"""Suppression reasons in the JSON report and the report object, and
suppressions of codes no rule emits."""

import json

import pytest

from repro.lint.cli import main
from repro.lint.framework import UNKNOWN_SUPPRESSION_CODE, run_lint_report

HASHING = (
    "def f(name):\n"
    "    return hash(name)\n"
)


class TestSuppressionReasons:
    def test_json_carries_line_suppression_reason(self, tmp_path, capsys):
        pkg = tmp_path / "cache"
        pkg.mkdir()
        mod = pkg / "mod.py"
        mod.write_text(
            "def f(name):\n"
            "    return hash(name)  "
            "# reprolint: disable=RPL102 -- ratio for a plot only\n"
        )
        assert main([str(mod), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        (record,) = doc["suppressions"]
        assert record["codes"] == ["RPL102"]
        assert record["kind"] == "line"
        assert record["reason"] == "ratio for a plot only"

    def test_json_carries_file_suppression_reason(self, tmp_path, capsys):
        pkg = tmp_path / "cache"
        pkg.mkdir()
        mod = pkg / "mod.py"
        mod.write_text(
            HASHING
            + "# reprolint: disable-file=RPL102 -- generated lookup table\n"
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
            "def f(name):\n"
            "    return hash(name)  # reprolint: disable=RPL102\n"
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
            "def f(name):\n"
            "    return hash(name)  # reprolint: disable=RPL102 -- demo\n"
        )
        report = run_lint_report([mod])
        assert report.violations == []
        (record,) = report.suppressions
        assert record.codes == ("RPL102",) and record.reason == "demo"


class TestUnknownSuppressedCodes:
    @pytest.mark.parametrize("code", ["RPL302", "RPL999"], ids=["retired", "unknown"])
    @pytest.mark.parametrize("kind", ["disable", "disable-file"])
    def test_suppression_of_a_code_no_rule_emits_is_reported(
        self, tmp_path, capsys, code, kind
    ):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "def f(name):\n"
            f"    return name  # reprolint: {kind}={code} -- stale\n"
        )
        assert main([str(mod), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        (finding,) = doc["violations"]
        assert finding["code"] == UNKNOWN_SUPPRESSION_CODE
        assert finding["path"] == str(mod) and finding["line"] == 2
        assert code in finding["message"]

    def test_only_the_unknown_code_of_a_list_is_reported(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "def f(name):\n"
            "    return hash(name)  # reprolint: disable=RPL102,RPL302\n"
        )
        # RPL102 still silences the hash() call; only RPL302 is reported.
        (finding,) = run_lint_report([mod]).violations
        assert (finding.line, finding.code) == (2, UNKNOWN_SUPPRESSION_CODE)
        assert "RPL302" in finding.message and "RPL102" not in finding.message
