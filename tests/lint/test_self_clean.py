"""The linter's contract with this repo: src/ lints clean, CLI gates."""

import json
from pathlib import Path

from repro.cli import main as repro_main
from repro.lint import all_rules, run_lint
from repro.lint.cli import main as lint_main

SRC = Path(__file__).resolve().parents[2] / "src"
FIXTURES = Path(__file__).parent / "fixtures"

#: Every rule family code this repo ships; CI relies on all of them.
EXPECTED_CODES = {
    "RPL101", "RPL102", "RPL103", "RPL104",
    "RPL701", "RPL702", "RPL703", "RPL704",
}


def test_src_tree_is_clean():
    violations = run_lint([SRC])
    assert violations == [], "\n".join(v.render() for v in violations)


def test_all_rule_families_registered():
    assert {rule.code for rule in all_rules()} == EXPECTED_CODES


class TestCliExitCodes:
    def test_zero_on_clean(self, capsys):
        assert lint_main([str(FIXTURES / "determinism_good.py")]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_one_on_violations(self, capsys):
        assert lint_main([str(FIXTURES / "determinism_bad.py")]) == 1
        assert "RPL101" in capsys.readouterr().out

    def test_two_on_no_files(self, tmp_path, capsys):
        assert lint_main([str(tmp_path)]) == 2
        assert "no Python files" in capsys.readouterr().err

    def test_json_format(self, capsys):
        assert lint_main(
            [str(FIXTURES / "determinism_bad.py"), "--format", "json"]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["RPL102"] == 1

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in EXPECTED_CODES:
            assert code in out

    def test_repro_cli_delegates_lint_subcommand(self, capsys):
        assert repro_main(["lint", str(FIXTURES / "determinism_good.py")]) == 0
        assert "0 violations" in capsys.readouterr().out
