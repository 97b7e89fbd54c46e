"""RPL7xx process/concurrency-safety rules against fixture modules."""

import itertools
import shutil
from collections import Counter
from pathlib import Path

from repro.lint import run_lint

FIXTURES = Path(__file__).parent / "fixtures"
EXP = FIXTURES / "experiments"


def counts(*paths):
    return Counter(v.code for v in run_lint(list(paths)))


#: Each experiments fixture's findings when linted on its own.
EXPECTED = {
    "env_read_bad.py": {"RPL703": 4},
    "fork_capture_bad.py": {"RPL702": 2},
    "fork_capture_good.py": {},
    "memo_bad.py": {"RPL701": 1},
    "pool_global_bad.py": {"RPL701": 2},
    "pool_global_good.py": {},
    "registry_bad.py": {"RPL704": 2},
    "registry_good.py": {},
}


def test_no_module_inherits_the_model_of_one_linted_before_it():
    """Lint every ordered pair of fixtures, one lint run each, in one
    process: the second module's findings are its own, although CPython
    may place its parsed module at the address the first one freed."""
    assert sorted(EXPECTED) == sorted(p.name for p in EXP.glob("*.py"))
    wrong = []
    for _ in range(5):
        for first, second in itertools.permutations(EXPECTED, 2):
            run_lint([EXP / first])
            got = counts(EXP / second)
            if got != EXPECTED[second]:
                wrong.append((first, second, dict(got)))
    assert wrong == []


class TestWorkerGlobalMutation:
    def test_pool_global_bad(self):
        violations = run_lint([EXP / "pool_global_bad.py"])
        got = Counter(v.code for v in violations)
        assert got == {"RPL701": 2}
        messages = " ".join(v.message for v in violations)
        # Mutations happen in _record, reached from the submitted run_cell:
        # the rule must follow the same-module call edge.
        assert "_record" in messages
        assert "_RESULTS" in messages and "_SEEN" in messages

    def test_lru_cache_memo(self):
        violations = run_lint([EXP / "memo_bad.py"])
        assert Counter(v.code for v in violations) == {"RPL701": 1}
        assert "lru_cache" in violations[0].message

    def test_pool_global_good(self):
        assert counts(EXP / "pool_global_good.py") == {}


class TestForkCapture:
    def test_fork_capture_bad(self):
        violations = run_lint([EXP / "fork_capture_bad.py"])
        assert Counter(v.code for v in violations) == {"RPL702": 2}
        messages = [v.message for v in violations]
        assert any("lambda" in m for m in messages)
        assert any("'helper'" in m for m in messages)

    def test_fork_capture_good(self):
        assert counts(EXP / "fork_capture_good.py") == {}


class TestEnvRead:
    def test_env_read_bad(self):
        got = counts(EXP / "env_read_bad.py")
        assert got == {"RPL703": 4}

    def test_out_of_scope_path_is_ignored(self, tmp_path):
        copy = tmp_path / "env_read_bad.py"
        shutil.copyfile(EXP / "env_read_bad.py", copy)
        assert counts(copy) == {}


class TestCallTimeRegistry:
    def test_registry_bad(self):
        violations = run_lint([EXP / "registry_bad.py"])
        assert Counter(v.code for v in violations) == {"RPL704": 2}
        messages = " ".join(v.message for v in violations)
        assert "_TOOLS" in messages  # call-time mutation prong
        assert "import" in messages  # worker-import prong

    def test_registry_good(self):
        assert counts(EXP / "registry_good.py") == {}
