"""The result-cache key covers everything that changes a result.

``TaskSpec.key()`` refuses to hash a spec whose dataclass fields have
drifted from its payload, hashes ``tool`` and ``sim`` whole through
``canonical`` (which recurses over every dataclass field), and embeds
the code version tag, which also keys compiled streams. Together they
make "add a field, forget the key" or "edit the simulator, keep the old
results" fail loudly or miss the cache, never serve a stale result.
"""

from dataclasses import dataclass

import pytest

from repro.errors import SimulationError
from repro.experiments import cache_store
from repro.experiments.cache_store import canonical
from repro.experiments.parallel import TaskSpec, ToolSpec, expand_grid
from repro.workloads.compile import stream_fingerprint
from repro.workloads.registry import make_workload


@dataclass
class DriftedSpec(TaskSpec):
    """TaskSpec plus a field that key() knows nothing about."""

    mystery_knob: int = 0


@dataclass
class TunedTool(ToolSpec):
    """ToolSpec plus a field nobody told the key about."""

    budget: int = 0


@dataclass
class Knobs:
    size: int
    policy: str = "lru"
    nested: tuple = (1, 2)


def test_unhashed_field_is_refused_at_runtime():
    with pytest.raises(SimulationError, match="mystery_knob"):
        DriftedSpec(workload="tomcatv").key()


def test_error_points_at_both_remedies():
    with pytest.raises(SimulationError, match="_KEY_EXEMPT_FIELDS"):
        DriftedSpec(workload="tomcatv").key()


def test_baseline_spec_hashes_cleanly():
    key = TaskSpec(workload="tomcatv").key()
    assert isinstance(key, str) and len(key) == 64


def test_exempt_label_does_not_change_the_key():
    a = TaskSpec(workload="tomcatv", label="")
    b = TaskSpec(workload="tomcatv", label="grid cell 7")
    assert a.key() == b.key()


def test_every_tool_field_changes_the_key_and_the_grid_seeds():
    one, two = TunedTool("sampling", budget=1), TunedTool("sampling", budget=2)
    assert TaskSpec("tomcatv", tool=one).key() != TaskSpec("tomcatv", tool=two).key()
    (a,) = expand_grid([("tomcatv", {})], [one])
    (b,) = expand_grid([("tomcatv", {})], [two])
    assert a.seed != b.seed


def test_canonical_returns_every_dataclass_field():
    assert canonical(Knobs(size=3)) == {
        "size": 3,
        "policy": "lru",
        "nested": [1, 2],
    }


def test_code_version_tag_keys_results_and_streams(monkeypatch):
    spec = TaskSpec("tomcatv")
    workload = make_workload("tomcatv", n_steps=2, rows_per_step=4, seed=5)
    before = spec.key(), stream_fingerprint(workload)
    monkeypatch.setattr(cache_store, "_CODE_VERSION_TAG", "edited source")
    after = spec.key(), stream_fingerprint(workload)
    assert before[0] != after[0]
    assert before[1] != after[1]
