"""Torn writes in the on-disk stores, which all write through
:func:`repro.util.pickle_io.dump_atomic`."""

import pytest

from repro.experiments.cache_store import ResultCache
from repro.experiments.parallel import CheckpointPolicy
from repro.sim.session import SNAPSHOT_VERSION, SessionSnapshot


class _Unpicklable:
    def __reduce__(self):
        raise TypeError("refuses to pickle")


def _result_store(root):
    cache = ResultCache(root)
    return cache.path_for("ab01"), lambda value: cache.put("ab01", value)


def _checkpoint_store(root):
    policy = CheckpointPolicy(root)
    return policy.path_for("ab01"), lambda value: policy.save("ab01", value)


def _snapshot_file(root):
    target = root / "run.snap"

    def write(value):
        return SessionSnapshot(SNAPSHOT_VERSION, 0, [value]).save(target)

    return target, write


@pytest.mark.parametrize("store", [_result_store, _checkpoint_store, _snapshot_file])
def test_a_value_that_fails_to_pickle_leaves_no_file(tmp_path, store):
    target, write = store(tmp_path)
    with pytest.raises(TypeError, match="refuses to pickle"):
        write(_Unpicklable())
    assert not target.exists()
    assert list(tmp_path.rglob("*.tmp")) == []

    write(1)
    whole = target.read_bytes()
    with pytest.raises(TypeError, match="refuses to pickle"):
        write(_Unpicklable())
    assert target.read_bytes() == whole
    assert list(tmp_path.rglob("*.tmp")) == []
