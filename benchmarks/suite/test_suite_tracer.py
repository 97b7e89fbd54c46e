"""Self-time arithmetic and wrapping rules of the benchmark tracer."""

import numpy as np

from tracer import Tracer, self_times, span_counts


def _clock(step=10):
    ticks = iter(range(0, 10_000, step))
    return lambda: next(ticks)


def test_self_time_subtracts_direct_children_only():
    # a [0, 100] holds b [10, 50] and a second b [60, 80]; the first b
    # holds c [20, 30]. Names: a=0, b=1, c=2.
    spans = {
        "name_id": np.array([0, 1, 2, 1]),
        "start": np.array([0, 10, 20, 60]),
        "end": np.array([100, 50, 30, 80]),
        "parent": np.array([-1, 0, 1, 0]),
    }
    assert self_times(spans, 3).tolist() == [40.0, 50.0, 10.0]
    assert span_counts(spans, 3).tolist() == [1, 2, 1]
    # Selecting the spans that start at 60 or later keeps the second b.
    assert self_times(spans, 3, since_ns=60).tolist() == [0.0, 20.0, 0.0]


def test_self_times_sum_to_root_wall_time():
    rng = np.random.default_rng(1)
    tracer = Tracer(clock=_clock(1))
    fns = {}

    def body(depth):
        for _ in range(int(rng.integers(0, 3))):
            if depth < 4:
                fns[int(rng.integers(0, 3))](depth + 1)

    for i in range(3):
        fns[i] = tracer.wrap(f"layer{i}", body)
    fns[0](0)
    spans = tracer.arrays()
    roots = spans["parent"] < 0
    wall = (spans["end"][roots] - spans["start"][roots]).sum()
    assert self_times(spans, len(tracer.names)).sum() == wall


def test_nested_call_into_same_span_folds():
    tracer = Tracer(clock=_clock())
    inner = tracer.wrap("inner", lambda: None)

    def body(depth):
        if depth:
            return outer(depth - 1)
        return inner()

    outer = tracer.wrap("outer", body)
    outer(2)
    spans = tracer.arrays()
    assert [tracer.names[i] for i in spans["name_id"]] == ["outer", "inner"]
    assert spans["parent"].tolist() == [-1, 0]
    # outer [0, 30], inner [10, 20]
    assert self_times(spans, 2).tolist() == [10.0, 20.0]


def test_iterator_spans_every_pull_and_weigh_counts_unfolded_calls():
    tracer = Tracer(clock=_clock())
    blocks = tracer.wrap_iter("stream", lambda n: iter(range(n)))
    assert list(blocks(3)) == [0, 1, 2]
    # three items plus the pull that ends the iterator
    assert span_counts(tracer.arrays(), 1).tolist() == [4]

    def body(addrs, inner=False):
        return access(addrs[1:]) if inner else len(addrs)

    access = tracer.wrap("access", body, weigh=lambda consumed: consumed)
    assert access([1, 2, 3], inner=True) == 2
    # Only the outer call is weighed; the nested one folds into it.
    assert tracer.work["access"] == 2


def test_patch_and_uninstall_restore_class_and_module_attributes():
    class Model:
        def access(self, addrs):
            return len(addrs)

        @classmethod
        def start(cls):
            return cls

    originals = dict(vars(Model))
    tracer = Tracer()
    tracer.patch(Model, "access", "cache")
    tracer.patch(Model, "start", "sim")
    tracer.patch(Model, "start", "sim.calls", kind="count")
    assert Model().access([1, 2]) == 2
    assert Model.start() is Model
    assert tracer.calls["sim.calls"] == 1
    assert span_counts(tracer.arrays(), len(tracer.names)).tolist() == [1, 1]
    tracer.uninstall()
    assert vars(Model)["access"] is originals["access"]
    assert vars(Model)["start"] is originals["start"]
