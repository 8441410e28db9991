"""Span arithmetic: self time = duration − union of clipped children."""

import threading

import numpy as np
import pytest

from perf import trace


def selfs(spans):
    """spans: list of (start, end, parent index)."""
    start, end, parent = zip(*spans)
    return trace.self_times(start, end, parent).tolist()


def test_sequential_children():
    got = selfs([(0, 10, -1), (1, 3, 0), (4, 9, 0), (5, 6, 2)])
    assert got == pytest.approx([10 - 2 - 5, 2, 5 - 1, 1])


def test_overlapping_children_on_two_threads_count_once():
    # Children 1 and 2 overlap on [3, 5]: union [1, 7] = 6, not 4 + 4.
    got = selfs([(0, 10, -1), (1, 5, 0), (3, 7, 0)])
    assert got[0] == pytest.approx(4)
    # A child fully inside another adds nothing.
    got = selfs([(0, 10, -1), (1, 9, 0), (2, 3, 0)])
    assert got[0] == pytest.approx(2)


def test_child_outliving_its_parent_is_clipped():
    got = selfs([(0, 10, -1), (8, 15, 0)])
    assert got == pytest.approx([8, 7])
    # A child entirely outside its parent's interval shades nothing.
    got = selfs([(0, 10, -1), (12, 15, 0)])
    assert got[0] == pytest.approx(10)


def test_groups_do_not_leak_into_each_other():
    # Two parents far apart in time, listed interleaved; the second
    # parent's early child must not be shaded by the first's late one.
    spans = [
        (100, 110, -1),
        (0, 10, -1),
        (101, 109, 0),
        (1, 2, 1),
        (3, 4, 1),
    ]
    assert selfs(spans) == pytest.approx([2, 8, 8, 1, 1])


def test_self_times_of_one_operation_never_exceed_its_root():
    # What the wrappers record for one operation: a tree on one thread,
    # children disjoint and inside their parent. Its self times add up
    # to the root span — no time is counted twice, none invented.
    rng = np.random.default_rng(7)
    spans = [(0.0, 100.0, -1)]

    def fill(parent: int, lo: float, hi: float, depth: int) -> None:
        cuts = np.sort(rng.uniform(lo, hi, 2 * int(rng.integers(0, 4))))
        for a, b in zip(cuts[0::2], cuts[1::2]):
            spans.append((float(a), float(b), parent))
            if depth < 4:
                fill(len(spans) - 1, float(a), float(b), depth + 1)

    fill(0, 0.0, 100.0, 0)
    assert len(spans) > 20
    got = trace.self_times(*zip(*spans))
    assert (got >= 0).all()
    assert got.sum() == pytest.approx(100.0)
    # Parallel children (two threads under one parent) are the one case
    # where the sum may exceed the root: both threads really worked.
    parallel = selfs([(0, 10, -1), (1, 5, 0), (3, 7, 0)])
    assert sum(parallel) == pytest.approx(12)
    assert parallel[0] <= 10


def test_nested_single_thread_sum_equals_root():
    # Properly nested spans (what the wrappers record on one thread):
    # the self times of an operation add up to exactly its root span.
    spans = [(0, 10, -1), (1, 4, 0), (2, 3, 1), (5, 9, 0), (6, 7, 3), (7, 8, 3)]
    assert sum(selfs(spans)) == pytest.approx(10)


def test_wrappers_record_parent_op_and_thread():
    tracer = trace.Tracer()
    calls = []

    def leaf(x):
        calls.append(x)
        return x + 1

    def generator():
        yield from (1, 2, 3)

    inner = tracer.wrap(leaf, "layer.leaf")
    outer = tracer.wrap(lambda x: inner(inner(x)), "layer.outer")
    frames = tracer.wrap(generator, "layer.frames", eager=True)
    tagged = tracer.wrap(leaf, "layer.tagged", op_of=lambda x: 40 + x)

    tracer.set_op(7)
    assert outer(1) == 3
    assert list(frames()) == [1, 2, 3]
    assert tagged(2) == 3
    worker = threading.Thread(target=lambda: (tracer.set_op(9), inner(5)))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()

    spans = tracer.collect()
    names = [spans.names[i] for i in spans.name]
    assert names == ["layer.outer", "layer.leaf", "layer.leaf", "layer.frames",
                     "layer.tagged", "layer.leaf"]
    assert spans.parent.tolist() == [-1, 0, 0, -1, -1, -1]
    assert spans.op.tolist() == [7, 7, 7, 7, 42, 9]
    assert spans.thread.tolist() == [0, 0, 0, 0, 0, 1]
    assert (spans.end >= spans.start).all()
    selfs_ = trace.self_times(spans.start, spans.end, spans.parent)
    summary = trace.summarize(spans, np.ones(len(spans), dtype=bool), selfs_)
    assert summary["layer.leaf"]["calls"] == 3
    assert summary["layer.outer"]["self_s"] <= summary["layer.outer"]["total_s"]


def test_install_patches_aliases_and_uninstall_restores():
    import importlib

    import repro
    import repro.core.database as database

    # ``repro.query.scan`` the attribute is the function (the package
    # re-exports it); the module has to be looked up by name.
    scan_module = importlib.import_module("repro.query.scan")

    original = scan_module.scan
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert scan_module.scan is not original
        assert database.scan is scan_module.scan
        assert repro.scan is scan_module.scan
        assert database.Database.insert.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert scan_module.scan is original
    assert database.scan is original
    assert repro.scan is original
