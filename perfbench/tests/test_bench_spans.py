"""Self time, span parentage across threads and the percentile rule."""

import threading

import pytest

from spans import Span, Tracer, percentile, self_time, union_length


def span(start, end, thread=0):
    return Span(span_id=0, parent=None, name="s", doc=None, thread=thread,
                start=start, end=end)


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(1, 5), (3, 8), (10, 11)]) == 8.0
    assert union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_subtracts_overlapping_children_once():
    parent = span(0.0, 10.0)
    children = [span(1.0, 5.0, thread=1), span(3.0, 8.0, thread=2)]
    assert self_time(parent, children) == pytest.approx(3.0)


def test_self_time_clips_children_to_the_parent():
    parent = span(2.0, 6.0)
    children = [span(0.0, 3.0, thread=1), span(5.0, 9.0, thread=2), span(7.0, 8.0)]
    assert self_time(parent, children) == pytest.approx(2.0)


def test_worker_spans_on_two_threads_overlap_and_nest_under_the_waiting_span():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    started = threading.Barrier(3)
    release = threading.Event()
    finished = threading.Barrier(3)

    def worker():
        with tracer.span("child"):
            started.wait(timeout=5)
            release.wait(timeout=5)
        finished.wait(timeout=5)

    with tracer.document("doc-1"):
        with tracer.span("parent") as parent:
            now[0] = 1.0
            threads = [threading.Thread(target=worker) for _ in range(2)]
            for thread in threads:
                thread.start()
            started.wait(timeout=5)      # both children open at t=1
            now[0] = 4.0
            release.set()
            finished.wait(timeout=5)     # both children closed at t=4
            for thread in threads:
                thread.join(timeout=5)
                assert not thread.is_alive()
            now[0] = 10.0

    children = [s for s in tracer.spans if s.name == "child"]
    assert len(children) == 2
    assert {s.parent for s in children} == {parent.span_id}
    assert {s.doc for s in tracer.spans} == {"doc-1"}
    assert len({s.thread for s in children}) == 2
    assert self_time(parent, children) == pytest.approx(7.0)


def test_span_records_errors_and_still_closes():
    tracer = Tracer()
    with pytest.raises(KeyError):
        with tracer.span("failing"):
            raise KeyError("x")
    assert tracer.spans[0].attrs["error"] == "KeyError"
    assert tracer.spans[0].end >= tracer.spans[0].start


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile([], 0.5) is None
    assert percentile(range(19), 0.5) is None
    assert percentile(range(20), 0.5) == 9
    assert percentile(range(99), 0.9) is None
    assert percentile(range(100), 0.9) == 89
    assert percentile(reversed(range(200)), 0.9) == 179
