"""Tests for the access processor (data versioning) and task graph."""

import numpy as np
import pytest

from repro.pycompss_api.parameter import IN, INOUT, OUT
from repro.runtime.access_processor import AccessProcessor
from repro.runtime.future import Future
from repro.runtime.graph import TaskGraph
from repro.runtime.task_definition import (
    TaskDefinition,
    TaskInvocation,
    TaskState,
    reset_invocation_counter,
)


def make_task(name="t"):
    return TaskInvocation(
        definition=TaskDefinition(func=lambda: None, name=name),
        args=(),
        kwargs={},
    )


@pytest.fixture(autouse=True)
def _fresh_ids():
    reset_invocation_counter()


class TestAccessProcessor:
    def test_read_after_write_dependency(self):
        ap = AccessProcessor()
        data = [1, 2, 3]
        writer, reader = make_task("w"), make_task("r")
        deps, _ = ap.process_access(writer, data, INOUT)
        assert deps == set()
        deps, _ = ap.process_access(reader, data, IN)
        assert deps == {writer}

    def test_versions_bump_like_fig3(self):
        ap = AccessProcessor()
        data = {}
        t1, t2 = make_task(), make_task()
        _, labels1 = ap.process_access(t1, data, INOUT)
        _, labels2 = ap.process_access(t2, data, INOUT)
        # INOUT reads current version then writes the next: d1v1,d1v2 ...
        assert labels1 == ["d1v1", "d1v2"]
        assert labels2 == ["d1v2", "d1v3"]

    def test_inout_chain_serialises(self):
        ap = AccessProcessor()
        data = []
        tasks = [make_task(f"t{i}") for i in range(3)]
        deps0, _ = ap.process_access(tasks[0], data, INOUT)
        deps1, _ = ap.process_access(tasks[1], data, INOUT)
        deps2, _ = ap.process_access(tasks[2], data, INOUT)
        assert deps1 == {tasks[0]}
        assert deps2 == {tasks[1]}

    def test_parallel_readers_no_mutual_dependency(self):
        ap = AccessProcessor()
        data = [0]
        writer = make_task("w")
        ap.process_access(writer, data, OUT)
        r1, r2 = make_task("r1"), make_task("r2")
        d1, _ = ap.process_access(r1, data, IN)
        d2, _ = ap.process_access(r2, data, IN)
        assert d1 == {writer} and d2 == {writer}

    def test_anti_dependency_writer_waits_for_readers(self):
        ap = AccessProcessor()
        data = [0]
        reader = make_task("r")
        ap.process_access(reader, data, IN)
        writer = make_task("w")
        deps, _ = ap.process_access(writer, data, INOUT)
        assert reader in deps

    def test_scalars_not_tracked(self):
        ap = AccessProcessor()
        t1, t2 = make_task(), make_task()
        deps1, labels1 = ap.process_access(t1, 5, INOUT)
        deps2, _ = ap.process_access(t2, 5, IN)
        assert deps1 == set() and deps2 == set()
        assert labels1 == []
        assert ap.n_tracked == 0

    def test_strings_not_tracked(self):
        ap = AccessProcessor()
        assert ap.process_access(make_task(), "config.json", IN) == (set(), [])

    def test_future_creates_producer_dependency(self):
        ap = AccessProcessor()
        producer, consumer = make_task("p"), make_task("c")
        fut = Future(producer, 0)
        ap.register_output_future(fut)
        deps, labels = ap.process_access(consumer, fut, IN)
        assert deps == {producer}
        assert labels and labels[0].startswith("d")

    def test_distinct_objects_distinct_data_ids(self):
        ap = AccessProcessor()
        t = make_task()
        _, l1 = ap.process_access(t, [1], INOUT)
        _, l2 = ap.process_access(make_task(), [2], INOUT)
        assert l1[0].split("v")[0] != l2[0].split("v")[0]

    def test_delete_object(self):
        ap = AccessProcessor()
        data = [1]
        ap.process_access(make_task(), data, IN)
        assert ap.delete_object(data) is True
        assert ap.delete_object(data) is False
        assert ap.n_tracked == 0

    def test_reset(self):
        ap = AccessProcessor()
        ap.process_access(make_task(), [1], INOUT)
        ap.reset()
        assert ap.n_tracked == 0
        _, labels = ap.process_access(make_task(), [2], INOUT)
        assert labels[0].startswith("d1")  # ids restart

    def test_numpy_arrays_tracked(self):
        ap = AccessProcessor()
        arr = np.zeros(3)
        w = make_task("w")
        ap.process_access(w, arr, INOUT)
        deps, _ = ap.process_access(make_task("r"), arr, IN)
        assert deps == {w}


class TestTaskGraph:
    def test_ready_on_insert_without_deps(self):
        g = TaskGraph()
        t = make_task()
        g.add_task(t, [])
        assert t.state == TaskState.READY
        assert g.pop_ready() == [t]

    def test_dependency_gates_readiness(self):
        g = TaskGraph()
        a, b = make_task("a"), make_task("b")
        g.add_task(a, [])
        g.add_task(b, [a])
        g.pop_ready()
        assert b.state == TaskState.SUBMITTED
        newly = g.mark_done(a)
        assert newly == [b]
        assert b.state == TaskState.READY

    def test_diamond(self):
        g = TaskGraph()
        a, b, c, d = (make_task(x) for x in "abcd")
        g.add_task(a, [])
        g.add_task(b, [a])
        g.add_task(c, [a])
        g.add_task(d, [b, c])
        g.mark_done(a)
        g.mark_done(b)
        assert d.state == TaskState.SUBMITTED
        g.mark_done(c)
        assert d.state == TaskState.READY

    def test_pop_ready_fifo(self):
        g = TaskGraph()
        tasks = [make_task(f"t{i}") for i in range(5)]
        for t in tasks:
            g.add_task(t, [])
        assert g.pop_ready(2) == tasks[:2]
        assert g.pop_ready() == tasks[2:]

    def test_requeue_preserves_front_position(self):
        g = TaskGraph()
        a, b = make_task("a"), make_task("b")
        g.add_task(a, [])
        g.add_task(b, [])
        popped = g.pop_ready()
        g.requeue(popped)
        assert g.pop_ready() == [a, b]

    def test_held_task_waits_for_release_and_producers(self):
        g = TaskGraph()
        a, held, alone = make_task("a"), make_task("held"), make_task("alone")
        g.add_task(a, [])
        g.add_task(held, [a], hold=True)
        g.add_task(alone, [], hold=True)
        assert g.pop_ready() == [a]
        assert alone.state == TaskState.SUBMITTED  # no producer, still held
        assert g.release(alone)
        assert not g.release(held)  # its producer is still pending
        assert g.mark_done(a) == [held]
        assert g.pop_ready() == [alone, held]

    def test_held_task_resolved_without_running(self):
        g = TaskGraph()
        held, consumer = make_task("held"), make_task("consumer")
        g.add_task(held, [], hold=True)
        g.add_task(consumer, [held])
        assert g.mark_done(held) == [consumer]
        assert g.pop_ready() == [consumer]

    def test_streaming_frees_a_task_that_finished_before_its_producer(self):
        # A cache-resolved task can complete while its own producer still
        # runs; once freed, the producer's completion must not visit it.
        g = TaskGraph()
        g.stream_completed = True
        producer, early, consumer = (make_task(x) for x in "pec")
        g.add_task(producer, [])
        g.add_task(early, [producer], hold=True)
        g.add_task(consumer, [early])
        g.mark_done(early)
        g.mark_done(consumer)  # frees ``early``
        assert g.mark_done(producer) == []
        assert g.n_tasks == 0

    def test_edge_labels(self):
        g = TaskGraph()
        a, b = make_task(), make_task()
        g.add_task(a, [])
        g.add_task(b, [a], edge_labels={a.task_id: "d1v2"})
        assert g.edge_label(a, b) == "d1v2"

    def test_dependency_on_done_task_is_free(self):
        g = TaskGraph()
        a = make_task()
        g.add_task(a, [])
        g.mark_done(a)
        b = make_task()
        g.add_task(b, [a])
        assert b.state == TaskState.READY

    def test_unknown_dependency_rejected(self):
        g = TaskGraph()
        with pytest.raises(ValueError, match="not in graph"):
            g.add_task(make_task(), [make_task()])

    def test_duplicate_rejected(self):
        g = TaskGraph()
        t = make_task()
        g.add_task(t, [])
        with pytest.raises(ValueError, match="already"):
            g.add_task(t, [])

    def test_unfinished(self):
        g = TaskGraph()
        a, b = make_task(), make_task()
        g.add_task(a, [])
        g.add_task(b, [])
        g.mark_done(a)
        assert g.unfinished() == [b]

    def test_successors_predecessors(self):
        g = TaskGraph()
        a, b = make_task(), make_task()
        g.add_task(a, [])
        g.add_task(b, [a])
        assert g.successors(a) == [b]
        assert g.predecessors(b) == [a]

    def test_critical_path_by_depth(self):
        g = TaskGraph()
        a, b, c = make_task(), make_task(), make_task()
        g.add_task(a, [])
        g.add_task(b, [a])
        g.add_task(c, [b])
        assert g.critical_path_length(lambda t: 1.0) == 3.0

    def test_critical_path_uses_durations(self):
        g = TaskGraph()
        a, b = make_task(), make_task()
        g.add_task(a, [])
        g.add_task(b, [])
        assert g.critical_path_length(lambda t: 5.0) == 5.0
