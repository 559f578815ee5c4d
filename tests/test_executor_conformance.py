"""Executor conformance: one attempt lifecycle, two clocks.

Every resilience scenario runs twice on the same three-node cluster spec:
on the local executor (real threads, wall clock) and on the simulated
executor (virtual clock).  Both drive the shared
:class:`~repro.runtime.executor.lifecycle.AttemptLifecycle`, so their
*decision logs* must be equal, ignoring timestamps.  A decision log is
the resilience event sequence as ``(kind, task, node)`` plus every task's
``attempt_history`` (numbers masked: waited times are clock readings).

Wall-clock margins are wide (0.1 s bodies against 0.2–2 s thresholds) so
thread scheduling jitter cannot change a decision.
"""

import ctypes
import re
import time
from collections import Counter

import pytest

from repro.pycompss_api.constraint import ResourceConstraint
from repro.runtime import resilience as rsl
from repro.runtime.config import RuntimeConfig
from repro.runtime.fault import (
    PoisonTaskError,
    ResourceStarvationError,
    RetryPolicy,
    TaskFailedError,
    UpstreamFailureError,
    WorkerCrashError,
)
from repro.runtime.runtime import COMPSsRuntime
from repro.runtime.task_definition import TaskDefinition
from repro.simcluster.failures import FailureInjector, FailurePlan
from repro.simcluster.machines import ClusterSpec
from repro.simcluster.node import NodeSpec

CLOCKS = ["local", "simulated"]
BASE_S = 0.1


def cluster():
    nodes = [NodeSpec(name=f"n{i}", cpu_cores=1, memory_gb=4) for i in range(3)]
    return ClusterSpec(name="trio", nodes=nodes)


#: Per-task body duration (seconds: wall on threads, virtual simulated),
#: keyed by the task's first argument.
DURATIONS = {}


def work(i, *deps):
    time.sleep(DURATIONS.get(i, BASE_S))
    return i


def start(clock, durations=None, plan=None, **config):
    """A started runtime on ``clock`` with the scenario's faults."""
    DURATIONS.clear()
    DURATIONS.update(durations or {})
    if plan is not None:
        config["failure_injector"] = FailureInjector(plan)
    if clock == "simulated":
        config.setdefault("execute_bodies", False)
        config["duration_fn"] = lambda t, n, a: DURATIONS.get(t.args[0], BASE_S)
    return COMPSsRuntime(
        RuntimeConfig(cluster=cluster(), executor=clock, **config)
    ).start()


def definition(func=work):
    return TaskDefinition(
        func=func, name="work", returns=int, n_returns=1,
        constraint=ResourceConstraint(cpu_units=1),
    )


def launch(rt):
    """Start the queued tasks now (the simulated executor otherwise
    dispatches lazily, at the first wait)."""
    rt.executor.lifecycle.dispatch()


def decision_log(rt, kinds_ignored=()):
    events = [
        (e.kind, e.task_label, e.node)
        for e in rt.resilience.events
        if e.kind not in kinds_ignored
    ]
    history = {
        t.label: [re.sub(r"\d+\.\d+", "<n>", h) for h in t.attempt_history]
        for t in rt.graph.tasks()
    }
    return events, history


def run(clock, scenario):
    rt = scenario(clock)
    try:
        return decision_log(rt)
    finally:
        rt.stop(wait=False)


def same_on_both_clocks(scenario):
    local, simulated = (run(clock, scenario) for clock in CLOCKS)
    assert local == simulated
    return local


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def fail_once(clock):
    rt = start(clock, plan=FailurePlan().fail_task("work-1", 0))
    futs = [rt.submit(definition(), (i,), {}) for i in range(2)]
    assert rt.wait_on(futs) in ([0, 1], [None, None])
    return rt


def fail_twice(clock):
    rt = start(
        clock,
        plan=FailurePlan().fail_task("work-1", 0, 1),
        retry_policy=RetryPolicy(1, 1, backoff_base_s=0.05, backoff_jitter=0.0),
    )
    rt.wait_on(rt.submit(definition(), (0,), {}))
    return rt


def budget_exhausted(clock):
    rt = start(
        clock,
        plan=FailurePlan().fail_task("work-1", 0, 1, 2),
        retry_policy=RetryPolicy(1, 1),
    )
    producer = rt.submit(definition(), (0,), {})
    consumer = rt.submit(definition(), (1, producer), {})
    leaf = rt.submit(definition(), (2, consumer), {})
    with pytest.raises(TaskFailedError) as info:
        rt.wait_on(leaf)
    assert isinstance(info.value.cause, UpstreamFailureError)
    return rt


def hang_then_deadline(clock):
    rt = start(
        clock, plan=FailurePlan().hang_task("work-1", 0), task_timeout_s=0.3
    )
    rt.wait_on(rt.submit(definition(), (0,), {}))
    return rt


def straggler(clock):
    rt = start(
        clock,
        plan=FailurePlan().slow_task("work-1", 20.0),
        speculation_multiplier=2.0,
        speculation_min_samples=2,
    )
    futs = [rt.submit(definition(), (i,), {}) for i in range(3)]
    t0 = time.perf_counter()
    rt.wait_on(futs)
    # The backup won: nowhere near the straggler's 2 s.
    assert time.perf_counter() - t0 < 1.5
    return rt


def idle_drain(clock):
    rt = start(clock)
    rt.drain_node("n2")
    rt.wait_on(rt.submit(definition(), (0,), {}))
    return rt


def busy_drain_past_deadline(clock):
    rt = start(clock, durations={1: 1.0})
    futs = [rt.submit(definition(), (i,), {}) for i in range(2)]
    launch(rt)
    rt.drain_node("n1", deadline_s=0.2)
    rt.wait_on(futs)
    return rt


def starvation(clock):
    rt = start(clock, starvation_timeout_s=0.3)
    for node in ("n0", "n1", "n2"):
        rt.drain_node(node)
    with pytest.raises(TaskFailedError) as info:
        rt.wait_on(rt.submit(definition(), (0,), {}))
    assert isinstance(info.value.cause, ResourceStarvationError)
    return rt


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
class TestSameDecisionsOnBothClocks:
    def test_fail_once_retries_on_the_same_node(self):
        events, history = same_on_both_clocks(fail_once)
        assert events == []
        assert history["work-1"] == [
            "attempt 1 on n0: RuntimeError('injected failure for work-1') "
            "-> retry_same_node"
        ]

    def test_fail_twice_resubmits_to_another_node(self):
        events, history = same_on_both_clocks(fail_twice)
        assert events == [
            (rsl.BACKOFF_WAIT, "work-1", "n0"),
            (rsl.BACKOFF_WAIT, "work-1", "n0"),
        ]
        assert [h.rsplit(" -> ", 1)[1] for h in history["work-1"]] == [
            "retry_same_node", "resubmit_other_node",
        ]

    def test_exhausted_budget_gives_up_and_fails_descendants(self):
        events, history = same_on_both_clocks(budget_exhausted)
        assert events == [
            (rsl.UPSTREAM_CANCELLED, "work-2", ""),
            (rsl.UPSTREAM_CANCELLED, "work-3", ""),
        ]
        assert history["work-1"][-1].endswith("-> give_up")
        assert history["work-2"][0].startswith("cancelled: ")

    def test_hang_becomes_a_retry_at_the_deadline(self):
        events, history = same_on_both_clocks(hang_then_deadline)
        assert events == [(rsl.TIMEOUT, "work-1", "n0")]
        assert history["work-1"] == [
            "attempt 1 on n0: TaskTimeoutError('task work-1 exceeded its "
            "<n>s deadline on n0') -> retry_same_node"
        ]

    def test_straggler_backup_wins_and_the_loser_is_cancelled(self):
        events, _ = same_on_both_clocks(straggler)
        assert events == [
            (rsl.SPECULATION_LAUNCHED, "work-1", "n1"),
            (rsl.SPECULATION_CANCELLED, "work-1", "n0"),
            (rsl.SPECULATION_WON, "work-1", "n1"),
        ]

    def test_idle_drain_retires_at_once(self):
        events, _ = same_on_both_clocks(idle_drain)
        assert events == [
            (rsl.NODE_DRAINING, "", "n2"), (rsl.DRAIN_COMPLETE, "", "n2"),
        ]

    def test_starved_class_fails_with_resource_starvation(self):
        events, history = same_on_both_clocks(starvation)
        assert events[-1] == (rsl.CLASS_STARVED, "work-1", "")
        assert history["work-1"][0].startswith("starved for <n>s")

    def test_busy_drain_past_deadline_differs_only_by_retire_vs_fail(self):
        """The one executor-specific fact: at a drain deadline the local
        executor retires the node and keeps its running attempt's result;
        the simulated one fails the node, destroying its data, so the
        attempt resubmits elsewhere."""
        local_events, local_history = run("local", busy_drain_past_deadline)
        sim_events, sim_history = run("simulated", busy_drain_past_deadline)
        shared = [
            (rsl.NODE_DRAINING, "", "n1"), (rsl.DRAIN_DEADLINE, "", "n1"),
        ]
        assert local_events == shared
        assert sim_events == shared + [(rsl.NODE_LOST, "", "n1")]
        assert local_history["work-2"] == []
        assert sim_history["work-2"] == [
            "attempt 1 on n1: NodeFailureError('node n1 failed') "
            "-> resubmit_other_node"
        ]
        assert {k: v for k, v in local_history.items() if k != "work-2"} == {
            k: v for k, v in sim_history.items() if k != "work-2"
        }


# ----------------------------------------------------------------------
# Poison tasks: terminal inside the lifecycle
# ----------------------------------------------------------------------
def segfault(i):
    ctypes.string_at(0)  # dereference NULL: the worker dies with SIGSEGV


_RAISED = Counter()


def crash_then_poison(i):
    """Simulated stand-in for a body that kills its worker twice."""
    _RAISED[i] += 1
    if _RAISED[i] == 1:
        raise WorkerCrashError("work-1", "worker died")
    raise PoisonTaskError("work-1", 2, 2)


def poison(clock):
    _RAISED.clear()
    policy = RetryPolicy(same_node_retries=4, resubmissions=4)
    if clock == "workers":
        rt = start("local", backend="workers", poison_threshold=2,
                   retry_policy=policy)
        body = segfault
    else:
        rt = start("simulated", execute_bodies=True, retry_policy=policy)
        body = crash_then_poison
    with pytest.raises(TaskFailedError) as info:
        rt.wait_on(rt.submit(definition(body), (0,), {}))
    assert isinstance(info.value.cause, PoisonTaskError)
    return rt


class TestPoisonTask:
    def test_poison_gives_up_with_budget_left_on_both_clocks(self):
        """The worker pool records its processes' deaths; the decisions
        (one same-node retry, then a terminal give-up with seven of nine
        attempts unspent) are the lifecycle's on either clock."""
        worker_kinds = (rsl.WORKER_CRASH, rsl.POISON_TASK)
        logs = {}
        for clock in ("workers", "simulated"):
            rt = poison(clock)
            try:
                events, history = decision_log(rt, kinds_ignored=worker_kinds)
                logs[clock] = events, [
                    re.sub(r"\((.*)\) ->", "(…) ->", h) for h in history["work-1"]
                ]
                if clock == "workers":
                    counts = rt.resilience.counts()
                    assert counts[rsl.WORKER_CRASH] == 2
                    assert counts[rsl.POISON_TASK] == 1
            finally:
                rt.stop(wait=False)
        assert logs["workers"] == logs["simulated"]
        assert logs["simulated"] == ([], [
            "attempt 1 on n0: WorkerCrashError(…) -> retry_same_node",
            "attempt 2 on n0: PoisonTaskError(…) -> give_up",
        ])
