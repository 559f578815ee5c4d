"""Stress and nested-task tests for the runtime.

Scale and reentrancy cases that unit tests don't reach: thousand-task
graphs through the simulated executor, deep dependency chains, random
DAGs (hypothesis), and tasks submitted from inside running tasks.
"""

import sys
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pycompss_api import COMPSs, compss_wait_on, task
from repro.pycompss_api.constraint import ResourceConstraint
from repro.runtime.config import RuntimeConfig
from repro.runtime.fault import RetryPolicy
from repro.runtime.runtime import COMPSsRuntime
from repro.runtime.task_definition import TaskDefinition
from repro.simcluster.failures import FailureInjector, FailurePlan
from repro.simcluster.machines import local_machine, mare_nostrum4


@task(returns=int)
def add(a, b):
    return a + b


class TestScale:
    def test_thousand_independent_tasks_simulated(self):
        cfg = RuntimeConfig(
            cluster=mare_nostrum4(4), executor="simulated",
            execute_bodies=True, duration_fn=lambda t, n, a: 60.0,
            tracing=True,
        )
        with COMPSs(cfg) as rt:
            definition = TaskDefinition(
                func=lambda i: i, name="unit", returns=int, n_returns=1,
                constraint=ResourceConstraint(cpu_units=1),
            )
            futs = [rt.submit(definition, (i,), {}) for i in range(1000)]
            out = compss_wait_on(futs)
            assert out == list(range(1000))
            # 192 cores → ceil(1000/192) = 6 waves of 60 s.
            assert rt.virtual_time == pytest.approx(6 * 60.0, abs=5.0)
            assert len(rt.tracer.records) == 1000

    def test_deep_chain(self):
        with COMPSs(cluster=local_machine(2)):
            acc = add(0, 0)
            for i in range(200):
                acc = add(acc, 1)
            assert compss_wait_on(acc) == 200

    def test_wide_fan_in(self):
        @task(returns=int)
        def total(values):
            return sum(values)

        with COMPSs(cluster=local_machine(4)) as rt:
            leaves = [add(i, 0) for i in range(100)]
            result = compss_wait_on(total(leaves))
            assert result == sum(range(100))
            plot_task = rt.graph.tasks()[-1]
            assert len(rt.graph.predecessors(plot_task)) == 100


class TestLocalLifecycleUnderContention:
    def test_retries_backoff_and_backups_lose_no_update(self):
        """Eight worker threads plus the timer thread on a few cores, a
        tiny switch interval, injected failures with backoff retries and
        a straggler backup: every task resolves exactly once with its own
        result, and every slot comes back."""

        def double(i):
            time.sleep(0.002)
            return 2 * i

        plan = FailurePlan().slow_task("unit-7", 30.0)
        for i in range(1, 201, 4):
            plan.fail_task(f"unit-{i}", 0)
        cfg = RuntimeConfig(
            cluster=local_machine(8), executor="local",
            failure_injector=FailureInjector(plan, seed=3, task_failure_prob=0.1),
            retry_policy=RetryPolicy(2, 6, backoff_base_s=0.002),
            speculation_multiplier=3.0,
        )
        definition = TaskDefinition(func=double, name="unit", returns=int,
                                    n_returns=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            rt = COMPSsRuntime(cfg).start()
            try:
                futs = [rt.submit(definition, (i,), {}) for i in range(200)]
                assert rt.wait_on(futs) == [2 * i for i in range(200)]
                assert rt.executor.lifecycle.attempts == {}
                assert rt.pool.workers["local"].free_cpu_units == 8
                wins = Counter(r.task_label for r in rt.tracer.records if r.success)
                assert len(wins) == 200 and set(wins.values()) == {1}
                assert rt.resilience.counts().get("backoff_wait", 0) >= 50
            finally:
                rt.stop(wait=False)
        finally:
            sys.setswitchinterval(interval)


class TestNestedSubmission:
    def test_task_submitting_tasks(self):
        """A running task may launch further tasks (COMPSs @compss nesting)."""

        @task(returns=int)
        def leaf(x):
            return x * 2

        @task(returns=object)
        def parent(xs):
            # Submitting from a worker thread must be safe.
            return [leaf(x) for x in xs]

        with COMPSs(cluster=local_machine(4)):
            inner_futures = compss_wait_on(parent([1, 2, 3]))
            values = compss_wait_on(inner_futures)
            assert values == [2, 4, 6]


@settings(max_examples=20, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 14), st.integers(0, 14)), max_size=30
    ),
    durations=st.lists(
        st.floats(1.0, 100.0, allow_nan=False), min_size=15, max_size=15
    ),
)
def test_random_dags_complete_with_consistent_makespan(edges, durations):
    """Any random DAG executes fully; makespan ≥ critical path, ≤ serial sum."""
    n = 15
    cfg = RuntimeConfig(
        cluster=local_machine(4), executor="simulated",
        duration_fn=lambda t, node, a: durations[(t.task_id - 1) % n],
    )
    rt = COMPSsRuntime(cfg).start()
    try:
        definition = TaskDefinition(
            func=lambda *a: 0, name="node", returns=int, n_returns=1,
            constraint=ResourceConstraint(cpu_units=1),
        )
        futs = []
        for i in range(n):
            # Depend on already-created lower-indexed tasks only (acyclic).
            deps = [futs[a] for a, b in edges if b == i and a < i]
            futs.append(rt.submit(definition, (deps,), {}))
        compss_wait_on(futs)
        makespan = rt.virtual_time
        critical = rt.graph.critical_path_length(
            lambda t: durations[(t.task_id - 1) % n]
        )
        staging_allowance = n * 0.1  # PFS read cost per task
        assert makespan >= critical - 1e-6
        assert makespan <= sum(durations) + staging_allowance + 1e-6
        assert all(f.done for f in futs)
    finally:
        rt.stop(wait=False)
