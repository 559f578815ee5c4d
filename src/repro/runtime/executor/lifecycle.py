"""One attempt lifecycle for every executor.

The paper's runtime has a single fault-tolerance policy: "if a task fails
… the runtime tries to start the same task in the same node, if it fails
again, it's restarted in another node", while "the next task is assigned
a computational unit as soon as one is available" (§3, §6.1).  This
module is that policy, written once.  :class:`AttemptLifecycle` owns the
in-flight attempt table and every decision made about an attempt:

* scheduling rounds over the runtime's dispatch engine;
* retry on the same node, resubmission elsewhere, or giving up, with
  the retry policy's exponential backoff;
* per-attempt deadlines (``task_timeout_s``);
* speculative backups of stragglers, first finisher wins;
* graceful drains: watch for a draining node's last attempt, arm its
  deadline;
* the starvation watchdog;
* ``TaskRecord`` tracing and the failure injector's gating.

It runs over a small clock — a ``now`` reading plus ``call_at(t, fn)``
returning a cancellable handle.  The simulated executor's clock is its
:class:`~repro.simcluster.events.DiscreteEventSimulator` itself (virtual
time, bit-deterministic); the local executors use :class:`WallClock`,
one timer thread over a heap.  Executors only launch a body (``_start``), deliver
its outcome, and state what a drain deadline does to attempts still
running on the node (``_expire_drain``).
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.runtime import resilience as rsl
from repro.runtime.fault import (
    FaultAction,
    PoisonTaskError,
    ResourceStarvationError,
    TaskTimeoutError,
)
from repro.runtime.scheduler.base import Assignment, release_assignment
from repro.runtime.task_definition import TaskInvocation, TaskState
from repro.runtime.tracing.extrae import TaskRecord
from repro.simcluster.events import EventHandle
from repro.util.logging_utils import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.executor.base import Executor
    from repro.runtime.runtime import COMPSsRuntime

_log = get_logger("runtime.executor.lifecycle")


class NodeFailureError(RuntimeError):
    """A task attempt died because its node failed."""


# ----------------------------------------------------------------------
# Clocks
# ----------------------------------------------------------------------
class WallClock:
    """Wall time: one daemon timer thread firing callbacks off a heap.

    Same clock interface as the simulator's virtual one
    (:class:`~repro.simcluster.events.DiscreteEventSimulator`): a ``now``
    reading and ``call_at(when, fn, label, args)`` returning a
    cancellable :class:`~repro.simcluster.events.EventHandle`.
    Callbacks run on the timer thread, one at a time and without any
    clock lock held, so they may take the runtime lock themselves.
    """

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._cond = threading.Condition(threading.Lock())
        self._thread: Optional[threading.Thread] = None
        self._stopped = False

    @property
    def now(self) -> float:
        return time.perf_counter() - self._epoch

    def call_at(
        self, when: float, fn: Callable, label: str = "", args: Tuple = ()
    ) -> EventHandle:
        handle = EventHandle(when, next(self._seq), fn, label, args)
        with self._cond:
            if self._stopped:
                handle.cancel()
                return handle
            heapq.heappush(self._heap, (when, handle.seq, handle))
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="repro-clock", daemon=True
                )
                self._thread.start()
            elif self._heap[0][2] is handle:
                self._cond.notify()
        return handle

    def _run(self) -> None:
        heap = self._heap
        while True:
            with self._cond:
                while True:
                    if self._stopped:
                        return
                    while heap and heap[0][2].action is None:
                        heapq.heappop(heap)  # cancelled
                    if not heap:
                        self._cond.wait()
                        continue
                    delay = heap[0][0] - self.now
                    if delay <= 0.0:
                        handle = heapq.heappop(heap)[2]
                        break
                    self._cond.wait(delay)
            action, handle.action = handle.action, None
            if action is None:
                continue
            try:
                action(*handle.args)
            except Exception:  # noqa: BLE001 - the timer thread must never die
                _log.exception("timer callback %s failed", handle.label)

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._heap.clear()
            self._cond.notify_all()
            thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=2.0)


# ----------------------------------------------------------------------
# Attempts
# ----------------------------------------------------------------------
class Attempt:
    """One in-flight attempt of a task (primary or speculative backup)."""

    __slots__ = ("assignment", "start", "speculative", "handle",
                 "timeout_handle", "spec_check", "live")

    def __init__(self, assignment: Assignment, start: float, speculative: bool):
        self.assignment = assignment
        self.start = start
        self.speculative = speculative
        #: The executor's completion event (simulated executor only).
        self.handle: Optional[EventHandle] = None
        self.timeout_handle: Optional[EventHandle] = None
        self.spec_check: Optional[EventHandle] = None
        #: True exactly while the attempt is in the lifecycle's table; a
        #: dropped attempt's late outcome is discarded.
        self.live = True

    def drop(self) -> None:
        """Leave the table: cancel the attempt's pending callbacks."""
        self.live = False
        for handle in (self.handle, self.timeout_handle, self.spec_check):
            if handle is not None:
                handle.cancel()
        self.handle = self.timeout_handle = self.spec_check = None


class AttemptLifecycle:
    """Attempt table and resilience policy shared by every executor.

    Entry points (scheduling rounds, outcomes delivered by worker
    threads, clock callbacks) take the runtime lock; the other methods
    expect their caller to hold it.
    """

    def __init__(self, runtime: "COMPSsRuntime", executor: "Executor", clock):
        self.runtime = runtime
        self.executor = executor
        self.clock = clock
        self.lock = runtime.lock
        #: task_id -> attempts in flight (two while a backup races).
        self.attempts: Dict[int, List[Attempt]] = {}
        #: node -> armed drain deadline (graceful drain in progress).
        self.draining: Dict[str, EventHandle] = {}
        self._starvation_handle: Optional[EventHandle] = None
        self._starvation_at = 0.0
        self.closed = False

    # ------------------------------------------------------------------
    # Scheduling rounds
    # ------------------------------------------------------------------
    def dispatch(self) -> None:
        """Incremental scheduling round over the runtime's dispatch engine.

        Newly-ready tasks are folded into the per-constraint-class
        queues; the engine probes only class heads and skips classes
        whose capacity hasn't changed since they last failed to place.
        Every round also completes drains whose node went idle and
        re-arms the starvation watchdog.
        """
        with self.lock:
            if self.closed:
                return
            runtime = self.runtime
            self.executor._flush()
            self.check_drains()
            runtime.dispatcher.ingest(runtime.graph.pop_ready())
            start = self.executor._start
            for assignment in runtime.dispatcher.schedule_round():
                start(assignment)
            self.arm_starvation_watchdog()

    # ------------------------------------------------------------------
    # Attempt start
    # ------------------------------------------------------------------
    def begin(self, assignment: Assignment, speculative: bool = False) -> Attempt:
        """Register a starting attempt (state, journal, trace event)."""
        runtime = self.runtime
        task = assignment.task
        node = assignment.allocation.node
        task.state = TaskState.RUNNING
        if not speculative:
            task.node = node
            key = task.task_key
            if key is not None:
                journal = runtime.journal_for(task)
                if journal is not None:
                    journal.started(key, task.label, node)
        attempt = Attempt(assignment, self.clock.now, speculative)
        self.attempts.setdefault(task.task_id, []).append(attempt)
        if runtime.tracer.enabled:
            runtime.tracer.record_event(attempt.start, "task_start", task.label, node)
        return attempt

    def arm(self, attempt: Attempt) -> None:
        """Arm the attempt's deadline and, for primaries, its straggler check."""
        runtime = self.runtime
        timeout = runtime.config.task_timeout_s
        if timeout is not None:
            attempt.timeout_handle = self.clock.call_at(
                attempt.start + float(timeout), self._on_timeout, "timeout",
                (attempt,),
            )
        if not attempt.speculative and runtime.straggler is not None:
            self._schedule_spec_check(attempt)

    def injected(self, task: TaskInvocation, speculative: bool) -> Tuple[bool, float]:
        """``(hang, slow_factor)`` the failure injector scripts for a start.

        Injected hangs, slowdowns and failures hit primary attempts only:
        a speculative backup is a clean re-execution on another node.
        """
        injector = self.runtime.failure_injector
        if injector is None or speculative:
            return False, 1.0
        return (
            injector.should_hang(task.label, task.attempts),
            injector.slow_factor(task.label),
        )

    def injected_failure(
        self, task: TaskInvocation, speculative: bool
    ) -> Optional[RuntimeError]:
        """The scripted failure of this attempt, if the injector wants one."""
        injector = self.runtime.failure_injector
        if (
            injector is None
            or speculative
            or not injector.should_fail(task.label, task.attempts)
        ):
            return None
        return RuntimeError(f"injected failure for {task.label}")

    # ------------------------------------------------------------------
    # Outcomes
    # ------------------------------------------------------------------
    def detach(self, attempt: Attempt) -> bool:
        """Drop ``attempt`` from the table; False if already dropped."""
        if not attempt.live:
            return False
        task_id = attempt.assignment.task.task_id
        attempts = self.attempts[task_id]
        attempts.remove(attempt)
        if not attempts:
            del self.attempts[task_id]
        attempt.drop()
        return True

    def succeeded(self, attempt: Attempt, result: Any) -> None:
        """A body returned (local executors): first finisher wins."""
        with self.lock:
            if self.closed or not self.detach(attempt):
                return
            self.win(attempt)
            self.complete(attempt, result)

    def failed(self, attempt: Attempt, exc: BaseException) -> None:
        """A body raised (local executors)."""
        with self.lock:
            if self.closed or not self.detach(attempt):
                return
            self.fail_detached(attempt, exc)

    def win(self, attempt: Attempt) -> None:
        """Cancel the attempts still racing the finished one."""
        runtime = self.runtime
        task = attempt.assignment.task
        node = attempt.assignment.allocation.node
        if self.attempts.get(task.task_id):
            self.executor._flush()
            for loser in self.attempts.pop(task.task_id, []):
                loser.drop()
                self.executor._abandon(loser, "cancelled")
                release_assignment(runtime.pool, loser.assignment)
                runtime.resilience.record(
                    self.clock.now, rsl.SPECULATION_CANCELLED, task.label,
                    loser.assignment.allocation.node,
                    detail=f"lost to attempt on {node}",
                )
        if attempt.speculative:
            now = self.clock.now
            runtime.resilience.record(
                now, rsl.SPECULATION_WON, task.label, node,
                detail=f"backup finished first after {now - attempt.start:.1f}s",
            )

    def complete(self, attempt: Attempt, result: Any) -> None:
        """Resolve the task with a winning attempt's result."""
        runtime = self.runtime
        assignment = attempt.assignment
        task = assignment.task
        node = assignment.allocation.node
        now = self.clock.now
        self._record(attempt, now, success=True)
        release_assignment(runtime.pool, assignment)
        runtime.node_health.record_success(node)
        if runtime.straggler is not None:
            runtime.straggler.observe(task.definition.name, now - attempt.start)
        task.result = result
        task.node = node
        task.start_time, task.end_time = attempt.start, now
        runtime.complete_task(task, result)
        self._schedule_spec_checks_for_name(task.definition.name)
        self.executor.notify_task_resolutions()
        self.dispatch()

    def fail_detached(
        self,
        attempt: Attempt,
        exc: BaseException,
        lost_node: Optional[str] = None,
    ) -> None:
        """Account one failed attempt, then apply the retry policy.

        ``lost_node`` marks an attempt killed with its node: the node's
        slots are not released (the pool resets them on recovery), and
        the retry skips the same-node stage.
        """
        runtime = self.runtime
        self.executor._flush()
        assignment = attempt.assignment
        task = assignment.task
        node = assignment.allocation.node
        task.attempts += 1
        self._record(attempt, self.clock.now, success=False)
        kind = "failure"
        if lost_node is None:
            release_assignment(runtime.pool, assignment)
        else:
            kind = "node-failure"
            for alloc in assignment.all_allocations:
                if alloc.node != lost_node:
                    runtime.pool.release(alloc)
        if isinstance(exc, TaskTimeoutError):
            kind = "timeout"
            runtime.resilience.record(
                self.clock.now, rsl.TIMEOUT, task.label, node,
                detail=f"deadline {float(runtime.config.task_timeout_s):g}s",
            )
        runtime.node_health.record_failure(node, kind=kind)
        if self.attempts.get(task.task_id):
            # A backup attempt survives on another node; let it race on.
            task.attempt_history.append(
                f"attempt {task.attempts} on {node}: {exc!r} -> "
                "backup still running"
            )
            return
        self._after_failure(assignment, exc, force_other=lost_node is not None)

    def _on_timeout(self, attempt: Attempt) -> None:
        """A deadline fired: kill the attempt and treat it as a failure."""
        with self.lock:
            self.executor._flush()
            if self.closed or not self.detach(attempt):
                return
            self.executor._abandon(attempt, "deadline")
            task = attempt.assignment.task
            exc = TaskTimeoutError(
                f"task {task.label} exceeded its "
                f"{self.runtime.config.task_timeout_s}s deadline on "
                f"{attempt.assignment.allocation.node}"
            )
            self.fail_detached(attempt, exc)

    def fail_node(self, node: str) -> None:
        """Fail every attempt running on a node that just died."""
        for attempt in self.attempts_on(node):
            if not self.detach(attempt):
                continue
            self.executor._abandon(attempt, "cancelled")
            self.fail_detached(
                attempt, NodeFailureError(f"node {node} failed"), lost_node=node
            )

    def abort_task(self, task: TaskInvocation) -> bool:
        """Discard the in-flight attempts of ``task`` (lineage recovery).

        Returns False when no attempt is in flight (e.g. a backoff retry
        is pending instead).  A discarded attempt's late outcome is
        ignored, so the task can re-enter the graph's ready set once its
        re-materialised inputs land.
        """
        attempts = self.attempts.pop(task.task_id, None)
        if not attempts:
            return False
        for attempt in attempts:
            attempt.drop()
            self.executor._abandon(attempt, "cancelled")
            release_assignment(self.runtime.pool, attempt.assignment)
        return True

    # ------------------------------------------------------------------
    # Retry policy
    # ------------------------------------------------------------------
    def _after_failure(
        self, assignment: Assignment, exc: BaseException, force_other: bool
    ) -> None:
        """Retry on the same node, resubmit elsewhere, or give up.

        ``force_other`` skips the same-node stage (the node is gone).  A
        :class:`~repro.runtime.fault.PoisonTaskError` is terminal.
        """
        runtime = self.runtime
        task = assignment.task
        node = assignment.allocation.node
        if isinstance(exc, PoisonTaskError):
            action = FaultAction.GIVE_UP
        else:
            action = runtime.retry_policy.decide(task)
        if action == FaultAction.RETRY_SAME_NODE and force_other:
            action = FaultAction.RESUBMIT_OTHER_NODE
        task.attempt_history.append(
            f"attempt {task.attempts} on {node}: {exc!r} -> {action.value}"
        )
        now = self.clock.now
        _log.info(
            "t=%.1f task %s failed (attempt %d): %s -> %s",
            now, task.label, task.attempts, exc, action.value,
        )
        if action == FaultAction.GIVE_UP:
            task.state = TaskState.FAILED
            task.error = exc
            runtime.journal_failed(task, node)
            runtime.fail_descendants(task, now)
            self.executor.notify_task_resolutions()
            return
        delay = runtime.retry_policy.backoff_delay(task.label, task.attempts)
        if delay > 0.0:
            runtime.resilience.record(
                now, rsl.BACKOFF_WAIT, task.label, node,
                detail=f"{delay:.2f}s before {action.value}",
            )
        retry = (
            self._retry_same_node
            if action == FaultAction.RETRY_SAME_NODE
            else self._requeue_for_other
        )
        if delay > 0.0:
            self.clock.call_at(now + delay, retry, "backoff", (task, assignment))
        else:
            retry(task, assignment)

    def _retry_same_node(self, task: TaskInvocation, assignment: Assignment) -> None:
        """Reacquire the same node's resources and rerun there."""
        with self.lock:
            if self.closed:
                return
            self.executor._flush()
            pool = self.runtime.pool
            node = assignment.allocation.node
            alloc = pool.try_allocate(
                assignment.implementation.constraint, preferred=[node]
            )
            if alloc is None or alloc.node != node:
                if alloc is not None:
                    pool.release(alloc)
                self._requeue_for_other(task, assignment)
                return
            self.executor._start(Assignment(task, alloc, assignment.implementation))

    def _requeue_for_other(self, task: TaskInvocation, assignment: Assignment) -> None:
        with self.lock:
            if self.closed:
                return
            self.executor._flush()
            task.failed_nodes.append(assignment.allocation.node)
            task.state = TaskState.READY
            self.runtime.graph.requeue([task])
            self.dispatch()

    # ------------------------------------------------------------------
    # Speculative re-execution
    # ------------------------------------------------------------------
    def _schedule_spec_check(self, attempt: Attempt) -> None:
        """Arm a straggler check for ``attempt`` if a median is known."""
        detector = self.runtime.straggler
        if detector is None or attempt.speculative or attempt.spec_check:
            return
        assignment = attempt.assignment
        if assignment.extra_allocations:
            return  # multinode tasks are not speculated
        threshold = detector.threshold(assignment.task.definition.name)
        if threshold is None:
            return
        attempt.spec_check = self.clock.call_at(
            max(self.clock.now, attempt.start + threshold),
            self._spec_check, "spec-check", (attempt,),
        )

    def _schedule_spec_checks_for_name(self, name: str) -> None:
        """A completion updated ``name``'s median: arm checks on its peers."""
        detector = self.runtime.straggler
        if detector is None or detector.threshold(name) is None:
            return
        for attempts in list(self.attempts.values()):
            if len(attempts) != 1:
                continue
            attempt = attempts[0]
            if attempt.assignment.task.definition.name == name:
                self._schedule_spec_check(attempt)

    def _spec_check(self, attempt: Attempt) -> None:
        """Decide whether a running attempt is a straggler; maybe back it up."""
        with self.lock:
            self.executor._flush()
            attempt.spec_check = None
            task = attempt.assignment.task
            if (
                self.closed
                or not attempt.live
                or len(self.attempts[task.task_id]) > 1
            ):
                return
            detector = self.runtime.straggler
            if detector is None:
                return
            threshold = detector.threshold(task.definition.name)
            if threshold is None:
                return
            now = self.clock.now
            elapsed = now - attempt.start
            due = attempt.start + threshold
            if elapsed < threshold and due > now:
                # The median grew since this check was armed: re-arm at
                # the new threshold.  ``due > now`` keeps the re-arm in
                # the future when float rounding makes ``now - start``
                # fall short of a threshold ``start + threshold`` reached.
                attempt.spec_check = self.clock.call_at(
                    due, self._spec_check, "spec-check", (attempt,)
                )
                return
            self._launch_backup(attempt, elapsed, threshold)

    def _launch_backup(self, attempt: Attempt, elapsed: float, threshold: float) -> None:
        """Place a backup of a straggling attempt on another node."""
        runtime = self.runtime
        task = attempt.assignment.task
        impl = attempt.assignment.implementation
        origin = attempt.assignment.allocation.node
        pool = runtime.pool
        others = [w.name for w in pool.available_workers() if w.name != origin]
        if not others:
            return
        alloc = pool.try_allocate(impl.constraint, preferred=others)
        if alloc is None:
            return
        if alloc.node == origin:
            pool.release(alloc)
            return
        runtime.resilience.record(
            self.clock.now, rsl.SPECULATION_LAUNCHED, task.label, alloc.node,
            detail=f"running {elapsed:.1f}s > {threshold:.1f}s threshold "
            f"on {origin}",
        )
        self.executor._start(Assignment(task, alloc, impl), speculative=True)

    # ------------------------------------------------------------------
    # Graceful drain
    # ------------------------------------------------------------------
    def attempts_on(self, node: str) -> List[Attempt]:
        """The attempts in flight that hold resources on ``node``."""
        return [
            attempt
            for attempts in self.attempts.values()
            for attempt in attempts
            if any(al.node == node for al in attempt.assignment.all_allocations)
        ]

    def drain_node(self, node: str, deadline_s: float) -> None:
        """Honour a drain: watch for the last attempt, arm the deadline."""
        with self.lock:
            self.executor._flush()
            if not self.attempts_on(node):
                self.runtime.finish_drain(node)
                self.dispatch()
                return
            previous = self.draining.pop(node, None)
            if previous is not None:
                previous.cancel()
            self.draining[node] = self.clock.call_at(
                self.clock.now + float(deadline_s), self._drain_deadline,
                "drain-deadline", (node,),
            )
            self.dispatch()

    def check_drains(self) -> None:
        """Complete any drain whose node has gone idle."""
        if not self.draining:
            return
        for node in sorted(self.draining):
            if self.attempts_on(node):
                continue
            self.draining.pop(node).cancel()
            self.runtime.finish_drain(node)

    def cancel_drain(self, node: str) -> None:
        """Forget a drain that a node failure superseded."""
        drain = self.draining.pop(node, None)
        if drain is not None:
            drain.cancel()

    def _drain_deadline(self, node: str) -> None:
        """The drain window closed: the executor decides the node's fate."""
        with self.lock:
            if self.closed:
                return
            runtime = self.runtime
            self.executor._flush()
            self.draining.pop(node, None)
            worker = runtime.pool.workers.get(node)
            if worker is None or not worker.draining:
                return
            running = len(self.attempts_on(node))
            if not running:
                runtime.finish_drain(node)
                return
            flagged = runtime.preemption.suspended_count()
            runtime.resilience.record(
                self.clock.now, rsl.DRAIN_DEADLINE, "", node,
                detail=f"{running} attempt(s) still running; "
                f"{self.executor.DRAIN_DEADLINE_ACTION}"
                + (f"; {flagged} suspend-flagged trial(s) warm-resumable"
                   if flagged else ""),
            )
            self.executor._expire_drain(node)

    # ------------------------------------------------------------------
    # Starvation watchdog
    # ------------------------------------------------------------------
    def arm_starvation_watchdog(self) -> None:
        """Keep one callback armed at the earliest starvation deadline.

        This is what turns an otherwise-stalled study (every node a class
        could use is dead or draining, queue empty) into a timed,
        structured failure instead of a hang.
        """
        deadline = self.runtime.dispatcher.next_starvation_deadline()
        if deadline is None:
            if self._starvation_handle is not None:
                self._starvation_handle.cancel()
                self._starvation_handle = None
            return
        if self._starvation_handle is not None:
            if self._starvation_at <= deadline + 1e-9:
                return  # armed early enough; the handler re-arms
            self._starvation_handle.cancel()
        self._starvation_at = max(deadline, self.clock.now)
        self._starvation_handle = self.clock.call_at(
            self._starvation_at, self._reap_starved, "starvation-watchdog"
        )

    def _reap_starved(self) -> None:
        """Fail every task whose constraint class starved past the timeout."""
        with self.lock:
            if self.closed:
                return
            self.executor._flush()
            self._starvation_handle = None
            runtime = self.runtime
            victims = runtime.dispatcher.reap_starved()
            for task, waited in victims:
                names = ", ".join(
                    impl.constraint.describe()
                    for impl in task.definition.all_candidates()
                )
                exc = ResourceStarvationError(task.label, names, waited)
                task.attempt_history.append(f"starved for {waited:g}s: {exc}")
                task.state = TaskState.FAILED
                task.error = exc
                runtime.journal_failed(task)
                runtime.fail_descendants(task, self.clock.now)
            if victims:
                self.executor.notify_task_resolutions()
            self.arm_starvation_watchdog()

    # ------------------------------------------------------------------
    def _record(self, attempt: Attempt, end: float, success: bool) -> None:
        """Trace one finished attempt (one record per allocation)."""
        tracer = self.runtime.tracer
        if not tracer.enabled:
            # Zero-cost when tracing is off: no TaskRecord construction,
            # no buffer append on the fast path.
            return
        task = attempt.assignment.task
        for alloc in attempt.assignment.all_allocations:
            tracer.record_task(
                TaskRecord(
                    task_label=task.label,
                    task_name=task.definition.name,
                    node=alloc.node,
                    cpu_ids=alloc.cpu_ids,
                    gpu_ids=alloc.gpu_ids,
                    start=attempt.start,
                    end=end,
                    success=success,
                    attempt=task.attempts,
                )
            )

    def close(self) -> None:
        """Stop making decisions; cancel every armed callback."""
        with self.lock:
            self.closed = True
            for attempts in self.attempts.values():
                for attempt in attempts:
                    attempt.drop()
            self.attempts.clear()
            for handle in self.draining.values():
                handle.cancel()
            self.draining.clear()
            if self._starvation_handle is not None:
                self._starvation_handle.cancel()
                self._starvation_handle = None
