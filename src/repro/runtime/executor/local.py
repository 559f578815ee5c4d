"""Real local execution on threads.

Tasks run eagerly as resources free up, exactly like the COMPSs worker:
the dispatch loop re-runs on every submission and completion, so "the
next task is assigned a computational unit as soon as one is available"
(paper §6.1).  Task bodies run in a thread pool; numpy releases the GIL
inside BLAS so training tasks overlap genuinely.

This executor only launches bodies and delivers their outcomes: retries,
deadlines, speculation, drains and starvation are the shared
:class:`~repro.runtime.executor.lifecycle.AttemptLifecycle`, run over a
:class:`~repro.runtime.executor.lifecycle.WallClock`.  A body abandoned
at its deadline keeps its thread until it returns (CPython threads
cannot be killed); the supervised worker pool
(:class:`~repro.runtime.executor.workers.WorkerPoolExecutor`,
``backend="workers"``) lifts that limitation by hard-killing the worker
process.  A drain deadline retires the node and keeps the results of
the attempts still running there: they run in this process, so no data
is destroyed.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

from repro.runtime import integrity as igr
from repro.runtime.config import check_backend
from repro.runtime.executor.base import Executor
from repro.runtime.executor.lifecycle import Attempt, AttemptLifecycle, WallClock
from repro.runtime.fault import TaskFailedError
from repro.runtime.scheduler.base import Assignment
from repro.runtime.task_definition import TaskInvocation, TaskState
from repro.util.logging_utils import get_logger
from repro.util.validation import check_positive

_log = get_logger("runtime.executor.local")

#: Returned by ``_execute_body`` for an injected hang: the attempt stays
#: in flight, without a thread, until its deadline fires.
_HUNG = object()


class LocalExecutor(Executor):
    """Threaded executor over the runtime's resource pool.

    Parameters
    ----------
    backend:
        ``"threads"`` (the only in-driver backend; see
        :class:`~repro.runtime.executor.workers.WorkerPoolExecutor` for
        ``"workers"``).
    max_parallel:
        Cap on simultaneously-running bodies (defaults to the pool's
        task-usable CPU count, min 1).
    """

    def __init__(self, backend: str = "threads", max_parallel: Optional[int] = None):
        super().__init__()
        check_backend(backend, ("threads",))
        self.backend = backend
        self.max_parallel = max_parallel
        self._lock = threading.RLock()
        self._done_cond = threading.Condition(self._lock)
        self._threads: Optional[ThreadPoolExecutor] = None
        self.timer = WallClock()
        #: Bumped (under the lock) whenever a task resolves; lets
        #: ``wait_for`` skip rescans on spurious wake-ups.
        self._resolutions = 0

    # ------------------------------------------------------------------
    def bind(self, runtime) -> None:
        super().bind(runtime)
        # Share the runtime's lock so graph mutations from submit() (main
        # thread) and dispatch/completion (worker threads) are serialised.
        self._lock = runtime.lock
        self._done_cond = threading.Condition(self._lock)
        self.lifecycle = AttemptLifecycle(runtime, self, self.timer)
        n = self._slots = self.max_parallel or max(1, runtime.pool.total_task_cpus)
        check_positive("max_parallel", n)
        # A body the lifecycle dropped (deadline passed, backup won)
        # keeps its thread until it returns: spare threads absorb them.
        spare = 4 if (
            runtime.config.task_timeout_s is not None or runtime.straggler is not None
        ) else 0
        self._threads = ThreadPoolExecutor(
            max_workers=n + spare, thread_name_prefix="repro-worker"
        )

    def clock(self) -> float:
        return self.timer.now

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def notify_submitted(self, task: TaskInvocation) -> None:
        self.lifecycle.dispatch()

    def notify_task_resolutions(self) -> None:
        """Wake blocked waiters after terminal transitions."""
        with self._done_cond:
            self._resolutions += 1
            self._done_cond.notify_all()

    #: A drain deadline retires the node; running attempts keep going.
    DRAIN_DEADLINE_ACTION = "node forcibly retired"

    def _expire_drain(self, node: str) -> None:
        # Local attempts run in this process, so their in-flight results
        # stay valid after the node is forced out — no data is destroyed;
        # the slots are simply gone for future placements.
        self.runtime.pool.retire_worker(node)
        self.lifecycle.dispatch()

    # ------------------------------------------------------------------
    # Attempt execution
    # ------------------------------------------------------------------
    def _start(self, assignment: Assignment, speculative: bool = False) -> None:
        lifecycle = self.lifecycle
        attempt = lifecycle.begin(assignment, speculative)
        lifecycle.arm(attempt)
        self._threads.submit(self._run, attempt).add_done_callback(_report)

    def _run(self, attempt: Attempt) -> None:
        """Worker thread: run one attempt's body and deliver its outcome."""
        lifecycle = self.lifecycle
        task = attempt.assignment.task
        speculative = attempt.speculative
        try:
            if not attempt.live:
                return  # dropped before its thread got to run
            self._verify_inputs(task, speculative)
            exc = lifecycle.injected_failure(task, speculative)
            if exc is not None:
                raise exc
            hang, slow = lifecycle.injected(task, speculative)
            result = self._execute_body(attempt, hang, slow)
        except BaseException as exc:  # noqa: BLE001 - any body error goes to fault handling
            lifecycle.failed(attempt, exc)
            return
        if result is not _HUNG:
            lifecycle.succeeded(attempt, result)

    def _verify_inputs(self, task: TaskInvocation, speculative: bool) -> None:
        """End-to-end integrity gate: check every input before the body runs.

        A checksum mismatch on a producer's snapshot repairs in place
        from the driver's live value; an input with no intact copy left
        raises a retryable :class:`~repro.runtime.integrity.IntegrityError`
        so the attempt goes through the normal fault path.  Speculative
        backups skip the gate — they race an attempt that already passed
        it, on the same in-memory values.
        """
        assert self.runtime is not None
        integrity = self.runtime.integrity
        if integrity is None or speculative:
            return
        with self._lock:
            for producer in self.runtime.graph.predecessors(task):
                versions = self.runtime.access.versions_written_by(producer)
                if not versions:
                    continue
                outcome = integrity.verify_writer(
                    producer, versions, consumer_label=task.label
                )
                if not outcome.ok:
                    raise igr.IntegrityError(
                        f"input {','.join(outcome.corrupt)} of {task.label} "
                        "is corrupt with no intact copy"
                    )

    def _execute_body(self, attempt: Attempt, hang: bool, slow: float):
        """Run the body in this thread (hook for the worker-pool backend)."""
        if hang:
            return _HUNG
        args, kwargs = self.resolve_arguments(attempt.assignment.task)
        t0 = time.perf_counter()
        result = attempt.assignment.implementation.func(*args, **kwargs)
        if slow > 1.0:
            time.sleep((slow - 1.0) * (time.perf_counter() - t0))
        return result

    # ------------------------------------------------------------------
    # Synchronisation
    # ------------------------------------------------------------------
    def wait_for(self, tasks: Sequence[TaskInvocation]) -> None:
        with self._done_cond:
            # Track only the not-yet-finished subset so each wake-up scans
            # a shrinking list instead of every awaited task, and rescan
            # only when something actually resolved.
            pending = list(tasks)
            seen = self._resolutions - 1
            while True:
                if self._resolutions != seen:
                    seen = self._resolutions
                    still = []
                    for t in pending:
                        if t.state == TaskState.FAILED:
                            cause = t.error or RuntimeError("unknown")
                            raise TaskFailedError(t, cause) from cause
                        if t.state != TaskState.DONE:
                            still.append(t)
                    pending = still
                    if not pending:
                        return
                    # Rescan cadence doubles as GC relief: freeze the
                    # completed-task history out of the cycle
                    # collector's scan set (see runtime.gc_checkpoint).
                    if self.runtime is not None:
                        self.runtime.gc_checkpoint()
                self._done_cond.wait()

    def shutdown(self) -> None:
        if self.lifecycle is not None:
            self.lifecycle.close()
        self.timer.stop()
        if self._threads is not None:
            # Don't block on a body abandoned at its deadline: it may be
            # genuinely wedged, and its outcome is discarded anyway.
            self._threads.shutdown(wait=False)


def _report(future) -> None:
    """Log an error that escaped a worker thread; the future is never read."""
    exc = future.exception()
    if exc is not None:
        _log.error("attempt delivery failed", exc_info=exc)
