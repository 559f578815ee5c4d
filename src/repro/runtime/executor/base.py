"""Executor interface and shared helpers.

An executor owns *where task bodies run and how their outcomes come
back*; the runtime owns the graph and data bookkeeping, and the
:class:`~repro.runtime.executor.lifecycle.AttemptLifecycle` owns every
decision about an attempt (retries, deadlines, speculation, drains,
starvation).  All executors share the same scheduler, resource pool and
lifecycle, so scheduling and fault handling are identical between real
and simulated execution — only the clock differs.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.runtime.executor.lifecycle import AttemptLifecycle
from repro.runtime.future import Future, is_future
from repro.runtime.task_definition import TaskInvocation

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import COMPSsRuntime


class Executor(abc.ABC):
    """Abstract execution engine."""

    def __init__(self) -> None:
        self.runtime: Optional["COMPSsRuntime"] = None
        self.lifecycle: Optional[AttemptLifecycle] = None

    def bind(self, runtime: "COMPSsRuntime") -> None:
        """Attach to a runtime (graph, pool, scheduler, tracer, policy)."""
        self.runtime = runtime

    def clock(self) -> float:
        """Current time in this executor's clock (wall or virtual)."""
        return 0.0

    @abc.abstractmethod
    def notify_submitted(self, task: TaskInvocation) -> None:
        """A task entered the graph; the executor may start it eagerly."""

    @abc.abstractmethod
    def wait_for(self, tasks: Sequence[TaskInvocation]) -> None:
        """Block (in real or virtual time) until ``tasks`` are all done.

        Raises :class:`repro.runtime.fault.TaskFailedError` if any of them
        exhausted its retry budget.
        """

    @abc.abstractmethod
    def shutdown(self) -> None:
        """Release threads/queues; the executor is unusable afterwards."""

    def notify_topology_change(self) -> None:
        """The pool's node set changed (add/drain/fail/recover).

        The dispatch engine has already buffered the wake via the pool's
        listener protocol; running a scheduling round *now* lets waiting
        tasks reach the new capacity without waiting for the next
        completion.
        """
        self.lifecycle.dispatch()

    def notify_task_resolutions(self) -> None:
        """Task states changed to a terminal state.

        Called by the lifecycle after completions and terminal failures,
        and by the runtime after out-of-band terminal transitions (e.g.
        the service layer abandoning a whole study), so blocked
        ``wait_for`` calls rescan.  Default no-op (executors whose
        ``wait_for`` polls pick the change up on their next scan).
        """

    # ------------------------------------------------------------------
    # What each executor supplies to the lifecycle
    # ------------------------------------------------------------------
    #: What a drain deadline does to the attempts still running on the
    #: node (detail of the ``drain_deadline`` resilience event).
    DRAIN_DEADLINE_ACTION = ""

    @abc.abstractmethod
    def _start(self, assignment, speculative: bool = False) -> None:
        """Launch one attempt of ``assignment`` (register it with
        ``lifecycle.begin``/``arm`` and run or schedule its body)."""

    @abc.abstractmethod
    def _expire_drain(self, node: str) -> None:
        """A drain deadline passed with attempts still running on ``node``
        (the node is DRAINING; its spill already happened)."""

    def _flush(self) -> None:
        """Replay any deferred bookkeeping before a lifecycle decision."""

    def _abandon(self, attempt, reason: str) -> None:
        """The lifecycle dropped a still-running attempt (``reason`` is
        ``"deadline"`` or ``"cancelled"``); stop its body if possible."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def resolve_arguments(
        task: TaskInvocation,
    ) -> Tuple[Tuple[Any, ...], Dict[str, Any]]:
        """Replace future arguments with their resolved values.

        Dependencies guarantee producers completed before this is called.
        """
        args = tuple(_resolve(a) for a in task.args)
        kwargs = {k: _resolve(v) for k, v in task.kwargs.items()}
        return args, kwargs

    @staticmethod
    def fan_out_result(task: TaskInvocation, futures: List[Future], result: Any) -> None:
        """Distribute a task's return value into its future slots."""
        n = len(futures)
        if n == 0:
            return
        if n == 1:
            futures[0].set_result(result)
            return
        try:
            values = list(result)
        except TypeError:
            raise TypeError(
                f"task {task.label} declared {n} returns but produced a "
                f"non-iterable {type(result).__name__}"
            ) from None
        if len(values) != n:
            raise ValueError(
                f"task {task.label} declared {n} returns but produced "
                f"{len(values)} values"
            )
        for fut, value in zip(futures, values):
            fut.set_result(value)


# Module-level rather than closures inside ``resolve_arguments``: two
# mutually-recursive closures form a reference cycle per call, and with
# ``manage_gc`` freezing the heap those cycles were never collected.
def _contains_future(v: Any) -> bool:
    if is_future(v):
        return True
    if isinstance(v, (list, tuple, set)):
        return any(_contains_future(i) for i in v)
    if isinstance(v, dict):
        return any(_contains_future(i) for i in v.values())
    return False


def _resolve(v: Any) -> Any:
    if is_future(v):
        return v.result()
    # Rebuild containers only when they actually hold futures —
    # otherwise the original object must be passed through so
    # INOUT mutations land on the caller's object.
    if not _contains_future(v):
        return v
    if isinstance(v, list):
        return [_resolve(i) for i in v]
    if isinstance(v, tuple):
        return tuple(_resolve(i) for i in v)
    if isinstance(v, set):
        return {_resolve(i) for i in v}
    if isinstance(v, dict):
        return {k: _resolve(i) for k, i in v.items()}
    return v
