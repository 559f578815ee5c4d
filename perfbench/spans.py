"""In-memory span recorder used by the traced benchmark runs.

A span is ``(name, start_ns, end_ns, parent, run_id)``.  Spans are
opened by the benchmark's own code around its calls into the program,
never inside the program.  The parent is the innermost span open on the
same thread; a span opened on a thread with nothing open (a task body on
an executor thread) takes the recorder's *cross-thread parent*, which
the client sets to the span that is waiting for that work.

Self time follows the usual rule (a span's duration minus what its
children cover), extended to concurrent threads: at every instant the
elapsed time is split evenly between the spans that are open and have no
open child.  Self times therefore add up to the time covered by the
spans, so two task bodies running side by side each get half of the
instant instead of counting it twice.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class SpanRecorder:
    """Collects spans; disabled recorders cost one attribute check."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        #: [name, start_ns, end_ns, parent index (-1 = none), run id]
        self.spans: List[list] = []
        self.run_id = 0
        self.cross_parent = -1
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.cross_parent
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter_ns(), 0, parent, self.run_id])
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack().pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        if not self.enabled:
            yield -1
            return
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` with every call recorded as a span named ``name``."""
        if not self.enabled:
            return func

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    # ------------------------------------------------------------------
    def total_s(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name) / 1e9

    def self_times_s(self) -> Dict[str, float]:
        """Self time per span name (see the module docstring)."""
        children: Dict[int, int] = defaultdict(int)
        events: List[Tuple[int, int, int]] = []
        for idx, (_, start, end, _, _) in enumerate(self.spans):
            events.append((start, 1, idx))
            events.append((end, 0, idx))
        events.sort()
        # children[i] counts the open children of span i; open spans with
        # none are "leaves" and share the elapsed time.
        leaves = set()
        out: Dict[str, float] = defaultdict(float)
        last = events[0][0] if events else 0
        for t, kind, idx in events:
            if leaves and t > last:
                share = (t - last) / len(leaves)
                for leaf in leaves:
                    out[self.spans[leaf][0]] += share
            last = t
            parent = self.spans[idx][3]
            if kind == 1:
                leaves.add(idx)
                if parent >= 0:
                    children[parent] += 1
                    leaves.discard(parent)
            else:
                leaves.discard(idx)
                if parent >= 0:
                    children[parent] -= 1
                    if children[parent] == 0 and t < self.spans[parent][2]:
                        leaves.add(parent)
        return {name: ns / 1e9 for name, ns in out.items()}

    def write(self, path, extra: Optional[dict] = None) -> None:
        """Dump every span (times in ns from the first span) as JSON."""
        base = min((s[1] for s in self.spans), default=0)
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "run_id"],
            "spans": [
                [s[0], s[1] - base, s[2] - base, s[3], s[4]] for s in self.spans
            ],
        }
        if extra:
            doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
