"""In-memory span recorder for the benchmark's traced runs.

Each span keeps its name, start, end, parent span, thread and a tag
naming the MD step and fragment task it served. Spans are appended to a
list while the run executes and written out once, as a chrome-trace
JSON, when it ends. A layer's self time is derived from the recorded
tree: its span durations minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict


class SpanRecorder:
    """Thread-aware span recorder; `wrap` turns a callable into a span."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: (span id, name, start, end, parent id or -1, thread id, tag)
        self.records: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, tag_of=None):
        """``fn`` recorded as span ``name``.

        ``tag_of(args)`` gives the span's step/task tag; without it the
        span inherits its parent's tag.
        """
        records, stack_of, clock, ids = (
            self.records, self._stack, self.clock, self._ids
        )

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else (-1, None)
            tag = tag_of(args) if tag_of is not None else parent[1]
            sid = next(ids)
            stack.append((sid, tag))
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                records.append(
                    (sid, name, t0, t1, parent[0], threading.get_ident(), tag)
                )

        return spanned

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-name summed self time (seconds) and call counts."""
        covered: dict[int, float] = defaultdict(float)
        for _, _, t0, t1, parent, _, _ in self.records:
            if parent >= 0:
                covered[parent] += t1 - t0
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for sid, name, t0, t1, _, _, _ in self.records:
            total[name] += (t1 - t0) - covered[sid]
            calls[name] += 1
        return dict(total), dict(calls)

    def threads(self) -> int:
        """Number of distinct threads that recorded spans."""
        return len({r[5] for r in self.records})

    def write_chrome(self, path, t_base: float) -> None:
        """Write the spans as a chrome-trace (``about://tracing``) file."""
        tids: dict[int, int] = {}
        events = []
        for sid, name, t0, t1, parent, tid, tag in sorted(
            self.records, key=lambda r: r[2]
        ):
            args = {"id": sid, "parent": parent}
            if tag is not None:
                args["step"], args["task"] = tag[0], str(tag[1])
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (t0 - t_base) * 1e6, "dur": (t1 - t0) * 1e6,
                "pid": 1, "tid": tids.setdefault(tid, len(tids)),
                "args": args,
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
