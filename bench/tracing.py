"""In-memory spans around calls into the package's public functions.

A ``Tracer`` replaces a module attribute (say ``multiport.decompose.
unitarity_deviation``) with a wrapper that records one span per call:
its name, start, end, parent span and op id.  Patching the attribute in the
module that *calls* the function is what makes calls from inside the
package visible.  ``uninstall`` puts every original back, so untraced ops
run the unmodified program.

Every span feeds per-name totals as it closes: calls, self time (its
duration minus the time its child spans cover) and durations.  Only the
first ``KEEP_SPANS`` spans are kept whole and written out at the end, which
bounds memory on hot paths with millions of calls.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from collections import defaultdict
from time import perf_counter

KEEP_SPANS = 50_000

# Span record fields, kept as plain lists for low overhead.
NAME, START, END, PARENT, OP, ID = range(6)


class SpanStats:
    """Totals for one span name."""

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.durations = array("d")
        self.ops = array("l")  # op id of each duration

    def by_op(self):
        return zip(self.ops, self.durations)


class Tracer:
    def __init__(self):
        self.op = -1  # id of the op being run; set by the harness
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.spans: list[list] = []  # the first KEEP_SPANS spans
        self.total = 0
        self._stack: list[list] = []
        self._child_s: list[float] = []  # time covered by children of each open span
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1][ID] if self._stack else -1, self.op, self.total]
        self.total += 1
        if rec[ID] < KEEP_SPANS:
            self.spans.append(rec)
        self._stack.append(rec)
        self._child_s.append(0.0)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()
        dur = rec[END] - rec[START]
        child = self._child_s.pop()
        if self._child_s:
            self._child_s[-1] += dur
        st = self.stats[rec[NAME]]
        st.calls += 1
        st.self_s += dur - child
        st.durations.append(dur)
        st.ops.append(rec[OP])

    def install(self, points) -> None:
        """Wrap each ``(module name, attribute, span name)``.

        A missing attribute is skipped: a layer that no longer calls that
        function simply reports zero calls.
        """
        for module_name, attr, span_name in points:
            module = importlib.import_module(module_name)
            orig = getattr(module, attr, None)
            if orig is None:
                continue
            setattr(module, attr, self._wrapper(orig, span_name))
            self._patches.append((module, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def _wrapper(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    def write(self, path, t0: float) -> None:
        """A header line naming the fields, then one JSON array per kept span.

        Times are seconds from ``t0``; ``parent`` is the parent's ``id`` or -1.
        """
        header = {
            "fields": ["id", "name", "start", "end", "parent", "op"],
            "spans_total": self.total,
            "spans_written": len(self.spans),
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for rec in self.spans:
                start, end = round(rec[START] - t0, 7), round(rec[END] - t0, 7)
                fh.write(json.dumps([rec[ID], rec[NAME], start, end, rec[PARENT], rec[OP]]) + "\n")
