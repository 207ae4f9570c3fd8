"""In-memory spans around calls into the package's layers.

A span has a name such as `enumeration.count`, a start, an end, the span
that caused it, and a work figure (members visited, encodings listed).
Spans are kept in memory and written out when the run ends. Calls made
thousands of times per pass, such as one bijection on one board, are
rolled up per (parent span, name) into a count, a total time and the
time of the spans nested in them, so that a trace stays small and a
call costs little; coarse calls are kept one record each.

Every pass of a workload is one request: its spans share the pass number.
"""

from __future__ import annotations

import json
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.pass_id = 0
        self.records: list[tuple] = []  # (pass, id, parent, name, t0, t1, child_ns, work)
        self.rollups: list[tuple] = []  # (pass, parent, name, calls, ns, child_ns, work)
        self.gauges: dict[str, float] = {}  # name -> value in the current pass
        self._agg: dict[tuple, list[int]] = {}  # (parent, name) -> [calls, ns, child_ns, work]
        self._pass_start = 0  # index of the current pass's first record
        # Open spans, innermost last: [id of the nearest kept span, child_ns].
        self._stack: list[list[int]] = []
        self._next_id = 1

    def begin_pass(self, pass_id: int) -> None:
        self._fold()
        self.pass_id = pass_id
        self.gauges = {}
        self._pass_start = len(self.records)

    def _fold(self) -> None:
        for (parent, name), agg in self._agg.items():
            self.rollups.append((self.pass_id, parent, name, *agg))
        self._agg.clear()  # in place: wrappers hold this dict

    def wrap(self, name: str, fn, rollup: bool = False, work=None):
        """fn with a span around every call; work(args, result) sizes the call."""
        stack = self._stack
        agg_of = self._agg

        if rollup:
            def traced(*args, **kwargs):
                parent = stack[-1][0] if stack else 0
                frame = [parent, 0]
                stack.append(frame)
                result = None
                t0 = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    dur = perf_counter_ns() - t0
                    stack.pop()
                    if stack:
                        stack[-1][1] += dur
                    w = work(args, result) if work is not None else 0
                    agg = agg_of.get((parent, name))
                    if agg is None:
                        agg_of[parent, name] = [1, dur, frame[1], w]
                    else:
                        agg[0] += 1
                        agg[1] += dur
                        agg[2] += frame[1]
                        agg[3] += w
            return traced

        def traced(*args, **kwargs):
            frame = self.open()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(frame, name, work(args, result) if work is not None else 0)

        return traced

    def open(self) -> list:
        """Start a kept span; pass what it returns to close()."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [sid, 0, parent, perf_counter_ns()]
        self._stack.append(frame)
        return frame

    def close(self, frame: list, name: str, work: int = 0) -> None:
        t1 = perf_counter_ns()
        self._stack.pop()
        sid, child_ns, parent, t0 = frame
        if self._stack:
            self._stack[-1][1] += t1 - t0
        self.records.append((self.pass_id, sid, parent, name, t0, t1, child_ns, work))

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def totals(self) -> dict[str, list[int]]:
        """name -> [calls, ns, work] over the current pass."""
        out: dict[str, list[int]] = {}
        rows = [(name, 1, t1 - t0, work) for _, _, _, name, t0, t1, _, work in self.records[self._pass_start:]]
        rows += [(name, n, ns, work) for (_, name), (n, ns, _, work) in self._agg.items()]
        for name, n, ns, work in rows:
            tot = out.setdefault(name, [0, 0, 0])
            tot[0] += n
            tot[1] += ns
            tot[2] += work
        return out

    # -- processes and output -----------------------------------------------

    def dump(self) -> dict:
        """Everything recorded, as JSON-ready data."""
        self._fold()
        return {"records": self.records, "rollups": self.rollups, "gauges": self.gauges}

    def adopt(self, child: dict) -> None:
        """Merge a child process's dump under the innermost open span.

        Child span ids are shifted past this tracer's, and the child's
        root spans become children of the open span.
        """
        frame = self._stack[-1]
        base = self._next_id
        top = 0
        for _, sid, parent, name, t0, t1, child_ns, work in child["records"]:
            top = max(top, sid)
            self.records.append((self.pass_id, base + sid, base + parent if parent else frame[0],
                                 name, t0, t1, child_ns, work))
            if not parent:
                frame[1] += t1 - t0
        for _, parent, name, n, ns, child_ns, work in child["rollups"]:
            self._agg[base + parent if parent else frame[0], name] = [n, ns, child_ns, work]
        self._next_id = base + top + 1
        self.gauges.update(child["gauges"])

    def write(self, path, meta: dict) -> None:
        """Write every span as one JSON line, after a header line."""
        self._fold()
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for p, sid, parent, name, t0, t1, child_ns, work in self.records:
                fh.write(json.dumps({"pass": p, "id": sid, "parent": parent, "name": name,
                                     "start_ns": t0, "end_ns": t1, "self_ns": t1 - t0 - child_ns,
                                     "work": work}) + "\n")
            for p, parent, name, n, ns, child_ns, work in self.rollups:
                fh.write(json.dumps({"pass": p, "parent": parent, "name": name, "calls": n,
                                     "total_ns": ns, "self_ns": ns - child_ns, "work": work}) + "\n")
