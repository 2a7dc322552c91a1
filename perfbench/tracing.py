"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own code, around the calls it
makes into each layer, and by wrapping public methods on the instances it
builds (a scheduler's ``place_array``/``place``, a network's ``plan``/
``allocate``/``record_span``).  Nothing inside ``src/`` is traced.

Each span carries a name, a start and end (``perf_counter_ns``), the index
of the span open when it began (its parent) and a run id shared by the
spans of one simulation run.  Spans live in flat integer arrays (40 bytes
each) because a paper-scale Table 2 pass records about a million of them.
"""

from __future__ import annotations

import json
import time
from array import array
from typing import Dict, List

_clock = time.perf_counter_ns

#: Run id of spans recorded outside any simulation run.
NO_RUN = -1


class Tracer:
    """Records nested spans; computes self times; exports Chrome traces."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.run_labels: List[str] = []
        self._stack: List[int] = []
        self._run = NO_RUN

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def begin(self, name: str) -> int:
        """Open a span; returns its index for :meth:`finish`."""
        index = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self._run)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(_clock())
        return index

    def finish(self, index: int) -> None:
        """Close the span opened by :meth:`begin` (must be the innermost)."""
        self.end[index] = _clock()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {index} closed while {top} is open")

    def begin_run(self, label: str) -> int:
        """Open the root span of one simulation run (run id = its ordinal)."""
        self._run = len(self.run_labels)
        self.run_labels.append(label)
        return self.begin("run")

    def finish_run(self, index: int) -> None:
        """Close the run span and any span a raising call left open."""
        while self._stack and self._stack[-1] != index:
            self.finish(self._stack[-1])
        self.finish(index)
        self._run = NO_RUN

    def wrap(self, obj, method: str, name: str) -> None:
        """Replace ``obj.method`` on the instance with a timed pass-through."""
        inner = getattr(obj, method)
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            index = begin(name)
            try:
                return inner(*args, **kwargs)
            finally:
                finish(index)

        setattr(obj, method, traced)

    # ------------------------------------------------------------------
    # analysis

    def self_times(self) -> array:
        """Per-span self time (ns): duration minus its children's durations."""
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        self_ns = array("q", own)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                self_ns[parent] -= own[index]
        return self_ns

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """``name -> {"calls", "self_s", "total_s"}`` over all spans.

        ``calls`` counts entries into the layer: a span nested directly in
        a span of the same name (``allocate`` calling ``plan``) is not one.
        """
        self_ns = self.self_times()
        calls = [0] * len(self.names)
        self_sum = [0] * len(self.names)
        total_sum = [0] * len(self.names)
        for index, ident in enumerate(self.name):
            parent = self.parent[index]
            if parent < 0 or self.name[parent] != ident:
                calls[ident] += 1
            self_sum[ident] += self_ns[index]
            total_sum[ident] += self.end[index] - self.start[index]
        return {
            name: {
                "calls": calls[i],
                "self_s": self_sum[i] / 1e9,
                "total_s": total_sum[i] / 1e9,
            }
            for i, name in enumerate(self.names)
        }

    def run_balance_errors(self) -> List[str]:
        """Runs whose spans' self times do not add up to the run span.

        Self time is defined so that they must; a mismatch means a span
        was left open or attributed to the wrong run.
        """
        self_ns = self.self_times()
        run_id = self._name_ids.get("run")
        summed: Dict[int, int] = {}
        root: Dict[int, int] = {}
        for index, run in enumerate(self.run):
            if run == NO_RUN:
                continue
            summed[run] = summed.get(run, 0) + self_ns[index]
            if self.name[index] == run_id:
                root[run] = self.end[index] - self.start[index]
        return [
            f"run {self.run_labels[run]}: self times sum to {summed.get(run)} ns, "
            f"run span is {duration} ns"
            for run, duration in sorted(root.items())
            if summed.get(run) != duration
        ]

    def export_chrome(self, path, *, max_events: int = 100_000) -> int:
        """Write spans as Chrome trace-event JSON; returns events written.

        Whole runs are written in order until ``max_events`` would be
        exceeded (a Table 2 pass records about a million spans; the first
        runs are enough to inspect one in a trace viewer).
        """
        base = min(self.start) if len(self.start) else 0
        per_run: Dict[int, int] = {}
        for run in self.run:
            per_run[run] = per_run.get(run, 0) + 1
        keep = set()
        budget = max_events
        for run in sorted(per_run):
            if per_run[run] > budget:
                break
            keep.add(run)
            budget -= per_run[run]
        events = []
        for index, run in enumerate(self.run):
            if run not in keep:
                continue
            events.append(
                {
                    "name": self.names[self.name[index]],
                    "ph": "X",
                    "ts": (self.start[index] - base) / 1e3,
                    "dur": (self.end[index] - self.start[index]) / 1e3,
                    "pid": 1,
                    "tid": 1,
                    "args": {
                        "run": self.run_labels[run] if run >= 0 else None,
                        "parent": int(self.parent[index]),
                        "span": index,
                    },
                }
            )
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "spans_recorded": len(self.start),
                "spans_written": len(events),
                "runs_recorded": len(self.run_labels),
            },
        }
        with open(path, "w") as handle:
            json.dump(document, handle)
        return len(events)
