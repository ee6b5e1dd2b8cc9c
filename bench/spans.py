"""In-memory span recorder for the traced benchmark run.

Spans are recorded only from the benchmark's own code, around calls into
the library's public functions.  A span is the tuple
``(op, span_id, parent, name, start_ns, end_ns, probe)``: ``op`` is the
op index (``None`` for run-level work such as the sweep's enumeration),
``parent`` the id of the op's root span.  A probe is an extra call on the
same input, made after the op's root span has closed, so it covers none of
the op's interval and never counts in the op's self time.
"""

from __future__ import annotations

import json
import time

_clock = time.perf_counter_ns

ROOT = "op"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = None
        self._root = None
        self._last_root = None
        self._start = 0

    def begin_op(self, op: int) -> None:
        self.op = op
        self._root = len(self.spans)
        self.spans.append(None)  # filled in by end_op
        self._start = _clock()

    def end_op(self) -> int:
        """Close the op's root span; returns its duration in nanoseconds."""
        end = _clock()
        root = self._root
        self.spans[root] = (self.op, root, None, ROOT, self._start, end, False)
        self._last_root = root
        self._root = None
        self.op = None
        return end - self._start

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span that is a child of the open op."""
        start = _clock()
        result = fn(*args, **kwargs)
        end = _clock()
        self.spans.append((self.op, len(self.spans), self._root, name, start, end, False))
        return result

    def probe(self, name: str, fn, *args, **kwargs):
        """Time an extra call on the op's input, after the op has closed."""
        start = _clock()
        result = fn(*args, **kwargs)
        end = _clock()
        root = self._last_root
        self.spans.append((self.spans[root][0], len(self.spans), root, name, start, end, True))
        return result

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")))
                handle.write("\n")


def self_times(spans: list[tuple]) -> list[int]:
    """Per span: its duration minus the part of it that its children cover."""
    out = [end - start for _, _, _, _, start, end, _ in spans]
    for _, _, parent, _, start, end, _ in spans:
        if parent is None:
            continue
        p_start, p_end = spans[parent][4], spans[parent][5]
        out[parent] -= max(0, min(end, p_end) - max(start, p_start))
    return out


def layer_means_us(spans: list[tuple], ops: int) -> dict[str, float]:
    """Mean self time per op of each span name, in microseconds.

    Run-level spans (``op`` is None) are averaged over their own count
    instead, so the sweep's enumeration reads as its time per run.
    """
    totals: dict[str, int] = {}
    run_level: dict[str, int] = {}
    for span, own in zip(spans, self_times(spans)):
        name = span[3]
        totals[name] = totals.get(name, 0) + own
        if span[0] is None:
            run_level[name] = run_level.get(name, 0) + 1
    return {
        name: total / 1000 / (run_level.get(name) or ops)
        for name, total in totals.items()
    }
