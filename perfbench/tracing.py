"""In-memory spans around public calls into the heawood layers.

A span records its op id, layer call name, parent span, start and end
times and any counters the caller attaches.  Spans are appended to a list
while the run goes and written out only when it ends, so the traced run
does no I/O between ops.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# Positions in a span record (a list, to keep 10^5 spans cheap).
OP, NAME, PARENT, PROBE, START, END, COUNTS = range(7)


class Tracer:
    """Collects spans; ``op_id`` is set by the loop before each traced op."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, probe: bool = False):
        """Time the enclosed call.

        ``probe`` marks an explicit call to a layer the op already runs
        internally, made only so that layer's cost can be read in isolation;
        its time is excluded from the tracing overhead.  The yielded dict
        takes counters.
        """
        counts: dict[str, float] = {}
        parent = self._stack[-1] if self._stack else None
        record = [self.op_id, name, parent, probe, 0.0, 0.0, counts]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        try:
            yield counts
        finally:
            record[END] = perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")

