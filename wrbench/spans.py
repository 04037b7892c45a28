"""In-memory span recorder for the traced benchmark run.

Spans are opened and closed around calls into the library from the
benchmark's own code; the library itself is not modified.  Nested spans
form a stack, so each span's self time is its duration minus the time its
child spans cover.  Only per-name totals are kept: span count, total time
and self time, plus named counters.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # open spans: [name, start, seconds covered by children]
        self._open: list[list] = []

    def enter(self, name: str) -> None:
        self._open.append([name, perf_counter(), 0.0])

    def exit(self) -> None:
        end = perf_counter()
        name, start, child_s = self._open.pop()
        dur = end - start
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child_s
        if self._open:
            self._open[-1][2] += dur

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def wrap(self, name: str, fn):
        """fn with every call recorded as a span called `name`; used for the
        oracle and closure callables handed to the engine."""
        enter, exit_ = self.enter, self.exit

        def traced(*args):
            enter(name)
            try:
                return fn(*args)
            finally:
                exit_()

        return traced

    def add(self, name: str, n: int) -> None:
        self.counts[name] += n

    def ms(self, name: str) -> float:
        return self.total_s.get(name, 0.0) * 1e3

    def self_ms(self, name: str) -> float:
        return self.self_s.get(name, 0.0) * 1e3
