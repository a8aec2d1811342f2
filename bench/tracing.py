"""Spans recorded from the benchmark's side of each layer boundary.

A span has a name, a start, an end and the index of the span that was
open when it started.  Calls made millions of times (the transition
function, completion enumeration) are not kept one by one: each adds its
count and time to a per-name total and to the time of the span it ran
inside, so self times still add up.  Everything stays in memory until
``dump`` writes it out when the run ends.

The layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.fine: dict[str, list] = {}  # name -> [calls, items, seconds]
        self._fine_in: dict[int, float] = {}  # span index -> fine seconds inside
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def _fine_record(self, name: str):
        rec = self.fine.setdefault(name, [0, 0, 0.0])
        stack, fine_in = self._stack, self._fine_in

        def add(seconds: float, calls: int, items: int) -> None:
            rec[0] += calls
            rec[1] += items
            rec[2] += seconds
            if stack:
                fine_in[stack[-1]] = fine_in.get(stack[-1], 0.0) + seconds
        return add

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span around every call of owner.attr."""
        orig = getattr(owner, attr)
        span = self.span

        def wrapper(*args, **kwargs):
            with span(name):
                return orig(*args, **kwargs)
        self._patch(owner, attr, wrapper)

    def wrap_fine(self, owner, attr: str, name: str) -> None:
        """Add the count and time of every call of owner.attr to totals."""
        orig = getattr(owner, attr)
        add = self._fine_record(name)

        def wrapper(*args, **kwargs):
            t = perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                add(perf_counter() - t, 1, 0)
        self._patch(owner, attr, wrapper)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Like wrap_fine for a generator function: times each item it
        yields and counts the items."""
        orig = getattr(owner, attr)
        add = self._fine_record(name)

        def wrapper(*args, **kwargs):
            it = orig(*args, **kwargs)
            add(0.0, 1, 0)
            while True:
                t = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    add(perf_counter() - t, 0, 0)
                    return
                add(perf_counter() - t, 0, 1)
                yield item
        self._patch(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def total(self, name: str) -> tuple[int, float]:
        """(calls, inclusive seconds) of the spans or fine calls named name."""
        if name in self.fine:
            calls, _, seconds = self.fine[name]
            return calls, seconds
        durs = [end - start for n, start, end, _ in self.spans if n == name]
        return len(durs), sum(durs)

    def items(self, name: str) -> int:
        return self.fine.get(name, [0, 0, 0.0])[1]

    def self_times(self) -> dict[str, float]:
        """Seconds spent in each layer itself, children excluded."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            own = end - start - child[i] - self._fine_in.get(i, 0.0)
            out[layer] = out.get(layer, 0.0) + own
        for name, (_, _, seconds) in self.fine.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    def dump(self, path, self_s: dict[str, float]) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "fine": self.fine, "self_s": self_s}, f)
