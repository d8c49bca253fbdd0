"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, attrs); parent is the index of the
enclosing span or -1. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else -1, "attrs": attrs}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    @contextlib.contextmanager
    def patched(self, module, attr: str, name: str, attrs=None):
        """Record a span around every call of module.attr while active.

        attrs is a dict of span attributes, or a function that takes the
        call's arguments and returns one.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            found = attrs(*args, **kwargs) if callable(attrs) else attrs or {}
            with self.span(name, **found):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, original)

    # -- queries ---------------------------------------------------------

    def named(self, name: str, since: int = 0) -> list[dict]:
        return [s for s in self.spans[since:] if s["name"] == name]

    def total(self, name: str, since: int = 0) -> float:
        return sum(duration(s) for s in self.named(name, since))

    def self_time(self, name: str, since: int = 0) -> list[float]:
        """Duration of each span called name minus its direct children."""
        child_time: dict[int, float] = {}
        for s in self.spans[since:]:
            if s["parent"] >= 0:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + duration(s)
        return [duration(s) - child_time.get(since + i, 0.0)
                for i, s in enumerate(self.spans[since:]) if s["name"] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.spans, fh, default=str)


def duration(span: dict) -> float:
    return span["end"] - span["start"]
