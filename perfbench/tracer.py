"""Spans around calls into the program, recorded from outside it.

A Tracer replaces a function at the module or class attribute through which
its callers reach it, and restores the original afterwards. Each call records
a span [name, start, end, parent, trial]; spans stay in memory until the run
ends. Nesting is tracked per thread, so the harness's pool threads each keep
their own stack.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, trial=None):
        """Record one span; `trial` defaults to the enclosing span's."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if trial is None and stack:
            trial = self.spans[parent][4]
        record = [name, 0.0, 0.0, parent, trial]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def wrap(self, owner, attr: str, name: str, trial_of=None, observe=None):
        """Trace owner.attr as span `name`.

        trial_of(args, kwargs) names the trial a root call belongs to;
        observe(args, kwargs, result, trial) sees every call's inputs and
        result after its span has closed, so its cost is not counted in the
        span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            trial = trial_of(args, kwargs) if trial_of else None
            with self.span(name, trial) as record:
                result = original(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result, record[4])
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self):
        """Put every wrapped function back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "trial"],
                       "spans": self.spans}, fh)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children run on their parent's thread inside its interval and do not
    overlap one another, so their summed durations are the part of the
    parent they cover.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
