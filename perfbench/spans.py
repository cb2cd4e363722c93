"""In-memory span tracer that wraps padicpme functions from outside.

Each traced function is replaced, at the module or class attribute its
caller looks it up through, by a wrapper that records a span (name, start,
end, parent span, run id) and adds the span's self time (duration minus the
time covered by traced children) to a per-layer total.  Spans stay in memory
until ``write_jsonl`` is called.

A leaf function that runs hundreds of thousands of times can be marked
hot: it keeps exact call counts and self time, but no span per call, so the
trace stays small.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []          # (id, parent, name, start, end)
        self.calls = defaultdict(int)  # layer name -> calls
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)  # extra per-layer counts
        self.top_level_s = 0.0         # summed duration of root spans
        self._stack: list = []         # [span id, child seconds]
        self._next_id = 0
        self._patches: list = []       # (owner, attribute, original)

    # -- spans ------------------------------------------------------------

    def call(self, name: str, fn, args=(), kwargs=None, hot: bool = False,
             on_return=None, on_error=None):
        """Run fn(*args, **kwargs) inside a span named name."""
        kwargs = kwargs or {}
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            if on_error is not None:
                on_error(self, exc)
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            else:
                self.top_level_s += duration
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]
            if not hot:
                self.spans.append((span_id, parent, name, start, end))
        if on_return is not None:
            on_return(self, out, args, kwargs)
        return out

    def wrap(self, name: str, fn, hot: bool = False, on_return=None,
             on_error=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hot=hot,
                             on_return=on_return, on_error=on_error)
        return traced

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attribute: str, name: str, **options) -> None:
        """Replace owner.attribute by a traced wrapper named name."""
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, **options))

    def unpatch(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- output -----------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": span_id,
                                     "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
            fh.write(json.dumps({"run": self.run_id, "summary": {
                "calls": dict(self.calls),
                "self_s": dict(self.self_s),
                "counters": dict(self.counters)}}) + "\n")
