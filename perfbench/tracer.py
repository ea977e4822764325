"""Per-layer tracing by wrapping eelink's functions from outside.

eelink's modules import each other's functions by name, so a call from
`analysis` to `special.upper_incomplete_gamma` goes through the name bound in
`eelink.analysis`. A wrapper must therefore replace the name in the module
that makes the call, not in the module that defines it; `Tracer.wrap` takes
that module. Wrappers count every call and add up wall time for the
outermost call of each key, and attribute each call to every key active
around it (`within`), so a search can report how many trend evaluations it
made. Coarse keys also record spans (name, start, end, parent) that are kept
in memory and written out once the run ends; the fine-grained kernels are
only counted, as they run hundreds of thousands of times per round.
`restore` puts every original back.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.ns: Counter = Counter()
        self.extra: Counter = Counter()
        self.within: defaultdict = defaultdict(Counter)
        self.spans: list[tuple] = []
        self._depth: Counter = Counter()
        self._active: list = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def wrap(self, module, name: str, key, *, span: bool = False, on_call=None) -> None:
        """Replace module.name by a counting, timing wrapper.

        key is a metric key or a function of (args, kwargs) returning one.
        on_call(args, kwargs) may count extras and return replacement
        (args, kwargs).
        """
        original = getattr(module, name)
        self._originals.append((module, name, original))
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            k = key(args, kwargs) if callable(key) else key
            if on_call is not None:
                args, kwargs = on_call(args, kwargs)
            tracer.calls[k] += 1
            for active in tracer._active:
                tracer.within[active][k] += 1
            outer = tracer._depth[k] == 0
            tracer._depth[k] += 1
            if outer:
                tracer._active.append(k)
            if span:
                span_id = len(tracer.spans)
                parent = tracer._stack[-1] if tracer._stack else None
                tracer._stack.append(span_id)
                tracer.spans.append(None)
            start = time.perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._depth[k] -= 1
                if outer:
                    tracer.ns[k] += end - start
                    tracer._active.remove(k)
                if span:
                    tracer._stack.pop()
                    tracer.spans[span_id] = (span_id, parent, k, start, end)

        setattr(module, name, wrapper)

    def replace(self, module, name: str, replacement) -> None:
        """Put a hand-written wrapper in place; `restore` undoes it too."""
        self._originals.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    def restore(self) -> None:
        while self._originals:
            module, name, original = self._originals.pop()
            setattr(module, name, original)

    def mean(self, key: str, scale: float) -> float:
        """Mean wall time per call of key, in units of `scale` ns."""
        return self.ns[key] / self.calls[key] / scale if self.calls[key] else 0.0

    def per_call(self, outer: str, inner: str) -> float:
        """Calls of inner made inside each call of outer, on average."""
        return self.within[outer][inner] / self.calls[outer] if self.calls[outer] else 0.0

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")
