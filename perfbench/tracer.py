"""In-memory span recorder that wraps prefrobust's public functions.

Each wrapper is installed on the name *where it is looked up* (a module
global such as ``prefrobust.multistage.dualize``, or a method on its class)
and restored by :meth:`Tracer.restore`.  A span is ``(name, start, end,
parent, instance)``; self time is a span's duration minus the durations of
its direct children, which never overlap because the program runs on one
thread.  Counters read values from objects the wrappers already see (a
``linprog`` result, the ``LinearProgram`` being solved, the ``LpSolution``
it returns), so the program itself is not changed.
"""

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.active = False
        self.instance = None
        self.spans = []          # (name, start, end, parent index or None, instance)
        self._stack = []
        self._patches = []
        self.counts = defaultdict(int)
        self.stats = {}

    # ------------------------------------------------------------- patching
    def span(self, owner, attr, name, on_result=None):
        """Replace ``owner.attr`` with a wrapper that records a span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            with self.record(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        self._install(owner, attr, original, wrapper)

    def count(self, owner, attr, name):
        """Replace ``owner.attr`` with a wrapper that only counts calls."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return original(*args, **kwargs)

        self._install(owner, attr, original, wrapper)

    def _install(self, owner, attr, original, wrapper):
        # a name patched twice would be restored to the first wrapper
        if any(o is owner and a == attr for o, a, _ in self._patches):
            raise ValueError(f"{owner!r}.{attr} is already wrapped")
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ recording
    @contextlib.contextmanager
    def record(self, name):
        """A span around a block."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.instance)

    def reset(self):
        """Start a fresh window of spans, counters and statistics."""
        if self._stack:
            raise RuntimeError("cannot reset while a span is open")
        self.spans = []
        self.counts = defaultdict(int)
        self.stats = {}

    def ancestor_named(self, index, name):
        parent = self.spans[index][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def totals(self):
        """Per span name: call count, summed duration and summed self time."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_time[index]
        return calls, total, own


def dump_spans(path, spans):
    rows = [{"name": n, "start": s, "end": e, "parent": p, "instance": i}
            for n, s, e, p, i in spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(rows) + "\n", encoding="utf-8")
