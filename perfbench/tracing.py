"""In-memory span recorder and reversible wrappers around program functions.

A span is one call into a wrapped function or method: its name, start and
end (``time.perf_counter`` seconds), the index of the span that was open when
it started (-1 at top level), the run id it belongs to, one numeric payload
(FLOPs, bytes or a flag, depending on the span) and whether it is the
outermost open span of its name. Spans stay in memory; the caller writes them
out once when the benchmark ends.

Wrappers are installed from outside the program: a function is replaced in
every ``qsci`` module that holds a reference to it, a method is replaced on
its class, and :meth:`Patcher.restore` puts every original object back.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

PACKAGE = "qsci"


@dataclass
class Span:
    name: str
    t0: float
    t1: float
    parent: int
    run: str
    value: float = 0.0
    outer: bool = True

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Records spans and counters; ``run`` tags everything recorded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()      # (run, name) -> count
        self.run = ""
        self._open: list[int] = []
        self._depth: Counter = Counter()

    def call(self, name: str, value: float, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` unchanged inside a span."""
        parent = self._open[-1] if self._open else -1
        span = Span(name, 0.0, 0.0, parent, self.run, value, self._depth[name] == 0)
        self._open.append(len(self.spans))
        self.spans.append(span)
        self._depth[name] += 1
        span.t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.t1 = time.perf_counter()
            self._open.pop()
            self._depth[name] -= 1

    def count(self, name: str):
        self.counts[(self.run, name)] += 1


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans, child_filter=None) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover.

    ``child_filter(span)`` restricts which children count (all by default).
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0 and (child_filter is None or child_filter(s)):
            children[s.parent].append((s.t0, s.t1))
    return [s.duration - union_length(children.get(i, ()), s.t0, s.t1)
            for i, s in enumerate(spans)]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples beyond it
    (50 when there are too few samples for anything above the median)."""
    if n <= 0:
        return 50
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n)))


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile; 0.0 for no samples."""
    vals = sorted(values)
    if not vals:
        return 0.0
    pos = (len(vals) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


class Patcher:
    """Installs wrappers and restores the originals (also as a context)."""

    def __init__(self):
        self._undo: list[tuple] = []

    def wrap_function(self, module, attr: str, make):
        """Replace ``module.attr`` by ``make(original)`` in every loaded
        module of the package that references the same object."""
        orig = getattr(module, attr)
        new = functools.wraps(orig)(make(orig))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)
                    self._undo.append((mod, key, orig))

    def wrap_method(self, cls, attr: str, make):
        """Replace a method defined on ``cls`` itself by ``make(original)``."""
        orig = cls.__dict__[attr]
        setattr(cls, attr, functools.wraps(orig)(make(orig)))
        self._undo.append((cls, attr, orig))

    def restore(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
