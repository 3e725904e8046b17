"""Stage timing at reference speed, and spans and counters.

Stages.  The machine this benchmark was tuned on is shared, and its speed
drifts by 15-40% within minutes, so raw wall times of the same job on the
same input spread too widely to compare two commits.  While a stage runs,
the benchmark therefore times a fixed reference unit (pure-Python
arithmetic, dict stores and numpy sorts, none of it linkdecay code) at
its start and end and between the library calls it makes, at most every
``TICK_S``.  Each interval between two samples counts in reference
seconds: its raw seconds times ``REFERENCE_UNIT_S`` over the mean time of
the unit at its two ends.  The unit's own time is left out of every
stage.  Over 90 s of alternating samples on that machine, 0.7 s blocks of
repeated oracle checks spread by 24% (quartile distance over median) raw
and by 5% in reference seconds.

Spans.  The benchmark times each layer from outside: it opens a span around a
call into a public function, or temporarily replaces a public function in
a module namespace with a wrapper that opens one, so that calls the
library makes internally (``temporal_split`` calling ``snapshot_at``) are
attributed too.  Spans are kept in memory and written out when the run
ends.  The untraced job runs the same code with :class:`NullTracer`,
whose spans and counters do nothing.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

#: Time of one reference unit, in seconds, on the machine the bounds in
#: BENCHMARK.json were set on.  Fixed: changing it rescales every metric.
REFERENCE_UNIT_S = 0.05
#: Units timed at each stage boundary; their median is used.
BOUNDARY_UNITS = 3
#: Least raw time between two samples inside a stage.
TICK_S = 0.25


def reference_unit() -> None:
    """Fixed work whose speed tracks the machine's, not linkdecay's."""
    total = 0
    for i in range(250_000):
        total += i * i % 7
    table = {}
    for i in range(80_000):
        table[i & 4095] = i
    values = np.arange(200_000)
    np.sort(values[::-1])
    np.unique(values % 1000)


def unit_seconds(repeats: int = 1) -> float:
    """Median time of the reference unit over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_unit()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Stopwatch:
    """Accumulates raw and reference seconds per stage name.

    With ``calibrate`` off (traced jobs) no unit runs and reference seconds
    equal raw ones.
    """

    def __init__(self, calibrate: bool):
        self.calibrate = calibrate
        self.raw: dict[str, float] = defaultdict(float)
        self.ref: dict[str, float] = defaultdict(float)
        self._stage = None
        self._mark = 0.0    # start of the open interval
        self._unit = 0.0    # unit time at that start

    @contextmanager
    def stage(self, name: str):
        self._stage = name
        if self.calibrate:
            self._unit = unit_seconds(BOUNDARY_UNITS)
        self._mark = time.perf_counter()
        try:
            yield
        finally:
            self._close(BOUNDARY_UNITS)
            self._stage = None

    def tick(self) -> None:
        """Sample the unit between two library calls of the open stage."""
        if (self.calibrate and self._stage is not None
                and time.perf_counter() - self._mark >= TICK_S):
            self._close(1)
            self._mark = time.perf_counter()

    def _close(self, repeats: int) -> None:
        raw = time.perf_counter() - self._mark
        self.raw[self._stage] += raw
        if self.calibrate:
            unit = unit_seconds(repeats)
            raw *= 2 * REFERENCE_UNIT_S / (self._unit + unit)
            self._unit = unit
        self.ref[self._stage] += raw


@contextmanager
def patched(module, attr, replacement):
    """Set ``module.attr`` to ``replacement`` for the block, then restore.

    Yields the original.
    """
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    try:
        yield original
    finally:
        setattr(module, attr, original)


class NullTracer:
    """Tracing off: spans, counters and wrappers are no-ops."""

    enabled = False

    def span(self, name):
        return nullcontext()

    def count(self, key, value=1):
        pass

    def wrap(self, module, attr, name, on_result=None):
        return nullcontext()


class Tracer(NullTracer):
    """Records ``(name, start, end, parent)`` spans and named counters."""

    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, key, value=1):
        self.counts[key] += value

    @contextmanager
    def wrap(self, module, attr, name, on_result=None):
        """Replace ``module.attr`` with a spanned wrapper for the block.

        ``on_result(tracer, result)`` runs after each call, to record
        counts read off the returned value.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result

        with patched(module, attr, spanned):
            yield

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its child spans."""
        child = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                child[record["parent"]] += record["end"] - record["start"]
        totals: dict[str, float] = defaultdict(float)
        for k, record in enumerate(self.spans):
            totals[record["name"]] += record["end"] - record["start"] - child[k]
        return dict(totals)

    def root_seconds(self) -> float:
        """Seconds covered by spans that have no parent."""
        return sum(r["end"] - r["start"] for r in self.spans
                   if r["parent"] is None)

    def export(self) -> list[dict]:
        """Spans with times relative to the first one, for writing out."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        return [{"name": r["name"], "start": r["start"] - origin,
                 "end": r["end"] - origin, "parent": r["parent"]}
                for r in self.spans]
