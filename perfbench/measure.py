"""In-memory spans and the summary statistics every workload reports.

Spans are recorded by the benchmark around its own calls into the
solver's public functions; nothing inside the solver package is
instrumented.  Each span has a name, a start and an end (seconds on the
``time.perf_counter`` clock), the id of the span that caused it, and a
request id shared by every span of one request.  Spans stay in memory
until :meth:`Recorder.dump` writes them out at the end of a run.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

@dataclass
class Span:
    id: int
    name: str
    request: str
    start: float
    end: float
    parent: Optional[int] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; a per-thread stack supplies each span's parent."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._next = 0
        self._local = threading.local()

    def _new_id(self) -> int:
        with self._lock:
            self._next += 1
            return self._next

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: str) -> Iterator[int]:
        stack = self._stack()
        span_id = self._new_id()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, request, start, end,
                                       parent))

    def add(self, name: str, request: str, start: float, end: float,
            parent: Optional[int] = None) -> int:
        """Record a span whose interval was measured elsewhere."""
        span_id = self._new_id()
        with self._lock:
            self.spans.append(Span(span_id, name, request, start, end,
                                   parent))
        return span_id

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name: each span's duration minus the
        part of it that its child spans cover."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: Dict[str, float] = {}
        for span in self.spans:
            covered = _covered(span, children.get(span.id, []))
            totals[span.name] = (totals.get(span.name, 0.0)
                                 + span.seconds - covered)
        return totals

    def durations(self, name: str) -> List[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(span)) + "\n")


def _covered(span: Span, kids: Sequence[Span]) -> float:
    """Length of the union of the children's intervals inside ``span``."""
    covered = 0.0
    cursor = span.start
    for kid in sorted(kids, key=lambda s: s.start):
        lo = max(kid.start, cursor)
        hi = min(kid.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


#: The reference loop's time in ms when the host that the benchmark was
#: introduced on (2-core x86 container, Python 3.11) ran at its fast
#: speed; see :class:`HostClock`.
REFERENCE_MS = 4.5
#: Each probe is the best of this many runs of the reference loop.
PROBE_REPEATS = 2


class HostClock:
    """Probes the host's speed between visits with the reference loop.

    On the shared 2-core machine the benchmark was built on, the host ran
    at two speeds about 1.5x apart, switching within a second, and some
    runs spent tens of seconds at the slow speed: the same work took up
    to 1.5x longer in one run than in the next.  A solve's time and the
    reference loop's time around it moved together (correlation 0.89
    over 400 solves of c7552.equiv), so dividing out the loop's time
    removes most of that swing.

    ``host_ms`` of a visit is the mean of the probes just before and
    just after it; a visit's seconds times ``REFERENCE_MS / host_ms`` are
    its seconds at the reference speed (see ``at_reference``)."""

    def __init__(self) -> None:
        self.last = reference_ms(repeats=PROBE_REPEATS)

    def around(self) -> float:
        before, self.last = self.last, reference_ms(repeats=PROBE_REPEATS)
        return (before + self.last) / 2


def at_reference(seconds: float, host_ms: float) -> float:
    return seconds * REFERENCE_MS / host_ms


def reference_ms(repeats: int = 5) -> float:
    """Best-of-``repeats`` milliseconds of a fixed pure-Python kernel.

    Recorded with every result, it shows how fast the host ran at the
    time, so a slow run can be told from a slow solver."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(40000):
            table[i & 1023] = acc
            acc = (acc * 31 + i) & 0xFFFF
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def input_medians(samples: Iterable[Tuple[str, float]]) -> List[float]:
    """The median of each input's samples, one value per input."""
    by_input: Dict[str, List[float]] = {}
    for name, value in samples:
        by_input.setdefault(name, []).append(value)
    return [statistics.median(v) for v in by_input.values()]


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile over the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
