"""Spans and counters for the traced run, kept in memory until the run ends.

A span records one call into a layer: its name, start and end, the span
that caused it, and the trial or job it belongs to.  Calls that happen
millions of times per run (protocol transitions, stop-predicate checks,
``decode_view``) are not recorded one by one; each is rolled up into its
parent span as a call count and a total time.  A layer's self time is its
span's duration minus the time its child spans and roll-ups cover.

Everything here wraps the program's public objects from the outside;
nothing under ``src/`` is modified.
"""

from __future__ import annotations

import dataclasses
import json
import operator
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

clock = time.perf_counter


@dataclasses.dataclass
class Span:
    id: int
    name: str
    unit: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    #: Rolled-up high-frequency children: name -> [calls, total seconds].
    rollups: Dict[str, List[float]] = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and exact counters for one traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[Span] = []
        #: The trial or job in flight, for spans recorded on other threads.
        self.current_unit = ""

    @contextmanager
    def span(self, name: str, unit: str = "") -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(id=len(self.spans), name=name,
                      unit=unit or (parent.unit if parent else ""),
                      parent=parent.id if parent else None, start=clock())
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = clock()
            self._stack.pop()

    def add_span(self, name: str, unit: str, start: float, end: float,
                 parent: Optional[int] = None) -> Span:
        """Record a span measured elsewhere (another thread, a timestamp pair)."""
        record = Span(id=len(self.spans), name=name, unit=unit, parent=parent,
                      start=start, end=end)
        self.spans.append(record)
        return record

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(span.duration for span in self.spans if span.name == name)

    def rollup(self, name: str) -> List[float]:
        """``[calls, seconds]`` of one rolled-up call name, over all spans."""
        calls, seconds = 0, 0.0
        for span in self.spans:
            if name in span.rollups:
                calls += span.rollups[name][0]
                seconds += span.rollups[name][1]
        return [calls, seconds]

    def self_time(self, name: str) -> float:
        """Duration of the ``name`` spans minus their children and roll-ups."""
        children: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] = children.get(span.parent, 0.0) + span.duration
        return sum(
            span.duration - children.get(span.id, 0.0)
            - sum(seconds for _, seconds in span.rollups.values())
            for span in self.spans if span.name == name)

    def write(self, path: Path, meta: Dict[str, object]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        names = sorted({span.name for span in self.spans})
        payload = {"meta": meta, "counters": self.counters,
                   "self_time_s": {name: self.self_time(name) for name in names},
                   "spans": [dataclasses.asdict(span) for span in self.spans]}
        path.write_text(json.dumps(payload, sort_keys=True))


# ---------------------------------------------------------------------- #
# Wrappers for the high-frequency calls
# ---------------------------------------------------------------------- #
def timed_call(function: Callable, totals: List[float]) -> Callable:
    """``function`` with its calls counted and timed into ``totals``."""
    def wrapper(*args):
        started = clock()
        try:
            return function(*args)
        finally:
            totals[1] += clock() - started
            totals[0] += 1
    return wrapper


def state_key_function(state: object) -> Callable[[object], object]:
    """A fast hashable key for states of ``state``'s type, equal iff the
    states compare equal (the mutable dataclass states are unhashable)."""
    try:
        hash(state)
    except TypeError:
        names = [field.name for field in dataclasses.fields(state)]
        return operator.attrgetter(*names)
    return lambda value: value


def census_transition(function: Callable, totals: List[float], census: List[float],
                      pairs: set, states: set) -> Callable:
    """A timed ``transition`` that also records the distinct input pairs.

    The census (hashing both states into the sets) is timed into ``census``
    and the transition itself into ``totals``; both are roll-ups of the
    enclosing span, so neither lands in the engine's self time.
    """
    key_box: List[Optional[Callable]] = [None]

    def wrapper(initiator, responder):
        started = clock()
        key = key_box[0]
        if key is None:
            key = key_box[0] = state_key_function(initiator)
        left, right = key(initiator), key(responder)
        pairs.add((left, right))
        states.add(left)
        states.add(right)
        counted = clock()
        result = function(initiator, responder)
        ended = clock()
        census[1] += counted - started
        census[0] += 1
        totals[1] += ended - counted
        totals[0] += 1
        return result
    return wrapper
