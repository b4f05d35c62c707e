"""Spans recorded from the benchmark's own files.

The program under test is not edited and not monkeypatched: layers are
timed by proxies injected through seams the public API already offers
(``Casper(anonymizer=<instance>, server=<instance>)``,
``ContinuousQueryMonitor(<casper>)``) and by spans around the harness's
own calls into the codec and wire functions.  A layer's *self* time is
its spans' duration minus the part their child spans cover, so facade
and monitor self time fall out as parent minus children.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

from repro.geometry import Point
from repro.processor import CandidateList

__all__ = [
    "ROOT_SPAN",
    "Operation",
    "TimedCandidateList",
    "TimedProxy",
    "Tracer",
    "span_of",
    "timed_server",
]

#: Root span of one client operation; its self time is harness glue no
#: layer owns, reported as ``trace.unattributed_share``.
ROOT_SPAN = "op"


class Tracer:
    """In-memory span log: ``[name, start, end, parent, request_id]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: Identifier shared by every span of one client request; the
        #: harness bumps it before each operation.
        self.request_id = 0

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([name, perf_counter(), 0.0, parent, self.request_id])
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def reset(self) -> None:
        """Drop what set-up recorded; the traced pass starts here."""
        self.spans.clear()
        self.request_id = 0

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Self time and span count per span name."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _request in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        counts: Counter = Counter()
        for index, (name, start, end, _parent, _request) in enumerate(self.spans):
            totals[name] += end - start - covered[index]
            counts[name] += 1
        return totals, counts

    def root_seconds(self) -> float:
        """Traced wall-clock: the total duration of the root spans."""
        return sum(
            end - start
            for _name, start, end, parent, _request in self.spans
            if parent < 0
        )

    def write(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump(
                [
                    {
                        "name": name,
                        "start": start - origin,
                        "end": end - origin,
                        "parent": parent,
                        "request_id": request,
                    }
                    for name, start, end, parent, request in self.spans
                ],
                handle,
            )


class _Span:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        self._index = self._tracer.begin(self._name)

    def __exit__(self, *exc_info: object) -> None:
        self._tracer.end(self._index)


_NO_SPAN = nullcontext()


def span_of(tracer: Tracer | None, name: str) -> "_Span | nullcontext":
    """``tracer.span(name)``, or nothing at all in an untraced run."""
    return tracer.span(name) if tracer is not None else _NO_SPAN


class Operation:
    """Times one client operation: ``with Operation(tracer) as op`` and
    read ``op.seconds`` afterwards.  In a traced pass it is also the
    request's root span, so the same code drives both kinds of run."""

    __slots__ = ("_tracer", "_root", "_start", "seconds")

    def __init__(self, tracer: Tracer | None) -> None:
        self._tracer = tracer
        self.seconds = 0.0

    def __enter__(self) -> "Operation":
        tracer = self._tracer
        if tracer is not None:
            tracer.request_id += 1
            self._root = tracer.begin(ROOT_SPAN)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = perf_counter() - self._start
        if self._tracer is not None:
            self._tracer.end(self._root)


class TimedProxy:
    """Wrap every public method of ``target`` in a ``<layer>.<method>``
    span; attributes that are not callable pass through untouched."""

    def __init__(
        self,
        target: object,
        tracer: Tracer,
        layer: str,
        wrap_result: Callable[[object], object] | None = None,
    ) -> None:
        self._target = target
        self._tracer = tracer
        self._layer = layer
        self._wrap_result = wrap_result

    def __contains__(self, item: object) -> bool:
        return item in self._target  # type: ignore[operator]

    def __getattr__(self, name: str) -> object:
        attribute = getattr(self._target, name)
        if name.startswith("_") or not callable(attribute):
            return attribute
        tracer, span_name, wrap = self._tracer, f"{self._layer}.{name}", self._wrap_result

        def timed(*args: object, **kwargs: object) -> object:
            index = tracer.begin(span_name)
            try:
                result = attribute(*args, **kwargs)
            finally:
                tracer.end(index)
            return wrap(result) if wrap is not None else result

        # Bound methods of one target never change: resolve each once.
        self.__dict__[name] = timed
        return timed


@dataclass(frozen=True)
class TimedCandidateList(CandidateList):
    """A candidate list whose client-side refinement is a span."""

    tracer: Tracer | None = None

    def refine_nearest(self, location: Point, by: str = "min") -> object:
        with self.tracer.span("client.refine"):  # type: ignore[union-attr]
            return super().refine_nearest(location, by)

    def refine_k_nearest(self, location: Point, k: int, by: str = "min") -> list:
        with self.tracer.span("client.refine"):  # type: ignore[union-attr]
            return super().refine_k_nearest(location, k, by)

    def refine_within(self, location: Point, radius: float) -> list:
        with self.tracer.span("client.refine"):  # type: ignore[union-attr]
            return super().refine_within(location, radius)


def timed_server(server: object, tracer: Tracer) -> TimedProxy:
    """A ``LocationServer`` proxy: every call is a ``server.*`` span and
    every candidate list it returns times its own refinement."""

    def wrap(result: object) -> object:
        if type(result) is CandidateList:
            return TimedCandidateList(
                result.items, result.search_region, result.num_filters,
                result.filters, tracer,
            )
        return result

    return TimedProxy(server, tracer, "server", wrap)
