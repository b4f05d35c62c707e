"""Span-based tracing for the Casper pipeline.

A :class:`Tracer` maintains a stack of open spans per thread of
execution (the reproduction is single-threaded per process, so one
stack suffices); ``span()`` opens a child of the innermost open span,
giving the classic parent/child tree: a ``casper.query`` root with
``processor.filter_selection`` / ``processor.extension`` /
``processor.candidates`` children.

Durations come exclusively from :func:`repro.utils.timer.monotonic`
(the CSP002-sanctioned clock); spans carry *relative* offsets from the
tracer's start, never wall-clock timestamps.  Span names and attribute
values obey the same telemetry trust-boundary rule as metric labels:
str/int/bool only, screened against coordinate patterns (see
:func:`repro.observability.metrics.ensure_safe_label_value`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Union

from repro.observability.metrics import ensure_safe_label_value
from repro.utils.timer import monotonic

__all__ = ["Span", "Tracer"]

AttrValue = Union[str, int, bool]


class Span:
    """One timed operation, possibly with child spans."""

    __slots__ = ("name", "attributes", "start", "end", "children")

    def __init__(self, name: str, attributes: dict[str, AttrValue]) -> None:
        self.name = name
        self.attributes = attributes
        self.start = 0.0
        self.end = 0.0
        self.children: list["Span"] = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    def set_attribute(self, key: str, value: AttrValue) -> None:
        """Attach one attribute after the span opened."""
        self.attributes[key] = ensure_safe_label_value(
            value, context=f"span attribute {key!r}"
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "attributes": dict(self.attributes),
            "start": self.start,
            "duration": self.duration,
            "children": [child.as_dict() for child in self.children],
        }

    def iter_all(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.iter_all()


class Tracer:
    """Collects completed span trees, bounded by ``max_roots``.

    The bound drops the *oldest* finished roots first so a long-running
    service keeps its most recent traces without unbounded memory.
    """

    def __init__(self, max_roots: int = 256) -> None:
        if max_roots < 1:
            raise ValueError("max_roots must be >= 1")
        self.max_roots = max_roots
        self.finished: list[Span] = []
        self.dropped = 0
        self._stack: list[Span] = []
        self._origin = monotonic()

    @contextmanager
    def span(self, name: str, **attributes: AttrValue) -> Iterator[Span]:
        """Open a span as a child of the innermost open span."""
        ensure_safe_label_value(name, context="span name")
        checked = {
            key: ensure_safe_label_value(
                value, context=f"span attribute {key!r}"
            )
            for key, value in attributes.items()
        }
        span = Span(name, checked)
        span.start = monotonic() - self._origin
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = monotonic() - self._origin
            popped = self._stack.pop()
            assert popped is span, "span stack corrupted"
            if parent is not None:
                parent.children.append(span)
            else:
                self.finished.append(span)
                if len(self.finished) > self.max_roots:
                    del self.finished[0]
                    self.dropped += 1

    @property
    def open_depth(self) -> int:
        """How many spans are currently open (0 when idle)."""
        return len(self._stack)

    def iter_spans(self) -> Iterator[Span]:
        """Every finished span, roots in completion order, depth first."""
        for root in self.finished:
            yield from root.iter_all()

    def snapshot(self) -> list[dict[str, object]]:
        """JSON-safe view of the finished span trees."""
        return [root.as_dict() for root in self.finished]

    def clear(self) -> None:
        self.finished.clear()
        self.dropped = 0
