"""Structured phase tracing: nested, timestamped spans.

A :class:`Span` records one named phase — start/end wall-clock and
monotonic timestamps, free-form metadata, and child spans — and renders
the resulting tree as text or JSON. Spans are how recovery explains
where its time went: the NVM driver's tree is
``recovery:nvm → pool_open → catalog_attach → txn_fixup → finalize``,
the log driver's is
``recovery:log → checkpoint_load → log_replay → log_reopen →
index_rebuild``.

:func:`trace_phase` is the instrumentation entry point. It opens a span
as a context manager and attaches it to the innermost span currently
open *on this thread* (each thread has its own ambient stack, so a
merge on a background thread builds its own tree). Pass
``parent=`` to attach explicitly, or ``parent=None`` to start a
detached root. Code can therefore instrument itself once —
``with trace_phase("log_replay"): ...`` — and show up in whichever
tree happens to be open around it, or in none (a detached span costs
one small object and two clock reads).

Span objects are built by one thread; share them only after the
producing phase has finished.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

_ambient = threading.local()

#: Sentinel: "attach to the thread's current span, if any".
AMBIENT = object()


def current_span() -> Optional["Span"]:
    """The innermost span open on this thread (None outside any span)."""
    stack = getattr(_ambient, "stack", None)
    return stack[-1] if stack else None


def _push(span: "Span") -> None:
    stack = getattr(_ambient, "stack", None)
    if stack is None:
        stack = _ambient.stack = []
    stack.append(span)


def _pop(span: "Span") -> None:
    stack = getattr(_ambient, "stack", None)
    if stack and stack[-1] is span:
        stack.pop()


class Span:
    """One named, timed phase with nested children.

    Use as a context manager (starts/finishes and maintains the
    thread-ambient stack), or drive :meth:`start`/:meth:`finish`
    explicitly when the phase cannot be expressed as a ``with`` block.
    """

    __slots__ = (
        "name",
        "meta",
        "children",
        "started_at",
        "_t0",
        "_t1",
        "error",
    )

    def __init__(self, name: str, meta: Optional[dict] = None):
        self.name = name
        self.meta = dict(meta) if meta else {}
        self.children: list[Span] = []
        self.started_at: Optional[float] = None  # wall clock (epoch s)
        self._t0: Optional[float] = None  # perf_counter at start
        self._t1: Optional[float] = None  # perf_counter at finish
        self.error: Optional[str] = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "Span":
        self.started_at = time.time()
        self._t0 = time.perf_counter()
        return self

    def finish(self) -> "Span":
        if self._t1 is None:
            self._t1 = time.perf_counter()
        return self

    @property
    def finished(self) -> bool:
        return self._t1 is not None

    @property
    def duration_s(self) -> float:
        """Elapsed seconds (running duration while unfinished)."""
        if self._t0 is None:
            return 0.0
        end = self._t1 if self._t1 is not None else time.perf_counter()
        return end - self._t0

    def offset_from(self, ancestor: "Span") -> float:
        """Seconds between ``ancestor``'s start and this span's start."""
        if self._t0 is None or ancestor._t0 is None:
            return 0.0
        return self._t0 - ancestor._t0

    def __enter__(self) -> "Span":
        self.start()
        _push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _pop(self)
        if exc is not None and self.error is None:
            self.error = f"{exc_type.__name__}: {exc}"
        self.finish()

    # -- tree helpers --------------------------------------------------

    def child(self, name: str, **meta) -> "Span":
        """Create (but do not start) a child span."""
        span = Span(name, meta)
        self.children.append(span)
        return span

    def child_seconds(self) -> float:
        """Sum of the direct children's durations."""
        return sum(c.duration_s for c in self.children)

    def phase_items(self) -> list[tuple[str, float]]:
        """Direct children as ``(name, seconds)`` pairs."""
        return [(c.name, c.duration_s) for c in self.children]

    def find(self, name: str) -> Optional["Span"]:
        """Depth-first search for the first descendant named ``name``."""
        for c in self.children:
            if c.name == name:
                return c
            hit = c.find(name)
            if hit is not None:
                return hit
        return None

    def walk(self) -> Iterator["Span"]:
        yield self
        for c in self.children:
            yield from c.walk()

    # -- rendering -----------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-able tree (durations in seconds, offsets root-relative)."""

        def convert(span: Span) -> dict:
            node = {
                "name": span.name,
                "seconds": span.duration_s,
                "offset_s": span.offset_from(self),
            }
            if span.meta:
                node["meta"] = dict(span.meta)
            if span.error:
                node["error"] = span.error
            if span.children:
                node["children"] = [convert(c) for c in span.children]
            return node

        return convert(self)

    def render_tree(self, unit: str = "ms") -> str:
        """Human-readable tree with durations and share-of-parent."""
        scale = {"s": 1.0, "ms": 1e3, "us": 1e6}[unit]
        lines: list[str] = []

        def emit(span: Span, prefix: str, child_prefix: str, parent_s: float):
            share = (
                f"  ({span.duration_s / parent_s * 100:5.1f}%)"
                if parent_s > 0
                else ""
            )
            meta = (
                "  [" + ", ".join(f"{k}={v}" for k, v in span.meta.items()) + "]"
                if span.meta
                else ""
            )
            err = f"  !{span.error}" if span.error else ""
            lines.append(
                f"{prefix}{span.name}: "
                f"{span.duration_s * scale:.3f} {unit}{share}{meta}{err}"
            )
            for i, c in enumerate(span.children):
                last = i == len(span.children) - 1
                emit(
                    c,
                    child_prefix + ("└─ " if last else "├─ "),
                    child_prefix + ("   " if last else "│  "),
                    span.duration_s,
                )

        emit(self, "", "", 0.0)
        if self.children:
            untraced = self.duration_s - self.child_seconds()
            lines.append(
                f"   (untraced: {untraced * scale:.3f} {unit}, "
                f"{untraced / self.duration_s * 100:.1f}% of "
                f"{self.name})"
                if self.duration_s > 0
                else "   (untraced: 0)"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration_s:.6f}s, "
            f"{len(self.children)} children)"
        )


@contextmanager
def trace_phase(name: str, parent=AMBIENT, **meta):
    """Open a span around a block of code.

    ``parent`` defaults to the thread's current ambient span; pass an
    explicit :class:`Span` to attach elsewhere, or ``None`` to record a
    detached root. The span is attached to its parent *before* the body
    runs, so a phase that dies mid-flight still shows up in the tree
    (with its ``error`` set).
    """
    if parent is AMBIENT:
        parent = current_span()
    span = Span(name, meta)
    if parent is not None:
        parent.children.append(span)
    with span:
        yield span
