"""Hierarchical span tracer — the timing half of :mod:`repro.obs`.

A *span* is a named, timed region of work with attached attributes::

    with obs.span("depth", depth=3, engine="bdd"):
        outcome = engine.decide(3)

Spans nest: a span opened while another is active records that span as
its parent, so a trace of one ``synthesize()`` call reconstructs the
whole Figure-1 loop (driver iteration -> cascade build -> match and
quantification -> extraction) as a tree.

Tracing is **disabled by default** and designed to be a zero-cost no-op
in that state: :meth:`Tracer.span` then returns a shared singleton whose
``__enter__``/``__exit__`` do nothing — no time is read, no objects are
allocated beyond the argument dict at the call site.  Engines therefore
instrument freely; the cost only materializes when a caller (the CLI's
``--profile``, a test, a benchmark) enables the tracer.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

__all__ = ["NULL_SPAN", "Span", "Tracer", "get_tracer", "set_tracing",
           "span", "tracing_enabled"]


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class Span:
    """One live (then finished) traced region."""

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id",
                 "start", "duration")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self.start = 0.0
        self.duration: Optional[float] = None

    def set(self, **attrs) -> "Span":
        """Attach further attributes mid-span (chainable)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.tracer._open(self)
        return self

    def __exit__(self, *exc) -> bool:
        self.tracer._close(self)
        return False

    def to_dict(self) -> Dict:
        return {"id": self.span_id, "parent": self.parent_id,
                "name": self.name, "start": self.start,
                "duration": self.duration, "attrs": dict(self.attrs)}


class Tracer:
    """Collects finished spans; one instance is the module-wide default.

    ``spans`` lists finished spans in completion order (children before
    their parents); :meth:`roots`/:meth:`children_of` rebuild the tree.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 0

    # -- recording ------------------------------------------------------------

    def span(self, name: str, **attrs):
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs)

    def _open(self, span: Span) -> None:
        span.span_id = self._next_id
        self._next_id += 1
        span.parent_id = self._stack[-1].span_id if self._stack else None
        self._stack.append(span)
        span.start = time.perf_counter()

    def _close(self, span: Span) -> None:
        span.duration = time.perf_counter() - span.start
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        self.spans.append(span)

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self._next_id = 0

    # -- inspection -----------------------------------------------------------

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def total(self, name: str) -> float:
        """Summed duration of every finished span with the given name."""
        return sum(s.duration for s in self.spans
                   if s.name == name and s.duration is not None)

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per-name aggregates: span count, total and *self* time.

        Self time is a span's duration minus its direct children's —
        the time the region spent in its own code rather than delegated
        regions, which is what actually ranks optimization targets (a
        parent span always "costs" as much as everything under it).
        """
        child_time: Dict[Optional[int], float] = {}
        for s in self.spans:
            if s.parent_id is not None and s.duration is not None:
                child_time[s.parent_id] = (child_time.get(s.parent_id, 0.0)
                                           + s.duration)
        out: Dict[str, Dict[str, float]] = {}
        for s in self.spans:
            if s.duration is None:
                continue
            entry = out.setdefault(s.name,
                                   {"count": 0, "total": 0.0, "self": 0.0})
            entry["count"] += 1
            entry["total"] += s.duration
            entry["self"] += max(0.0,
                                 s.duration - child_time.get(s.span_id, 0.0))
        return out

    def top_self(self, n: int = 10):
        """The ``n`` span names with the largest summed self time.

        Returns ``(name, aggregate)`` pairs sorted by descending self
        time — the ``--profile`` top list and the sort order of
        :meth:`to_dict`'s ``totals``.
        """
        ranked = sorted(self.self_times().items(),
                        key=lambda item: item[1]["self"], reverse=True)
        return ranked[:n]

    def to_dict(self) -> Dict:
        """Machine-readable span forest (``synth --profile-json``).

        ``tree`` nests finished spans exactly as :meth:`format_tree`
        renders them (children under their parent, siblings in start
        order); ``totals`` lists per-name aggregates sorted by self
        time, descending.
        """
        by_parent: Dict[Optional[int], List[Span]] = {}
        for s in sorted(self.spans, key=lambda s: s.start):
            by_parent.setdefault(s.parent_id, []).append(s)

        def node(s: Span) -> Dict:
            return {"name": s.name, "duration": s.duration,
                    "attrs": dict(s.attrs),
                    "children": [node(c) for c in by_parent.get(s.span_id, [])]}

        return {
            "tree": [node(s) for s in by_parent.get(None, [])],
            "totals": [dict(aggregate, name=name)
                       for name, aggregate in self.top_self(len(self.spans))],
        }

    def format_tree(self) -> str:
        """Indented rendering of the span forest, for ``--profile`` output."""
        by_parent: Dict[Optional[int], List[Span]] = {}
        for s in sorted(self.spans, key=lambda s: s.start):
            by_parent.setdefault(s.parent_id, []).append(s)
        lines: List[str] = []

        def render(parent: Optional[int], indent: int) -> None:
            for s in by_parent.get(parent, []):
                attrs = " ".join(f"{k}={v}" for k, v in s.attrs.items())
                lines.append(f"{'  ' * indent}{s.name:24s} "
                             f"{s.duration:9.4f}s  {attrs}".rstrip())
                render(s.span_id, indent + 1)

        render(None, 0)
        return "\n".join(lines)


_tracer = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _tracer


def span(name: str, **attrs):
    """Open a span on the default tracer (no-op while tracing is off)."""
    if not _tracer.enabled:
        return NULL_SPAN
    return Span(_tracer, name, attrs)


def set_tracing(enabled: bool, reset: bool = True) -> Tracer:
    """Enable/disable the default tracer; returns it for inspection."""
    _tracer.enabled = enabled
    if reset:
        _tracer.reset()
    return _tracer


def tracing_enabled() -> bool:
    return _tracer.enabled
