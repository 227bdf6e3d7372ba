"""Span-forest reconstruction from a flat trace-event stream.

The exporters flatten every tracer's spans into one list of records; the
analyzer needs the nesting back.  Parenting is recovered by *interval
containment* per tracer: sorting spans by start time (longest first on
ties) and keeping a stack of open intervals assigns each span to the
smallest span that encloses it — which is exactly the nesting the
tracer's depth counter produced at record time, and also places
cross-lane children (``map.task`` on a worker thread inside ``map.wave``
on the main thread) under the span that was timing them.

Input records are the normalised dicts of
:func:`repro.obs.export.load_events` (keys ``ph``/``name``/``ts``/
``dur``/``lane``/``tracer``/``subject``/``args``, seconds), so both
on-disk formats analyze identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

from ..tracer import PHASE_INSTANT, PHASE_SPAN

#: Containment slack for float timestamps (seconds).
_EPS = 1e-9


@dataclass
class SpanNode:
    """One span with its reconstructed children.

    ``start``/``end`` are in the tracer's clock domain (seconds).
    ``children`` are ordered by start time.
    """

    name: str
    subject: str
    tracer: str
    lane: str
    start: float
    end: float
    args: dict[str, Any] = field(default_factory=dict)
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def dur(self) -> float:
        """Span duration in seconds."""
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Time not covered by any child (children may overlap/parallel).

        Computed as ``dur`` minus the measure of the union of the
        children's intervals clamped into this span, so concurrent
        children are not double-subtracted and the result is always in
        ``[0, dur]``.
        """
        return max(0.0, self.dur - self.child_time)

    @property
    def child_time(self) -> float:
        """Measure of the union of the children's intervals (seconds)."""
        covered = 0.0
        cursor = self.start
        for child in self.children:  # already sorted by start
            lo = max(cursor, min(max(child.start, self.start), self.end))
            hi = min(max(child.end, self.start), self.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return covered

    def walk(self) -> Iterator["SpanNode"]:
        """This span and every descendant, depth-first preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def job_ids(self) -> tuple[str, ...]:
        """Participating job ids recorded on this span (may be empty)."""
        raw = self.args.get("job_ids")
        if isinstance(raw, (list, tuple)):
            return tuple(str(j) for j in raw)
        return ()


def _encloses(outer: SpanNode, inner: SpanNode) -> bool:
    return (outer.start - _EPS <= inner.start
            and inner.end <= outer.end + _EPS)


def _same_interval(a: SpanNode, b: SpanNode) -> bool:
    return (abs(a.start - b.start) <= _EPS
            and abs(a.end - b.end) <= _EPS)


def _nest_lane(nodes: list[SpanNode]) -> list[SpanNode]:
    """Stack-nest one lane's spans by containment; returns the lane roots.

    Within a lane spans come from one thread, so containment is exactly
    the nesting the tracer recorded.  Longest-first on equal starts puts
    a parent before the children it encloses; the original index keeps
    ties deterministic.

    One exception: a span never nests under a *same-name* span with an
    identical interval.  Sim-time traces record concurrent peers (forty
    ``task.map`` spans on one node, all spanning the same tick range)
    whose timestamps alone cannot distinguish nesting from concurrency —
    same name + same interval means peers, not parent and child.
    Different-name equal intervals (a wrapper timing exactly its body)
    still nest.
    """
    order = sorted(range(len(nodes)),
                   key=lambda i: (nodes[i].start, -nodes[i].dur, i))
    roots: list[SpanNode] = []
    stack: list[SpanNode] = []
    for i in order:
        node = nodes[i]
        while stack and (not _encloses(stack[-1], node)
                         or (stack[-1].name == node.name
                             and _same_interval(stack[-1], node))):
            stack.pop()
        if stack:
            stack[-1].children.append(node)
        else:
            roots.append(node)
        stack.append(node)
    return roots


def _cross_lane_parent(root: SpanNode,
                       candidates: list[SpanNode]) -> SpanNode | None:
    """The span (on another lane) that was timing ``root``, if any.

    Innermost enclosing span on a different lane; spans with a
    *different name* win over same-name ones, because a span can enclose
    a concurrent peer of its own kind by accident (two overlapping
    ``map.task`` waves on sibling workers) but a ``map.wave`` genuinely
    times the ``map.task`` children recorded on worker lanes.  Same-name
    spans with an *identical* interval never adopt at all — they are
    concurrent peers (a wave of equal-length simulated tasks across
    node lanes), not parent and child.
    """
    best: SpanNode | None = None
    best_key: tuple[int, float] | None = None
    for cand in candidates:
        if cand.lane == root.lane or not _encloses(cand, root):
            continue
        if cand.name == root.name and _same_interval(cand, root):
            continue
        if cand is root or any(span is cand for span in root.walk()):
            continue
        key = (0 if cand.name != root.name else 1, cand.dur)
        if best_key is None or key < best_key:
            best, best_key = cand, key
    return best


def build_forest(events: Sequence[Mapping[str, Any]],
                 ) -> dict[str, list[SpanNode]]:
    """Rebuild each tracer's span forest from normalised event records.

    Returns ``{tracer_name: [roots...]}``; roots and children are sorted
    by start time.  Nesting is recovered per lane by interval
    containment, then each lane's roots are attached under the
    cross-lane span that encloses them (a ``map.wave`` on the main lane
    adopting ``map.task`` spans from worker lanes).  Instants are
    ignored — see :func:`instants_in`.
    """
    per_tracer: dict[str, dict[str, list[SpanNode]]] = {}
    for event in events:
        if event["ph"] != PHASE_SPAN:
            continue
        node = SpanNode(
            name=str(event["name"]),
            subject=str(event.get("subject", "")),
            tracer=str(event.get("tracer", "")),
            lane=str(event.get("lane", "")),
            start=float(event["ts"]),
            end=float(event["ts"]) + float(event.get("dur", 0.0)),
            args=dict(event.get("args", {})),
        )
        per_tracer.setdefault(node.tracer, {}) \
                  .setdefault(node.lane, []).append(node)

    forest: dict[str, list[SpanNode]] = {}
    for tracer, lanes in per_tracer.items():
        lane_roots: dict[str, list[SpanNode]] = {
            lane: _nest_lane(nodes) for lane, nodes in sorted(lanes.items())}
        all_spans = [span
                     for roots in lane_roots.values()
                     for root in roots
                     for span in root.walk()]
        roots: list[SpanNode] = []
        for lane in sorted(lane_roots):
            for root in lane_roots[lane]:
                parent = _cross_lane_parent(root, all_spans)
                if parent is not None:
                    parent.children.append(root)
                else:
                    roots.append(root)
        for root in roots:
            for span in root.walk():
                span.children.sort(key=lambda c: (c.start, c.end))
        roots.sort(key=lambda r: (r.start, r.end, r.lane))
        forest[tracer] = roots
    return forest


def instants_in(events: Sequence[Mapping[str, Any]], *,
                tracer: str | None = None,
                name: str | None = None) -> list[dict[str, Any]]:
    """The instant records of a trace, optionally filtered.

    Returned in record order, as the same normalised dicts that came in.
    """
    out: list[dict[str, Any]] = []
    for event in events:
        if event["ph"] != PHASE_INSTANT:
            continue
        if tracer is not None and event.get("tracer") != tracer:
            continue
        if name is not None and event.get("name") != name:
            continue
        out.append(dict(event))
    return out
