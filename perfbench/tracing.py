"""How a traced op's wall clock splits into layers.

A traced op is one root interval (the benchmark's ``perfbench.op`` span
around the public call) plus the spans the program emits inside it: the
driver's own, and the worker's that ``repro.obs`` grafts back onto the
driver's timeline.  :data:`LAYER_OF` names the layer each span belongs to;
spans it does not name are left out, so their time stays with the
enclosing span.  All times are on one axis, the driver tracer's
microsecond clock.

Nesting is by containment.  A layer's *self* time is its duration minus
the part its directly nested spans cover.  Spans on two lanes (a process
and thread) can run at once, the sender cloning while the worker places
chunks; that time is counted once per layer, and ``overlap`` is the
excess.  Time inside the op that no span covers is ``unattributed``.  So::

    sum(self times) + unattributed - overlap == op wall clock

holds by definition.  What is checked is measured separately: the overlap
must not exceed the time in which two or more lanes actually run spans at
once (:attr:`Attribution.concurrent_us`, from each lane's own spans), and
the spans must cover all but a small share of the op.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

#: Program span name -> the layer whose self time it counts toward.
#: ``wire.send`` spans are where the driver waits on the writer thread and
#: the worker (see :data:`WAITING_LAYERS`).
LAYER_OF = {
    # core sender: SkywayObjectOutputStream traversal and flush
    "send.traverse": "sender.clone",
    "send.flush": "sender.clone",
    # delta: DeltaSendChannel.send and its encoder
    "send.epoch": "delta.encode",
    "send.full": "delta.encode",
    "delta.encode": "delta.encode",
    # policy: the card-table scan that feeds the plan, and the decision
    "delta.diff": "policy.plan",
    "policy.decide": "policy.plan",
    # exchange / spark.send
    "exchange.send": "exchange.push",
    # transport, driver side
    "wire.send_graph": "wire.send",
    "wire.send_epoch": "wire.send",
    "mux.send_epochs": "wire.send",
    "wire.write": "wire.send",
    "pipeline.stall": "wire.send",
    # the worker, grafted
    "worker.recv_graph": "worker.apply",
    "worker.recv_epoch": "worker.apply",
    "recv.accept": "worker.apply",
    "recv.absolutize": "worker.apply",
    "recv.epoch": "worker.apply",
    "recv.apply": "worker.apply",
    "recv.receive": "worker.receive",
    "recv.digest": "worker.digest",
}

#: Layers whose spans wait on other lanes (the worker, the writer thread):
#: the only ones another lane's outermost span can nest under.
WAITING_LAYERS = frozenset({"wire.send"})

#: Largest share of an op's wall clock that spans may leave uncovered.
MAX_UNATTRIBUTED_SHARE = 0.10


@dataclasses.dataclass
class Interval:
    layer: str
    start: float
    end: float
    #: The process and thread that ran it; spans of one lane nest.
    lane: str = "driver"

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)


def program_intervals(spans) -> List[Interval]:
    """The program's spans (``repro.obs`` ``Span`` objects) that
    :data:`LAYER_OF` names, as intervals."""
    return [Interval(LAYER_OF[s.name], s.start_us, s.end_us,
                     f"{s.process}:{s.thread}")
            for s in spans if s.name in LAYER_OF and s.end_us is not None]


def _union_length(pieces: Sequence[Tuple[float, float]]) -> float:
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(pieces):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def _contains(outer: Interval, inner: Interval) -> bool:
    return outer.start <= inner.start and inner.end <= outer.end


def self_times(spans: Sequence[Interval]) -> List[Tuple[Interval, float]]:
    """Each span with its self time (duration minus what its direct
    children cover).  A span's parent is the innermost span of its own
    lane that contains it; a span with none there (the worker's outermost
    span) nests under the shortest span of another lane that contains it
    and waits on it (:data:`WAITING_LAYERS`).  Elsewhere the two lanes ran
    at once, and both count.
    """
    parent: List[Optional[int]] = [None] * len(spans)
    lanes: Dict[str, List[int]] = {}
    for i, span in enumerate(spans):
        lanes.setdefault(span.lane, []).append(i)
    for members in lanes.values():
        stack: List[int] = []
        for i in sorted(members, key=lambda i: (spans[i].start,
                                                -spans[i].end, i)):
            while stack and not _contains(spans[stack[-1]], spans[i]):
                stack.pop()
            if stack:
                parent[i] = stack[-1]
            stack.append(i)
    rank = {i: (spans[i].duration, i) for i in range(len(spans))}
    for lane, members in lanes.items():
        others = [j for j in range(len(spans)) if spans[j].lane != lane
                  and spans[j].layer in WAITING_LAYERS]
        for i in members:
            if parent[i] is not None:
                continue
            holders = [j for j in others if rank[j] > rank[i]
                       and _contains(spans[j], spans[i])]
            if holders:
                parent[i] = min(holders, key=rank.__getitem__)
    children: Dict[int, List[int]] = {i: [] for i in range(len(spans))}
    for i, p in enumerate(parent):
        if p is not None:
            children[p].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = _union_length([(spans[c].start, spans[c].end)
                                 for c in children[i]])
        out.append((span, max(0.0, span.duration - covered)))
    return out


@dataclasses.dataclass
class Attribution:
    """One op's wall clock split into layer self times."""

    op_us: float
    self_us: Dict[str, float]
    unattributed_us: float
    overlap_us: float
    #: Time in which two or more lanes run spans at once, counted once
    #: per extra lane: the most that any split can count twice.
    concurrent_us: float

    def problem(self, tolerance_us: float = 1.0) -> str:
        """Why this split cannot be right, or ``""``."""
        if self.overlap_us > self.concurrent_us + tolerance_us:
            return (f"overlap {self.overlap_us:.1f} us exceeds the "
                    f"{self.concurrent_us:.1f} us in which lanes ran at once")
        if self.unattributed_us > MAX_UNATTRIBUTED_SHARE * self.op_us:
            return (f"spans leave {self.unattributed_us:.1f} us of a "
                    f"{self.op_us:.1f} us op uncovered")
        return ""


def attribute(op: Interval, spans: Sequence[Interval]) -> Attribution:
    """Split ``op`` across ``spans``.  Spans are clipped to the op first:
    the attribution speaks only for the op's own interval."""
    clipped = []
    for span in spans:
        start = min(max(span.start, op.start), op.end)
        end = min(max(span.end, start), op.end)
        clipped.append(Interval(span.layer, start, end, span.lane))
    per_layer: Dict[str, float] = {}
    for span, own in self_times(clipped):
        per_layer[span.layer] = per_layer.get(span.layer, 0.0) + own
    covered = _union_length([(s.start, s.end) for s in clipped])
    lanes: Dict[str, List[Tuple[float, float]]] = {}
    for span in clipped:
        lanes.setdefault(span.lane, []).append((span.start, span.end))
    return Attribution(
        op_us=op.duration,
        self_us=per_layer,
        unattributed_us=op.duration - covered,
        overlap_us=sum(per_layer.values()) - covered,
        concurrent_us=sum(map(_union_length, lanes.values())) - covered,
    )
