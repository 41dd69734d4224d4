"""Per-node simulated clocks with category accounting.

A :class:`SimClock` accumulates simulated seconds into the five categories
the paper uses to break down Spark/Flink runtime (Figure 3, Figure 8):
computation, serialization, write I/O, deserialization, and read I/O (which,
per the paper, includes the network cost).  A sixth bookkeeping category,
``NETWORK``, is kept separately so Figure 7 (JSBS) can report network as its
own series; the Spark/Flink reports fold it into read I/O exactly as the
paper does.
"""

from __future__ import annotations

import enum
from functools import reduce
from operator import add
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


class Category(enum.Enum):
    """Runtime component, matching the paper's performance breakdowns."""

    COMPUTATION = "computation"
    SERIALIZATION = "serialization"
    WRITE_IO = "write_io"
    DESERIALIZATION = "deserialization"
    READ_IO = "read_io"
    NETWORK = "network"

    #: Members are singletons, so identity hashing agrees with equality;
    #: it skips the Python-level ``Enum.__hash__`` that every
    #: :meth:`SimClock.charge` would otherwise pay on its dict update.
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Category.{self.name}"


class SimClock:
    """Accumulates simulated time per category for one node (JVM process).

    The clock also maintains a *context stack*: library code deep in the heap
    or serializer substrate charges to whatever category the currently
    executing phase pushed, so e.g. a field copy performed during
    serialization lands in ``SERIALIZATION`` while the same primitive during
    a map task lands in ``COMPUTATION``.
    """

    def __init__(self, name: str = "clock") -> None:
        self.name = name
        self._totals: Dict[Category, float] = {c: 0.0 for c in Category}
        self._stack: List[Category] = [Category.COMPUTATION]

    # -- charging ---------------------------------------------------------

    def charge(self, seconds: float, category: Optional[Category] = None) -> None:
        """Add ``seconds`` to ``category`` (or the current context)."""
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        cat = category if category is not None else self._stack[-1]
        self._totals[cat] += seconds

    def charge_each(self, charges: Sequence[float]) -> None:
        """Charge every item of ``charges`` to the current context, in
        order: the batched form of one :meth:`charge` per item.

        The items are added one by one to the running total, so the result
        equals the per-item calls under ``==``; a single pre-summed charge
        would round differently.
        """
        if not charges:
            return
        if min(charges) < 0:
            raise ValueError(f"cannot charge negative time: {min(charges)}")
        cat = self._stack[-1]
        self._totals[cat] = reduce(add, charges, self._totals[cat])

    @property
    def current_category(self) -> Category:
        return self._stack[-1]

    def push(self, category: Category) -> None:
        self._stack.append(category)

    def pop(self) -> Category:
        if len(self._stack) == 1:
            raise RuntimeError("cannot pop the base clock context")
        return self._stack.pop()

    def phase(self, category: Category) -> "_PhaseContext":
        """Context manager: route charges to ``category`` inside the block."""
        return _PhaseContext(self, category)

    # -- reading ----------------------------------------------------------

    def total(self, category: Optional[Category] = None) -> float:
        if category is not None:
            return self._totals[category]
        return sum(self._totals.values())

    def totals(self) -> Dict[Category, float]:
        return dict(self._totals)

    def items(self) -> Iterator[Tuple[Category, float]]:
        return iter(self._totals.items())

    def reset(self) -> None:
        for c in Category:
            self._totals[c] = 0.0

    def snapshot(self) -> Dict[Category, float]:
        """A copy of totals; subtract two snapshots to time a region."""
        return dict(self._totals)

    def since(self, snap: Dict[Category, float]) -> Dict[Category, float]:
        return {c: self._totals[c] - snap.get(c, 0.0) for c in Category}

    def merge(self, other: "SimClock") -> None:
        """Fold another clock's totals into this one (cluster aggregation)."""
        for cat, value in other.items():
            self._totals[cat] += value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{c.value}={v:.4f}" for c, v in self._totals.items() if v > 0
        )
        return f"SimClock({self.name}: {parts or 'empty'})"


class _PhaseContext:
    def __init__(self, clock: SimClock, category: Category) -> None:
        self._clock = clock
        self._category = category

    def __enter__(self) -> SimClock:
        self._clock.push(self._category)
        return self._clock

    def __exit__(self, *exc: object) -> None:
        self._clock.pop()
