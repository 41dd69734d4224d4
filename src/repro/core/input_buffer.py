"""Skyway input buffers (paper §3.2, §4.3).

Input buffers live **in the managed heap** ("so that data coming from a
remote node is directly written into the heap and can be used right away"),
allocated in the old generation, and span **linked chunks** — "a new chunk
can be created and linked to the old chunk when the old one runs out of
space", because the receiver does not know the incoming byte count up
front and large contiguous allocations fragment the heap.  An object never
spans two chunks; objects whose size exceeds the regular chunk size get a
dedicated oversized chunk.

Because each chunk is filled sequentially with whole objects, the mapping
from *logical* (sender buffer) addresses to *physical* heap addresses is a
short run table — the chunk arithmetic of §4.3: find the chunk ``i`` a
relative address falls in, take its offset within the chunk, and add the
chunk's start address.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import List, Optional, Sequence

from repro.core.output_buffer import LOGICAL_BASE
from repro.heap.heap import ManagedHeap
from repro.heap.layout import OBJECT_ALIGNMENT, align_up


class InputBufferError(RuntimeError):
    pass


@dataclasses.dataclass
class Chunk:
    """One in-heap chunk: a contiguous run of received objects."""

    physical_start: int
    capacity: int
    logical_start: int
    filled: int = 0

    @property
    def logical_end(self) -> int:
        return self.logical_start + self.filled

    @property
    def free(self) -> int:
        return self.capacity - self.filled


class InputBuffer:
    """A per-(sender, stream) in-heap input buffer made of linked chunks."""

    def __init__(self, heap: ManagedHeap, chunk_size: int = 64 * 1024) -> None:
        if chunk_size < 256:
            raise ValueError("input-buffer chunk size too small")
        self.heap = heap
        self.chunk_size = chunk_size
        self.chunks: List[Chunk] = []
        #: Physical addresses of placed objects, in placement order.
        self.placed_objects: List[int] = []
        self._logical_cursor = LOGICAL_BASE
        self._starts_index: List[int] = []  # logical_start per chunk (bisect)
        self._last_chunk: Optional[Chunk] = None  # translate() locality cache
        self.total_bytes = 0
        self._frozen = False

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def place_objects(self, data, sizes: Sequence[int]) -> List[int]:
        """Copy whole received objects, laid end to end in ``data`` with the
        given aligned ``sizes``, into the buffer and return their physical
        addresses.  The objects' logical addresses are implied by arrival
        order (senders commit objects densely in logical space).

        Each run of objects that fits the current chunk is copied with one
        slice; an object that does not fit links a new chunk of
        ``max(chunk_size, size)`` bytes (an oversized object gets a chunk of
        its own).  If a chunk cannot be reserved, the objects before it
        stay placed, as if each had been placed on its own.
        """
        if self._frozen:
            raise InputBufferError("buffer is frozen (stream already finished)")
        return self._place(data, sizes)

    def append(self, object_bytes: bytes) -> int:
        """Delta-epoch placement: append one NEW object to a *finished*
        buffer.  The buffer stays frozen — already-placed objects remain
        translatable throughout — and the logical cursor keeps growing, so
        sender and receiver agree on the offsets of appended objects."""
        if not self._frozen:
            raise InputBufferError(
                "delta append on a buffer that never finished its stream"
            )
        size = align_up(len(object_bytes), OBJECT_ALIGNMENT)
        if size > len(object_bytes):
            object_bytes = bytes(object_bytes) + bytes(size - len(object_bytes))
        return self._place(object_bytes, (size,))[0]

    def _place(self, data, sizes: Sequence[int]) -> List[int]:
        """:meth:`place_objects` without the frozen check (shared with
        :meth:`append`)."""
        if sum(sizes) != len(data):
            raise InputBufferError(
                f"object sizes sum to {sum(sizes)}, not the {len(data)} "
                f"bytes given"
            )
        addresses: List[int] = []
        add = addresses.append
        if self.chunks:
            chunk = self.chunks[-1]
            base, room = chunk.physical_start + chunk.filled, chunk.free
        else:
            base = room = 0
        # The current run: its offset in ``data``, the index of its first
        # object in ``addresses``, and (``base``) its physical address.
        start = first = pos = 0
        try:
            for size in sizes:
                if size > room:
                    if pos > start:
                        run = data[start:pos], addresses[first:]
                        start, first = pos, len(addresses)
                        self._commit(*run)
                    chunk = self._open_chunk(size)
                    base, room = chunk.physical_start, chunk.capacity
                add(base + (pos - start))
                room -= size
                pos += size
        finally:
            if pos > start:
                self._commit(data[start:pos], addresses[first:])
        return addresses

    def _open_chunk(self, size: int) -> Chunk:
        capacity = max(self.chunk_size, size)
        physical = self.heap.reserve_raw_old(capacity)
        chunk = Chunk(
            physical_start=physical,
            capacity=capacity,
            logical_start=self._logical_cursor,
        )
        self.chunks.append(chunk)
        self._starts_index.append(chunk.logical_start)
        return chunk

    def _commit(self, data, addresses: Sequence[int]) -> None:
        chunk = self.chunks[-1]
        size = len(data)
        self.heap.write_bytes(chunk.physical_start + chunk.filled, data)
        chunk.filled += size
        self._logical_cursor += size
        self.total_bytes += size
        self.heap.register_objects(addresses)
        self.placed_objects.extend(addresses)

    def freeze(self) -> None:
        """End of stream: no more placements; translation becomes legal."""
        self._frozen = True

    @property
    def is_frozen(self) -> bool:
        return self._frozen

    # ------------------------------------------------------------------
    # address translation (the §4.3 chunk arithmetic)
    # ------------------------------------------------------------------

    def translate(self, logical: int) -> int:
        """Absolute heap address for a relativized reference."""
        if not self._frozen:
            raise InputBufferError(
                "translation before end-of-stream (computation on a buffer "
                "being streamed into must block, paper §4.3)"
            )
        if logical < LOGICAL_BASE or logical >= self._logical_cursor:
            raise InputBufferError(
                f"relative address {logical:#x} outside buffer "
                f"[{LOGICAL_BASE:#x}, {self._logical_cursor:#x})"
            )
        # Absolutization scans objects in logical order, so consecutive
        # lookups overwhelmingly hit the same chunk — check it first.
        chunk = self._last_chunk
        if chunk is not None:
            offset = logical - chunk.logical_start
            if 0 <= offset < chunk.filled:
                return chunk.physical_start + offset
        i = bisect.bisect_right(self._starts_index, logical) - 1
        chunk = self.chunks[i]
        offset = logical - chunk.logical_start
        if offset >= chunk.filled:
            raise InputBufferError(
                f"relative address {logical:#x} falls in chunk {i} padding"
            )
        self._last_chunk = chunk
        return chunk.physical_start + offset

    # ------------------------------------------------------------------
    # release
    # ------------------------------------------------------------------

    def release(self) -> bool:
        """Give the chunks' space back to the old generation, when nothing
        can reach the buffer any more (its roots were never exposed).

        Only a reservation that is contiguous and is still the top of the
        old generation can be rolled back (the steady state of back-to-back
        non-retained receives: nothing else was reserved or promoted since).
        Otherwise the buffer is left as it is and ``False`` is returned.
        On success the buffer is empty and frozen.
        """
        chunks = self.chunks
        if not chunks:
            return False
        for lower, upper in zip(chunks, chunks[1:]):
            if (lower.physical_start + align_up(lower.capacity, OBJECT_ALIGNMENT)
                    != upper.physical_start):
                return False
        last = chunks[-1]
        end = last.physical_start + align_up(last.capacity, OBJECT_ALIGNMENT)
        if end != self.heap.old.top:
            return False
        self.heap.release_raw_old(chunks[0].physical_start)
        self.chunks = []
        self.placed_objects = []
        self._starts_index = []
        self._last_chunk = None
        self._logical_cursor = LOGICAL_BASE
        self.total_bytes = 0
        self._frozen = True
        return True

    @property
    def logical_size(self) -> int:
        return self._logical_cursor - LOGICAL_BASE

    def __len__(self) -> int:
        return len(self.placed_objects)
