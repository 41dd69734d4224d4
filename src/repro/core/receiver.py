"""Receiving an object graph (paper §4.3).

"With the careful design on sending, the receiving logic is much simpler":

1. **Placement** (streaming): as segments arrive they are parsed object by
   object — the klass slot holds a tID, which the registry view resolves
   (loading the class if this JVM never saw it) to learn each object's size
   — and copied into in-heap input-buffer chunks.
2. **Absolutization** (after end-of-stream): one linear scan rewrites each
   object's tID back to the local klass pointer and each relativized
   reference to an absolute heap address via the chunk arithmetic.
3. **GC integration**: the freshly filled chunks are bulk-marked in the
   card table so the received pointers are visible to minor collections.
4. Registered **update functions** (paper §3.3's ``registerUpdate``) run
   against matching objects after the transfer.

Computation on a buffer must not start until its absolutization pass is
done; :class:`ObjectGraphReceiver` enforces that by only exposing roots
from :meth:`finish`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.input_buffer import InputBuffer, InputBufferError
from repro.core.kernels import (
    LENGTH_STRUCT,
    ReceiveKernel,
    WORD_STRUCT,
    receive_kernel_for,
    ref_run_struct,
)
from repro.core.type_registry import RegistryView
from repro.heap.handles import Handle
from repro.heap.heap import NULL
from repro.heap.layout import KLASS_OFFSET
from repro.jvm.jvm import JVM

#: An update hook: (jvm, object_address) -> new field value.
UpdateFunction = Callable[[JVM, int], object]


#: Bytes of an object that must be present to read its tID.
_HEADER_END = KLASS_OFFSET + 8


class ReceiveError(RuntimeError):
    pass


class ObjectGraphReceiver:
    """One receiving stream: segments in, absolutized heap objects out."""

    def __init__(
        self,
        jvm: JVM,
        registry_view: RegistryView,
        chunk_size: int = 64 * 1024,
        update_functions: Optional[Dict[str, List[Tuple[str, UpdateFunction]]]] = None,
    ) -> None:
        self.jvm = jvm
        self.view = registry_view
        self.buffer = InputBuffer(jvm.heap, chunk_size=chunk_size)
        self._update_functions = update_functions or {}
        #: Per-receiver tID -> compiled receive kernel memo: the registry
        #: view and class loader are consulted once per class, not once per
        #: object (the old per-object ``name_for`` + ``loader.load`` pair
        #: dominated placement time for homogeneous streams).
        self._kernels: Dict[int, ReceiveKernel] = {}
        #: The receive kernel of each placed object, parallel to
        #: ``buffer.placed_objects`` (logical order).
        self._placed_kernels: List[ReceiveKernel] = []
        self._finished = False
        self.objects_received = 0
        self.bytes_received = 0

    # ------------------------------------------------------------------
    # streaming placement
    # ------------------------------------------------------------------

    def feed(self, segment: bytes) -> None:
        """Parse and place one flushed segment (whole objects only).

        The size walk visits every object — its tID resolves to a receive
        kernel, which gives the size — and checks every header and size
        against the segment; the walked objects then go into the buffer
        with :meth:`InputBuffer.place_objects`, one slice per run.
        """
        if self._finished:
            raise ReceiveError("stream already finished")
        kernels = self._kernels
        memcpy = self.jvm.cost_model.memcpy
        unpack_word = WORD_STRUCT.unpack_from
        unpack_length = LENGTH_STRUCT.unpack_from
        view = memoryview(segment)
        n = len(segment)
        # The walked objects not yet placed: they start at segment offset
        # ``start``, with their sizes, kernels and copy charges.
        start = pos = 0
        sizes: List[int] = []
        walked: List[ReceiveKernel] = []
        charges: List[float] = []
        try:
            while pos < n:
                if pos + _HEADER_END > n:
                    raise ReceiveError(
                        f"truncated object header at segment offset {pos}"
                    )
                tid = unpack_word(segment, pos + KLASS_OFFSET)[0]
                kernel = kernels.get(tid)
                if kernel is None:
                    if tid == 0:
                        raise ReceiveError(
                            f"null tID at segment offset {pos} (object "
                            f"#{self.objects_received + len(sizes)} of "
                            f"the stream)"
                        )
                    # A class load may charge the clock: settle the
                    # objects before it first, keeping the charge order.
                    batch = view[start:pos], sizes, walked, charges
                    start, sizes, walked, charges = pos, [], [], []
                    self._place(*batch)
                    kernel = receive_kernel_for(
                        self._klass_for_tid(tid), self.jvm.layout,
                        self.jvm.cost_model,
                    )
                    kernels[tid] = kernel
                size = kernel.size
                if size is None:
                    size = kernel.array_size(
                        unpack_length(segment, pos + kernel.length_offset)[0]
                    )
                    charge = memcpy(size)
                else:
                    charge = kernel.place_cost
                if pos + size > n:
                    raise ReceiveError(
                        f"object of {size} bytes overruns segment at {pos}"
                    )
                sizes.append(size)
                walked.append(kernel)
                charges.append(charge)
                pos += size
        except BaseException:
            # Everything walked before an error is placed, as if each
            # object had been placed on its own.
            self._place(view[start:pos], sizes, walked, charges)
            raise
        self._place(view[start:pos], sizes, walked, charges)

    def _place(self, data, sizes: List[int], walked: List[ReceiveKernel],
               charges: List[float]) -> None:
        """Place walked objects and charge their copies; if placement
        stops early (no room for a chunk), only the objects placed count."""
        if not sizes:
            return
        buffer = self.buffer
        before = len(buffer.placed_objects)
        try:
            buffer.place_objects(data, sizes)
        finally:
            placed = len(buffer.placed_objects) - before
            if placed < len(sizes):
                walked, charges = walked[:placed], charges[:placed]
                sizes = sizes[:placed]
            self._placed_kernels.extend(walked)
            self.objects_received += placed
            self.bytes_received += sum(sizes)
            self.jvm.clock.charge_each(charges)

    def _klass_for_tid(self, tid: int):
        """tID -> local klass, loading the class if it is missing here
        (paper: "Skyway instructs the class loader to load the missing
        class since the type registry knows the full class name")."""
        name = self.view.name_for(tid)
        return self.jvm.loader.load(name)

    # ------------------------------------------------------------------
    # absolutization
    # ------------------------------------------------------------------

    def finish(self, root_offsets: List[int]) -> List[Handle]:
        """End of stream: run the linear absolutization scan, update the
        card table, apply registered updates, and pin the top objects.

        The scan works on the heap's backing store directly: each chunk is
        bounds-checked once, then every object gets its klass word and
        relocated pointer slots through the kernel's compiled structs.
        """
        if self._finished:
            raise ReceiveError("stream already finished")
        self._finished = True
        buffer = self.buffer
        buffer.freeze()
        heap = self.jvm.heap
        cost = self.jvm.cost_model
        for kernel in self._kernels.values():
            if kernel.klass_id is None:  # pragma: no cover - loader invariant
                raise ReceiveError(f"klass {kernel.klass.name} not installed")
        for chunk in buffer.chunks:
            heap.index_of(chunk.physical_start, chunk.filled)

        memory = heap.memory_view
        base = heap.base
        translate = buffer.translate
        pack_word = WORD_STRUCT.pack_into
        unpack_length = LENGTH_STRUCT.unpack_from
        fixup = cost.skyway_pointer_fixup
        charges: List[float] = []
        charge = charges.append
        for address, kernel in zip(buffer.placed_objects, self._placed_kernels):
            i = address - base
            pack_word(memory, i + KLASS_OFFSET, kernel.klass_id)
            if kernel.is_array:
                slots = (
                    unpack_length(memory, i + kernel.length_offset)[0]
                    if kernel.has_ref_elements
                    else 0
                )
                if slots:
                    run = ref_run_struct(slots)
                    j = i + kernel.elem_base
                    run.pack_into(memory, j, *[
                        translate(v) if v else 0
                        for v in run.unpack_from(memory, j)
                    ])
                charge(kernel.object_cost + slots * fixup)
            else:
                if kernel.ref_unpack is not None:
                    values = kernel.ref_unpack.unpack_from(memory, i)
                    for slot, relative in zip(kernel.ref_offsets, values):
                        if relative:
                            pack_word(memory, i + slot, translate(relative))
                charge(kernel.finish_cost)

        # GC integration: make the new pointers card-table visible.
        for chunk in buffer.chunks:
            heap.card_table.mark_range(chunk.physical_start, chunk.filled)
            charge(cost.card_table_update)
        self.jvm.clock.charge_each(charges)

        self._apply_updates()
        return [self.jvm.pin(self._root_address(off)) for off in root_offsets]

    def _root_address(self, logical_offset: int) -> int:
        if logical_offset == 0:
            return NULL
        try:
            return self.buffer.translate(logical_offset)
        except InputBufferError as exc:
            raise ReceiveError(f"bad top-mark offset {logical_offset:#x}") from exc

    def _apply_updates(self) -> None:
        """Run ``registerUpdate`` hooks on matching received objects
        (paper §3.3: e.g. re-initializing a timestamp field)."""
        if not self._update_functions:
            return
        for address, kernel in zip(self.buffer.placed_objects,
                                   self._placed_kernels):
            hooks = self._update_functions.get(kernel.klass.name)
            if not hooks:
                continue
            for field_name, fn in hooks:
                self.jvm.set_field(address, field_name, fn(self.jvm, address))
