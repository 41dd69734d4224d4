"""Compiled per-class clone kernels (paper §4.2–4.3, batch-shaped).

Skyway's pitch is that a transfer costs "memcpy plus three fixups", yet an
interpreted sender pays per-object, per-field Python work: it recomputes
``heap.reference_offsets()`` for every clone, crosses several
``bytearray``/``bytes`` copies per payload, and the receiver re-resolves
tID → class name → klass for every placed object.  A *kernel* moves all of
that to class-load time: each :class:`~repro.heap.klass.Klass` compiles
once into an immutable :class:`CloneKernel` (sender side) and
:class:`ReceiveKernel` (receiver side) holding

* the reference-offset tuple and a cached :class:`struct.Struct` that
  unpacks every pointer slot in one call (pad bytes skip primitive
  fields — unpack only: ``pack_into`` would zero the pads, so writes go
  per slot);
* a cached header pack (mark word, tID, zeroed baddr) per layout;
* the fixed ``object_size`` for non-arrays, so placement is a dict hit
  plus one slice;
* an array fast path that relativizes/absolutizes reference arrays with
  one ``unpack_from``/``pack_into`` pair over ``"<nQ"`` instead of a
  per-element loop;
* the per-object simulated-time charge, pre-added so the clock is charged
  once per object (scaled by the non-null reference count) instead of
  once per pointer.

Kernels are cached on the klass itself and keyed by (tID, layout, cost
model): the transport's HELLO merge rewrites ``Klass.tid`` after late
class loads, which drops the stale kernel automatically (the ``tid``
setter clears the cache slot).
"""

from __future__ import annotations

import struct
from typing import Dict, Optional, Tuple

from repro.heap.klass import Klass
from repro.heap.layout import HeapLayout, OBJECT_ALIGNMENT, align_up

#: One little-endian word (per-slot pointer writes).
WORD_STRUCT = struct.Struct("<Q")

#: The 4-byte array length slot.
LENGTH_STRUCT = struct.Struct("<I")

#: Header packs: (mark, tID, baddr=0) for Skyway layouts, (mark, tID) for
#: baseline 16-byte headers.  MARK_OFFSET/KLASS_OFFSET/baddr are adjacent
#: words starting at offset 0, so one pack covers the whole header fixup.
HEADER3_STRUCT = struct.Struct("<QQQ")
HEADER2_STRUCT = struct.Struct("<QQ")

_ALIGN_MASK = OBJECT_ALIGNMENT - 1

#: Cached ``"<nQ"`` run structs for reference arrays, keyed by length.
_RUN_STRUCTS: Dict[int, struct.Struct] = {}
_RUN_STRUCT_CACHE_LIMIT = 4096


def ref_run_struct(count: int) -> struct.Struct:
    """The ``"<{count}Q"`` struct for a run of ``count`` pointer words."""
    cached = _RUN_STRUCTS.get(count)
    if cached is None:
        if len(_RUN_STRUCTS) >= _RUN_STRUCT_CACHE_LIMIT:
            _RUN_STRUCTS.clear()
        cached = struct.Struct(f"<{count}Q")
        _RUN_STRUCTS[count] = cached
    return cached


def _scattered_unpack(offsets: Tuple[int, ...]) -> Optional[struct.Struct]:
    """One Struct that unpacks every (8-byte) slot in ``offsets`` from the
    start of an object image, skipping the bytes between slots as pad.
    Unpack-only by construction — packing through pad bytes writes zeros.
    """
    if not offsets:
        return None
    parts = ["<"]
    cursor = 0
    for offset in offsets:
        gap = offset - cursor
        if gap:
            parts.append(f"{gap}x")
        parts.append("Q")
        cursor = offset + 8
    return struct.Struct("".join(parts))


class CloneKernel:
    """Sender-side compiled clone recipe for one class (homogeneous sends).

    Immutable after compilation; every mutable datum (array length, mark
    word, reference values) comes from the object image at clone time.
    """

    __slots__ = (
        "klass", "tid", "layout", "cost", "is_array", "has_ref_elements",
        "size", "ref_offsets", "n_refs", "ref_unpack", "header_struct",
        "elem_base", "elem_size", "base_cost", "array_header_bytes",
        "header_bytes", "pointer_bytes", "data_bytes", "padding_bytes",
    )

    def __init__(self, klass: Klass, layout: HeapLayout, cost) -> None:
        self.klass = klass
        self.tid = klass.tid
        self.layout = layout
        self.cost = cost
        self.is_array = klass.is_array
        self.has_ref_elements = klass.has_reference_elements
        self.header_struct = HEADER3_STRUCT if layout.has_baddr else HEADER2_STRUCT

        if self.is_array:
            elem = klass.element_descriptor or ""
            self.elem_base = layout.array_payload_offset(elem)
            self.elem_size = klass.element_size
            self.size = None
            self.ref_offsets = ()
            self.n_refs = 0
            self.ref_unpack = None
            self.base_cost = 0.0
            #: The length slot counts as header metadata (§5.2 accounting).
            self.array_header_bytes = layout.header_size + 4
            self.header_bytes = self.pointer_bytes = 0
            self.data_bytes = self.padding_bytes = 0
        else:
            self.elem_base = self.elem_size = 0
            self.array_header_bytes = 0
            self.size = klass.object_size()
            self.ref_offsets = klass.oop_offsets
            self.n_refs = len(self.ref_offsets)
            self.ref_unpack = _scattered_unpack(self.ref_offsets)
            self.base_cost = (
                cost.skyway_header_fixup
                + cost.memcpy(self.size)
                + self.n_refs * cost.skyway_pointer_fixup
            )
            # §5.2 byte-composition constants, precomputed per class.
            self.header_bytes = layout.header_size
            self.pointer_bytes = 8 * self.n_refs
            self.data_bytes = sum(
                f.size for f in klass.all_fields() if not f.is_reference
            )
            self.padding_bytes = max(
                0,
                self.size - self.header_bytes - self.pointer_bytes
                - self.data_bytes,
            )

    def array_size(self, length: int) -> int:
        """Total byte size of an array instance (non-arrays use ``size``)."""
        return align_up(
            self.elem_base + self.elem_size * length, OBJECT_ALIGNMENT
        )

    def array_cost(self, size: int, n_refs: int) -> float:
        """Per-object charge for an array clone of ``size`` bytes with
        ``n_refs`` pointer slots (null or not)."""
        return (
            self.cost.skyway_header_fixup
            + self.cost.memcpy(size)
            + n_refs * self.cost.skyway_pointer_fixup
        )


def clone_kernel_for(klass: Klass, layout: HeapLayout, cost) -> CloneKernel:
    """The (possibly cached) clone kernel for ``klass`` under ``layout``.

    Recompiles when the cached kernel went stale: a tID rewrite (the
    transport's HELLO merge), a different layout, or a different cost
    model (ablation benches scale constants).
    """
    kernel = klass.clone_kernel
    if (
        kernel is not None
        and kernel.tid == klass.tid
        and kernel.layout is layout
        and kernel.cost is cost
    ):
        return kernel
    kernel = CloneKernel(klass, layout, cost)
    klass.clone_kernel = kernel
    return kernel


class ReceiveKernel:
    """Receiver-side compiled placement/absolutization recipe for one tID."""

    __slots__ = (
        "klass", "klass_id", "layout", "cost", "is_array",
        "has_ref_elements", "size", "length_offset", "elem_base",
        "elem_size", "ref_offsets", "n_refs", "ref_unpack", "finish_cost",
        "object_cost", "place_cost",
    )

    def __init__(self, klass: Klass, layout: HeapLayout, cost) -> None:
        self.klass = klass
        self.klass_id = klass.klass_id
        self.layout = layout
        self.cost = cost
        self.is_array = klass.is_array
        self.has_ref_elements = klass.has_reference_elements
        self.length_offset = layout.array_length_offset
        #: Per-object share of the linear scan (size decode + klass patch).
        self.object_cost = cost.skyway_receive_object
        if self.is_array:
            elem = klass.element_descriptor or ""
            self.elem_base = layout.array_payload_offset(elem)
            self.elem_size = klass.element_size
            self.size = None
            self.ref_offsets = ()
            self.n_refs = 0
            self.ref_unpack = None
            self.finish_cost = self.object_cost
            self.place_cost = None
        else:
            self.elem_base = self.elem_size = 0
            self.size = klass.object_size()
            self.ref_offsets = klass.oop_offsets
            self.n_refs = len(self.ref_offsets)
            self.ref_unpack = _scattered_unpack(self.ref_offsets)
            self.finish_cost = (
                self.object_cost + self.n_refs * cost.skyway_pointer_fixup
            )
            #: The placement copy's charge (arrays compute it per object).
            self.place_cost = cost.memcpy(self.size)

    def array_size(self, length: int) -> int:
        # align_up inlined: the receive walk and the digests size every
        # array through here.
        return (self.elem_base + self.elem_size * length + _ALIGN_MASK) \
            & ~_ALIGN_MASK


def receive_kernel_for(klass: Klass, layout: HeapLayout, cost) -> ReceiveKernel:
    """The (possibly cached) receive kernel for ``klass``."""
    kernel = klass.receive_kernel
    if (
        kernel is not None
        and kernel.klass_id == klass.klass_id
        and kernel.layout is layout
        and kernel.cost is cost
    ):
        return kernel
    kernel = ReceiveKernel(klass, layout, cost)
    klass.receive_kernel = kernel
    return kernel
