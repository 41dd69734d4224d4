"""Position-independent digest of a received object graph.

The acceptance check for the socket transport is that a graph round-tripped
driver -> worker over loopback is *byte-identical* to the in-process
receive path: same input-buffer contents, same restored klass and pointer
words.  Raw heap bytes can't be compared directly across processes — klass
words hold loader-assigned klass IDs and pointers hold physical addresses,
both of which depend on local allocation history — so the digest
normalizes exactly those two word kinds:

* each object contributes its class *name* (not the klass word);
* each reference word is translated back to its buffer-*logical* offset
  (the coordinate system the wire format itself uses);
* everything else — mark words with their preserved hashcodes, primitive
  fields, array payloads, padding — is hashed as-is.

Two receivers that placed and absolutized the same stream produce the same
digest, whatever their heaps looked like beforehand.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Optional, Sequence, Tuple

from repro.core.kernels import (
    LENGTH_STRUCT,
    ReceiveKernel,
    WORD_STRUCT,
    receive_kernel_for,
    ref_run_struct,
)
from repro.core.receiver import ObjectGraphReceiver
from repro.heap.layout import KLASS_OFFSET
from repro.jvm.jvm import JVM

_unpack_word = WORD_STRUCT.unpack_from
_pack_word = WORD_STRUCT.pack_into
_unpack_length = LENGTH_STRUCT.unpack_from


class _KlassMemo(dict):
    """klass word -> ``(kernel, name bytes, name + size prefix)``.

    The digests resolve each class once, not once per object: the receive
    kernel carries the size, the array geometry and the compiled
    pointer-slot unpack; the prefix (``None`` for arrays, whose size
    varies) is the per-object hash input ahead of the image.
    """

    def __init__(self, jvm: JVM) -> None:
        super().__init__()
        self._heap = jvm.heap
        self._cost = jvm.cost_model

    def __missing__(self, word: int) -> Tuple[ReceiveKernel, bytes, Optional[bytes]]:
        klass = self._heap.resolve_klass(word)
        kernel = receive_kernel_for(klass, self._heap.layout, self._cost)
        name = klass.name.encode("utf-8")
        prefix = None if kernel.is_array else name + _size_bytes(kernel.size)
        entry = self[word] = (kernel, name, prefix)
        return entry


def _size_bytes(size: int) -> bytes:
    return size.to_bytes(8, "little")


def graph_digest(jvm: JVM, receiver: ObjectGraphReceiver) -> str:
    """SHA-256 over the received buffer in logical coordinates.

    Reads the placed heap after absolutization (not the wire bytes), one
    copy per chunk: the klass and pointer words of the objects in the copy
    are normalized in place, and a pointer's chunk is found by bisecting
    the chunks' physical starts.
    """
    heap = jvm.heap
    buffer = receiver.buffer
    spans = sorted(
        (chunk.physical_start, chunk.filled, chunk.logical_start)
        for chunk in buffer.chunks
    )
    starts = [span[0] for span in spans]
    bisect_right = bisect.bisect_right

    def to_logical(pointer: int) -> int:
        i = bisect_right(starts, pointer) - 1
        if i >= 0:
            physical, filled, logical = spans[i]
            if pointer - physical < filled:
                return logical + (pointer - physical)
        raise ValueError(
            f"pointer {pointer:#x} leads outside the input buffer"
        )

    memory = heap.memory_view
    klasses = _KlassMemo(jvm)
    length_offset = heap.layout.array_length_offset
    digest = hashlib.sha256()
    update = digest.update
    lo = hi = 0  # physical span of the current chunk copy
    image = view = None
    for address in buffer.placed_objects:
        if not lo <= address < hi:
            # Normalizing an object touches only its own bytes of the
            # copy, so a fresh copy per chunk switch is always correct.
            lo, filled, _ = spans[bisect_right(starts, address) - 1]
            hi = lo + filled
            if not lo <= address < hi:
                raise ValueError(
                    f"placed object {address:#x} lies outside every chunk"
                )
            j = heap.index_of(lo, filled)
            image = bytearray(memory[j:j + filled])
            view = memoryview(image)
        o = address - lo
        kernel, name, prefix = klasses[_unpack_word(image, o + KLASS_OFFSET)[0]]
        _pack_word(image, o + KLASS_OFFSET, 0)
        if prefix is None:
            length = _unpack_length(image, o + length_offset)[0]
            size = kernel.array_size(length)
            prefix = name + _size_bytes(size)
            if kernel.has_ref_elements and length:
                run = ref_run_struct(length)
                j = o + kernel.elem_base
                run.pack_into(image, j, *[
                    to_logical(v) if v else 0 for v in run.unpack_from(image, j)
                ])
        else:
            size = kernel.size
            if kernel.ref_unpack is not None:
                values = kernel.ref_unpack.unpack_from(image, o)
                for slot, pointer in zip(kernel.ref_offsets, values):
                    if pointer:
                        _pack_word(image, o + slot, to_logical(pointer))
        if address + size > hi:
            raise ValueError(
                f"object {address:#x} of {size} bytes overruns its chunk"
            )
        update(prefix)
        update(view[o:o + size])
    return digest.hexdigest()


def semantic_graph_digest(jvm: JVM, roots: Sequence[int]) -> str:
    """SHA-256 over the object graph *reachable from roots*, in traversal
    coordinates.

    :func:`graph_digest` hashes a received input buffer in placement order,
    which ties it to one receive event: a heap patched in place by delta
    epochs has no placement order matching a hypothetical fresh full
    receive.  This digest instead canonicalizes by a deterministic BFS from
    the given roots — every address maps to its visit index, so two heaps
    holding semantically identical graphs (same classes, same primitive
    bytes, same shape) digest identically regardless of where or in what
    order their objects were placed, or which epochs built them.

    Normalized per object: the mark word (hashcodes differ per allocation
    history), the klass word (hashed as the class *name*), the ``baddr``
    word if the layout carries one (sender-side scratch state), and every
    reference word (rewritten to the referent's visit index; 0 for null).

    One pass: an object is hashed as soon as it is visited, because its
    visit already numbered every object it points to.
    """
    heap = jvm.heap
    layout = heap.layout
    # The header words are exactly the mark, klass and (if any) baddr
    # words: one slice blanks all three.
    header = layout.header_size
    blank = bytes(header)
    memory = heap.memory_view
    index_of = heap.index_of
    klasses = _KlassMemo(jvm)
    length_offset = layout.array_length_offset
    index: Dict[int, int] = {}
    queue: list = []
    for root in roots:
        if root and root not in index:
            queue.append(root)
            index[root] = len(queue)

    digest = hashlib.sha256()
    update = digest.update
    update(len(roots).to_bytes(8, "little"))
    for root in roots:
        update(index.get(root, 0).to_bytes(8, "little"))
    for address in queue:  # grows while it is walked: the BFS
        i = index_of(address, KLASS_OFFSET + 8)
        kernel, name, prefix = klasses[_unpack_word(memory, i + KLASS_OFFSET)[0]]
        if prefix is None:
            length = _unpack_length(memory, i + length_offset)[0]
            size = kernel.array_size(length)
            prefix = name + _size_bytes(size)
        else:
            size = kernel.size
            length = 0
        i = index_of(address, size)
        image = bytearray(memory[i:i + size])
        image[:header] = blank
        if kernel.ref_unpack is not None:
            slots = kernel.ref_offsets
            values = kernel.ref_unpack.unpack_from(image)
        elif kernel.has_ref_elements and length:
            base = kernel.elem_base
            slots = range(base, base + 8 * length, 8)
            values = ref_run_struct(length).unpack_from(image, base)
        else:
            slots = values = ()
        for slot, target in zip(slots, values):
            if target:
                visit = index.get(target)
                if visit is None:
                    queue.append(target)
                    visit = index[target] = len(queue)
                _pack_word(image, slot, visit)
        update(prefix)
        update(image)
    return digest.hexdigest()
