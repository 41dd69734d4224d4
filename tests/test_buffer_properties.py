"""Property-based tests on the buffer pair: relativize/absolutize are exact
inverses under random object sizes, chunk sizes, and flush patterns."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.input_buffer import InputBuffer
from repro.core.output_buffer import LOGICAL_BASE, OutputBuffer
from repro.heap.layout import OBJECT_ALIGNMENT, align_up
from repro.jvm.jvm import JVM
from repro.types.corelib import standard_classpath

_SETTINGS = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class TestOutputBufferProperties:
    @_SETTINGS
    @given(sizes=st.lists(st.integers(min_value=24, max_value=400),
                          min_size=1, max_size=40),
           capacity=st.integers(min_value=64, max_value=2048))
    def test_logical_space_is_dense_and_aligned(self, sizes, capacity):
        buf = OutputBuffer("d", capacity=capacity, sink=lambda s: None)
        expected = LOGICAL_BASE
        for size in sizes:
            addr = buf.reserve(size)
            assert addr == expected
            assert addr % OBJECT_ALIGNMENT == 0
            expected += align_up(size, OBJECT_ALIGNMENT)
        assert buf.logical_size == expected - LOGICAL_BASE

    @_SETTINGS
    @given(sizes=st.lists(st.integers(min_value=24, max_value=300),
                          min_size=1, max_size=30),
           capacity=st.integers(min_value=512, max_value=4096))
    def test_segments_concatenate_to_logical_image(self, sizes, capacity):
        segments = []
        buf = OutputBuffer("d", capacity=capacity, sink=segments.append)
        payloads = []
        for i, size in enumerate(sizes):
            aligned = align_up(size, OBJECT_ALIGNMENT)
            payload = bytes([i % 251]) * aligned
            addr = buf.reserve(size)
            buf.write_object(addr, payload)
            payloads.append(payload)
        buf.flush()
        assert b"".join(segments) == b"".join(payloads)


def long_array_image(jvm, klass, length):
    """Fabricate the wire image of a long[length] object."""
    payload = bytearray(klass.object_size(length))
    payload[8:16] = (klass.klass_id or 0).to_bytes(8, "little")
    offset = jvm.layout.array_length_offset
    payload[offset:offset + 4] = length.to_bytes(4, "little")
    return bytes(payload)


class TestPlacementTranslationInverse:
    @_SETTINGS
    @given(lengths=st.lists(st.integers(min_value=0, max_value=200),
                            min_size=1, max_size=25),
           chunk_size=st.integers(min_value=256, max_value=4096))
    def test_translate_inverts_placement(self, lengths, chunk_size):
        """Placing sender-ordered objects then translating each object's
        logical address yields exactly its physical placement address."""
        jvm = JVM("buf-prop", classpath=standard_classpath(),
                  old_bytes=8 * 1024 * 1024)
        long_array = jvm.loader.load("[J")
        buffer = InputBuffer(jvm.heap, chunk_size=chunk_size)

        payloads = [long_array_image(jvm, long_array, n) for n in lengths]
        physical = buffer.place_objects(b"".join(payloads),
                                        [len(p) for p in payloads])
        logical = LOGICAL_BASE
        expected = []  # (logical address, physical address)
        for payload, address in zip(payloads, physical):
            expected.append((logical, address))
            logical += align_up(len(payload), OBJECT_ALIGNMENT)

        buffer.freeze()
        for logical_addr, physical_addr in expected:
            assert buffer.translate(logical_addr) == physical_addr

    @_SETTINGS
    @given(lengths=st.lists(st.integers(min_value=0, max_value=50),
                            min_size=2, max_size=15))
    def test_interior_offsets_translate_too(self, lengths):
        """Relative addresses inside an object (never produced by the
        sender, but exercised for the arithmetic) map into the same
        object's body."""
        jvm = JVM("buf-prop2", classpath=standard_classpath(),
                  old_bytes=8 * 1024 * 1024)
        long_array = jvm.loader.load("[J")
        buffer = InputBuffer(jvm.heap, chunk_size=512)
        payloads = [long_array_image(jvm, long_array, n) for n in lengths]
        placements = []
        logical = LOGICAL_BASE
        physical = buffer.place_objects(b"".join(payloads),
                                        [len(p) for p in payloads])
        for payload, phys in zip(payloads, physical):
            placements.append((logical, phys, len(payload)))
            logical += align_up(len(payload), OBJECT_ALIGNMENT)
        buffer.freeze()
        for logical_addr, phys, size in placements:
            probe = min(size - 8, 8)
            assert buffer.translate(logical_addr + probe) == phys + probe
