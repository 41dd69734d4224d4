"""Error-path tests for the Skyway receive side."""

import pytest

from repro.core.receiver import ObjectGraphReceiver, ReceiveError
from repro.core.runtime import attach_skyway
from repro.core.streams import SkywayObjectInputStream, SkywayObjectOutputStream
from repro.core.input_buffer import InputBuffer, InputBufferError
from repro.core.output_buffer import LOGICAL_BASE
from repro.heap.heap import OutOfMemoryError
from repro.jvm.jvm import JVM
from repro.transport.digest import graph_digest

from tests.conftest import make_date, make_list


@pytest.fixture
def pair(classpath):
    src = JVM("err-src", classpath=classpath)
    dst = JVM("err-dst", classpath=classpath)
    attach_skyway(src, [dst])
    return src, dst


def sent_segments(src, roots):
    src.skyway.shuffle_start()
    sender = src.skyway.new_sender("p", fresh_buffer=True)
    for root in roots:
        sender.write_object(root)
    sender.buffer.flush()
    return sender.buffer.drain_segments(), sender.top_marks


class TestReceiverErrors:
    def test_truncated_header(self, pair):
        src, dst = pair
        segments, _ = sent_segments(src, [make_date(src, 1, 1, 1)])
        receiver = dst.skyway.new_receiver()
        with pytest.raises(ReceiveError, match="truncated"):
            receiver.feed(b"".join(segments)[:10])

    def test_object_overruns_segment(self, pair):
        src, dst = pair
        segments, _ = sent_segments(src, [make_date(src, 1, 1, 1)])
        data = b"".join(segments)
        receiver = dst.skyway.new_receiver()
        with pytest.raises(ReceiveError, match="overruns"):
            receiver.feed(data[:-16])

    def test_unknown_tid_rejected(self, pair):
        src, dst = pair
        segments, marks = sent_segments(src, [make_date(src, 1, 1, 1)])
        data = bytearray(b"".join(segments))
        data[8:16] = (10**6).to_bytes(8, "little")  # garbage tID
        receiver = dst.skyway.new_receiver()
        with pytest.raises(Exception):
            receiver.feed(bytes(data))

    def test_feed_after_finish(self, pair):
        src, dst = pair
        segments, marks = sent_segments(src, [make_date(src, 1, 1, 1)])
        receiver = dst.skyway.new_receiver()
        for seg in segments:
            receiver.feed(seg)
        receiver.finish(marks)
        with pytest.raises(ReceiveError):
            receiver.feed(segments[0])

    def test_double_finish(self, pair):
        src, dst = pair
        segments, marks = sent_segments(src, [make_date(src, 1, 1, 1)])
        receiver = dst.skyway.new_receiver()
        for seg in segments:
            receiver.feed(seg)
        receiver.finish(marks)
        with pytest.raises(ReceiveError):
            receiver.finish(marks)

    def test_out_of_memory_mid_segment_places_each_object_once(
            self, classpath):
        src = JVM("oom-src", classpath=classpath)
        dst = JVM("oom-dst", classpath=classpath, old_bytes=2048)
        attach_skyway(src, [dst], input_chunk_size=256)
        segments, _ = sent_segments(src, [make_list(src, range(200))])
        receiver = dst.skyway.new_receiver()
        with pytest.raises(OutOfMemoryError):
            for seg in segments:
                receiver.feed(seg)
        placed = receiver.buffer.placed_objects
        assert 0 < len(placed) == receiver.objects_received < 200
        assert dst.heap.old.object_starts == placed

    def test_bad_top_mark(self, pair):
        src, dst = pair
        segments, _ = sent_segments(src, [make_date(src, 1, 1, 1)])
        receiver = dst.skyway.new_receiver()
        for seg in segments:
            receiver.feed(seg)
        with pytest.raises(ReceiveError, match="top-mark"):
            receiver.finish([999_999])


class TestInputBufferErrors:
    def test_translate_before_freeze(self, jvm):
        buffer = InputBuffer(jvm.heap)
        with pytest.raises(InputBufferError, match="streamed"):
            buffer.translate(LOGICAL_BASE)

    def test_translate_out_of_range(self, jvm):
        buffer = InputBuffer(jvm.heap)
        buffer.freeze()
        with pytest.raises(InputBufferError, match="outside"):
            buffer.translate(LOGICAL_BASE + 4096)

    def test_place_after_freeze(self, pair):
        src, dst = pair
        segments, _ = sent_segments(src, [make_date(src, 1, 1, 1)])
        receiver = dst.skyway.new_receiver()
        receiver.buffer.freeze()
        with pytest.raises(InputBufferError, match="frozen"):
            receiver.feed(segments[0])
        assert len(receiver.buffer) == 0

    def test_tiny_chunk_size_rejected(self, jvm):
        with pytest.raises(ValueError):
            InputBuffer(jvm.heap, chunk_size=16)


class TestDigestErrors:
    def received(self, pair, root_of):
        src, dst = pair
        segments, marks = sent_segments(src, [root_of(src)])
        receiver = dst.skyway.new_receiver()
        for seg in segments:
            receiver.feed(seg)
        receiver.finish(marks)
        return dst, receiver

    def test_graph_digest_rejects_pointer_outside_buffer(self, pair):
        dst, receiver = self.received(pair, lambda jvm: make_date(jvm, 1, 2, 3))
        root = receiver.buffer.placed_objects[0]
        outside = make_date(dst, 4, 5, 6)  # a live object, not in the buffer
        dst.heap.write_word(root + dst.loader.load("Date").field("day").offset,
                            outside)
        with pytest.raises(ValueError, match="outside the input buffer"):
            graph_digest(dst, receiver)

    def test_graph_digest_rejects_array_element_outside_buffer(self, pair):
        def holder(jvm):
            arr = jvm.pin(jvm.new_array("Ljava.lang.Object;", 3))
            jvm.heap.write_element(arr.address, 1, make_date(jvm, 1, 1, 1))
            return arr.address

        dst, receiver = self.received(pair, holder)
        arr = receiver.buffer.placed_objects[0]
        past_end = receiver.buffer.chunks[-1].physical_start \
            + receiver.buffer.chunks[-1].filled
        dst.heap.write_word(arr + dst.heap.element_offset(
            dst.klass_of(arr), 2), past_end)
        with pytest.raises(ValueError, match="outside the input buffer"):
            graph_digest(dst, receiver)


class TestDriverRestart:
    def test_fresh_registry_after_restart_is_consistent(self, classpath):
        """Fault tolerance is the application's job (paper §4.1): after a
        crash the whole system restarts, including the Skyway driver; the
        fresh registry renumbers classes consistently cluster-wide."""
        src1 = JVM("s1", classpath=classpath)
        dst1 = JVM("d1", classpath=classpath)
        attach_skyway(src1, [dst1])
        tid_before = src1.loader.load("Date").tid

        # "Restart": new JVMs, new driver registry.
        src2 = JVM("s2", classpath=classpath)
        dst2 = JVM("d2", classpath=classpath)
        attach_skyway(src2, [dst2])
        out = SkywayObjectOutputStream(src2.skyway, destination="p")
        out.write_object(make_date(src2, 7, 8, 9))
        inp = SkywayObjectInputStream(dst2.skyway)
        inp.accept(out.close())
        received = inp.read_object()
        assert dst2.klass_of(received).name == "Date"
        # tIDs within the new session are consistent sender/receiver.
        assert src2.loader.load("Date").tid == dst2.loader.load("Date").tid
        assert tid_before is not None
