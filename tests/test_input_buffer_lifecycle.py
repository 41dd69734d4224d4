"""Tests for input-buffer retention/free semantics (paper §3.2)."""

import pytest

from repro.core.runtime import attach_skyway
from repro.core.streams import SkywayObjectInputStream, SkywayObjectOutputStream
from repro.jvm.jvm import JVM

from tests.conftest import make_list, read_list


@pytest.fixture
def pair(classpath):
    src = JVM("src", classpath=classpath)
    dst = JVM("dst", classpath=classpath,
              young_bytes=64 * 1024, old_bytes=2 * 1024 * 1024)
    attach_skyway(src, [dst])
    return src, dst


def receive_one(src, dst, payload):
    src.skyway.shuffle_start()
    out = SkywayObjectOutputStream(src.skyway, destination="peer")
    out.write_object(make_list(src, payload))
    inp = SkywayObjectInputStream(dst.skyway)
    inp.accept(out.close())
    return inp


class TestRetention:
    def test_buffers_retained_until_freed(self, pair):
        src, dst = pair
        streams = [receive_one(src, dst, range(20)) for _ in range(3)]
        assert dst.skyway.retained_input_buffers == 3
        assert dst.skyway.retained_input_bytes() > 0
        streams[0].close()
        assert dst.skyway.retained_input_buffers == 2

    def test_retained_buffer_survives_full_gc(self, pair):
        src, dst = pair
        stream = receive_one(src, dst, list(range(30)))
        dst.gc.full()
        assert read_list(dst, stream.read_object()) == list(range(30))

    def test_freed_buffer_reclaimed_by_full_gc(self, pair):
        src, dst = pair
        stream = receive_one(src, dst, list(range(200)))
        dst.gc.full()
        retained = dst.heap.old.used
        stream.close()  # the explicit free API
        dst.gc.full()
        assert dst.heap.old.used < retained

    def test_double_free_is_safe(self, pair):
        src, dst = pair
        stream = receive_one(src, dst, [1, 2, 3])
        stream.close()
        stream.close()
        assert dst.skyway.retained_input_buffers == 0

    def test_many_rounds_without_free_accumulate(self, pair):
        """Spark caches all RDDs in memory, so Skyway keeps all input
        buffers (paper §3.2) — retention grows per round."""
        src, dst = pair
        for i in range(5):
            receive_one(src, dst, range(10))
        assert dst.skyway.retained_input_buffers == 5


class TestFreeErrors:
    def test_free_unknown_token_raises_key_error(self, pair):
        src, dst = pair
        with pytest.raises(KeyError):
            dst.skyway.free_input_buffer(10_000)

    def test_direct_double_free_raises_key_error(self, pair):
        """The stream's close() is idempotent, but the runtime API itself
        is strict: freeing a token twice is a caller bug."""
        src, dst = pair
        stream = receive_one(src, dst, [1, 2, 3])
        token = stream.buffer_token
        dst.skyway.free_input_buffer(token)
        with pytest.raises(KeyError):
            dst.skyway.free_input_buffer(token)

    def test_extend_roots_unknown_token_raises(self, pair):
        src, dst = pair
        with pytest.raises(KeyError):
            dst.skyway.extend_input_buffer_roots(10_000, [])


# ---------------------------------------------------------------------------
# non-retained worker receives give their chunks back
# ---------------------------------------------------------------------------

def worker_and_graph(old_bytes, vertices):
    """An in-process worker server and the framed stream of a vertex graph
    built on a driver runtime, encoded after the HELLO merge both sides
    compute."""
    from repro.apps.incremental import build_vertex_graph
    from repro.transport import registry_sync
    from repro.transport.bootstrap import build_runtime
    from repro.transport.testing import SAMPLE_FACTORY, ring_edges
    from repro.transport.worker import WorkerServer, WorkerSpec

    server = WorkerServer(WorkerSpec(
        name="release-worker", classpath_factory=SAMPLE_FACTORY,
        old_bytes=old_bytes,
    ))
    driver = build_runtime("release-driver", SAMPLE_FACTORY)
    root = driver.jvm.pin(build_vertex_graph(
        driver.jvm, ring_edges(vertices, extra_chords=vertices)))
    driver_map = driver.view.snapshot()
    merged = registry_sync.merge_registries(driver_map, registry_sync.extra_names(
        server.runtime.view.snapshot(), driver_map))
    registry_sync.install_merged(server.runtime, merged)
    registry_sync.install_merged(driver, merged)
    driver.shuffle_start()
    out = SkywayObjectOutputStream(driver, destination="worker")
    out.write_object(root.address)
    return server, out.close()


def recv_graph(server, data, retain=False):
    decoder = server.start_recv_graph()
    decoder.feed(data)
    return server.complete_recv_graph(decoder, len(data), retain=retain)


class TestNonRetainedRelease:
    def test_many_more_sends_than_the_old_generation_holds(self):
        server, data = worker_and_graph(512 * 1024, vertices=600)
        heap = server.runtime.jvm.heap
        sends = 12 * heap.old.capacity // len(data)
        assert sends >= 40
        digests, starts, tops, cards = set(), set(), set(), set()
        for _ in range(sends):
            result = recv_graph(server, data)
            digests.add(result["digest"])
            starts.add(len(heap.old.object_starts))
            tops.add(heap.old.top)
            cards.add(heap.card_table.dirty_count)
        assert len(digests) == 1
        assert len(starts) == len(tops) == len(cards) == 1
        assert server.runtime.retained_input_buffers == 0

    def test_retained_receive_keeps_its_chunks(self):
        server, data = worker_and_graph(4 * 1024 * 1024, vertices=200)
        old = server.runtime.jvm.heap.old
        top = old.top
        recv_graph(server, data, retain=True)
        assert old.top > top
        assert server.runtime.retained_input_buffers == 1

    def test_release_refuses_a_buffer_below_the_top(self, pair):
        src, dst = pair
        stream = receive_one(src, dst, range(50))
        buffer = stream.receiver.buffer
        dst.heap.reserve_raw_old(64)  # someone else's reservation above
        top = dst.heap.old.top
        stream.close()
        assert buffer.release() is False
        assert dst.heap.old.top == top
        assert read_list(dst, stream.receiver.buffer.placed_objects[0]) \
            == list(range(50))
