"""Receive-side parity: placed bytes, digests and simulated-clock totals.

Every value in ``EXPECTED`` was recorded from the per-object receive path
(one ``InputBuffer.place`` per object, one bounds-checked ``pack_into`` per
pointer slot, one ``SimClock.charge`` per object).  The compiled receive
path must reproduce each of them exactly: the same bytes in every placed
chunk, the same position-independent and semantic digests, and simulated
clock totals equal under ``==`` (charges are folded in the original order,
so not even the last float bit may move).

Chunk hashes cover raw heap bytes, which hold absolute pointers and klass
IDs; both come from process-wide counters, so each case restarts them to
get the address space a fresh process would have.
"""

import hashlib
import itertools
import random

import pytest

from repro.core.runtime import attach_skyway
from repro.core.streams import SkywayObjectInputStream, SkywayObjectOutputStream
from repro.delta import DeltaReceiveEndpoint, DeltaSendChannel
from repro.heap import heap as heap_module
from repro.jvm.jvm import JVM
from repro.simtime.clock import Category
from repro.transport.digest import graph_digest, semantic_graph_digest
from repro.types.loader import ClassLoader

from tests.conftest import make_date, make_list, sample_classpath


def _pair(**runtime_kwargs):
    src = JVM("parity-src", classpath=sample_classpath())
    dst = JVM("parity-dst", classpath=sample_classpath())
    attach_skyway(src, [dst], **runtime_kwargs)
    return src, dst


def _ref_array(jvm, rng, length, null_every):
    arr = jvm.pin(jvm.new_array("Ljava.lang.Object;", length))
    for i in range(length):
        if i % null_every:
            date = make_date(jvm, rng.randrange(3000), rng.randrange(13),
                             rng.randrange(32))
            jvm.heap.write_element(arr.address, i, date)
    return arr


def _build(case, src, rng):
    """Pinned roots of one matrix case, built on ``src``."""
    if case == "ref-arrays-with-nulls":
        outer = _ref_array(src, rng, 9, 3)
        inner = _ref_array(src, rng, 17, 4)
        src.heap.write_element(outer.address, 0, inner.address)
        return [outer, src.pin(make_date(src, 1, 2, 3))]
    if case == "primitive-arrays":
        roots = []
        for desc, n in (("J", 33), ("I", 7), ("B", 13), ("D", 5), ("C", 21),
                        ("Z", 3), ("S", 0)):
            arr = src.pin(src.new_array(desc, n))
            for i in range(n):
                if desc == "D":
                    value = rng.uniform(-1e6, 1e6)
                elif desc == "Z":
                    value = rng.random() < 0.5
                elif desc in "BS":
                    value = rng.randrange(-100, 100)
                else:
                    value = rng.randrange(0, 60000)
                src.heap.write_element(arr.address, i, value)
            roots.append(arr)
        return roots
    if case == "oversized-object":
        big = src.pin(src.new_array("J", 200))  # 1.6 KB > 512 B chunks
        for i in range(200):
            src.heap.write_element(big.address, i, rng.randrange(2**40))
        holder = _ref_array(src, rng, 4, 2)
        src.heap.write_element(holder.address, 0, big.address)
        return [src.pin(make_list(src, range(5))), holder, big]
    if case in ("split-runs", "compact-headers", "full-epoch"):
        payloads = [rng.randrange(2**31) for _ in range(160)]
        roots = [src.pin(make_list(src, payloads))]
        for _ in range(12):
            roots.append(src.pin(make_date(src, rng.randrange(3000),
                                           rng.randrange(13),
                                           rng.randrange(32))))
        return roots
    raise AssertionError(case)


#: case -> runtime kwargs for ``attach_skyway``.  512-byte input chunks and
#: 1 KB sender segments make object runs break at chunk boundaries and at
#: segment boundaries, independently of each other.
_RUNTIME = {
    "ref-arrays-with-nulls": {},
    "primitive-arrays": {},
    "oversized-object": {"input_chunk_size": 512},
    "split-runs": {"input_chunk_size": 512, "output_buffer_capacity": 1024},
    "compact-headers": {"input_chunk_size": 512,
                        "output_buffer_capacity": 1024},
    "full-epoch": {"input_chunk_size": 512, "output_buffer_capacity": 1024},
}


def measure(case, seed=7):
    """Receive one seeded case; return every parity value."""
    rng = random.Random(seed)
    src, dst = _pair(**_RUNTIME[case])
    pins = _build(case, src, rng)
    roots = [pin.address for pin in pins]
    if case == "full-epoch":
        channel = DeltaSendChannel(src.skyway, "dst")
        endpoint = DeltaReceiveEndpoint.for_runtime(dst.skyway)
        received = endpoint.receive(channel.send(roots))
        receiver = endpoint.state_of(channel.channel_id).stream.receiver
    else:
        src.skyway.shuffle_start()
        out = SkywayObjectOutputStream(
            src.skyway, destination="parity",
            compress_headers=(case == "compact-headers"))
        for root in roots:
            out.write_object(root)
        stream = SkywayObjectInputStream(dst.skyway)
        stream.accept(out.close())
        received = []
        while stream.has_next():
            received.append(stream.read_object())
        receiver = stream.receiver
    heap = dst.heap
    return {
        "graph": graph_digest(dst, receiver),
        "semantic": semantic_graph_digest(dst, received),
        "chunks": [
            hashlib.sha256(heap.read_bytes(c.physical_start, c.filled))
            .hexdigest()[:16]
            for c in receiver.buffer.chunks
        ],
        "clock": {c.value: dst.clock.total(c).hex() for c in Category},
    }


@pytest.fixture
def fresh_address_space(monkeypatch):
    monkeypatch.setattr(heap_module, "_heap_counter", itertools.count(1))
    monkeypatch.setattr(ClassLoader, "_instance_counter", itertools.count())


EXPECTED = {'compact-headers': {'chunks': ['4cf0566f47c9f7e8',
                                'abb72aee76c59c20',
                                'e502f6002613d254',
                                'fed5d008cbc60746',
                                '93a0718655943071',
                                '1b0bee272f7e1b19',
                                'be849ddf859a145a',
                                'eccfb6ecd327e7ea',
                                'f4b8c8b5fbdb310c',
                                '79e28999d0c9ff77',
                                '9307a625f45328eb',
                                '65134b472e87e719',
                                '8dca5551362f0280',
                                '24ea3235692abefc',
                                '46b9afb0173dcad0',
                                'ae124cd504a4a5de',
                                '21dec0d1bccb9209'],
                     'clock': {'computation': '0x1.3062639977cc9p-17',
                               'deserialization': '0x0.0p+0',
                               'network': '0x0.0p+0',
                               'read_io': '0x0.0p+0',
                               'serialization': '0x0.0p+0',
                               'write_io': '0x0.0p+0'},
                     'graph': 'b7d9d077eb8f8bfdba1a27fc5d776563eb377f6234710229bb1a8109d8eaab48',
                     'semantic': 'b3a3c9fda6fa415ba3bb9845c99994312f194929458af4e32d41721a60d552d0'},
 'full-epoch': {'chunks': ['4cf0566f47c9f7e8',
                           'abb72aee76c59c20',
                           'e502f6002613d254',
                           'fed5d008cbc60746',
                           '93a0718655943071',
                           '1b0bee272f7e1b19',
                           'be849ddf859a145a',
                           'eccfb6ecd327e7ea',
                           'f4b8c8b5fbdb310c',
                           '79e28999d0c9ff77',
                           '9307a625f45328eb',
                           '65134b472e87e719',
                           '8dca5551362f0280',
                           '24ea3235692abefc',
                           '46b9afb0173dcad0',
                           'ae124cd504a4a5de',
                           '21dec0d1bccb9209'],
                'clock': {'computation': '0x1.1eaae7520fbf2p-18',
                          'deserialization': '0x0.0p+0',
                          'network': '0x0.0p+0',
                          'read_io': '0x0.0p+0',
                          'serialization': '0x0.0p+0',
                          'write_io': '0x0.0p+0'},
                'graph': 'b7d9d077eb8f8bfdba1a27fc5d776563eb377f6234710229bb1a8109d8eaab48',
                'semantic': 'b3a3c9fda6fa415ba3bb9845c99994312f194929458af4e32d41721a60d552d0'},
 'oversized-object': {'chunks': ['5bc358e68fbe5037',
                                 '7f2f5954f251ea78',
                                 '0d3c4407d4c6d48f'],
                      'clock': {'computation': '0x1.27d65c65551d1p-21',
                                'deserialization': '0x0.0p+0',
                                'network': '0x0.0p+0',
                                'read_io': '0x0.0p+0',
                                'serialization': '0x0.0p+0',
                                'write_io': '0x0.0p+0'},
                      'graph': 'de3db1400859dfaf627a41f4bf146f1fcbfdb0faa8c97cb78eec0faacb238237',
                      'semantic': 'b7edf76d854b7c3ed43f5c65aa76f440e917fd2b0b8e105012dae99a9fa1087a'},
 'primitive-arrays': {'chunks': ['bcc2eaf90d6f4b6c'],
                      'clock': {'computation': '0x1.54554d2790bebp-23',
                                'deserialization': '0x0.0p+0',
                                'network': '0x0.0p+0',
                                'read_io': '0x0.0p+0',
                                'serialization': '0x0.0p+0',
                                'write_io': '0x0.0p+0'},
                      'graph': 'd274ea850204f3a4872a795da831cad464dc28f1b03406c47ad3f2fe184d6819',
                      'semantic': '0dced8a8a42b27ef24704edcb291246f20de598791aa83f77ff95cdb16e9400c'},
 'ref-arrays-with-nulls': {'chunks': ['7d8677a8d1db388e'],
                           'clock': {'computation': '0x1.493b1056fa353p-20',
                                     'deserialization': '0x0.0p+0',
                                     'network': '0x0.0p+0',
                                     'read_io': '0x0.0p+0',
                                     'serialization': '0x0.0p+0',
                                     'write_io': '0x0.0p+0'},
                           'graph': 'd061480d1a8c9c3c5c33e711243bdcd2d4003700c493c2ec8d128bc69a572a93',
                           'semantic': '144c60be89f76d3ca9e0bcd1892fb490cbe0a1cfbe2771a68a7db0e0cf1818cf'},
 'split-runs': {'chunks': ['4cf0566f47c9f7e8',
                           'abb72aee76c59c20',
                           'e502f6002613d254',
                           'fed5d008cbc60746',
                           '93a0718655943071',
                           '1b0bee272f7e1b19',
                           'be849ddf859a145a',
                           'eccfb6ecd327e7ea',
                           'f4b8c8b5fbdb310c',
                           '79e28999d0c9ff77',
                           '9307a625f45328eb',
                           '65134b472e87e719',
                           '8dca5551362f0280',
                           '24ea3235692abefc',
                           '46b9afb0173dcad0',
                           'ae124cd504a4a5de',
                           '21dec0d1bccb9209'],
                'clock': {'computation': '0x1.1eaae7520fbf2p-18',
                          'deserialization': '0x0.0p+0',
                          'network': '0x0.0p+0',
                          'read_io': '0x0.0p+0',
                          'serialization': '0x0.0p+0',
                          'write_io': '0x0.0p+0'},
                'graph': 'b7d9d077eb8f8bfdba1a27fc5d776563eb377f6234710229bb1a8109d8eaab48',
                'semantic': 'b3a3c9fda6fa415ba3bb9845c99994312f194929458af4e32d41721a60d552d0'}}


@pytest.mark.parametrize("case", sorted(_RUNTIME))
def test_receive_parity(case, fresh_address_space):
    assert measure(case) == EXPECTED[case]
