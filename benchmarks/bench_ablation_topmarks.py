"""A-TOPMARK — ablation: sender-side top marks vs receiver-side root
recomputation (paper §4.2 "Root Object Recognition").

"Although on the receiver side we can still compute all reachable objects
for a root, this computation also needs a graph traversal and is
time-consuming.  As an optimization, we let the sender explicitly mark the
root objects so that the receiver-side computation can be avoided."
"""

from repro.core.runtime import attach_skyway
from repro.core.streams import SkywayObjectInputStream, SkywayObjectOutputStream
from repro.heap.heap import NULL
from repro.jvm.jvm import JVM
from repro.bench.report import format_kv_section

from conftest import bench_scale, publish

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from tests.conftest import make_date, sample_classpath  # noqa: E402


def recompute_roots_by_traversal(jvm, receiver):
    """The ablated receiver: find top objects by scanning every placed
    object's references (charging the GC-traversal cost) and taking the
    unreferenced ones as roots."""
    heap = jvm.heap
    cost = jvm.cost_model
    placed = list(receiver.buffer.placed_objects)
    referenced = set()
    for addr in placed:
        for offset in heap.reference_offsets(addr):
            jvm.clock.charge(cost.traverse_word)
            target = heap.read_word(addr + offset)
            if target != NULL:
                referenced.add(target)
    return [addr for addr in placed if addr not in referenced]


def run_ablation(graphs: int):
    classpath = sample_classpath()
    src = JVM("tm-src", classpath=classpath)
    dst = JVM("tm-dst", classpath=classpath)
    attach_skyway(src, [dst])

    out = SkywayObjectOutputStream(src.skyway, destination="peer")
    roots = [src.pin(make_date(src, i, 1, 1)) for i in range(graphs)]
    for pin in roots:
        out.write_object(pin.address)
    data = out.close()

    inp = SkywayObjectInputStream(dst.skyway)
    before = dst.clock.total()
    inp.accept(data)
    marked_roots = [inp.read_object() for _ in range(graphs)]
    with_marks_cost = dst.clock.total() - before

    before = dst.clock.total()
    recomputed = recompute_roots_by_traversal(dst, inp.receiver)
    recompute_cost = dst.clock.total() - before

    assert sorted(marked_roots) == sorted(recomputed)
    return {
        "graphs": graphs,
        "receive cost with top marks (s)": with_marks_cost,
        "extra root-recompute traversal (s)": recompute_cost,
        "traversal overhead vs marked receive": f"{recompute_cost / with_marks_cost:.1%}",
    }


def test_ablation_topmarks(benchmark):
    graphs = max(20, int(150 * bench_scale()))
    stats = benchmark.pedantic(lambda: run_ablation(graphs),
                               rounds=1, iterations=1)
    publish("ablation_topmarks", format_kv_section(
        "A-TOPMARK — top marks vs receiver-side root recomputation", stats
    ))
    assert stats["extra root-recompute traversal (s)"] > 0
