"""The closed-loop workloads: one driver, one connection, one op in
flight, against one spawned async worker (``repro.transport.aserve``).

Each workload builds its inputs from the seed in :meth:`Workload.setup`
(worker spawn, runtime build, graph build, connect, bootstrap epoch) and
runs one op per :meth:`Workload.op` call.  An op returns an
:class:`OpResult`: its timed seconds (its latency), how many sends it
attempted and how many failed verification, its framed wire bytes, and the
driver ``SimClock`` charges it caused.  Verification (the
worker's digest against a driver-side reference) runs outside the timed
interval.

Traced and untraced ops run the same code: the public call inside an
``obs.span(OP_SPAN)``, which is a no-op while tracing is off.  With tracing
on, the op's interval and the spans the program emits inside it (the
worker's arrive grafted onto the driver's trace) become its layer path.
Calls that do not sit on the op's path, such as an in-process receive of
the same bytes, are timed by :meth:`Workload.probe` after the window.
"""

from __future__ import annotations

import dataclasses
import os
import socket
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import inputs
from perfbench.tracing import Interval, attribute, program_intervals

from repro import obs
from repro.apps.incremental import IncrementalPageRank, build_vertex_graph
from repro.core.runtime import SkywayRuntime, attach_skyway
from repro.core.streams import SkywayObjectInputStream
from repro.delta.channel import DeltaReceiveEndpoint, DeltaSendChannel
from repro.delta.wire import FRAME_DELTA
from repro.exchange import Exchange
from repro.jvm.jvm import JVM
from repro.net.cluster import Cluster
from repro.serial.java_serializer import JavaSerializer
from repro.simtime import Category
from repro.spark.context import SparkContext
from repro.transport import (
    MuxEpochClient,
    WorkerClient,
    WorkerHandle,
    WorkerSpec,
    graph_digest,
    semantic_graph_digest,
)
from repro.transport.bootstrap import MB, build_runtime
from repro.transport.errors import TransportError
from repro.transport.testing import SAMPLE_FACTORY, sample_worker_classpath

READ_TIMEOUT = 120.0
#: The benchmark's span around each op's public call.
OP_SPAN = "perfbench.op"
#: Old-space size of every heap but the ``bulk-full`` worker's.
HEAP_OLD_BYTES = 128 * MB


class OpResult:
    """One op's outcome (see module docstring)."""

    def __init__(self, attempted: int) -> None:
        self.attempted = attempted
        self.failed = 0
        self.timed_s = 0.0
        #: ``fanin-mux``: each verified channel-epoch's latency, trailer
        #: flush to ack.
        self.ack_latencies_s: List[float] = []
        #: Framed bytes both ways on the op's connection.
        self.wire_bytes = 0
        #: Driver SimClock charges of the op, by category name.
        self.sim: Dict[str, float] = {}
        #: Mode mix of the epochs the op shipped.
        self.full_epochs = 0
        self.delta_epochs = 0
        #: Traced ops only: the op interval and the layer spans inside it
        #: (their self times become ``<layer>_ms``), plus samples measured
        #: beside the op's path, keyed by metric name.
        self.op_interval: Optional[Interval] = None
        self.path: List[Interval] = []
        self.layer: Dict[str, float] = {}
        self.errors: List[str] = []

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.errors.append(message)


def sim_charges(clock, snap) -> Dict[str, float]:
    delta = clock.since(snap)
    return {c.value: delta.get(c, 0.0) for c in Category}


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time a process has used."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def span_mark() -> int:
    """Where the next op's spans start in the trace (0 untraced)."""
    tracer = obs.get_tracer()
    return len(tracer.spans()) if tracer is not None else 0


def traced_path(out: "OpResult", mark: int) -> list:
    """Set a traced op's interval and layer path from the spans recorded
    since ``mark``; returns those spans."""
    spans = obs.get_tracer().spans()[mark:]
    op = next(s for s in spans if s.name == OP_SPAN)
    out.op_interval = Interval("op", op.start_us, op.end_us,
                               f"{op.process}:{op.thread}")
    out.path = program_intervals(spans)
    return spans


def _timed_ms(fn, *args):
    started = time.perf_counter()
    value = fn(*args)
    return value, (time.perf_counter() - started) * 1e3


def reference_receive(driver: SkywayRuntime, data: bytes) -> dict:
    """In-process receive of framed bytes into a fresh runtime with the
    worker's classpath: the reference for the worker's ``graph_digest``."""
    jvm = JVM("perfbench-ref", classpath=sample_worker_classpath(),
              old_bytes=HEAP_OLD_BYTES)
    runtime = SkywayRuntime(jvm, driver.driver_registry, is_driver=False)
    stream = SkywayObjectInputStream(runtime)
    snap = jvm.clock.snapshot()
    _, accept_ms = _timed_ms(stream.accept, data)
    sim_s = sum(jvm.clock.since(snap).values())
    digest, digest_ms = _timed_ms(graph_digest, jvm, stream.receiver)
    stream.close()
    return {"digest": digest, "accept_ms": accept_ms,
            "digest_ms": digest_ms, "sim_ms": sim_s * 1e3}


class Workload:
    name = ""
    #: Old-space size of the spawned worker.
    worker_old_bytes = HEAP_OLD_BYTES
    #: Traced runs set this: keep in-process copies of the worker's receive
    #: state up to date (used by ``fanin-mux``).
    keep_mirror = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.handle: Optional[WorkerHandle] = None
        self.client = None
        self.driver: Optional[SkywayRuntime] = None
        self.pins: list = []
        #: Setup phase timings of this instance, seconds.
        self.setup_phases: Dict[str, float] = {}
        #: SimClock charges of the bootstrap epoch: every setup of one
        #: seed must charge exactly the same.
        self.bootstrap_sim: Dict[str, float] = {}

    # -- shared steps ---------------------------------------------------

    def _phase(self, name: str, started: float) -> float:
        now = time.perf_counter()
        self.setup_phases[name] = now - started
        return now

    def _spawn(self) -> float:
        started = time.perf_counter()
        self.handle = WorkerHandle.spawn(WorkerSpec(
            name=f"perfbench-{self.name}", classpath_factory=SAMPLE_FACTORY,
            old_bytes=self.worker_old_bytes, read_timeout=READ_TIMEOUT,
            listen_backlog=8,
        ), startup_timeout=60.0)
        return self._phase("spawn", started)

    def _wire_total(self) -> int:
        metrics = self.client.metrics
        return metrics.bytes_sent + metrics.bytes_received

    def worker_pid(self) -> int:
        return self.handle.process.pid

    def teardown(self) -> None:
        """Shut the worker down, reap it, and check nothing is left: the
        process has exited and its port refuses connections."""
        handle, client = self.handle, self.client
        self.handle = self.client = None
        try:
            self._release()
            if client is not None:
                try:
                    self._shutdown_worker(client)
                except TransportError:
                    # The worker closes the connection after it answers a
                    # failed op with ERROR (counted in ``failed``); the
                    # handle stop below still ends it.
                    pass
                finally:
                    client.close()
        finally:
            if handle is not None:
                handle.stop(timeout=10.0)
        if handle is not None:
            if handle.alive:
                raise RuntimeError(f"worker pid {handle.process.pid} "
                                   f"survived teardown")
            _assert_port_closed(handle.host, handle.port)

    def _shutdown_worker(self, client) -> None:
        client.shutdown_worker()

    def _release(self) -> None:
        for pin in self.pins:
            self.driver.jvm.unpin(pin)
        self.pins = []

    # -- to implement ---------------------------------------------------

    def setup(self) -> None:
        """The timed set-up: spawn, runtime, inputs, connect, bootstrap."""
        raise NotImplementedError

    def check_setup(self) -> None:
        """Verify the bootstrap epoch against a driver-side reference;
        raises on a mismatch.  Runs after the set-up timer stops."""
        raise NotImplementedError

    def probe(self) -> Dict[str, float]:
        """Per-layer samples of calls beside the op's path, taken after
        the measured window of a traced run."""
        return {}

    def op(self, traced: bool) -> OpResult:
        """One op; ``traced`` when the obs tracer is on for it."""
        raise NotImplementedError


def _assert_port_closed(host: str, port: int) -> None:
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.settimeout(1.0)
    try:
        if probe.connect_ex((host, port)) == 0:
            raise RuntimeError(f"port {host}:{port} still accepts after "
                               f"worker teardown")
    finally:
        probe.close()


# ---------------------------------------------------------------------------
# bulk-full
# ---------------------------------------------------------------------------


class BulkFull(Workload):
    """``WorkerClient.send_graph([root])`` of one ring+chord vertex graph,
    checked against an in-process receive of the same bytes."""

    name = "bulk-full"
    #: The worker places each received graph in raw old-space chunks, and
    #: that reservation never starts a collection: the space of freed
    #: graphs is not reused, and the worker fails with OutOfMemoryError
    #: once one run's sends fill its old generation.  128 MB holds about 55
    #: sends, which a 45 s run can reach on a fast host; 384 MB holds about
    #: 180.  The heap is a zeroed bytearray, so its size shows in RSS.
    worker_old_bytes = 384 * MB

    def setup(self) -> None:
        t = self._spawn()
        self.driver = build_runtime("perfbench-driver", SAMPLE_FACTORY,
                                    old_bytes=HEAP_OLD_BYTES)
        t = self._phase("runtime", t)
        edges = inputs.ring_chord_edges(self.seed, "bulk")
        self.pins = [self.driver.jvm.pin(
            build_vertex_graph(self.driver.jvm, edges))]
        self.root = self.pins[0].address
        t = self._phase("build_graph", t)
        self.client = WorkerClient(
            self.driver, self.handle.host, self.handle.port,
            read_timeout=READ_TIMEOUT).connect()
        t = self._phase("connect", t)
        clock = self.driver.jvm.clock
        snap = clock.snapshot()
        self.bootstrap_result, self.data = self.client.send_graph(
            [self.root])
        self.bootstrap_sim = sim_charges(clock, snap)
        self._phase("bootstrap", t)

    def check_setup(self) -> None:
        #: Every op sends the same graph, so every op's framed bytes and
        #: worker digest must equal the bootstrap send's.
        self.digest = reference_receive(self.driver, self.data)["digest"]
        if self.bootstrap_result.get("digest") != self.digest:
            raise RuntimeError("bootstrap send: worker digest differs from "
                               "an in-process receive of the same bytes")

    def op(self, traced: bool) -> OpResult:
        out = OpResult(attempted=1)
        clock = self.driver.jvm.clock
        metrics = self.client.metrics
        wire0 = self._wire_total()
        stalls0, stall_s0 = metrics.queue_full_stalls, metrics.stall_seconds
        before = self.client.stats() if traced else None
        mark = span_mark()
        snap = clock.snapshot()
        result = data = None
        started = time.perf_counter()
        try:
            with obs.span(OP_SPAN):
                result, data = self.client.send_graph([self.root])
        except Exception as exc:  # noqa: BLE001 - a failed op, counted
            out.fail(1, f"{type(exc).__name__}: {exc}")
        out.timed_s = time.perf_counter() - started
        out.sim = sim_charges(clock, snap)
        out.wire_bytes = self._wire_total() - wire0
        out.full_epochs = 1
        if result is None:
            return out
        if result.get("digest") != self.digest or data != self.data:
            out.fail(1, "worker digest or stream bytes differ from the "
                        "in-process receive of the bootstrap send")
            return out
        if traced:
            spans = traced_path(out, mark)
            out.path += self._placement(spans, before)
            out.layer.update({
                "sender.objects": float(result.get("objects", 0)),
                "sender.stream_bytes": float(len(data)),
                "wire.queue_full_stalls": float(
                    metrics.queue_full_stalls - stalls0),
                "wire.stall_ms": (metrics.stall_seconds - stall_s0) * 1e3,
            })
        return out

    def probe(self) -> Dict[str, float]:
        """Receive and digest the bytes every op sent (they are identical
        to the bootstrap send's) in process, three times."""
        samples: Dict[str, List[float]] = {}
        for _ in range(3):
            ref = reference_receive(self.driver, self.data)
            _, semantic_ms = _timed_ms(semantic_graph_digest,
                                       self.driver.jvm, [self.root])
            for name, value in (("receiver.accept_ms", ref["accept_ms"]),
                                ("digest.graph_ms", ref["digest_ms"]),
                                ("digest.semantic_ms", semantic_ms),
                                ("sim.deserialization_ms", ref["sim_ms"])):
                samples.setdefault(name, []).append(value)
        return {name: statistics.median(v) for name, v in samples.items()}

    def _placement(self, spans, before: dict) -> List[Interval]:
        """The worker's chunk placement, which has no span of its own."""
        after = self.client.stats()
        place_us = 1e6 * (after["transport"]["phases"].get("receive", 0.0)
                          - before["transport"]["phases"].get("receive", 0.0))
        # The async worker places each DATA chunk as it arrives; its
        # measured placement total is laid back to back before its
        # completion span, so the part that ran while the sender was still
        # cloning shows up as overlap.
        return [Interval("worker.receive", span.start_us - place_us,
                         span.start_us, f"{span.process}:{span.thread}")
                for span in spans if span.name == "worker.recv_graph"]


# ---------------------------------------------------------------------------
# iter-delta: not a workload (see WORKLOADS); the exchange probe's sender
# ---------------------------------------------------------------------------


class _RecordingClient(WorkerClient):
    """A ``WorkerClient`` that keeps the worker's RESULT for the last epoch
    it shipped (the semantic digest)."""

    last_result: Optional[dict] = None

    def send_epoch(self, frame_bytes: bytes, *args, **kwargs) -> dict:
        self.last_result = super().send_epoch(frame_bytes, *args, **kwargs)
        return self.last_result


class IterDelta(Workload):
    """``PolicySend.push(digest=True)`` from ``SparkContext.send(root,
    policy="adaptive")`` over ``Exchange.socket``, after one untimed
    ``IncrementalPageRank.step(active_fraction=0.01)``."""

    name = "iter-delta"
    ACTIVE_FRACTION = 0.01

    def setup(self) -> None:
        t = self._spawn()
        self.cluster = Cluster(
            lambda name: JVM(name, classpath=sample_worker_classpath(),
                             old_bytes=HEAP_OLD_BYTES),
            worker_count=1)
        attach_skyway(self.cluster.driver.jvm, [], cluster=self.cluster)
        self.driver = self.cluster.driver.jvm.skyway
        jvm = self.driver.jvm
        t = self._phase("runtime", t)
        edges = inputs.ring_chord_edges(self.seed, "iter")
        self.pins = [jvm.pin(build_vertex_graph(jvm, edges))]
        self.root = self.pins[0].address
        self.pagerank = IncrementalPageRank(jvm, self.root)
        t = self._phase("build_graph", t)
        self.client = _RecordingClient(
            self.driver, self.handle.host, self.handle.port,
            read_timeout=READ_TIMEOUT).connect()
        self.worker_name = self.cluster.workers[0].name
        exchange = Exchange.socket(self.cluster,
                                   {self.worker_name: self.client})
        self.sc = SparkContext(self.cluster, JavaSerializer(),
                               exchange=exchange)
        self.send = self.sc.send(self.root, policy="adaptive")
        t = self._phase("connect", t)
        snap = jvm.clock.snapshot()
        self.bootstrap_modes = self.send.push(digest=True).modes
        self.bootstrap_sim = sim_charges(jvm.clock, snap)
        self._phase("bootstrap", t)

    def check_setup(self) -> None:
        if self.bootstrap_modes.get(self.worker_name) != "full":
            raise RuntimeError(f"bootstrap epoch was {self.bootstrap_modes}, "
                               f"not full")
        if self._digest_differs():
            raise RuntimeError("bootstrap epoch: worker semantic digest "
                               "differs from the driver's")

    def _digest_differs(self) -> bool:
        want = semantic_graph_digest(self.driver.jvm, [self.root])
        return (self.client.last_result or {}).get("digest") != want

    def op(self, traced: bool) -> OpResult:
        out = OpResult(attempted=1)
        self.pagerank.step(active_fraction=self.ACTIVE_FRACTION)
        self.client.last_result = None
        clock = self.driver.jvm.clock
        wire0 = self._wire_total()
        mark = span_mark()
        snap = clock.snapshot()
        report = None
        started = time.perf_counter()
        try:
            with obs.span(OP_SPAN):
                report = self.send.push(digest=True)
        except Exception as exc:  # noqa: BLE001 - a failed op, counted
            out.fail(1, f"{type(exc).__name__}: {exc}")
        out.timed_s = time.perf_counter() - started
        out.sim = sim_charges(clock, snap)
        out.wire_bytes = self._wire_total() - wire0
        if report is None:
            return out
        if report.modes.get(self.worker_name) == "delta":
            out.delta_epochs = 1
        else:
            out.full_epochs = 1
        if self._digest_differs():
            out.fail(1, "worker semantic digest differs from the driver's")
            return out
        if traced:
            traced_path(out, mark)
            # The op span is the PolicySend.push call itself: its self time
            # is what push adds beyond the spans inside it.
            out.path.append(dataclasses.replace(out.op_interval,
                                                layer="exchange.push"))
        return out

    def _release(self) -> None:
        if getattr(self, "send", None) is not None:
            self.send.close()  # unpins its own copy, detaches card tables
            self.send = None
        super()._release()


# ---------------------------------------------------------------------------
# fanin-mux
# ---------------------------------------------------------------------------


def _make_chain(jvm: JVM, payloads: Sequence[int]) -> int:
    head = 0
    pin = jvm.pin(0)
    try:
        for payload in reversed(payloads):
            node = jvm.new_instance("ListNode")
            jvm.set_field(node, "payload", payload)
            jvm.set_field(node, "next", pin.address)
            pin.address = node
            head = node
        return head
    finally:
        jvm.unpin(pin)


def _nth(jvm: JVM, head: int, index: int) -> int:
    node = head
    for _ in range(index):
        node = jvm.get_field(node, "next")
    return node


class FaninMux(Workload):
    """One round per op: mutate one field of each of 512 ListNode chains,
    encode one epoch per ``DeltaSendChannel``, and ship them together with
    ``MuxEpochClient.send_epochs`` over one mux connection.  The op's
    latency is the round's; each channel-epoch's, trailer flush to
    digest-checked ack, is kept beside it."""

    name = "fanin-mux"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.channels: List[DeltaSendChannel] = []
        self.rounds = 0
        #: An in-process copy of the worker's delta endpoint, fed every
        #: frame the worker gets when ``keep_mirror`` is set
        #: (``delta.apply_ms``).
        self.mirror: Optional[DeltaReceiveEndpoint] = None

    def setup(self) -> None:
        t = self._spawn()
        self.driver = build_runtime("perfbench-driver", SAMPLE_FACTORY,
                                    old_bytes=HEAP_OLD_BYTES)
        jvm = self.driver.jvm
        t = self._phase("runtime", t)
        self.pins = [jvm.pin(_make_chain(jvm, payloads))
                     for payloads in inputs.chain_payloads(self.seed)]
        self.channels = [
            DeltaSendChannel(self.driver, "perfbench-fanin", channel_id=i + 1)
            for i in range(len(self.pins))
        ]
        t = self._phase("build_graph", t)
        self.client = MuxEpochClient(
            self.driver, self.handle.host, self.handle.port,
            node_name=jvm.name, read_timeout=READ_TIMEOUT).connect()
        t = self._phase("connect", t)
        snap = jvm.clock.snapshot()
        jobs = self._encode()
        self.bootstrap_results = self.client.send_epochs(jobs)
        self.bootstrap_sim = sim_charges(jvm.clock, snap)
        self.bootstrap_jobs = jobs
        self._phase("bootstrap", t)

    def check_setup(self) -> None:
        jobs = self.bootstrap_jobs
        check = OpResult(attempted=len(jobs))
        self._verify(jobs, self.bootstrap_results, check)
        if check.failed or check.delta_epochs:
            raise RuntimeError(f"bootstrap round: {check.failed} channel(s) "
                               f"failed, {check.delta_epochs} not FULL")

    def _encode(self) -> List[Tuple[int, int, bytes]]:
        jobs = []
        for channel, pin in zip(self.channels, self.pins):
            frame = channel.send([pin.address])
            jobs.append((channel.channel_id, channel.epoch, frame))
        return jobs

    def _verify(self, jobs, results, out: OpResult) -> float:
        """Check every channel's ack against the driver's digest of its
        chain; returns the milliseconds those reference digests took."""
        expected, digest_ms = _timed_ms(self._reference_digests)
        for (channel_id, _epoch, frame), want in zip(jobs, expected):
            if frame[0] == FRAME_DELTA:
                out.delta_epochs += 1
            else:
                out.full_epochs += 1
            outcome = results.get(channel_id)
            if outcome is None:
                out.fail(1, f"channel {channel_id}: no ack")
                continue
            result = outcome["result"]
            if not result.get("ok", False):
                out.fail(1, f"channel {channel_id}: "
                            f"{result.get('error_kind')}")
            elif result.get("digest") != want:
                out.fail(1, f"channel {channel_id}: digest mismatch")
            elif outcome["latency_s"] is None:
                out.fail(1, f"channel {channel_id}: ack without latency")
            else:
                out.ack_latencies_s.append(outcome["latency_s"])
        return digest_ms

    def _reference_digests(self) -> List[str]:
        jvm = self.driver.jvm
        return [semantic_graph_digest(jvm, [pin.address])
                for pin in self.pins]

    def _mutate(self) -> None:
        jvm = self.driver.jvm
        schedule = inputs.mutation_schedule(self.seed, self.rounds)
        for pin, (index, payload) in zip(self.pins, schedule):
            jvm.set_field(_nth(jvm, pin.address, index), "payload", payload)

    def op(self, traced: bool) -> OpResult:
        out = OpResult(attempted=len(self.channels))
        self.rounds += 1
        self._mutate()
        clock = self.driver.jvm.clock
        wire0 = self._wire_total()
        pid = self.worker_pid()
        if traced:
            before, cpu0 = self.client.stats(), cpu_seconds(pid)
        mark = span_mark()
        snap = clock.snapshot()
        jobs: List[Tuple[int, int, bytes]] = []
        results: Dict[int, dict] = {}
        started = time.perf_counter()
        try:
            with obs.span(OP_SPAN):
                jobs = self._encode()
                results = self.client.send_epochs(jobs)
        except Exception as exc:  # noqa: BLE001 - failed ops, counted
            out.errors.append(f"{type(exc).__name__}: {exc}")
        out.timed_s = time.perf_counter() - started
        if traced:
            cpu_ms = (cpu_seconds(pid) - cpu0) * 1e3
        out.sim = sim_charges(clock, snap)
        out.wire_bytes = self._wire_total() - wire0
        if len(jobs) < len(self.channels):
            out.failed = out.attempted
            return out
        semantic_ms = self._verify(jobs, results, out)
        mirror = self._feed_mirror(jobs) if self.keep_mirror else None
        if traced:
            traced_path(out, mark)
            after = self.client.stats()
            digest_ms = 1e3 * (
                after["transport"]["phases"].get("digest", 0.0)
                - before["transport"]["phases"].get("digest", 0.0))
            waits = [r["result"].get("queue_wait_s", 0.0)
                     for r in results.values()]
            if mirror is not None:
                out.layer["delta.apply_ms"], \
                    out.layer["sim.deserialization_ms"] = mirror
            out.layer.update({
                "delta.frame_bytes": float(sum(len(f) for _, _, f in jobs)),
                "digest.semantic_ms": semantic_ms,
                # The mux worker keeps its spans in its own trace, which
                # it does not ship back: these come from its counters and
                # lie outside the reconciled path (wire.send's self time
                # includes them).  Digest and apply are per round;
                # receive is the median channel's queue wait.
                "worker.digest_ms": digest_ms,
                "worker.apply_ms": max(0.0, cpu_ms - digest_ms),
                "worker.receive_ms": statistics.median(waits) * 1e3,
            })
        return out

    def _feed_mirror(self, jobs) -> Tuple[float, float]:
        """Apply the round's frames in process; (wall ms, simulated ms)."""
        if self.mirror is None:
            jvm = JVM("perfbench-mirror", classpath=sample_worker_classpath(),
                      old_bytes=HEAP_OLD_BYTES)
            self.mirror = DeltaReceiveEndpoint(SkywayRuntime(
                jvm, self.driver.driver_registry, is_driver=False))
            for _, _, frame in self.bootstrap_jobs:
                self.mirror.receive(frame)
        clock = self.mirror.runtime.jvm.clock
        snap = clock.snapshot()
        started = time.perf_counter()
        for _, _, frame in jobs:
            self.mirror.receive(frame)
        wall_ms = (time.perf_counter() - started) * 1e3
        return wall_ms, sum(clock.since(snap).values()) * 1e3

    def probe(self) -> Dict[str, float]:
        return {"exchange.push_ms": exchange_push_ms(self.seed)}

    def _shutdown_worker(self, client) -> None:
        client.call_op("shutdown")

    def _release(self) -> None:
        for channel in self.channels:
            channel.close()
        self.channels = []
        super()._release()


def exchange_push_ms(seed: int, ops: int = 6) -> float:
    """Median self time of ``PolicySend.push`` over ``ops`` traced
    ``IterDelta`` epochs, on a worker of their own: what ``exchange`` and
    ``spark.send`` add to a send beyond the layers they call.  A failed
    epoch raises."""
    sender = IterDelta(seed)
    try:
        sender.setup()
        sender.check_setup()
        obs.enable(process="driver")
        try:
            results = [sender.op(traced=True) for _ in range(ops)]
        finally:
            obs.disable()
    finally:
        sender.teardown()
    pushes = []
    for result in results:
        att = attribute(result.op_interval, result.path)
        if result.failed or att.problem():
            raise RuntimeError(f"exchange probe: {result.errors} "
                               f"{att.problem()}")
        pushes.append(att.self_us.get("exchange.push", 0.0))
    return statistics.median(pushes) / 1e3


#: The benchmark's workloads.  ``IterDelta`` is not one: its latency
#: spread across seeds on a shared host (see perfbench/README.md) exceeded
#: the bounds, so it runs only as ``fanin-mux``'s exchange probe.
WORKLOADS = {cls.name: cls for cls in (BulkFull, FaninMux)}
