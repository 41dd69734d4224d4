"""The Skyway worker process: a socket server around a receiving runtime.

One worker = one spawned process = one JVM + Skyway runtime, listening on a
loopback TCP port.  The protocol per connection:

1. HELLO / HELLO_ACK — registry convergence (:mod:`registry_sync`).  A
   driver may re-HELLO on the same connection after loading new classes;
   the worker treats any HELLO as a fresh merge.
2. CALL frames carrying a JSON ``{"op": ...}``; data-bearing ops are
   followed by DATA chunks + TRAILER.  Each op answers RESULT or ERROR.
3. BYE ends the connection; the worker keeps accepting new ones (this is
   what lets a driver's retry/backoff recover from a killed connection).

Connections are served one thread each, so a driver can hold N streams
open at once (the multi-stream parallel send).  Everything that mutates
shared state — the heap, the class loader, the registry, placement — runs
under one server-wide lock taken per *chunk*, not per stream: socket reads
stay concurrent while heap mutation stays serialized, so N arriving
streams interleave placement the way the paper's per-thread output buffers
interleave on the send side (§4.2).

Any exception inside an op is reported as one ERROR frame naming the
exception type, then the connection closes — mid-stream state is
unrecoverable, a fresh connection is not.

Ops:

``ping``
    Echo, for liveness and handshake tests.
``recv_graph``
    Receive one Skyway object stream into this heap (placement overlapping
    arrival), absolutize, and reply with root count, object/byte tallies
    and the position-independent :func:`~repro.transport.digest.graph_digest`.
    ``retain=false`` (default) unpins the roots after digesting and
    releases the buffer's chunks when they top the old generation, so
    repeated benchmark sends reuse the same old-generation space.
``recv_blob``
    Receive an opaque byte blob (the Spark broadcast path) and reply with
    its size and CRC.
``recv_epoch``
    Receive one FULL/DELTA epoch frame for a delta-capable graph channel:
    an EPOCH frame announces (channel id, epoch, kind), DATA chunks carry
    the delta-wire frame, and the worker routes it through the runtime's
    :class:`~repro.delta.channel.DeltaReceiveEndpoint`.  A stale delta
    (worker restarted, state dropped, epoch gap) answers an ERROR frame
    naming ``DeltaStaleError`` — the cross-process NACK the sender reacts
    to by forcing its next epoch full.
``stats``
    Runtime + transport counters.
``shutdown``
    Acknowledge, then exit the accept loop.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import socket
import threading
import time
import zlib
from typing import Dict, List, Optional, Set, Tuple

from repro import obs
from repro.cluster.errors import ClusterProtocolError, PeerGoneError
from repro.core.streams import IncrementalStreamDecoder
from repro.delta.channel import DeltaReceiveEndpoint, DeltaSendChannel
from repro.delta.wire import FRAME_DELTA, FRAME_FULL, DeltaFrame, parse_frame
from repro.transport import frames, registry_sync
from repro.transport.bootstrap import MB, bind_listener, build_runtime
from repro.transport.connection import FrameConnection
from repro.transport.digest import graph_digest, semantic_graph_digest
from repro.transport.errors import (
    RemoteWorkerError,
    TransportClosed,
    TransportError,
)
from repro.transport.metrics import TransportMetrics
from repro.transport.pipeline import pump_stream


#: The two worker front-ends.  ``async`` (the default) serves every
#: connection from one selector event loop (:mod:`repro.transport.aserve`)
#: and scales to thousands of concurrent channels; ``threads`` is the
#: original thread-per-connection server kept as the executable spec —
#: bytes, digests, and clock accounting are identical between the two.
SERVE_MODES = ("async", "threads")


@dataclasses.dataclass
class WorkerSpec:
    """Everything a spawned worker needs, in picklable form."""

    name: str
    classpath_factory: str  # "module:function" -> ClassPath
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; actual port reported back over the pipe
    read_timeout: float = 10.0
    young_bytes: int = 4 * MB
    old_bytes: int = 64 * MB
    #: Which front-end serves connections: ``"async"`` (one event loop) or
    #: ``"threads"`` (one thread per connection, the executable spec).
    serve_mode: str = "async"
    #: Listen backlog.  The async loop accepts thousands of near-
    #: simultaneous connects (B-FANIN opens them in a burst), so the
    #: default is far above ``bind_listener``'s conservative 8.
    listen_backlog: int = 128
    #: Fleet mode (repro.cluster): when set, the worker registers with the
    #: coordinator at this address as it comes up and heartbeats from a
    #: daemon thread until shutdown.
    coordinator_host: Optional[str] = None
    coordinator_port: int = 0
    #: Fleet mode: reject EPOCH frames whose channel id the coordinator
    #: (via ``admit_channel``) never told this worker to expect.  Channel
    #: id 0 is rejected unconditionally, strict or not.
    strict_channels: bool = False
    #: Telemetry plane (repro.obs.live): when true, the worker enables
    #: its flight recorder, observes per-epoch receive/apply latency into
    #: the metrics registry, and (in fleet mode) piggybacks metric deltas
    #: on every heartbeat.  Off = the zero-cost baseline the ≤3% overhead
    #: gate in the live smoke compares against.
    telemetry: bool = True


class _ConnPump:
    """Adapter giving ``SkywayObjectInputStream`` its ``transport.pump``."""

    def __init__(self, conn: FrameConnection) -> None:
        self._conn = conn
        self.stream_bytes = 0

    def pump(self, decoder) -> None:
        self.stream_bytes = pump_stream(self._conn, decoder)


class _LockedDecoder:
    """Serialize a concurrent receive at chunk granularity.

    Each connection thread reads its own socket, but every byte a decoder
    turns into heap mutation (segment placement, class loading, registry
    lookups) runs under the server-wide state lock.  Locking per chunk
    rather than per stream is what lets N parallel streams interleave
    placement — the receive half of the multi-stream send."""

    def __init__(self, decoder: IncrementalStreamDecoder,
                 lock: threading.Lock) -> None:
        self._decoder = decoder
        self._lock = lock

    def feed(self, chunk: bytes) -> None:
        with self._lock:
            self._decoder.feed(chunk)


class _BlobSink:
    """A trivial decoder standing in for the stream decoder: recv_blob
    pumps opaque bytes (e.g. Java-serializer broadcast payloads)."""

    def __init__(self) -> None:
        self.data = bytearray()

    def feed(self, chunk: bytes) -> None:
        self.data.extend(chunk)


class WorkerServer:
    """The in-process server object (runs inside the spawned worker)."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.runtime = build_runtime(
            spec.name, spec.classpath_factory,
            young_bytes=spec.young_bytes, old_bytes=spec.old_bytes,
        )
        self.metrics = TransportMetrics()
        self._running = True
        self.graphs_received = 0
        self.epochs_received = 0
        #: One lock guards every mutation of shared runtime state (heap,
        #: loader, registry, placement, tallies).  Connection threads take
        #: it per chunk, so streams interleave without interleaving *inside*
        #: an object placement.
        self._state_lock = threading.Lock()
        self._conn_threads: List[threading.Thread] = []
        #: Channel ids the coordinator admitted on this worker
        #: (``admit_channel``); consulted by recv_epoch in strict mode.
        self._admitted: Set[int] = set()
        #: Named blob store (``put_blob`` / ``send_blob_peer``): the
        #: fleet's shuffle-bucket mirror.
        self._blobs: Dict[str, bytes] = {}
        #: Peer mode: cached connections and epoch channels *to* other
        #: workers, keyed so a coordinator re-assignment (fresh channel id
        #: after a peer restart) naturally opens a fresh channel.
        self._peer_clients: Dict[Tuple[str, str, int], object] = {}
        self._peer_channels: Dict[Tuple[str, int], DeltaSendChannel] = {}
        self.peer_sends = 0
        #: Set by worker_main in fleet mode; carries the generation the
        #: coordinator assigned this incarnation.
        self.membership = None
        #: Structured, attributable diagnostics: one logger per worker id,
        #: level picked up from REPRO_LOG_LEVEL in :func:`worker_main`.
        self.log = logging.getLogger(f"repro.worker.{spec.name}")

    # -- op handlers -------------------------------------------------------

    def _op_ping(self, conn: FrameConnection, call: dict) -> dict:
        return {"op": "ping", "echo": call.get("echo"),
                "worker": self.spec.name}

    def _op_recv_graph(self, conn: FrameConnection, call: dict) -> dict:
        lock = self._state_lock
        decoder = self.start_recv_graph()
        pump = _ConnPump(conn)
        with self.metrics.phase("receive"), \
                obs.span("recv.receive", clock=self.runtime.jvm.clock):
            pump.pump(_LockedDecoder(decoder, lock))
        return self.complete_recv_graph(
            decoder, pump.stream_bytes, retain=bool(call.get("retain", False))
        )

    def start_recv_graph(self) -> IncrementalStreamDecoder:
        """A fresh stream decoder for one ``recv_graph``; every ``feed``
        must run under the state lock (``_LockedDecoder``) unless the
        caller is the single-threaded event loop."""
        with self._state_lock:
            return IncrementalStreamDecoder(self.runtime)

    def complete_recv_graph(self, decoder: IncrementalStreamDecoder,
                            stream_bytes: int, retain: bool) -> dict:
        """Everything after the last chunk: finish placement, digest,
        tally, unpin.  Shared by the threaded and async front-ends so
        results (and heap effects) are identical."""
        with self._state_lock:
            roots = decoder.finish()
            receiver = decoder.receiver
            token = self.runtime.track_input_buffer(receiver, roots)
            with self.metrics.phase("digest"), obs.span("recv.digest"):
                digest = graph_digest(self.runtime.jvm, receiver)
            result = {
                "op": "recv_graph",
                "roots": len(roots),
                "objects": receiver.objects_received,
                "logical_bytes": receiver.buffer.logical_size,
                "stream_bytes": stream_bytes,
                "digest": digest,
                "retained": retain,
            }
            self.graphs_received += 1
            if not retain:
                # The roots were never exposed: unpin them and give the
                # chunks back to the old generation when they are still its
                # top reservation (otherwise they stay where they are).
                self.runtime.free_input_buffer(token)
                receiver.buffer.release()
        return result

    def _op_recv_blob(self, conn: FrameConnection, call: dict) -> dict:
        sink = _BlobSink()
        with self.metrics.phase("receive"), obs.span("recv.receive"):
            pump_stream(conn, sink)
        return self.complete_recv_blob(bytes(sink.data))

    def complete_recv_blob(self, data: bytes) -> dict:
        return {
            "op": "recv_blob",
            "bytes": len(data),
            "crc32": zlib.crc32(data),
        }

    def _check_channel_id(self, channel_id: int) -> None:
        """The mis-route guard: a typed rejection beats a silent placement
        into the wrong channel state.  Raised *before* any stream byte is
        pumped, so nothing lands on this heap."""
        if channel_id == 0:
            raise ClusterProtocolError(
                "channel id 0 is reserved coordinator-wide; an EPOCH frame "
                "naming it can only be a corrupted or misrouted header"
            )
        if self.spec.strict_channels and channel_id not in self._admitted:
            raise ClusterProtocolError(
                f"EPOCH frame names channel {channel_id}, which the "
                f"coordinator never admitted on worker {self.spec.name!r}"
            )

    def _op_recv_epoch(self, conn: FrameConnection, call: dict) -> dict:
        header = frames.decode_epoch_header(
            conn.expect_frame(frames.EPOCH)
        )
        channel_id, epoch, kind = header
        self._check_channel_id(channel_id)
        sink = _BlobSink()
        started = time.monotonic()
        with self.metrics.phase("receive"), \
                obs.span("recv.receive", channel=channel_id, epoch=epoch):
            stream_bytes = pump_stream(conn, sink)
        return self.complete_recv_epoch(
            channel_id, epoch, kind, bytes(sink.data), stream_bytes,
            digest=call.get("digest", True),
            receive_seconds=time.monotonic() - started,
        )

    def observe_epoch(self, channel_id: int, stream_bytes: int,
                      receive_seconds: Optional[float],
                      apply_seconds: float) -> None:
        """The telemetry plane's per-epoch observation point (shared by
        the threaded op and the async loop).  ``receive_seconds`` covers
        EPOCH-header-to-last-chunk *as this worker saw it arrive* — a
        paced or congested wire stretches it, which is exactly the series
        the coordinator's straggler rule reads."""
        if not self.spec.telemetry:
            return
        reg = obs.registry()
        reg.counter("worker.epochs")
        reg.counter("worker.epoch_bytes", stream_bytes)
        reg.observe("worker.epoch_apply_seconds", apply_seconds)
        if receive_seconds is not None:
            reg.observe("worker.epoch_receive_seconds", receive_seconds)
        obs.record("epoch", channel=channel_id, bytes=stream_bytes,
                   recv_s=round(receive_seconds or 0.0, 6),
                   apply_s=round(apply_seconds, 6))

    def complete_recv_epoch(self, channel_id: int, epoch: int, kind: int,
                            data: bytes, stream_bytes: int,
                            digest: bool = True,
                            receive_seconds: Optional[float] = None) -> dict:
        """Apply one reassembled epoch frame: header cross-check, delta
        endpoint routing, digest.  Shared by the threaded op (after
        ``pump_stream``) and the async loop (after mux reassembly); a
        :class:`DeltaStaleError` propagates to the caller, which turns it
        into the NACK the sender reacts to."""
        apply_started = time.monotonic()
        with self._state_lock:
            frame = parse_frame(data)
            actual_kind = (FRAME_DELTA if isinstance(frame, DeltaFrame)
                           else FRAME_FULL)
            if (frame.channel_id, frame.epoch, actual_kind) \
                    != (channel_id, epoch, kind):
                raise TransportError(
                    f"EPOCH header announced channel {channel_id} epoch "
                    f"{epoch} kind {kind:#x}, frame carries channel "
                    f"{frame.channel_id} epoch {frame.epoch} kind "
                    f"{actual_kind:#x}"
                )
            endpoint = DeltaReceiveEndpoint.for_runtime(self.runtime)
            # DeltaStaleError propagates to the op dispatcher, which turns
            # it into the ERROR frame the driver reads as a NACK.
            roots = endpoint.receive(data)
            result = {
                "op": "recv_epoch",
                "channel_id": channel_id,
                "epoch": epoch,
                "kind": "delta" if actual_kind == FRAME_DELTA else "full",
                "roots": len(roots),
                "root_addresses": list(roots),
                "stream_bytes": stream_bytes,
            }
            if digest:
                with self.metrics.phase("digest"), obs.span("recv.digest"):
                    result["digest"] = semantic_graph_digest(
                        self.runtime.jvm, roots
                    )
            self.epochs_received += 1
        self.observe_epoch(channel_id, stream_bytes, receive_seconds,
                           time.monotonic() - apply_started)
        return result

    # -- fleet ops (repro.cluster) -----------------------------------------

    def _op_admit_channel(self, conn: FrameConnection, call: dict) -> dict:
        channel_id = int(call.get("channel_id", 0))
        if channel_id == 0:
            raise ClusterProtocolError(
                "cannot admit channel id 0: it is reserved coordinator-wide"
            )
        with self._state_lock:
            self._admitted.add(channel_id)
        return {"op": "admit_channel", "channel_id": channel_id,
                "admitted": len(self._admitted)}

    def _op_put_blob(self, conn: FrameConnection, call: dict) -> dict:
        key = call.get("key")
        if not key:
            raise ClusterProtocolError("put_blob requires a non-empty key")
        sink = _BlobSink()
        with self.metrics.phase("receive"), obs.span("recv.receive"):
            pump_stream(conn, sink)
        return self.complete_put_blob(key, bytes(sink.data))

    def complete_put_blob(self, key: str, data: bytes) -> dict:
        with self._state_lock:
            self._blobs[key] = data
        return {"op": "put_blob", "key": key, "bytes": len(data),
                "crc32": zlib.crc32(data)}

    def _peer_client(self, peer: str, host: str, port: int):
        """A cached connection to another fleet worker (peer mode).  A
        peer that cannot be reached surfaces as :class:`PeerGoneError` —
        the typed signal the fleet reports to the coordinator."""
        from repro.transport.client import WorkerClient  # worker<->client cycle

        key = (peer, host, port)
        client = self._peer_clients.get(key)
        if client is None:
            try:
                client = WorkerClient(
                    self.runtime, host, port,
                    node_name=self.spec.name,
                    connect_attempts=3,
                    read_timeout=self.spec.read_timeout,
                ).connect()
            except TransportError as exc:
                raise PeerGoneError(
                    peer, f"cannot connect for a peer send: {exc}"
                ) from exc
            self._peer_clients[key] = client
        return client

    def _drop_peer(self, peer: str) -> None:
        """Forget every cached connection/channel to a failed peer; the
        next send (after the coordinator hands out a fresh placement)
        starts from scratch."""
        for key in [k for k in self._peer_clients if k[0] == peer]:
            client = self._peer_clients.pop(key)
            try:
                client.close()
            except Exception:  # noqa: BLE001 - peer is gone, close is courtesy
                pass
        for key in [k for k in self._peer_channels if k[0] == peer]:
            self._peer_channels.pop(key).close()

    def _op_send_blob_peer(self, conn: FrameConnection, call: dict) -> dict:
        key = call.get("key")
        peer = call.get("peer", "?")
        with self._state_lock:
            data = self._blobs.get(key)
        if data is None:
            raise ClusterProtocolError(
                f"worker {self.spec.name!r} holds no blob under key {key!r}"
            )
        with obs.span("cluster.peer_blob", peer=peer, key=key,
                      bytes=len(data)):
            client = self._peer_client(
                peer, call.get("peer_host", "127.0.0.1"),
                int(call.get("peer_port", 0)),
            )
            try:
                result = client.send_blob(data)
            except TransportError as exc:
                self._drop_peer(peer)
                raise PeerGoneError(
                    peer, f"peer blob push failed: {exc}"
                ) from exc
        self.peer_sends += 1
        return {"op": "send_blob_peer", "key": key, "peer": peer,
                "bytes": len(data), "crc32": result["crc32"]}

    def _op_send_peer(self, conn: FrameConnection, call: dict) -> dict:
        """Peer mode: clone a graph rooted on *this* heap straight into
        another worker — the shuffle route that never bounces through the
        driver.  The state lock covers heap reads (digest + framing) but
        not the wire, so two workers mid-exchange in both directions can
        never deadlock on each other's receive paths."""
        peer = call.get("peer", "?")
        host = call.get("peer_host", "127.0.0.1")
        port = int(call.get("peer_port", 0))
        channel_id = int(call.get("channel_id", 0))
        roots = [int(r) for r in call.get("roots", [])]
        if channel_id == 0:
            raise ClusterProtocolError(
                "send_peer requires a coordinator-assigned channel id"
            )
        if not roots:
            raise ClusterProtocolError(
                "send_peer requires at least one root"
            )
        with obs.span("cluster.peer_send", peer=peer, channel=channel_id,
                      roots=len(roots)) as sp:
            client = self._peer_client(peer, host, port)
            with self._state_lock:
                chan_key = (peer, channel_id)
                channel = self._peer_channels.get(chan_key)
                if channel is None:
                    channel = DeltaSendChannel(
                        self.runtime, destination=f"peer:{peer}",
                        channel_id=channel_id,
                    )
                    self._peer_channels[chan_key] = channel
                with self.metrics.phase("digest"), obs.span("recv.digest"):
                    sender_digest = semantic_graph_digest(
                        self.runtime.jvm, roots
                    )
                frame = channel.send(roots)
            nack = False
            try:
                try:
                    result = client.send_epoch(
                        frame, channel.channel_id, channel.epoch,
                    )
                except RemoteWorkerError as exc:
                    if exc.kind != "DeltaStaleError":
                        raise
                    # The peer dropped its channel state (restart, full
                    # GC); same NACK recovery as the driver-side channel:
                    # reconnect, force full, resend.
                    nack = True
                    client.close()
                    client.connect()
                    channel.force_full_next()
                    with self._state_lock:
                        frame = channel.send(roots)
                    result = client.send_epoch(
                        frame, channel.channel_id, channel.epoch,
                    )
            except RemoteWorkerError:
                raise  # the peer spoke: a typed op failure, not death
            except TransportError as exc:
                self._drop_peer(peer)
                raise PeerGoneError(
                    peer, f"peer send failed mid-transfer: {exc}"
                ) from exc
            decision = channel.last_decision
            sp.set(mode=decision.mode if decision else "?",
                   epoch=channel.epoch, nack=nack)
        self.peer_sends += 1
        return {
            "op": "send_peer",
            "peer": peer,
            "channel_id": channel.channel_id,
            "epoch": channel.epoch,
            "mode": decision.mode if decision else "?",
            "wire_bytes": len(frame),
            "roots": result.get("roots", 0),
            "sender_digest": sender_digest,
            "digest": result.get("digest"),
            "digest_match": result.get("digest") == sender_digest,
            "nack_recovered": nack,
        }

    def _op_stats(self, conn: FrameConnection, call: dict) -> dict:
        result = {
            "op": "stats",
            "worker": self.spec.name,
            "serve_mode": self.spec.serve_mode,
            "graphs_received": self.graphs_received,
            "epochs_received": self.epochs_received,
            "peer_sends": self.peer_sends,
            "blobs_stored": len(self._blobs),
            "channels_admitted": len(self._admitted),
            "generation": (self.membership.generation
                           if self.membership is not None else 0),
            "telemetry": self.spec.telemetry,
            "telemetry_sent": (getattr(self.membership, "telemetry_sent", 0)
                               if self.membership is not None else 0),
            "runtime": {
                k: v for k, v in self.runtime.stats().items()
                if isinstance(v, (int, str, bool))
            },
            "transport": self.metrics.as_dict(),
        }
        # The async front-end (aserve) hooks its loop counters in here so
        # one stats op covers both serve modes.
        aserve_stats = getattr(self, "aserve_stats", None)
        if aserve_stats is not None:
            result["aserve"] = aserve_stats()
        return result

    def _op_shutdown(self, conn: FrameConnection, call: dict) -> dict:
        self._running = False
        return {"op": "shutdown", "ok": True}

    _OPS = {
        "ping": _op_ping,
        "recv_graph": _op_recv_graph,
        "recv_blob": _op_recv_blob,
        "recv_epoch": _op_recv_epoch,
        "admit_channel": _op_admit_channel,
        "put_blob": _op_put_blob,
        "send_blob_peer": _op_send_blob_peer,
        "send_peer": _op_send_peer,
        "stats": _op_stats,
        "shutdown": _op_shutdown,
    }

    # -- connection loop ---------------------------------------------------

    def _handshake(self, conn: FrameConnection, payload: bytes) -> None:
        version, peer, driver_map = frames.decode_hello(payload)
        if version != frames.PROTOCOL_VERSION:
            raise TransportError(
                f"protocol version mismatch: peer {peer!r} speaks "
                f"v{version}, this worker v{frames.PROTOCOL_VERSION}"
            )
        with self._state_lock:
            extras = registry_sync.extra_names(
                self.runtime.view.snapshot(), driver_map
            )
            conn.send_frame(
                frames.HELLO_ACK,
                frames.encode_hello_ack(self.spec.name, extras),
            )
            merged = registry_sync.merge_registries(driver_map, extras)
            registry_sync.install_merged(self.runtime, merged)
        self.log.info(
            "handshake with %s: %d driver classes, %d worker extras",
            peer, len(driver_map), len(extras),
        )

    def serve_connection(self, conn: FrameConnection) -> None:
        """Run one connection to completion (BYE, EOF, or a fatal op
        error).  Op failures answer ERROR then end the connection."""
        trace_pending = False
        while self._running:
            try:
                ftype, payload = conn.recv_frame()
            except TransportClosed:
                return  # peer went away between calls; accept loop continues
            if ftype == frames.BYE:
                return
            try:
                if ftype == frames.HELLO:
                    self._handshake(conn, payload)
                    continue
                if ftype == frames.TRACE:
                    # Driver trace context for the next CALL: enable (or
                    # re-point) this worker's tracer and parent this
                    # thread's spans under the driver's current span.
                    trace_id, parent_span = frames.decode_trace(payload)
                    tracer = obs.enable(
                        process=f"worker:{self.spec.name}",
                        trace_id=trace_id or None,
                    )
                    tracer.adopt_remote(parent_span or None)
                    trace_pending = True
                    continue
                if ftype != frames.CALL:
                    raise TransportError(
                        f"protocol violation: unexpected "
                        f"{frames.frame_name(ftype)} frame between calls"
                    )
                call = frames.decode_json(payload, what="CALL")
                handler = self._OPS.get(call.get("op"))
                if handler is None:
                    raise TransportError(f"unknown op {call.get('op')!r}")
                self.log.debug("serving op %s", call.get("op"))
                if trace_pending:
                    result = self._traced_call(conn, call, handler)
                else:
                    result = handler(self, conn, call)
                conn.send_frame(frames.RESULT, frames.encode_json(result))
            except Exception as exc:  # noqa: BLE001 - reported as ERROR frame
                self.log.warning(
                    "op failed, answering ERROR: %s: %s",
                    type(exc).__name__, exc,
                )
                # Flight-recorder the failure (PeerGoneError, the
                # DeltaStaleError NACK, protocol rejections): the next
                # heartbeat ships it, so the coordinator holds this
                # worker's last moments even if the process dies now.
                obs.record("error", error=type(exc).__name__,
                           detail=str(exc)[:200])
                try:
                    conn.send_frame(
                        frames.ERROR,
                        frames.encode_error(type(exc).__name__, str(exc)),
                    )
                except TransportError:
                    pass
                return
            finally:
                if trace_pending and ftype == frames.CALL:
                    trace_pending = False
                    tracer = obs.get_tracer()
                    if tracer is not None:
                        tracer.clear_remote()

    def _traced_call(self, conn: FrameConnection, call: dict,
                     handler) -> dict:
        """Serve one op inside a ``worker.<op>`` span and ship this
        thread's spans back inside the RESULT under ``"trace"``."""
        tracer = obs.get_tracer()
        mark = tracer.mark()
        with tracer.span(f"worker.{call.get('op')}",
                         clock=self.runtime.jvm.clock):
            result = handler(self, conn, call)
        result["trace"] = tracer.export_payload(tracer.drain(mark))
        return result

    def _serve_thread(self, conn: FrameConnection) -> None:
        try:
            self.serve_connection(conn)
        finally:
            conn.close()

    def serve_forever(self, listener: socket.socket) -> None:
        """Accept loop: one daemon thread per connection, so N driver
        streams can be in flight at once.  Shutdown drains the accept
        loop, then joins whatever connections are still open."""
        listener.settimeout(0.25)  # poll so shutdown can exit the loop
        try:
            while self._running:
                try:
                    sock, _addr = listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    return
                conn = FrameConnection(
                    sock, read_timeout=self.spec.read_timeout,
                    metrics=self.metrics,
                )
                thread = threading.Thread(
                    target=self._serve_thread, args=(conn,),
                    name=f"skyway-conn-{len(self._conn_threads)}",
                    daemon=True,
                )
                self._conn_threads = [
                    t for t in self._conn_threads if t.is_alive()
                ]
                self._conn_threads.append(thread)
                thread.start()
        finally:
            for thread in self._conn_threads:
                thread.join(timeout=5.0)


def configure_worker_logging() -> None:
    """Structured logging for spawned workers: level from REPRO_LOG_LEVEL
    (default WARNING), records tagged with the per-worker logger name."""
    level_name = os.environ.get("REPRO_LOG_LEVEL", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level,
        format="%(asctime)s %(levelname)s %(name)s [pid %(process)d] "
               "%(message)s",
    )


def worker_main(spec: WorkerSpec, port_pipe) -> None:
    """Entry point of the spawned process.  Binds (with the bounded
    port-in-use retry — fleets spawn many workers on one host), reports
    the actual port through ``port_pipe``, registers with the coordinator
    when the spec names one, then serves until shutdown.

    ``spec.serve_mode`` picks the front-end: the selector event loop
    (``"async"``, one thread for every connection, heartbeats included) or
    the thread-per-connection server (``"threads"``, the executable spec,
    with the membership heartbeat on its own daemon thread).
    """
    configure_worker_logging()
    if spec.serve_mode not in SERVE_MODES:
        port_pipe.send(("error",
                        f"WorkerStartupError: unknown serve_mode "
                        f"{spec.serve_mode!r} (expected one of "
                        f"{'/'.join(SERVE_MODES)})"))
        port_pipe.close()
        return
    listener = None
    membership = None
    loop = None
    try:
        server = WorkerServer(spec)
        listener = bind_listener(spec.host, spec.port,
                                 backlog=spec.listen_backlog)
        port = listener.getsockname()[1]
        recorder = None
        if spec.telemetry:
            # Flight recorder on from the first op: even a worker that
            # dies before its first heartbeat records what it was doing.
            recorder = obs.enable_recorder()
            obs.registry().register_source(
                f"transport.{spec.name}", server.metrics.as_dict
            )
        if spec.serve_mode == "async":
            from repro.transport.aserve import AsyncWorkerServer

            loop = AsyncWorkerServer(server)
        if spec.coordinator_host:
            from repro.cluster.membership import WorkerMembership

            membership = WorkerMembership(
                spec.name, spec.host, port,
                spec.coordinator_host, spec.coordinator_port,
            )
            if spec.telemetry:
                from repro.obs.live import TelemetrySampler

                membership.attach_telemetry(TelemetrySampler(
                    obs.registry(), recorder=recorder,
                ))
            if loop is not None:
                # One process, one loop: register now (raises if the
                # coordinator is unreachable), then the event loop owns
                # the heartbeat cadence — no membership thread.
                membership.register()
                loop.attach_membership(membership)
            else:
                membership.start()  # raises if unreachable
            server.membership = membership
        server.log.info("listening on %s:%d (%s)",
                        spec.host, port, spec.serve_mode)
        port_pipe.send(("ok", port))
    except Exception as exc:  # noqa: BLE001 - parent re-raises as typed error
        try:
            port_pipe.send(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            if listener is not None:
                listener.close()
        return
    finally:
        port_pipe.close()
    try:
        if loop is not None:
            loop.serve_forever(listener)
        else:
            server.serve_forever(listener)
    finally:
        if membership is not None:
            membership.stop()
        listener.close()
