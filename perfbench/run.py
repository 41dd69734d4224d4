"""Transfer benchmark: one command, two workloads, one spawned worker.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bulk-full --seed 1 --seconds 45 --trace 0

Each run sets its workload up ``SETUP_REPEATS`` times (tearing the earlier
ones down and checking no worker process or port survives), reports the
median set-up time, then runs closed-loop ops on the last set-up for
``--seconds`` seconds.  With ``--trace 0`` it prints every end-to-end
metric; with ``--trace 1`` every second op is traced (the others are the
baseline for tracing overhead), and it prints every per-layer metric.  The
last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every op is verified outside its timed interval; a failed op counts in
``failed``.  The run exits 1 when any op failed, when the simulated-clock
charges differ from an earlier run of the same code, seed and mode
(recorded under ``.perfbench/`` in the checkout), or when a traced op's
layer split fails the checks in ``perfbench/tracing.py``.  It exits 2 without a
result when the checkout's ``src/repro`` cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pathlib
import platform
import signal
import statistics
import struct
import sys
import time
import traceback
from typing import Dict, List, Optional, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# ``repro`` and the other perfbench modules are imported inside functions:
# only main() puts this checkout's src/ on sys.path, after checking it.

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Ops run even when one op outlasts the window (two traced, two not).
MIN_OPS = 4
#: Size of the calibration work run after every op, and its result.
CALIBRATION_ROUNDS = 20_000
CALIBRATION_CHECK = 199_994_205
#: The calibration time that defines reference units: a ``ref_ms`` is a
#: wall-clock millisecond scaled by ``CALIBRATION_REF_S`` over the run's
#: mean calibration time, i.e. a millisecond on a host where the
#: calibration work takes 50 ms.
CALIBRATION_REF_S = 0.050


def percentile(values: Sequence[float], q: float) -> float:
    """The median for ``q == 50``, else the ``q``-th of the 99 cut points
    ``statistics.quantiles`` gives (``q`` a whole number, 1 to 99)."""
    if q == 50 or len(values) < 2:
        return statistics.median(values)
    return statistics.quantiles(values, n=100)[int(q) - 1]


def calibrate() -> float:
    """Seconds a fixed piece of pure-Python work takes: dict and list
    building, ``struct`` packing, a sort (~50 ms on the host
    perfbench/README.md names).  It touches nothing of the program, so it
    measures only how fast the host runs this interpreter right now."""
    started = time.perf_counter()
    table: Dict[int, List[int]] = {}
    packed = bytearray()
    items = []
    for i in range(CALIBRATION_ROUNDS):
        key = (i * 2654435761) % 1000003
        table[key] = [i, key & 255]
        items.append((key, i))
        packed += struct.pack("<qi", key, i)
    items.sort()
    total = 0
    for key, i in items:
        total += table[key][1] ^ i
    elapsed = time.perf_counter() - started
    if total != CALIBRATION_CHECK or len(packed) != 12 * CALIBRATION_ROUNDS:
        raise RuntimeError("calibration work computed a wrong result")
    return elapsed


def code_fingerprint() -> str:
    """Hash of the benchmark and the program it runs."""
    digest = hashlib.sha256()
    for base in (SRC, ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_fingerprint() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
    }


def check_simtime(workload: str, seed: int, traced: bool,
                  charges: List[List[float]]) -> Optional[str]:
    """Compare per-op simulated-clock charges with the record of an
    earlier run of the same code, seed and mode; record them if none.
    Returns a description of the first difference, or None."""
    record_dir = ROOT / ".perfbench" / "simtime"
    record_dir.mkdir(parents=True, exist_ok=True)
    mode = "traced" if traced else "untraced"
    path = record_dir / f"{workload}-{seed}-{mode}-{code_fingerprint()}.json"
    encoded = [[value.hex() for value in op] for op in charges]
    if path.exists():
        earlier = json.loads(path.read_text())
        for index, (mine, theirs) in enumerate(zip(encoded, earlier)):
            if mine != theirs:
                return (f"op {index}: simulated-clock charges {mine} differ "
                        f"from an earlier run's {theirs}")
        if len(encoded) <= len(earlier):
            return None
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(encoded))
    tmp.replace(path)
    return None


class Run:
    """One benchmark run: set-ups, the measured window, the metrics."""

    def __init__(self, args) -> None:
        from perfbench.workloads import WORKLOADS

        self.args = args
        self.cls = WORKLOADS[args.workload]
        self.setup_s: List[float] = []
        #: ``calibrate()`` seconds, one after every op.
        self.calibration_s: List[float] = []
        self.errors: List[str] = []
        self.workload = None

    # -- phases -----------------------------------------------------------

    def set_up(self) -> None:
        bootstrap = None
        for attempt in range(SETUP_REPEATS):
            workload = self.cls(self.args.seed)
            workload.keep_mirror = bool(self.args.trace)
            started = time.perf_counter()
            try:
                workload.setup()
                self.setup_s.append(time.perf_counter() - started)
                workload.check_setup()
            except BaseException:
                workload.teardown()
                raise
            if bootstrap is not None and workload.bootstrap_sim != bootstrap:
                self.errors.append("bootstrap epoch simulated-clock charges "
                                   "differ between set-ups of one seed")
            bootstrap = workload.bootstrap_sim
            if attempt < SETUP_REPEATS - 1:
                workload.teardown()
                # Runtimes hold reference cycles; free this set-up's heaps
                # before the next one allocates its own.
                gc.collect()
        self.workload = workload

    def measure(self) -> list:
        """Closed-loop ops for ``--seconds``, each followed by the
        calibration work (outside its timed interval, worker idle).  A
        traced run alternates untraced and traced ops, so host speed drift
        hits both alike."""
        from repro import obs

        ops = []
        deadline = time.perf_counter() + self.args.seconds
        while time.perf_counter() < deadline or len(ops) < MIN_OPS:
            if self.args.trace and len(ops) % 2:
                obs.enable(process="driver")
                try:
                    ops.append(self.workload.op(traced=True))
                finally:
                    obs.disable()
            else:
                ops.append(self.workload.op(traced=False))
            self.calibration_s.append(calibrate())
        return ops

    def execute(self) -> dict:
        from repro import obs

        from perfbench.workloads import vm_hwm_mb

        obs.reset()
        self.set_up()
        workload = self.workload
        gc0 = _gc_counts(workload)
        try:
            ops = self.measure()
            gc1 = _gc_counts(workload)
            worker_rss = vm_hwm_mb(workload.worker_pid())
            probe = workload.probe() if self.args.trace else {}
        finally:
            workload.teardown()
            obs.reset()
        driver_rss = vm_hwm_mb()
        traced = [op for op in ops if op.op_interval is not None]
        baseline = [op for op in ops if op.op_interval is None]

        for op in ops:
            self.errors.extend(op.errors)
        problem = check_simtime(self.args.workload, self.args.seed,
                                bool(self.args.trace),
                                [list(op.sim.values()) for op in ops])
        if problem is not None:
            self.errors.append(problem)

        latencies = [op.timed_s for op in ops if not op.failed]
        timed_s = sum(op.timed_s for op in ops)

        def per_op_ms(charges) -> float:
            return statistics.median(charges(op) * 1e3 for op in ops)

        sim_ms = per_op_ms(lambda op: sum(op.sim.values()))
        wire = [op.wire_bytes for op in ops]
        calibration = self.calibration_s
        acks = [s for op in ops for s in op.ack_latencies_s]
        summary = {
            "attempted": sum(op.attempted for op in ops),
            "failed": sum(op.failed for op in ops),
            "ops": len(ops),
            "verified_ops": len(latencies),
            "full_epochs": sum(op.full_epochs for op in ops),
            "delta_epochs": sum(op.delta_epochs for op in ops),
            "setup_s": self.setup_s,
            "setup_phases_s": workload.setup_phases,
            "op_timed_ms": [round(op.timed_s * 1e3, 3) for op in ops],
            "calibration_ms": [round(c * 1e3, 3) for c in calibration],
        }
        if not latencies:
            self.errors.append("no op was verified")
            return {"summary": summary, "metrics": {}}
        # Wall clock, as measured; op_ref_ms below rescales it to
        # reference units (see CALIBRATION_REF_S).
        summary["wall"] = {
            "op_mean_ms": statistics.mean(latencies) * 1e3,
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "ops_per_s": len(latencies) / timed_s,
            "calibration_mean_ms": statistics.mean(calibration) * 1e3,
        }

        if not self.args.trace:
            # The mean op over the mean calibration: both average the
            # host's speed over the whole window alike.
            metrics = {
                "op_ref_ms": statistics.mean(latencies) * 1e3
                * CALIBRATION_REF_S / statistics.mean(calibration),
                "wire_kb_per_op": statistics.median(wire) / 1e3,
                "setup_s": statistics.median(self.setup_s),
                "driver_peak_rss_mb": driver_rss,
                "worker_peak_rss_mb": worker_rss,
                "sim_ms_per_op": sim_ms,
            }
        else:
            phases = workload.setup_phases
            metrics = self.layer_metrics(baseline, traced)
            metrics.update(probe)
            metrics.update({
                "gc.driver_minor": float(gc1[0] - gc0[0]),
                "gc.driver_full": float(gc1[1] - gc0[1]),
                "policy.delta_epochs": float(summary["delta_epochs"]),
                "policy.full_epochs": float(summary["full_epochs"]),
                "build.graph_ms": phases["build_graph"] * 1e3,
                "setup.runtime_ms": phases["runtime"] * 1e3,
                "setup.bootstrap_ms": phases["bootstrap"] * 1e3,
                "wire.bytes": statistics.median(wire),
                # The socket path charges the sender's work to the
                # driver's current category (computation), not to
                # SERIALIZATION, so this is every driver charge of the op;
                # it charges no simulated network, so sim.network_ms is
                # the program's own NETWORK charge, 0 there.
                "sim.serialization_ms": sim_ms,
                "sim.network_ms": per_op_ms(lambda op: op.sim["network"]),
                "host.calibration_ms": statistics.mean(calibration) * 1e3,
            })
            if acks:
                metrics["mux.ack_p50_ms"] = percentile(acks, 50) * 1e3
                metrics["mux.ack_p99_ms"] = percentile(acks, 99) * 1e3
        return {"summary": summary, "metrics": metrics}

    def layer_metrics(self, baseline, traced) -> dict:
        from perfbench.tracing import attribute

        totals: Dict[str, float] = {}
        reconcile = {"op": 0.0, "unattributed": 0.0, "overlap": 0.0}
        side: Dict[str, List[float]] = {}
        traced_ops = [op for op in traced
                      if op.op_interval is not None and not op.failed]
        for op in traced_ops:
            att = attribute(op.op_interval, op.path)
            problem = att.problem()
            if problem:
                self.errors.append(f"traced op: {problem}")
            for layer, own in att.self_us.items():
                totals[layer] = totals.get(layer, 0.0) + own
            reconcile["op"] += att.op_us
            reconcile["unattributed"] += att.unattributed_us
            reconcile["overlap"] += att.overlap_us
            for name, value in op.layer.items():
                side.setdefault(name, []).append(value)
        # Means, so the layer self times plus unattributed minus overlap
        # add up to the mean traced op.
        n = max(1, len(traced_ops))
        metrics: Dict[str, float] = {
            f"{name}_ms": total / n / 1e3
            for name, total in {**totals, **reconcile}.items()
        }
        for name, values in side.items():
            metrics[name] = statistics.median(values)
        untraced = [op.timed_s for op in baseline if not op.failed]
        with_trace = [op.timed_s for op in traced if not op.failed]
        if untraced and with_trace:
            metrics["trace.overhead_frac"] = (
                statistics.median(with_trace) / statistics.median(untraced)
                - 1.0)
        return metrics


def _gc_counts(workload) -> tuple:
    stats = workload.driver.jvm.gc.stats
    return stats.minor_collections, stats.full_collections


def child_processes() -> Dict[int, str]:
    """Processes whose parent is this one, from ``/proc``: pid -> state
    (``Z`` for one that has exited but is not yet reaped)."""
    me, children = os.getpid(), {}
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # it ended while we looked
            continue
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == me:
            children[int(entry.name)] = state
    return children


def stop_children() -> List[int]:
    """Stop and reap every process this run started; returns the pids of
    those still running that had to be killed.

    Spawning a worker also starts ``multiprocessing``'s resource tracker,
    which would otherwise outlive this process, orphaned and unreaped.
    Worker teardown already reaps each worker, so anything else found
    here is a leftover.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes its pipe, then waits for it to exit
    children = child_processes()
    leftovers = [pid for pid, state in children.items() if state != "Z"]
    for pid in leftovers:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in children:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return leftovers


def _terminate(signum, _frame) -> None:
    # SystemExit unwinds through the teardowns, so a run killed with
    # SIGTERM still stops its worker.
    raise SystemExit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    sys.path[:0] = [str(ROOT), str(SRC)]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"this checkout's {SRC}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(expected one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = Run(args)
    try:
        outcome = run.execute()
    except Exception:  # noqa: BLE001 - report, then fail the run
        traceback.print_exc()
        return 1
    finally:
        leftovers = stop_children()
    if leftovers:
        run.errors.append(f"processes {leftovers} outlived the run")
    summary, metrics = outcome["summary"], outcome["metrics"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    printed = {}
    for entry in wanted:
        name = entry["name"]
        if name not in metrics and not args.trace and summary["verified_ops"]:
            run.errors.append(f"end-to-end metric {name} was not measured")
        # A layer the workload bypasses reports 0 (see perfbench/README.md).
        printed[name] = {"value": metrics.get(name, 0.0),
                         "unit": entry["unit"]}
    correct = not run.errors
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_fingerprint(),
        **summary,
        "errors": run.errors[:20],
    }
    print("perfbench: " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": printed,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
