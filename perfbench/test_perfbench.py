"""Tests of the benchmark's own logic (no worker is spawned).

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import os
import pathlib
import random
import shutil
import statistics
import subprocess
import sys

import pytest

from perfbench import inputs
from perfbench.run import calibrate, percentile
from perfbench.tracing import Interval, attribute, self_times

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_nested_spans_split_into_self_times():
    op = Interval("op", 0, 100)
    spans = [Interval("wire", 10, 90), Interval("clone", 20, 50),
             Interval("digest", 60, 80)]
    att = attribute(op, spans)
    assert att.self_us == {"wire": 30, "clone": 30, "digest": 20}
    assert att.unattributed_us == 20
    assert att.overlap_us == 0


def test_concurrent_lanes_count_as_overlap():
    op = Interval("op", 0, 100)
    spans = [Interval("clone", 0, 60, "driver"),
             Interval("place", 40, 100, "worker")]
    att = attribute(op, spans)
    assert att.self_us == {"clone": 60, "place": 60}
    assert att.overlap_us == 20
    assert att.concurrent_us == 20
    assert att.unattributed_us == 0
    assert att.problem() == ""


def test_a_worker_span_nests_under_the_driver_span_it_waits_in():
    op = Interval("op", 0, 100)
    spans = [Interval("wire.send", 0, 100, "driver"),
             Interval("clone", 0, 50, "driver"),
             Interval("apply", 60, 90, "worker")]
    att = attribute(op, spans)
    assert att.self_us == {"wire.send": 20, "clone": 50, "apply": 30}
    assert att.overlap_us == 0


def test_a_worker_span_beside_driver_work_counts_as_overlap():
    op = Interval("op", 0, 100)
    spans = [Interval("wire.send", 0, 100, "driver"),
             Interval("clone", 0, 50, "driver"),
             Interval("place", 10, 40, "worker")]
    att = attribute(op, spans)
    assert att.self_us == {"wire.send": 50, "clone": 50, "place": 30}
    assert att.overlap_us == 30 == att.concurrent_us


def test_spans_are_clipped_to_the_op():
    att = attribute(Interval("op", 10, 20), [Interval("x", 0, 15),
                                             Interval("y", 18, 40)])
    assert att.self_us == {"x": 5, "y": 2}
    assert att.unattributed_us == 3


def test_identical_spans_nest_instead_of_double_counting():
    spans = [Interval("a", 0, 10), Interval("b", 0, 10)]
    owns = sorted(own for _, own in self_times(spans))
    assert owns == [0, 10]


def _laminar(rng, lane, lo, hi, depth=0):
    spans, cursor = [], lo
    while cursor < hi and depth < 4 and rng.random() < 0.8:
        start = rng.uniform(cursor, hi)
        end = rng.uniform(start, hi)
        spans.append(Interval(rng.choice(["x", "y", "wire.send"]),
                              start, end, lane))
        spans += _laminar(rng, lane, start, end, depth + 1)
        cursor = end + rng.uniform(0, (hi - lo) / 3)
    return spans


def test_overlap_never_exceeds_lane_concurrency_when_lanes_nest():
    rng = random.Random(3)
    for _ in range(2000):
        spans = [s for lane in "abc"[:rng.randint(1, 3)]
                 for s in _laminar(rng, lane, 0, 100)]
        rng.shuffle(spans)
        att = attribute(Interval("op", 0, 100), spans)
        assert att.overlap_us <= att.concurrent_us + 1e-6


def test_spans_of_one_lane_that_cross_fail_the_check():
    att = attribute(Interval("op", 0, 100),
                    [Interval("a", 0, 60), Interval("b", 40, 100)])
    assert att.overlap_us == 20 and att.concurrent_us == 0
    assert "overlap" in att.problem()


def test_uncovered_op_fails_the_check():
    att = attribute(Interval("op", 0, 100), [Interval("a", 0, 80)])
    assert "uncovered" in att.problem()


def test_percentiles():
    values = list(range(1, 102))
    assert percentile(values, 50) == 51
    assert percentile([7.0], 99) == 7.0
    assert percentile([3.0] * 40, 99) == pytest.approx(3.0)
    assert percentile(values, 99) == statistics.quantiles(values, n=100)[98]


def test_calibration_checks_its_own_result():
    assert 0 < calibrate() < 10


_FINGERPRINT = (
    "import hashlib, json; from perfbench import inputs; "
    "print(hashlib.sha256(json.dumps([inputs.ring_chord_edges(7, 'bulk'), "
    "inputs.chain_payloads(7), inputs.mutation_schedule(7, 3)])"
    ".encode()).hexdigest())"
)


def test_inputs_repeat_across_hash_salts():
    digests = set()
    for salt in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=salt)
        digests.add(subprocess.run(
            [sys.executable, "-c", _FINGERPRINT], cwd=ROOT, env=env,
            check=True, capture_output=True, text=True).stdout)
    assert len(digests) == 1


def test_inputs_depend_on_the_seed():
    assert inputs.ring_chord_edges(1, "bulk") != inputs.ring_chord_edges(
        2, "bulk")
    for seed in range(5):
        n = inputs.vertex_count(seed, "bulk")
        assert inputs.BASE_VERTICES <= n < (inputs.BASE_VERTICES
                                            + inputs.VERTEX_JITTER)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk-full",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in spec["end_to_end"])


def test_stop_children_reaps_the_resource_tracker_and_kills_leftovers():
    script = (
        "import subprocess, sys\n"
        "from multiprocessing import resource_tracker\n"
        "from perfbench.run import child_processes, stop_children\n"
        "resource_tracker.ensure_running()\n"
        "tracker = resource_tracker._resource_tracker._pid\n"
        "stray = subprocess.Popen([sys.executable, '-c',"
        " 'import time; time.sleep(60)'])\n"
        "assert {tracker, stray.pid} <= set(child_processes())\n"
        "assert stop_children() == [stray.pid]\n"
        "assert child_processes() == {}\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
