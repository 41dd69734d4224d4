"""Seeded inputs for the transfer benchmark.

Every edge list and chain payload comes from ``random.Random`` seeded with
an integer or a string.  Both seed forms are stable across interpreter
processes (a ``str`` seed is hashed with SHA-512, never with the per-process
salted ``hash()``), so the same ``--seed`` builds byte-identical inputs in
every run, and in the driver and any reference runtime alike.

Sizes move by a few vertices per seed, so the deterministic counts the
benchmark reports (wire bytes, simulated-clock charges) differ between seeds
while staying exact for one seed.
"""

from __future__ import annotations

import random
from typing import List, Tuple

#: Vertex count of the ``bulk-full`` and exchange-probe graphs, before the
#: per-seed jitter of ``0..VERTEX_JITTER-1`` vertices.
BASE_VERTICES = 19_968
VERTEX_JITTER = 64
#: ``fanin-mux``: channels, and ListNode chain length per channel.
FANIN_CHANNELS = 512
CHAIN_NODES = 24


def rng_for(seed: int, purpose: str) -> random.Random:
    """An independent stream per input, stable across processes."""
    return random.Random(f"perfbench:{seed}:{purpose}")


def vertex_count(seed: int, purpose: str) -> int:
    return BASE_VERTICES + rng_for(seed, purpose + ":n").randrange(VERTEX_JITTER)


def ring_chord_edges(seed: int, purpose: str) -> List[Tuple[int, int]]:
    """An n-ring plus one seeded chord per vertex.

    Every vertex has out-degree 2, so object count and stream size depend
    only on ``n``; the chord targets give PageRank varying in-degrees, so a
    superstep really moves ranks (a plain ring is a PageRank fixed point).
    """
    n = vertex_count(seed, purpose)
    rng = rng_for(seed, purpose + ":chords")
    ring = [(i, (i + 1) % n) for i in range(n)]
    return ring + [(i, rng.randrange(n)) for i in range(n)]


def chain_payloads(seed: int, channels: int = FANIN_CHANNELS,
                   nodes: int = CHAIN_NODES) -> List[List[int]]:
    """Distinct 48-bit payloads per chain node (no two channels digest
    alike, so a cross-channel mixup cannot cancel out)."""
    rng = rng_for(seed, "chains")
    return [[rng.getrandbits(48) for _ in range(nodes)]
            for _ in range(channels)]


def mutation_schedule(seed: int, round_index: int,
                      channels: int = FANIN_CHANNELS,
                      nodes: int = CHAIN_NODES) -> List[Tuple[int, int]]:
    """For one ``fanin-mux`` round: per channel, which node to mutate and
    its new payload."""
    rng = rng_for(seed, f"round:{round_index}")
    return [(rng.randrange(nodes), rng.getrandbits(48))
            for _ in range(channels)]
