"""Deterministic counter-based random streams and fixed-order reductions.

Replicate loops are split into fixed-size blocks.  Block ``b`` of a job
draws from ``Philox`` keyed by ``(seed, *key, b)``, so the numbers a
replicate sees depend only on the seed and its block index, never on how
blocks are distributed over workers.  Each block reduces its values to
(count, mean, M2) accumulators, which are merged with a pairwise tree in
block order, so every estimate is bitwise reproducible for any worker
count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError

# Fixed block size; part of the reproducibility contract.
BLOCK_SIZE = 1 << 14


def stream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the Philox stream addressed by (seed, key...)."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def pairwise_sum(values):
    """Sum a list of floats, arrays or accumulators with a fixed pairwise tree."""
    items = list(values)
    if not items:
        return 0.0
    while len(items) > 1:
        merged = []
        for i in range(0, len(items) - 1, 2):
            merged.append(items[i] + items[i + 1])
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    return items[0]


@dataclass(frozen=True)
class Accumulator:
    """Count, mean and sum of squared deviations (M2) of a set of values.

    ``+`` merges two disjoint sets with the pairwise update of Chan, Golub
    and LeVeque (1979), which avoids the cancellation of sumsq/n - mean^2
    when the values carry a large common offset.
    """

    count: int
    mean: float
    m2: float

    @classmethod
    def of(cls, values) -> "Accumulator":
        values = np.asarray(values, dtype=float)
        mean = values.sum() / values.size
        dev = values - mean
        dev *= dev
        return cls(values.size, float(mean), float(dev.sum()))

    def __add__(self, other: "Accumulator") -> "Accumulator":
        count = self.count + other.count
        delta = other.mean - self.mean
        return Accumulator(
            count,
            self.mean + delta * (other.count / count),
            self.m2 + other.m2 + delta * delta * (self.count * other.count / count),
        )

    @property
    def variance(self) -> float:
        """Population variance M2 / count."""
        return self.m2 / self.count


def run_blocks(total: int, fn, threads: int = 1) -> tuple[Accumulator, ...]:
    """Run ``fn(block, count)`` over the fixed blocks covering ``total`` replicates.

    ``fn`` returns a tuple of 1-D arrays; the i-th array of every block
    feeds the i-th returned accumulator.  Blocks may run on ``threads``
    worker threads, but their accumulators are merged in block order, so
    the result does not depend on the thread count.
    """
    if total < 1:
        raise ArgumentError(f"need at least 1 replicate, got {total}")
    starts = range(0, total, BLOCK_SIZE)
    blocks = [(b, min(BLOCK_SIZE, total - s)) for b, s in enumerate(starts)]

    def one_block(args):
        return tuple(Accumulator.of(v) for v in fn(*args))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(one_block, blocks))
    else:
        parts = [one_block(args) for args in blocks]
    return tuple(pairwise_sum(column) for column in zip(*parts))
