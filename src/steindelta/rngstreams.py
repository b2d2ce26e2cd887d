"""Deterministic counter-based random streams and fixed-order reductions.

Replicate loops are split into fixed-size blocks, and the numbers a block
sees depend only on the seed and its block index, never on how blocks are
distributed over workers.  ``stream`` builds the Philox generator of a
stream (seed, *key) through numpy's ``SeedSequence``.  Blocks find their
numbers in one of two layouts:

- Own stream: block ``b`` reads stream (seed, *key, b) from its start.
  Any block can use it, whatever it draws; the one-sided blocks draw a
  variable number of raw words (multinomial and rank sampling), and the
  coupled blocks of three or more atoms hold so many pairs that building
  their generator costs under 1% of the block.
- Counter offsets (``block_uniforms``): blocks that each draw a fixed
  number of uniforms read disjoint Philox counter ranges of one stream
  (seed, *key), block ``b`` from counter b * ceil(stride / 4), so a run of
  consecutive blocks needs one generator, advanced to its first block, and
  one draw.  The two-atom coupled blocks use it.

Each block reduces its values to (count, mean, M2) accumulators, which are
merged with a pairwise tree in block order, so every estimate is bitwise
reproducible for any worker count; ``run_blocks`` can also hand a worker a
chunk of consecutive blocks at a time, whose per-block accumulators join
the same tree.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, as_count

# Fixed block size; part of the reproducibility contract.
BLOCK_SIZE = 1 << 14


def stream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the Philox stream addressed by (seed, key...)."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def block_uniforms(
    seed: int, *key: int, first: int, count: int, width: int, stride: int
) -> np.ndarray:
    """(count, width) uniforms of blocks first..first + count - 1 of the stream (seed, *key).

    Block b reads the ``width`` doubles that start at Philox counter
    b * ceil(stride / 4), where ``stride`` is the width of a full block:
    each counter step yields four doubles, so blocks of ``stride`` doubles
    read disjoint counter ranges, and the doubles of a range past a block's
    ``width`` are never used.  Only the last block of a stream may be wider
    than ``stride``, so a run of several blocks may not.  One generator
    serves the run: it is advanced to block ``first`` and draws every block
    in one call.
    """
    first, count = as_count(first, "first", 0), as_count(count, "count")
    width, stride = as_count(width, "width", 0), as_count(stride, "stride", 0)
    if count > 1 and width > stride:
        raise ArgumentError(
            f"a run of {count} blocks reads {width} doubles each, past its stride {stride}"
        )
    steps = -(-stride // 4)
    gen = stream(seed, *key)
    gen.bit_generator.advance(first * steps)
    return gen.random((count, max(width, 4 * steps)))[:, :width]


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
    when the values carry a large common offset.  The fields may also be
    arrays, one set of values per entry, which ``+`` merges entry by entry.
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

    @classmethod
    def rows(cls, values) -> "Accumulator":
        """``of`` each row of a 2-D array at once: their count, and a mean and M2 per row."""
        values = np.asarray(values, dtype=float)
        mean = values.sum(axis=1) / values.shape[1]
        dev = values - mean[:, None]
        dev *= dev
        return cls(values.shape[1], mean, dev.sum(axis=1))

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


def blocks(total: int) -> list[tuple[int, int]]:
    """(block index, replicate count) of the fixed blocks covering ``total`` replicates."""
    if total < 1:
        raise ArgumentError(f"need at least 1 replicate, got {total}")
    return [(b, min(BLOCK_SIZE, total - s)) for b, s in enumerate(range(0, total, BLOCK_SIZE))]


def run_blocks(
    total: int, fn, threads: int = 1, chunk: int | None = None
) -> tuple[Accumulator, ...]:
    """Run ``fn`` over the fixed ``blocks`` covering ``total`` replicates.

    By default ``fn(block, count)`` runs once per block and returns a tuple
    of 1-D arrays or ``Accumulator``s; the i-th entry of every block feeds
    the i-th returned accumulator.  With ``chunk``, ``fn(first, size,
    count)`` runs once per run of ``size`` <= ``chunk`` consecutive blocks
    of ``count`` replicates each, from block ``first`` on (a partial last
    block runs alone), and returns a tuple of ``Accumulator``s whose fields
    hold one entry per block of the run, or a scalar that stands for each.
    Blocks, or chunks, may run on ``threads`` worker threads, but the
    per-block accumulators are merged in block order by one pairwise tree,
    so the result depends neither on the thread count nor on the chunk
    size.  ``threads`` and ``chunk`` must be integers >= 1.
    """
    threads = as_count(threads, "threads")
    units = [(b, 1, count) for b, count in blocks(total)]
    if chunk is None:

        def call(b, size, count):
            return tuple(v if isinstance(v, Accumulator) else Accumulator.of(v) for v in fn(b, count))

    else:
        chunk, call = as_count(chunk, "chunk"), fn
        full = total // BLOCK_SIZE
        units = [(first, min(chunk, full - first), BLOCK_SIZE) for first in range(0, full, chunk)]
        if total % BLOCK_SIZE:
            units.append((full, 1, total % BLOCK_SIZE))

    def work(unit):
        return tuple(
            Accumulator(*(np.broadcast_to(v, unit[1]) for v in (acc.count, acc.mean, acc.m2)))
            for acc in call(*unit)
        )

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(work, units))
    else:
        parts = [work(unit) for unit in units]
    return tuple(_merge_blocks(column) for column in zip(*parts))


def _merge_blocks(chunks) -> Accumulator:
    """``pairwise_sum`` of the per-block accumulators in the fields of ``chunks``, in order.

    Each level of the tree merges entries 2i and 2i + 1 at once, and an odd
    last entry moves up as it is.  The merge weights are exact, as in the
    scalar update, while the product of two counts stays below 2^53; from
    the level where a count passes 2^26 on, the few entries left are merged
    as Python numbers.
    """
    fields = [np.concatenate(column) for column in zip(*((a.count, a.mean, a.m2) for a in chunks))]
    while len(fields[0]) > 1 and fields[0].max() <= 1 << 26:
        even = len(fields[0]) & ~1
        left, right = (Accumulator(*(f[i:even:2] for f in fields)) for i in (0, 1))
        top = left + right
        fields = [
            np.concatenate([t, f[even:]]) for t, f in zip((top.count, top.mean, top.m2), fields)
        ]
    return pairwise_sum(Accumulator(*entry) for entry in zip(*(f.tolist() for f in fields)))
