"""Deterministic counter-based random streams and fixed-order reductions.

Replicate loops are split into fixed-size blocks.  Block ``b`` of a job
draws from ``Philox`` keyed by ``(seed, *key, b)``, so the numbers a
replicate sees depend only on the seed and its block index, never on how
blocks are distributed over workers.  ``stream`` builds one such
generator through numpy's ``SeedSequence``; ``philox_keys`` derives the
same Philox keys for a run of consecutive blocks at once, with the
``SeedSequence`` hash computed on uint32 arrays, and ``uniforms`` draws
each block's first uniforms from its key, so a run of blocks builds no
``SeedSequence`` per block and every stream stays bitwise the same.  Each
block reduces its values to (count, mean, M2) accumulators, which are
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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, hash constants that step by a fixed multiplier per use.
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(value: int) -> list[int]:
    """The uint32 words of a nonnegative int, least significant first; 0 is one word."""
    value = int(value)
    if value < 0:
        raise ArgumentError(f"stream keys must be nonnegative, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash_consts(init: int, mult: int):
    """The (xor, multiplier) pairs of successive hash steps: c_i and c_{i+1} = c_i * mult."""
    const = init
    while True:
        nxt = (const * mult) & _MASK32
        yield const, nxt
        const = nxt


def _hashmix(value, xor, mult):
    # ints below 2^32 or uint32 arrays, which wrap mod 2^32 by themselves
    value = ((value ^ xor) * mult) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    x = ((_MIX_L * x) & _MASK32) - ((_MIX_R * y) & _MASK32)
    x &= _MASK32
    return x ^ (x >> 16)


def philox_keys(seed: int, *key: int, first: int, count: int) -> np.ndarray:
    """Philox keys of the streams (seed, *key, b) for b = first..first + count - 1.

    Row i of the (count, 2) uint64 result is
    ``SeedSequence(seed, spawn_key=(*key, first + i)).generate_state(2, np.uint64)``,
    the key ``stream`` gives its generator.  Every entropy word but the
    last, the block index, is the same for the whole run, so the hash runs
    on Python ints up to that word and on one (4, count) uint32 array, a row
    per pool word, from there; no ``SeedSequence`` is built.
    """
    first, count = int(first), as_count(count, "count")
    if first < 0 or first + count > _MASK32 + 1:
        raise ArgumentError(f"blocks must lie in [0, 2^32), got {first}..{first + count - 1}")
    entropy = _words(seed)
    entropy += [0] * (_POOL - len(entropy))  # a spawn key pads the run entropy to the pool
    for k in key:
        entropy += _words(k)
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(word, *next(consts)) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(consts)))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(word, *next(consts)))
    # the block index: one hash step per pool word, then generate_state's four
    blocks = np.arange(first, first + count, dtype=np.uint32)
    steps = np.array([next(consts) for _ in range(_POOL)], dtype=np.uint32)[:, :, None]
    hashed = _hashmix(blocks, steps[:, 0], steps[:, 1])
    words = _mix(np.array(pool, dtype=np.uint32)[:, None], hashed)
    consts = _hash_consts(_INIT_B, _MULT_B)
    steps = np.array([next(consts) for _ in range(_POOL)], dtype=np.uint32)[:, :, None]
    words = _hashmix(words, steps[:, 0], steps[:, 1]).astype(np.uint64)
    keys = np.empty((count, 2), dtype=np.uint64)
    np.bitwise_or(words[0], words[1] << np.uint64(32), out=keys[:, 0])
    np.bitwise_or(words[2], words[3] << np.uint64(32), out=keys[:, 1])
    return keys


def uniforms(keys: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """(len(keys), *shape) uniforms: row i is ``random(shape)`` of a fresh Philox keyed keys[i].

    One bit generator serves every row: its state is set to the row's key
    at counter 0 with an empty buffer, which is where a new generator
    starts, so row i equals the first draw of ``stream`` on that key.
    """
    out = np.empty((len(keys), *shape))
    bitgen = np.random.Philox(key=keys[0])
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    for k, row in zip(keys, out):
        state["state"]["key"] = k
        bitgen.state = state
        gen.random(out=row)
    return out


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
