"""Direct reference evaluators that the tests compare the library against.

Each computes a statistic, or draws rows, straight from its textbook
definition with no batching, coupling or moment tables, so a test that
matches the library's generic path against one of these checks that path
by an independent route.  ``two_atom_estimate`` is the two-atom coupled
estimator one block at a time from one sequential stream, the reference
for its chunked route and its counter layout.  The
library itself never calls them.
"""

import math

import numpy as np

from steindelta import mcverify, rngstreams
from steindelta.errors import ArgumentError, CapabilityError
from steindelta.moments import DataModel
from steindelta.statistics import count_law, coupled_batch, limit_cf


def sen_statistic(scores, rankings) -> float:
    """Score-based rank statistic: sum of squared normalised score sums."""
    scores = np.asarray(scores, dtype=float)
    rankings = np.asarray(rankings, dtype=int)
    if rankings.ndim != 2:
        raise ArgumentError("rankings must be (n, r)")
    n, r = rankings.shape
    if len(scores) != r:
        raise ArgumentError("score vector length must match ranking width")
    expected = np.arange(1, r + 1)
    for row in rankings:
        if not np.array_equal(np.sort(row), expected):
            raise ArgumentError(f"row {row} is not a permutation of 1..{r}")
    jbar = scores.mean()
    sj2 = ((scores - jbar) ** 2).sum() / (r - 1)
    x = (scores[rankings - 1] - jbar) / math.sqrt(sj2)
    w = x.sum(axis=0) / math.sqrt(n)
    return float((w**2).sum())


def friedman_statistic(rankings) -> float:
    r = np.asarray(rankings).shape[1]
    return sen_statistic(np.arange(1, r + 1, dtype=float), rankings)


def pearson_statistic(counts, probs) -> float:
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if counts.shape != probs.shape:
        raise ArgumentError("counts and probabilities must align")
    n = counts.sum()
    if not float(n).is_integer() or n <= 0:
        raise ArgumentError("counts must sum to a positive integer")
    if abs(probs.sum() - 1.0) > 1e-12 or (probs <= 0).any():
        raise ArgumentError("probabilities must be positive and sum to 1")
    return float(((counts - n * probs) ** 2 / (n * probs)).sum())


def sample_rows(model: DataModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n iid observation rows, shape (n, d)."""
    if n < 1:
        raise ArgumentError(f"need n >= 1, got {n}")
    atoms = model.atoms()
    if atoms is not None:
        probs, values = atoms
        idx = rng.choice(len(probs), size=n, p=probs)
        return values[idx]
    if model.kind == "rank-scores":
        x = model.standardized_scores()
        base = np.tile(x, (n, 1))
        return rng.permuted(base, axis=1)
    raise CapabilityError(f"cannot sample model kind {model.kind!r}")


def two_atom_estimate(plan, h, n: int, replicates: int) -> tuple[float, float]:
    """(value, SE) of ``estimate_delta_h`` on a two-atom plan, one block at a time.

    The blocks read one stream (seed, 2) in order: each draws its jump
    strata with ``coupled_batch``, whose counts come from ``merge_index``,
    and then skips the rest of its last four doubles (one Philox counter
    step), so the next block starts on a fresh counter.  A block's drawn f
    and d enter ``Accumulator.of`` and merge with its exact strata, and the
    blocks' accumulators are summed by ``pairwise_sum`` in block order.
    """
    replicates += replicates % 2
    law = count_law(plan, n)
    h_values = h(law.values)
    target = h.expectation(limit_cf(plan))
    rng = rngstreams.stream(plan.seed, 2)
    tables, accs, ds = {}, [], []
    for b, count in rngstreams.blocks(replicates):
        if count not in tables:
            tables[count] = mcverify._exact_strata(law, h, h_values, target, count)
        strata, acc, d = tables[count]
        if strata.size:
            counts, y = coupled_batch(law, count, rng, strata)
            rng.random(-2 * strata.size % 4)
            f = h_values[counts[0]] - h(y)
            acc = acc + rngstreams.Accumulator.of(f)
            d = d + rngstreams.Accumulator.of(f[0::2] - f[1::2])
        accs.append(acc)
        ds.append(d)
    acc, d = rngstreams.pairwise_sum(accs), rngstreams.pairwise_sum(ds)
    return abs(acc.mean), math.sqrt(d.m2 + d.count * d.mean**2) / replicates
