import numpy as np
import pytest

from steindelta import rngstreams
from steindelta.errors import ArgumentError
from steindelta.rngstreams import Accumulator, block_uniforms, pairwise_sum, run_blocks

SEEDS = [0, 1, 2026, 2**32 - 1, 2**32 + 5, 2**64 + 3]


class TestBlockUniforms:
    @staticmethod
    def sequential(seed, key, blocks, width, stride, last_width):
        """Blocks read in order from one stream: a block's width, then the
        rest of its stride rounded up to whole Philox counter steps of four
        doubles; the last block reads last_width."""
        rng = rngstreams.stream(seed, *key)
        rows = []
        for _ in range(blocks - 1):
            rows.append(rng.random(width))
            rng.random(4 * -(-stride // 4) - width)
        return rows + [rng.random(last_width)]

    @pytest.mark.parametrize("prefix", [(2,), (1, 7)])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_rows_follow_one_stream(self, seed, prefix):
        # strides of 2, 4 and 6 doubles, and one past the width; the last
        # block narrower or wider than the others
        for width, stride, last in ((2, 2, 6), (4, 4, 2), (6, 6, 10), (5, 7, 3)):
            want = self.sequential(seed, prefix, 9, width, stride, last)
            got = block_uniforms(seed, *prefix, first=0, count=8, width=width, stride=stride)
            assert got.shape == (8, width) and np.array_equal(got, np.stack(want[:-1]))
            got = block_uniforms(seed, *prefix, first=8, count=1, width=last, stride=stride)
            assert np.array_equal(got[0], want[-1])

    def test_run_matches_its_parts(self):
        def run(first, count, width):
            return block_uniforms(77, 2, first=first, count=count, width=width, stride=7)

        whole = run(10, 20, 5)
        assert np.array_equal(whole[5:], run(15, 15, 5))
        assert np.array_equal(whole[:, :3], run(10, 20, 3))

    def test_no_width_draws_nothing(self):
        assert block_uniforms(5, 2, first=3, count=4, width=0, stride=0).shape == (4, 0)

    @pytest.mark.parametrize(
        "first, count, width, stride", [(-1, 2, 2, 2), (0, 0, 2, 2), (0, 2, 4, 2), (0, 1, -2, 2)]
    )
    def test_rejects_invalid_runs(self, first, count, width, stride):
        # a negative block, no block, a run of blocks past their stride, a negative width
        with pytest.raises(ArgumentError):
            block_uniforms(1, 2, first=first, count=count, width=width, stride=stride)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            block_uniforms(-1, 2, first=0, count=1, width=2, stride=2)


class TestChunkedBlocks:
    @pytest.mark.parametrize("size", [1, 2, 7, 8, 9, 127, 128, 129, 4096, 8192, 8193, 16_384])
    def test_rows_equal_of_each_row(self, size):
        rng = np.random.default_rng(size)
        values = rng.standard_normal((3, size)) * 10.0 + 1e3
        rows = Accumulator.rows(values)
        for i, row in enumerate(values):
            acc = Accumulator.of(row)
            assert (rows.count, rows.mean[i], rows.m2[i]) == (acc.count, acc.mean, acc.m2)

    @staticmethod
    def one_block(b, count):
        # a block's accumulator, with a count that stands for count pairs
        values = np.sin(np.arange(1.0, 9.0) * (b + 1.0)) + b
        acc = Accumulator.of(values)
        return (Accumulator(count, acc.mean, acc.m2),)

    def chunked(self, first, size, count):
        accs = [self.one_block(b, count)[0] for b in range(first, first + size)]
        return (Accumulator(count, np.array([a.mean for a in accs]), np.array([a.m2 for a in accs])),)

    @pytest.mark.parametrize(
        "total", [1, rngstreams.BLOCK_SIZE, 37 * rngstreams.BLOCK_SIZE + 11, 9000 * rngstreams.BLOCK_SIZE + 3]
    )
    def test_chunks_merge_like_blocks(self, total):
        # the scalar pairwise tree of the blocks' accumulators, for any chunk
        # size and thread count, also where the merged counts pass 2^26
        want = (pairwise_sum(self.one_block(*job)[0] for job in rngstreams.blocks(total)),)
        assert run_blocks(total, self.one_block) == want
        for chunk in (1, 2, 3, 64):
            for threads in (1, 3):
                assert run_blocks(total, self.chunked, threads, chunk) == want, (chunk, threads)

    def test_scalar_fields_stand_for_every_block(self):
        acc = Accumulator(rngstreams.BLOCK_SIZE, 0.25, 3.0)
        total = 5 * rngstreams.BLOCK_SIZE

        def same(first, size, count):
            return (acc,)

        assert run_blocks(total, same, chunk=2) == (pairwise_sum([acc] * 5),)

    def test_rejects_a_chunk_that_is_not_a_positive_integer(self):
        with pytest.raises(ArgumentError):
            run_blocks(10, self.chunked, 1, 0)
