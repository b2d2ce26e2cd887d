import numpy as np
import pytest

from steindelta import rngstreams
from steindelta.errors import ArgumentError
from steindelta.rngstreams import Accumulator, pairwise_sum, philox_keys, run_blocks, uniforms

SEEDS = [0, 1, 2026, 2**32 - 1, 2**32 + 5, 2**64 + 3]


class TestPhiloxKeys:
    @pytest.mark.parametrize("prefix", [(2,), (1, 7)])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equal_seed_sequence_state(self, seed, prefix):
        keys = philox_keys(seed, *prefix, first=0, count=4096)
        want = np.array(
            [
                np.random.SeedSequence(seed, spawn_key=(*prefix, b)).generate_state(2, np.uint64)
                for b in range(4096)
            ]
        )
        assert keys.dtype == np.uint64 and keys.shape == (4096, 2)
        assert np.array_equal(keys, want)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_key_draws_what_the_stream_draws(self, seed):
        first = 4090
        keys = philox_keys(seed, 2, first=first, count=6)
        rows = uniforms(keys, (5, 2))
        for i, key in enumerate(keys):
            want = rngstreams.stream(seed, 2, first + i).random((5, 2))
            got = np.random.Generator(np.random.Philox(key=key)).random((5, 2))
            assert np.array_equal(got, want) and np.array_equal(rows[i], want)

    def test_run_matches_its_parts(self):
        whole = philox_keys(77, 2, first=10, count=20)
        assert np.array_equal(whole[5:], philox_keys(77, 2, first=15, count=15))

    @pytest.mark.parametrize("first, count", [(-1, 2), (2**32 - 1, 2), (0, 0)])
    def test_rejects_blocks_outside_uint32(self, first, count):
        with pytest.raises(ArgumentError):
            philox_keys(1, 2, first=first, count=count)

    def test_rejects_negative_seed(self):
        with pytest.raises(ArgumentError):
            philox_keys(-1, 2, first=0, count=1)


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
