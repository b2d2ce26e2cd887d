import json
import math
import tracemalloc

import numpy as np
import pytest

from steindelta import rngstreams
from steindelta.errors import ArgumentError, CapabilityError, DomainError
from steindelta.moments import (
    HOLDER,
    MONTE_CARLO,
    RANK_CHUNK_FLOATS,
    DataModel,
    MomentTable,
    analytic_moments,
    atom_model,
    centered_bernoulli,
    enforce_psd,
    model_covariance,
    multinomial_indicator,
    product_model,
    rademacher,
    rank_scores,
    sample_mean_batch,
    w_moment_holder,
    w_moment_mc,
)


def _full_array_rank_means(model, n, reps, rng):
    """The unchunked formula: permute reps*n rows at once, average each group."""
    base = np.tile(model.standardized_scores(), (reps * n, 1))
    return rng.permuted(base, axis=1).reshape(reps, n, model.d).mean(axis=1)


class TestAnalyticMoments:
    def test_symmetric_bernoulli_orders(self):
        table = analytic_moments(centered_bernoulli(0.5), [1, 2, 3, 4, 6], 100)
        for m in (1, 2, 3, 4, 6):
            assert table.abs_moment(0, m) == pytest.approx(2.0**-m, rel=1e-14)

    def test_rademacher_all_orders_one(self):
        table = analytic_moments(rademacher(1), [0.5, 1, 2, 3.7, 6], 10)
        for s in (0.5, 1, 2, 3.7, 6):
            assert table.abs_moment(0, s) == pytest.approx(1.0, rel=1e-14)

    def test_bernoulli_third_two_point_oracle(self):
        p = 0.3
        table = analytic_moments(centered_bernoulli(p), [3], 10)
        oracle = p * (1 - p) ** 3 + (1 - p) * p**3
        assert table.abs_moment(0, 3) == pytest.approx(oracle, rel=1e-14)
        assert oracle == pytest.approx(p * (1 - p) * ((1 - p) ** 2 + p**2), rel=1e-14)

    def test_atomless_model_refused(self):
        with pytest.raises(CapabilityError):
            analytic_moments(DataModel(kind="atomless", d=1), [2], 10)

    def test_fractional_orders_are_keys(self):
        table = analytic_moments(centered_bernoulli(0.4), [1 / 6, 25 / 6], 10)
        assert table.has_abs_moment(0, 1 / 6)
        assert table.has_abs_moment(0, 25 / 6)


class TestWMoments:
    def test_holder_equality_case(self):
        table = analytic_moments(centered_bernoulli(0.5), [], 16, w_orders=[2.0])
        entry = table.w_abs_moment(0, 2.0)
        assert entry.value == pytest.approx(0.25, rel=1e-14)
        assert entry.std_error is None and entry.provenance == HOLDER

    def test_holder_first_order(self):
        sigma_k = math.sqrt(model_covariance(centered_bernoulli(0.5))[0, 0])
        assert w_moment_holder(sigma_k, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_holder_refuses_large_order(self):
        with pytest.raises(CapabilityError):
            w_moment_holder(1.0, 3.0)

    def test_rademacher_exhaustive_oracle(self):
        # W = sum of 4 signs / 2; enumerate the 16 sign patterns exactly
        vals = {}
        for bits in range(16):
            w = sum(1 if bits >> i & 1 else -1 for i in range(4)) / 2.0
            vals[w] = vals.get(w, 0) + 1 / 16
        oracle = sum(p * abs(w) ** 3 for w, p in vals.items())
        assert oracle == pytest.approx(1.5, rel=1e-14)
        table = analytic_moments(rademacher(1), [], 4, w_orders=[3.0], w_seed=5, w_reps=200_000)
        entry = table.w_abs_moment(0, 3.0)
        assert entry.provenance == MONTE_CARLO
        assert abs(entry.value - oracle) <= 3 * entry.std_error

    def test_shard_invariance_of_mc(self):
        a = w_moment_mc(rademacher(1), 8, 3.0, reps=50_000, seed=3)[0]
        b = w_moment_mc(rademacher(1), 8, 3.0, reps=50_000, seed=3)[0]
        assert a == b


class TestModelCovariance:
    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_rank_scores_closed_form(self, r):
        sigma = model_covariance(rank_scores(range(1, r + 1)))
        for j in range(r):
            for k in range(r):
                expected = (r - 1) / r if j == k else -1 / r
                assert sigma[j, k] == pytest.approx(expected, rel=1e-12)

    def test_rank_rows_sum_to_zero(self):
        sigma = model_covariance(rank_scores([1, 2, 3, 4]))
        assert np.max(np.abs(sigma @ np.ones(4))) <= 1e-12

    def test_multinomial_uniform(self):
        r = 4
        sigma = model_covariance(multinomial_indicator([1 / r] * r))
        for j in range(r):
            for k in range(r):
                expected = 1 - 1 / r if j == k else -1 / r
                assert sigma[j, k] == pytest.approx(expected, rel=1e-12)

    def test_multinomial_general_entries(self):
        probs = [0.2, 0.3, 0.5]
        sigma = model_covariance(multinomial_indicator(probs))
        for j in range(3):
            assert sigma[j, j] == pytest.approx(1 - probs[j], rel=1e-12)
            for k in range(3):
                if j != k:
                    assert sigma[j, k] == pytest.approx(
                        -math.sqrt(probs[j] * probs[k]), rel=1e-12
                    )

    def test_bernoulli_scalar_variance(self):
        sigma = model_covariance(centered_bernoulli(0.3))
        assert sigma[0, 0] == pytest.approx(0.21, rel=1e-12)

    def test_covariance_matches_row_expectation(self):
        model = multinomial_indicator([0.2, 0.3, 0.5])
        probs, values = model.atoms()
        direct = np.einsum("c,cj,ck->jk", probs, values, values)
        assert np.allclose(model_covariance(model), direct, rtol=1e-13)

    def test_atomless_model_refused(self):
        with pytest.raises(CapabilityError):
            model_covariance(DataModel(kind="atomless", d=2))


class TestMixedThirds:
    # the exact signed tensor E[X_j X_k X_l] of one row, keyed by sorted (j, k, l)
    def test_rademacher_symmetric(self):
        assert analytic_moments(rademacher(1), [], 1).mixed_third[(0, 0, 0)] == 0.0

    def test_friedman_scores_vanish(self):
        thirds = analytic_moments(rank_scores([1, 2, 3, 4]), [], 1).mixed_third
        assert max(abs(v) for v in thirds.values()) <= 1e-12

    def test_bernoulli_third_oracle(self):
        p = 0.3
        thirds = analytic_moments(centered_bernoulli(p), [], 1).mixed_third
        oracle = p * (1 - p) ** 3 - (1 - p) * p**3  # signed two-point sum
        assert thirds[(0, 0, 0)] == pytest.approx(oracle, rel=1e-12)
        assert oracle == pytest.approx(p * (1 - p) * (1 - 2 * p), rel=1e-12)

    def test_brown_mood_scores_do_not_vanish(self):
        thirds = analytic_moments(rank_scores([1.0, 0.0, 0.0]), [], 1).mixed_third
        assert max(abs(v) for v in thirds.values()) > 0.1

    def test_rank_thirds_match_permutation_enumeration(self):
        from itertools import permutations

        model = rank_scores([1, 2, 4])
        x = model.standardized_scores()
        thirds = analytic_moments(model, [], 1).mixed_third
        perms = list(permutations(range(3)))
        for j, k, l in [(0, 0, 0), (0, 0, 1), (0, 1, 2), (1, 2, 2)]:
            oracle = np.mean([x[list(p)][j] * x[list(p)][k] * x[list(p)][l] for p in perms])
            assert thirds[tuple(sorted((j, k, l)))] == pytest.approx(oracle, abs=1e-12)


class TestTableInvariants:
    def test_lyapunov_holds_on_constructed_tables(self):
        for model in (
            centered_bernoulli(0.2),
            rademacher(2),
            rank_scores([1, 2, 3]),
            multinomial_indicator([0.25, 0.25, 0.5]),
        ):
            table = analytic_moments(model, [1, 2, 3, 3.5, 4, 6, 10], 50)
            table.validate()  # raises on violation

    def test_covariance_identity_for_iid_rows(self):
        model = rank_scores([1, 2, 3])
        table = analytic_moments(model, [2], 25)
        assert np.allclose(table.sigma, model_covariance(model), atol=1e-14)

    def test_psd_clamp_and_rejection(self):
        good = np.array([[1.0, 0.0], [0.0, -1e-12]])
        clamped = enforce_psd(good)
        assert np.linalg.eigvalsh(clamped).min() >= 0
        with pytest.raises(DomainError):
            enforce_psd(np.array([[1.0, 0.0], [0.0, -1e-3]]))

    def test_json_round_trip_canonical(self):
        table = analytic_moments(
            rank_scores([1, 2, 3]), [2, 3, 25 / 6], 40, w_orders=[2.0, 3.0], w_reps=2000
        )
        text = table.to_json()
        again = MomentTable.from_json(text)
        assert again.to_json() == text
        assert again.w_abs_moment(0, 3.0) == table.w_abs_moment(0, 3.0)
        assert again.w_abs_moment(0, 3.0).std_error > 0
        doc = json.loads(text)
        assert json.dumps(doc, sort_keys=True, separators=(",", ":")) == text

    def test_atom_and_product_models(self):
        pair = product_model(rademacher(1), centered_bernoulli(0.5))
        assert pair.d == 2
        table = analytic_moments(pair, [2, 3], 10)
        assert table.abs_moment(0, 2) == pytest.approx(1.0, rel=1e-14)
        assert table.abs_moment(1, 2) == pytest.approx(0.25, rel=1e-14)
        # independent coordinates: no cross third moments
        assert table.mixed_third[(0, 0, 1)] == pytest.approx(0.0, abs=1e-15)
        with pytest.raises(ArgumentError):
            atom_model([0.5, 0.5], [(1.0,), (1.0,)])  # nonzero mean


class TestSampleMeanBatch:
    def test_multinomial_route_matches_row_route(self):
        model = centered_bernoulli(0.25)
        rng = rngstreams.stream(2, 0)
        means = sample_mean_batch(model, 50, 40_000, rng)
        assert means.shape == (40_000, 1)
        assert abs(means.mean()) <= 4 * means.std() / math.sqrt(40_000)
        # Var(mean of n rows) = p(1-p)/n
        assert means.var() == pytest.approx(0.25 * 0.75 / 50, rel=0.05)

    def test_rank_scores_large_r_permutation_route(self):
        model = rank_scores(range(1, 9))  # r = 8 > atom cutoff
        assert model.atoms() is None
        rng = rngstreams.stream(3, 0)
        means = sample_mean_batch(model, 6, 500, rng)
        assert means.shape == (500, 8)
        assert np.max(np.abs(means.sum(axis=1))) <= 1e-12

    @pytest.mark.parametrize(
        "n,reps",
        [
            (1, 3),
            (6, 500),
            (64, 3 * (RANK_CHUNK_FLOATS // 8 // 64) + 5),  # ragged last chunk
            (70_000, 2),  # one replicate spans two chunks
        ],
    )
    def test_rank_chunks_bitwise_equal_full_array(self, n, reps):
        model = rank_scores(range(1, 9))
        got = sample_mean_batch(model, n, reps, rngstreams.stream(4, n))
        want = _full_array_rank_means(model, n, reps, rngstreams.stream(4, n))
        assert np.array_equal(got, want)

    def test_rank_running_sum_carried_over_many_chunks(self, monkeypatch):
        monkeypatch.setattr("steindelta.moments.RANK_CHUNK_FLOATS", 27)  # 3 rows at r=9
        model = rank_scores(range(1, 10))
        for n in (1, 2, 3, 4, 7, 10):
            for reps in (1, 2, 5):
                got = sample_mean_batch(model, n, reps, rngstreams.stream(6, n, reps))
                want = _full_array_rank_means(model, n, reps, rngstreams.stream(6, n, reps))
                assert np.array_equal(got, want), (n, reps)

    def test_rank_memory_flat_in_n(self):
        model = rank_scores(range(1, 9))
        peaks = {}
        for n in (64, 4096):
            tracemalloc.start()
            try:
                sample_mean_batch(model, n, 512, rngstreams.stream(5, n))
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4096] <= 2 * peaks[64]
        assert peaks[4096] < 16 * 2**20

    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_n_rejected(self, n):
        rng = rngstreams.stream(7, 0)
        for model in (rank_scores(range(1, 9)), centered_bernoulli(0.3)):
            with pytest.raises(ArgumentError):
                sample_mean_batch(model, n, 10, rng)
        with pytest.raises(ArgumentError):
            w_moment_mc(rank_scores(range(1, 9)), n, 4.0, reps=100)
