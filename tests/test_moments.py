import itertools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from steindelta import moments, rngstreams
from steindelta.errors import ArgumentError, CapabilityError, DomainError
from steindelta.moments import (
    EXACT,
    HOLDER,
    LATTICE_MAX_N,
    LYAPUNOV,
    MONTE_CARLO,
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
    w_moment_rigorous,
    _permutation_table,
    _rank_mean_batch,
)
from steindelta.statistics import EXAMPLES, builtin


def _table_columns(r):
    """Rows per chunk beside the (r, r!) permutation table; < 1 when it does not fit."""
    return (moments.RANK_CHUNK_FLOATS - r * math.factorial(r)) // (r + 1)


def _float_gather_means(x, n, reps, rng):
    """reps*n columns of the float permutation table of x, each replicate's n summed as floats."""
    table = _permutation_table(x)
    idx = rng.integers(0, table.shape[1], size=reps * n)
    return np.take(table, idx, axis=1).reshape(len(x), reps, n).sum(axis=2).T / n


def _full_array_rank_means(model, n, reps, rng):
    """The unchunked formula of the route the rank model takes.

    r <= 8 draws reps*n column indices of the permutation table at once,
    unless one replicate outgrows the chunk beside the table.  For
    whole-number scores the table holds the offsets from the smallest
    score: the offsets of all rows are gathered, each replicate's n
    columns summed as int64 and mapped to the standardised scale once.
    Other scores gather the standardised columns and sum them as floats.
    When the table does not fit, as for r >= 9, reps*n rows are permuted
    at once and each group is averaged.
    """
    x = model.standardized_scores()
    scores = np.asarray(model.scores)
    r = len(x)
    if r <= 8 and n <= _table_columns(r):
        if moments._lane_bits(scores, n) is None:
            return _float_gather_means(x, n, reps, rng)
        offsets = _permutation_table(scores - scores.min()).astype(np.int64)
        idx = rng.integers(0, offsets.shape[1], size=reps * n)
        sums = np.take(offsets, idx, axis=1).reshape(r, reps, n).sum(axis=2).T
        jbar, sd = model.score_scale()
        return (sums - n * (jbar - scores.min())) / sd / n
    base = np.tile(x, (reps * n, 1))
    return rng.permuted(base, axis=1).reshape(reps, n, r).mean(axis=1)


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


def _brute_w_moment(model, n, r, k):
    """E|W_k|^r summed over every n-row draw of coordinate k.

    Atom models enumerate their atoms; rank scores without an atom table
    enumerate the standardised scores, each score equally likely in a row.
    """
    atoms = model.atoms()
    if atoms is None:
        column = model.standardized_scores()
        probs = np.full(len(column), 1.0 / len(column))
    else:
        probs, column = atoms[0], atoms[1][:, k]
    draws = np.array(list(itertools.product(range(len(probs)), repeat=n)))
    weights = np.prod(probs[draws], axis=1)
    w = column[draws].sum(axis=1) / math.sqrt(n)
    return float(weights @ np.abs(w) ** r)


# (model, n, coordinate): two-atom coordinates take the binomial route at odd
# and fractional orders; the rank models' three- and eight-atom coordinates
# are exact at even orders only.
BRUTE_CASES = {
    "bernoulli": (centered_bernoulli(0.3), 6, 0),
    "rademacher2": (rademacher(2), 5, 1),
    "multinomial": (multinomial_indicator([0.2, 0.3, 0.5]), 6, 2),
    "rank3": (rank_scores([1, 2, 3]), 5, 1),
    "rank8": (rank_scores(range(1, 9)), 5, 3),
}
TWO_ATOM = ("bernoulli", "rademacher2", "multinomial")


class TestExactWMoments:
    @pytest.mark.parametrize("order", [3.0, 4.0, 4.5, 6.0])
    @pytest.mark.parametrize("case", sorted(BRUTE_CASES))
    def test_exact_matches_enumeration(self, case, order):
        model, n, k = BRUTE_CASES[case]
        entry = w_moment_rigorous(model, n, order, k)
        brute = _brute_w_moment(model, n, order, k)
        if order % 2 == 0 or case in TWO_ATOM:
            assert entry.provenance == EXACT
            assert entry.value == pytest.approx(brute, rel=1e-12)
        else:
            assert entry.provenance == LYAPUNOV
            assert entry.value >= brute

    @pytest.mark.parametrize("order", [3.0, 4.5, 5.0, 7.25])
    @pytest.mark.parametrize("case", TWO_ATOM)
    def test_lyapunov_at_least_exact(self, case, order):
        model, n, k = BRUTE_CASES[case]
        even = 2 * math.ceil(order / 2)
        exact = w_moment_rigorous(model, n, order, k)
        lyapunov = w_moment_rigorous(model, n, even, k).value ** (order / even)
        assert exact.provenance == EXACT
        assert lyapunov >= exact.value

    def test_above_lattice_cap_lyapunov_from_even_cumulants(self):
        model = centered_bernoulli(0.3)
        n = LATTICE_MAX_N + 1
        entry = w_moment_rigorous(model, n, 3.0, 0)
        fourth = w_moment_rigorous(model, n, 4.0, 0)
        assert (entry.provenance, fourth.provenance) == (LYAPUNOV, EXACT)
        # E W^4 = 3 sigma^4 + kappa_4 / n for iid rows
        sigma2 = 0.21
        kappa4 = sigma2 * (1 - 6 * sigma2)
        assert fourth.value == pytest.approx(3 * sigma2**2 + kappa4 / n, rel=1e-13)
        # log-convex between E W^2 = sigma^2 and E W^4, below Lyapunov's bound
        assert entry.value == pytest.approx(math.sqrt(sigma2 * fourth.value), rel=1e-14)
        assert entry.value <= fourth.value**0.75

    @pytest.mark.parametrize("order", [3.0, 5.0])
    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_log_convex_between_lyapunov_and_exact(self, n, order):
        """A three-atom coordinate at an odd order: exact <= entry <= Lyapunov."""
        probs, values = np.array([0.2, 0.5, 0.3]), np.array([-1.5, 0.0, 1.0])
        model = atom_model(probs, values[:, None])
        entry = w_moment_rigorous(model, n, order, 0)
        even = order + 1.0
        lyapunov = w_moment_rigorous(model, n, even, 0).value ** (order / even)
        # E|W|^r over the counts (c_0, c_1, c_2) of the three atoms among n rows
        exact = 0.0
        for c0 in range(n + 1):
            for c1 in range(n + 1 - c0):
                counts = np.array([c0, c1, n - c0 - c1])
                weight = math.factorial(n) / math.prod(math.factorial(c) for c in counts)
                w = counts @ values / math.sqrt(n)
                exact += weight * float(np.prod(probs**counts)) * abs(w) ** order
        assert entry.provenance == LYAPUNOV
        assert exact <= entry.value <= lyapunov

    def test_friedman_fourth_moment_closed_form(self):
        # scores 1, 2, 3 standardise to -1, 0, 1: sigma^2 = 2/3, kappa_4 = -2/3
        entry = w_moment_rigorous(rank_scores([1, 2, 3]), 16, 4.0, 0)
        assert entry.value == pytest.approx(3 * (2 / 3) ** 2 - 2 / 3 / 16, rel=1e-14)

    def test_variance_orders_refused(self):
        with pytest.raises(CapabilityError):
            w_moment_rigorous(rademacher(1), 8, 2.0)

    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_exact_within_3se_of_monte_carlo(self, name):
        plan = builtin(name)
        n = plan.n_grid[0]
        table = plan.moment_table(n)
        for (k, r), entry in table.w_abs_moments.items():
            if r <= 2.0:
                assert entry.provenance == HOLDER
                continue
            assert entry.provenance == EXACT
            mc, se = w_moment_mc(plan.model, n, r, k, reps=100_000, seed=plan.seed + 7 * n + 1)
            assert abs(entry.value - mc) <= 3 * se, (k, r, entry.value, mc, se)


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

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: rank_scores([1.0, math.nan, 3.0]), id="rank-nan"),
            pytest.param(lambda: rank_scores([1.0, math.inf, 3.0]), id="rank-inf"),
            pytest.param(lambda: rank_scores([-math.inf] + list(range(8))), id="rank9-inf"),
            pytest.param(lambda: rank_scores([2.0] * 8), id="rank8-constant"),
            pytest.param(lambda: multinomial_indicator([math.nan, 0.5, 0.5]), id="cells-nan"),
            pytest.param(lambda: atom_model([math.nan, 0.5], [(1.0,), (-1.0,)]), id="prob-nan"),
            pytest.param(lambda: atom_model([0.5, 0.5], [(math.nan,), (-1.0,)]), id="value-nan"),
            pytest.param(
                lambda: atom_model([0.5, 0.5], [(math.inf,), (-math.inf,)]), id="value-inf"
            ),
        ],
    )
    def test_bad_model_inputs_rejected_at_construction(self, make):
        with pytest.raises(ArgumentError):
            make()


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
        "scores,n,reps",
        [
            pytest.param(range(1, 9), 1, 3, id="1-3"),
            pytest.param(range(1, 9), 6, 500, id="6-500"),
            # ragged last chunk
            pytest.param(range(1, 9), 64, 3 * (_table_columns(8) // 64) + 5, id="64-1055"),
            pytest.param(range(1, 9), 10_000, 5, id="32-bit-lanes"),
            pytest.param(range(1, 9), 70_000, 2, id="70000-2"),  # a replicate spans two chunks
            pytest.param(range(1, 8), 16, 500, id="r7"),
            pytest.param(range(1, 4), 16, 500, id="r3-below-rows-per-atom"),
            pytest.param((1, 0, 0), 32, 500, id="brown-mood-r3"),
            pytest.param(
                [k**1.5 for k in range(1, 9)], 64, 3 * (_table_columns(8) // 64) + 5,
                id="sen-r8-non-integer",
            ),
        ],
    )
    def test_rank_chunks_bitwise_equal_full_array(self, scores, n, reps):
        model = rank_scores(scores)
        got = sample_mean_batch(model, n, reps, rngstreams.stream(4, n))
        want = _full_array_rank_means(model, n, reps, rngstreams.stream(4, n))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("scores, n", [(range(1, 9), 64), (range(1, 8), 256), ((1, 0, 0), 16)])
    def test_packed_sums_round_like_the_float_gather(self, scores, n):
        # the same permutations of the same stream: only the rounding moves
        model = rank_scores(scores)
        x = model.standardized_scores()
        got = sample_mean_batch(model, n, 2000, rngstreams.stream(13, n))
        want = _float_gather_means(x, n, 2000, rngstreams.stream(13, n))
        assert np.max(np.abs(got - want)) <= 16 * np.finfo(float).eps * np.max(np.abs(x))

    @pytest.mark.parametrize(
        "n, top, bits",
        [
            (5, 13107, 16),  # n * range = 2^16 - 1
            (4, 16384, 32),  # n * range = 2^16
            (4, (1 << 30) - 1, 32),  # n * range = 2^32 - 4
            (4, 1 << 30, None),  # n * range = 2^32: the float gather
        ],
    )
    def test_rank_lane_width_edge(self, n, top, bits):
        # at r = 2 a replicate puts all n top scores in one lane with
        # probability 2^(1 - n), so the widest sum occurs among 500 replicates
        model = rank_scores([0, top])
        assert moments._lane_bits(np.asarray(model.scores), n) == bits
        got = sample_mean_batch(model, n, 500, rngstreams.stream(12, n))
        want = _full_array_rank_means(model, n, 500, rngstreams.stream(12, n))
        assert np.array_equal(got, want)
        assert np.max(np.abs(got)) == pytest.approx(np.max(np.abs(model.standardized_scores())))

    def test_rank_running_sum_carried_over_many_chunks(self, monkeypatch):
        monkeypatch.setattr("steindelta.moments.RANK_CHUNK_FLOATS", 27)  # 3 rows at r=9
        model = rank_scores(range(1, 10))
        for n in (1, 2, 3, 4, 7, 10):
            for reps in (1, 2, 5):
                got = sample_mean_batch(model, n, reps, rngstreams.stream(6, n, reps))
                want = _full_array_rank_means(model, n, reps, rngstreams.stream(6, n, reps))
                assert np.array_equal(got, want), (n, reps)

    def test_rank_memory_flat_in_n(self):
        # the permutation table, index buffer and gathered columns share one budget
        for r in (7, 8, 9):
            model = rank_scores(range(1, r + 1))
            peaks = {}
            for n in (64, 4096):
                tracemalloc.start()
                try:
                    sample_mean_batch(model, n, 512, rngstreams.stream(5, n))
                    peaks[n] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peaks[4096] <= 2 * peaks[64], r
            assert max(peaks.values()) < 8 * 2**20, (r, peaks)

    def test_rank_table_route_holds_one_index_chunk(self):
        # Friedman r = 7 at n = 4096: 16-bit lanes, two words per column; a
        # chunk's index array is freed before the next chunk's is drawn, so
        # the peak is the gather buffer and one index array, plus the table
        r, n, reps = 7, 4096, 512
        model = rank_scores(range(1, r + 1))
        k = _table_columns(r) // n
        index_bytes = 8 * k * n
        buffer_bytes = 2 * index_bytes
        tracemalloc.start()
        try:
            means = sample_mean_batch(model, n, reps, rngstreams.stream(5, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert k < reps and means.shape == (reps, r)
        assert peak < buffer_bytes + 1.5 * index_bytes, (peak, buffer_bytes, index_bytes)

    @pytest.mark.parametrize("r, n, table", [(3, 16, True), (3, 64, False), (4, 128, True),
                                             (4, 256, False), (5, 256, True), (6, 256, True)])
    def test_rank_atom_models_pick_the_cheaper_route(self, r, n, table):
        # below n r = RANK_ROWS_PER_ATOM r! rows the permutation table draws
        # the means, bitwise; above it the multinomial over the r! atoms does
        model = rank_scores(range(1, r + 1))
        got = sample_mean_batch(model, n, 64, rngstreams.stream(9, r, n))
        rng = rngstreams.stream(9, r, n)
        if table:
            want = _rank_mean_batch(model, n, 64, rng)
        else:
            probs, values = model.atoms()
            want = rng.multinomial(n, probs, size=64) @ values / n
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("r", [4, 5, 6])
    def test_rank_atom_models_faster_than_their_multinomial(self, r):
        # 24, 120 and 720 atoms: a multinomial draw costs 2-46 us per
        # replicate at n = 16, the permutation table under 1 us; the two
        # routes alternate, so a load spike reaches both
        model = rank_scores(range(1, r + 1))
        probs, values = model.atoms()
        routes = (
            lambda rng: sample_mean_batch(model, 16, 2000, rng),
            lambda rng: rng.multinomial(16, probs, size=2000) @ values / 16,
        )
        best = [math.inf, math.inf]
        for i in range(5):
            for j, draw in enumerate(routes):
                rng = rngstreams.stream(10, r, i)
                start = time.perf_counter()
                draw(rng)
                best[j] = min(best[j], time.perf_counter() - start)
        chosen, multinomial = best
        assert chosen < multinomial, (chosen, multinomial)

    @pytest.mark.parametrize("r", range(1, 9))
    def test_permutation_table_columns(self, r):
        x = np.arange(1.0, r + 1) ** 1.5
        table = _permutation_table(x)
        assert table.shape == (r, math.factorial(r))
        assert len({tuple(col) for col in table.T}) == math.factorial(r)
        for col in table.T:
            assert np.array_equal(np.sort(col), x)

    @pytest.mark.parametrize("r", [7, 8])
    def test_table_route_law_oracle(self, r):
        model = rank_scores(range(1, r + 1))
        sigma = model_covariance(model)
        # the row law is uniform on the table's columns: its covariance is exact
        table = _permutation_table(model.standardized_scores())
        assert np.allclose(table @ table.T / table.shape[1], sigma, rtol=0, atol=1e-12)
        n, reps = 16, 100_000
        w = sample_mean_batch(model, n, reps, rngstreams.stream(8, r)) * math.sqrt(n)
        # E W = 0 exactly, so w_j w_k is unbiased for the covariance entry
        for j in range(r):
            for k in range(j, r):
                prod = w[:, j] * w[:, k]
                se = prod.std() / math.sqrt(reps)
                assert abs(prod.mean() - sigma[j, k]) <= 4 * se, (j, k)
        for k in range(r):
            for order in (4, 6):
                entry = w_moment_rigorous(model, n, float(order), k)
                assert entry.provenance == EXACT
                power = w[:, k] ** order
                se = power.std() / math.sqrt(reps)
                assert abs(power.mean() - entry.value) <= 4 * se, (k, order)

    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_n_rejected(self, n):
        rng = rngstreams.stream(7, 0)
        for model in (rank_scores(range(1, 9)), centered_bernoulli(0.3)):
            with pytest.raises(ArgumentError):
                sample_mean_batch(model, n, 10, rng)
        with pytest.raises(ArgumentError):
            w_moment_mc(rank_scores(range(1, 9)), n, 4.0, reps=100)
