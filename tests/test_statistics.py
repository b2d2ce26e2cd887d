import cmath
import json
import math
import tracemalloc
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtri

from steindelta import mcverify, rngstreams, statistics
from steindelta.bounds import GrowthEnvelope
from steindelta.errors import ArgumentError, CapabilityError, DomainError, RangeError
from steindelta.moments import atom_model, model_covariance, rademacher, rank_scores
from steindelta.statistics import (
    EXAMPLES,
    MapSpec,
    builtin,
    COUPLED_MAX_FLOATS,
    conditional_index,
    count_law,
    coupled_batch,
    coupled_blocks,
    evaluate_statistic,
    gaussian_batch,
    gaussian_factor,
    jump_strata,
    limit_batch,
    limit_cf,
    merge_index,
    merged_atoms,
    partial_cf,
    plan_from_config,
    quantile_coupled,
    statistic_batch,
)

from _oracles import friedman_statistic, pearson_statistic, sample_rows, sen_statistic


def identity_map():
    env = GrowthEnvelope(t=1, A={1: 1.0, 2: 0.0}, r={1: 0.0})
    return MapSpec(lambda v: np.asarray(v, dtype=float), np.array([[1.0]]), env)


def plan_of(mapspec, model):
    """A plan whose limit law is fixed by ``mapspec`` and ``model`` alone."""
    return replace(builtin("ex3.4"), mapspec=mapspec, model=model)


class TestSampleStatistic:
    def test_identity_rademacher_support(self):
        mapspec = identity_map()
        model = rademacher(1)
        rng = rngstreams.stream(0, 0)
        values = set(statistic_batch(mapspec, model, 4, 200, rng)[:, 0].tolist())
        assert values <= {-2.0, -1.0, 0.0, 1.0, 2.0}
        assert len(values) >= 3

    def test_constant_shift_invariance(self):
        env = GrowthEnvelope(t=1, A={1: 1.0, 2: 0.0}, r={1: 0.0})
        base = MapSpec(lambda v: np.asarray(v, dtype=float), np.array([[1.0]]), env)
        shifted = MapSpec(lambda v: np.asarray(v, dtype=float) + 5.0, np.array([[1.0]]), env)
        rng_a = rngstreams.stream(42, 0)
        rng_b = rngstreams.stream(42, 0)
        a = statistic_batch(base, rademacher(1), 16, 200, rng_a)
        b = statistic_batch(shifted, rademacher(1), 16, 200, rng_b)
        assert np.array_equal(a, b)  # f(0) subtraction removes the constant bitwise

    def test_bernoulli_variance_statistic_nonpositive(self):
        plan = builtin("ex3.1-chisq")
        rng = rngstreams.stream(1, 0)
        batch = statistic_batch(plan.mapspec, plan.model, 32, 5000, rng)
        assert batch.max() <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ArgumentError):
            statistic_batch(identity_map(), rademacher(2), 8, 1, rngstreams.stream(0, 0))

    def test_envelope_order_must_match_map(self):
        # t is the envelope's, so a tensor of another order is refused
        env = GrowthEnvelope(t=2, A={2: 1.0}, r={2: 0.0})
        with pytest.raises(ArgumentError, match="shape \\(1, 1\\) is not .* envelope t = 2"):
            MapSpec(lambda v: np.asarray(v, dtype=float), np.array([[1.0]]), env)
        with pytest.raises(ArgumentError, match="shape"):
            MapSpec(lambda v: v, np.ones((1, 2, 3)), env)  # d must be one size
        mapspec = MapSpec(lambda v: v, np.ones((3, 2, 2)), env)
        assert (mapspec.d, mapspec.m, mapspec.t) == (2, 3, 2)

    @pytest.mark.parametrize("tensor", [[[1.0]], ((1.0,),), 1.0, None])
    def test_tensor_that_is_not_an_array_is_a_typed_error(self, tensor):
        env = GrowthEnvelope(t=1, A={1: 1.0}, r={1: 0.0})
        with pytest.raises(ArgumentError, match="must be an ndarray"):
            MapSpec(lambda v: v, tensor, env)


class TestSampleLimit:
    def test_identity_standard_normal_moments(self):
        plan = plan_of(identity_map(), rademacher(1))
        rng = rngstreams.stream(2, 0)
        draws = limit_batch(plan, 10**6, rng)[:, 0]
        n = draws.size
        assert abs(draws.mean()) <= 3 * draws.std() / math.sqrt(n)
        # SE of sample variance of N(0,1) is sqrt(2/n)
        assert abs(draws.var() - 1.0) <= 3 * math.sqrt(2 / n)

    def test_chi_square_limit_moments(self):
        r = 4
        plan = builtin("ex3.5-friedman", r=r)
        rng = rngstreams.stream(3, 0)
        draws = limit_batch(plan, 10**6, rng)[:, 0]
        n = draws.size
        se_mean = draws.std() / math.sqrt(n)
        assert abs(draws.mean() - (r - 1)) <= 3 * se_mean
        se_var = math.sqrt(np.var((draws - draws.mean()) ** 2) / n)
        assert abs(draws.var() - 2 * (r - 1)) <= 3 * se_var

    def test_product_limit_second_moment(self):
        # Y = Z1 Z2 with sd(Z1) = 1/2 (fair Bernoulli rows), sd(Z2) = 1 (signs)
        plan = builtin("ex3.3-vg", model1={"kind": "centered-bernoulli", "p": 0.5})
        rng = rngstreams.stream(4, 0)
        draws = limit_batch(plan, 10**6, rng)[:, 0]
        oracle = 0.25  # E[Z1^2] E[Z2^2] by independence
        se = math.sqrt(np.var(draws**2) / draws.size)
        assert abs(np.mean(draws**2) - oracle) <= 3 * se
        assert limit_cf(plan)(np.array([2.0])) == pytest.approx(0.5**0.5, abs=1e-15)

    def test_tensor_limit_matches_isserlis(self):
        sigma = np.array([[1.0, 0.3], [0.3, 0.5]])
        # four atoms +-sqrt(2) l_k over the Cholesky columns l_k have covariance sigma
        cols = math.sqrt(2.0) * np.linalg.cholesky(sigma).T
        model = atom_model([0.25] * 4, [cols[0], -cols[0], cols[1], -cols[1]])
        assert np.allclose(model_covariance(model), sigma, atol=1e-15)
        tensor = np.array([[[2.0, 1.0], [1.0, 0.0]]])
        env = GrowthEnvelope(t=2, A={2: 1.0}, r={2: 0.0})
        plan = plan_of(MapSpec(lambda v: (v[..., :1] ** 2), tensor, env), model)
        mean_oracle = 0.5 * np.einsum("ij,ij->", tensor[0], sigma)
        second = 0.0
        for i, j, k, l in np.ndindex(2, 2, 2, 2):
            e4 = (
                sigma[i, j] * sigma[k, l]
                + sigma[i, k] * sigma[j, l]
                + sigma[i, l] * sigma[j, k]
            )
            second += tensor[0, i, j] * tensor[0, k, l] * e4
        second_oracle = second / 4.0
        rng = rngstreams.stream(5, 0)
        draws = limit_batch(plan, 10**6, rng)[:, 0]
        se1 = draws.std() / math.sqrt(draws.size)
        se2 = math.sqrt(np.var(draws**2) / draws.size)
        assert abs(draws.mean() - mean_oracle) <= 3 * se1
        assert abs(np.mean(draws**2) - second_oracle) <= 3 * se2
        # the closed form's first two cumulants are the same oracles
        cf, eps = limit_cf(plan), 1e-4
        log_cf = [cmath.log(cf(np.array([b]))) for b in (-eps, eps)]
        assert ((log_cf[1] - log_cf[0]) / (2j * eps)).real == pytest.approx(mean_oracle, rel=1e-7)
        variance = -(log_cf[0] + log_cf[1]).real / eps**2
        assert variance == pytest.approx(second_oracle - mean_oracle**2, rel=1e-6)

    def test_scaled_square_sign(self):
        draws = limit_batch(builtin("ex3.1-chisq"), 1000, rngstreams.stream(6, 0))
        assert draws.max() <= 0.0


# The limit law each built-in stated by hand before it was derived from the
# map and the model, as (kind, parameter): N(0, v), c N^2, chi-square(df), or
# s N1 N2 / 2.  ex3.4's normal variance is the covariance of its two atoms
# (p = 0.3), written out in ``ex34_variance``.
REMOVED_DESCRIPTORS = {
    "ex3.1-normal": ("normal", 0.3 * 0.7 * 0.4**2),
    "ex3.1-chisq": ("scaled-square", -0.25),
    "ex3.2": ("scaled-square", 0.3 * 0.7),
    "ex3.3-normal": ("normal", 2.0),
    "ex3.3-vg": ("variance-gamma", 2.0),
    "ex3.4": ("normal", None),
    "ex3.5-brownmood": ("chi-square", 2),
    "ex3.5-friedman": ("chi-square", 2),
    "ex3.6-pearson": ("chi-square", 2),
}


def ex34_variance():
    p = 0.3
    s2 = p * (1 - p)
    atoms = np.array([[1 - p, (1 - p) ** 2 - s2], [-p, p**2 - s2]])
    return atoms.T @ np.diag([p, 1 - p]) @ atoms


def removed_descriptor_expectation(name, h):
    """E h(Y) under the removed descriptor's law, for h = sin(<a, y> + phase)."""
    kind, value = REMOVED_DESCRIPTORS[name]
    a, phase = np.asarray(h.a), h.phase
    if kind == "normal":
        v = ex34_variance() if value is None else np.array([[value]])
        return math.sin(phase) * math.exp(-float(a @ v @ a) / 2.0)
    rot = cmath.exp(1j * phase)
    if kind == "scaled-square":
        return (rot * (1.0 - 2j * a[0] * value) ** -0.5).imag
    if kind == "chi-square":
        return (rot * (1.0 - 2j * a[0]) ** (-value / 2.0)).imag
    return (rot * (1.0 + a[0] ** 2 * value**2 / 4.0) ** -0.5).imag


class TestDerivedLimitLaw:
    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_expectation_matches_removed_descriptor(self, name):
        plan = builtin(name)
        h = mcverify.plan_test_function(plan)
        exact = removed_descriptor_expectation(name, h)
        assert h.expectation(limit_cf(plan)) == pytest.approx(exact, abs=1e-12)
        for a, phase in ((0.3, 0.0), (2.0, 1.9)):  # a second and third h of the same family
            other = mcverify.SmoothTestFunction(a=(a,) * plan.mapspec.m, phase=phase)
            expected = removed_descriptor_expectation(name, other)
            assert other.expectation(limit_cf(plan)) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "name, testfn",
        [pytest.param(name, None, id=name) for name in sorted(EXAMPLES)]
        + [
            pytest.param(
                "ex3.4",
                {"family": "product-form", "a": [1.0, 1.0], "phase": 0.7},
                id="ex3.4-product-form",
            )
        ],
    )
    def test_expectation_within_4se_of_contraction_draws(self, name, testfn):
        plan = builtin(name) if testfn is None else builtin(name, testfn=testfn)
        h = mcverify.plan_test_function(plan)
        values = h(limit_batch(plan, 10**6, rngstreams.stream(27, 0)))
        se = values.std() / math.sqrt(values.size)
        assert abs(values.mean() - h.expectation(limit_cf(plan))) <= 4 * se

    def test_product_form_closed_form(self):
        # sin(a1 Z1 + phi) sin(a2 Z2 + phi) for independent N(0, s_k^2):
        # the product of sin(phi) exp(-a_k^2 s_k^2 / 2)
        env = GrowthEnvelope(t=1, A={1: 1.0, 2: 0.0}, r={1: 0.0})
        plan = plan_of(MapSpec(lambda v: v, np.eye(2), env), rademacher(2))
        h = mcverify.SmoothTestFunction("product-form", (0.5, 2.0), 0.4)
        exact = math.sin(0.4) ** 2 * math.exp(-(0.25 + 4.0) / 2.0)
        assert h.expectation(limit_cf(plan)) == pytest.approx(exact, abs=1e-15)

    def test_no_closed_form_above_order_two(self):
        assert limit_cf(builtin("power-mean", p_exp=3)) is None


class TestGaussianSampler:
    def test_zero_covariance(self):
        rng = rngstreams.stream(7, 0)
        assert np.all(gaussian_batch(np.zeros((3, 3)), rng, 5) == 0.0)

    def test_singular_rank_direction(self):
        plan = builtin("ex3.5-friedman", r=3)
        sigma = plan.moment_table(16).sigma
        rng = rngstreams.stream(8, 0)
        draws = gaussian_batch(sigma, rng, 20_000)
        assert np.max(np.abs(draws.sum(axis=1))) <= 1e-10

    def test_variance_scaling(self):
        rng = rngstreams.stream(9, 0)
        draws = gaussian_batch(np.array([[4.0]]), rng, 10**6)
        assert abs(draws.var() - 4.0) <= 3 * 4.0 * math.sqrt(2 / draws.size)

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            gaussian_factor(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_indefinite_rejected(self):
        with pytest.raises(DomainError):
            gaussian_factor(np.array([[1.0, 0.0], [0.0, -0.5]]))


class TestBuiltins:
    def test_friedman_plan_fields(self):
        plan = builtin("ex3.5-friedman", r=3)
        # the derived limit is chi-square with r - 1 = 2 degrees of freedom
        assert limit_cf(plan)(np.array([0.4])) == pytest.approx(1.0 / (1.0 - 0.8j), abs=1e-15)
        assert plan.mode == "zero-third" and plan.bound_kind == "fn-multivariate"
        assert plan.fn_env.A == 4.0 and plan.fn_env.B == 16.0 and plan.fn_env.r == 4.0
        table = plan.moment_table(16)
        assert table.max_abs_third() <= 1e-12
        assert np.allclose(np.diag(table.sigma), 2 / 3)

    def test_bernoulli_half_plan(self):
        plan = builtin("bernoulli-variance", p=0.5)
        assert plan.mapspec.t == 2 and plan.mode == "zero-third"
        assert plan.limit.kind == "scaled-square" and plan.limit.c == -0.25
        assert plan.mapspec.envelope.vanishing_third

    def test_pearson_uniform_covariance(self):
        plan = builtin("ex3.6-pearson", probs=[0.25] * 4)
        sigma = plan.moment_table(16).sigma
        for j in range(4):
            for k in range(4):
                expected = 0.75 if j == k else -0.25
                assert sigma[j, k] == pytest.approx(expected, rel=1e-12)

    def test_sen_plan_records_score_bound(self):
        plan = builtin("sen-rank", scores=[1, 2, 3, 4])
        assert plan.mode == "even" and plan.mapspec.envelope.even_map

    def test_brown_mood_scores(self):
        plan = builtin("ex3.5-brownmood", a=1, r=3)
        assert plan.model.scores == (1.0, 0.0, 0.0)
        assert plan.mode == "even"

    def test_ex34_nontrivial_but_singular_sigma(self):
        plan = builtin("ex3.4")
        sigma = plan.moment_table(64).sigma
        assert sigma.shape == (2, 2)
        assert np.linalg.eigvalsh(sigma)[0] == pytest.approx(0.0, abs=1e-12)
        assert sigma[0, 1] != 0.0

    def test_nonpositive_grid_point_rejected(self):
        with pytest.raises(ArgumentError):
            builtin("ex3.5-friedman", r=8, n_grid=[0, 4])
        with pytest.raises(ArgumentError):
            builtin("ex3.1-normal", n_grid=(-2, 16))
        with pytest.raises(ArgumentError):
            builtin("ex3.1-normal", n_grid=())

    def test_unknown_builtin(self):
        with pytest.raises(ArgumentError):
            builtin("nope")

    def test_parameter_validation(self):
        with pytest.raises(ArgumentError):
            builtin("pearson", probs=[0.5, 0.4])  # sums to 0.9
        with pytest.raises(ArgumentError):
            builtin("friedman", r=1)
        with pytest.raises(ArgumentError):
            builtin("brown-mood", a=3, r=3)
        with pytest.raises(ArgumentError):
            builtin("bernoulli-variance", p=1.5)


class TestStatisticValues:
    def test_identical_rankings_friedman_r2(self):
        n = 7
        rankings = np.tile([1, 2], (n, 1))
        assert friedman_statistic(rankings) == pytest.approx(n, rel=1e-12)

    def test_exact_counts_give_zero(self):
        assert pearson_statistic([25, 25, 50], [0.25, 0.25, 0.5]) == 0.0

    def test_single_ranking_enumeration(self):
        # n = 1, r = 3: enumerate all 6 permutations exactly
        scores = np.array([1.0, 2.0, 3.0])
        jbar = 2.0
        sj2 = 1.0
        expected = set()
        for perm in permutations((1, 2, 3)):
            x = (scores[np.array(perm) - 1] - jbar) / math.sqrt(sj2)
            expected.add(round(float((x**2).sum()), 12))
        for perm in permutations((1, 2, 3)):
            val = sen_statistic([1, 2, 3], np.array([perm]))
            assert round(val, 12) in expected

    def test_invalid_permutation_rejected(self):
        with pytest.raises(ArgumentError):
            friedman_statistic(np.array([[1, 1, 3]]))

    def test_count_sum_mismatch_rejected(self):
        with pytest.raises(ArgumentError):
            pearson_statistic([10, 10, 10.5], [1 / 3, 1 / 3, 1 / 3])

    def test_representation_identity_friedman(self):
        r, n = 4, 25
        model = rank_scores(range(1, r + 1))
        rng = rngstreams.stream(10, 0)
        x = model.standardized_scores()
        base = np.tile(np.arange(r), (n, 1))
        perms = rng.permuted(base, axis=1)
        rankings = perms + 1
        direct = friedman_statistic(rankings)
        rows = x[perms]
        plan = builtin("friedman", r=r)
        generic = evaluate_statistic(plan.mapspec, rows.mean(axis=0), n)[0]
        assert direct == pytest.approx(generic, rel=1e-10)

    def test_representation_identity_pearson(self):
        probs = [0.2, 0.3, 0.5]
        n = 40
        rng = rngstreams.stream(11, 0)
        counts = rng.multinomial(n, probs)
        direct = pearson_statistic(counts, probs)
        rows = np.zeros((n, 3))
        c = 0
        for j, k in enumerate(counts):
            rows[c : c + k, j] = 1.0
            c += k
        rows = (rows - np.asarray(probs)) / np.sqrt(probs)
        plan = builtin("pearson", probs=probs)
        generic = evaluate_statistic(plan.mapspec, rows.mean(axis=0), n)[0]
        assert direct == pytest.approx(generic, rel=1e-10)

    def test_row_constraints(self):
        model = rank_scores([1, 2, 3, 4, 5])
        rng = rngstreams.stream(12, 0)
        rows = sample_rows(model, 200, rng)
        assert np.max(np.abs(rows.sum(axis=1))) <= 1e-12
        probs = np.array([0.2, 0.3, 0.5])
        from steindelta.moments import multinomial_indicator

        rows = sample_rows(multinomial_indicator(probs), 200, rng)
        assert np.max(np.abs(rows @ np.sqrt(probs))) <= 1e-12


class TestDeterminismAndParity:
    def test_even_map_negation_bitwise(self):
        plan = builtin("ex3.5-friedman", r=3)
        rng = rngstreams.stream(13, 0)
        rows = sample_rows(plan.model, 50, rng)
        a = evaluate_statistic(plan.mapspec, rows.mean(axis=0), 50)
        b = evaluate_statistic(plan.mapspec, (-rows).mean(axis=0), 50)
        assert np.array_equal(a, b)

    def test_seed_determinism(self):
        plan = builtin("ex3.1-normal")
        a = statistic_batch(plan.mapspec, plan.model, 32, 4096, rngstreams.stream(77, 3))
        b = statistic_batch(plan.mapspec, plan.model, 32, 4096, rngstreams.stream(77, 3))
        assert np.array_equal(a, b)

    def test_coupled_batch_marginals(self):
        plan = builtin("ex3.1-chisq")
        n = 64
        rng = rngstreams.stream(14, 0)
        law = count_law(plan, n)
        counts, y_coupled = coupled_batch(law, 200_000, rng)
        t_coupled, y_coupled = law.values[counts[0], 0], y_coupled[:, 0]
        t_direct = statistic_batch(
            plan.mapspec, plan.model, n, 200_000, rngstreams.stream(15, 0)
        )[:, 0]
        y_direct = limit_batch(plan, 200_000, rngstreams.stream(16, 0))[:, 0]
        for a, b in ((t_coupled, t_direct), (y_coupled, y_direct)):
            se = math.sqrt(a.var() / a.size + b.var() / b.size)
            assert abs(a.mean() - b.mean()) <= 4 * se
            se2 = math.sqrt(np.var(a**2) / a.size + np.var(b**2) / b.size)
            assert abs(np.mean(a**2) - np.mean(b**2)) <= 4 * se2


def _adversarial_uniforms(cdf, grid, rng):
    """Sorted: 0, 1, every grid point j/K and cdf entry with both neighbours, 1e5 draws.

    1.0 stands for a stratum draw (j + U)/k that rounds up to 1.
    """
    points = np.concatenate([np.arange(grid + 1) / grid, cdf])
    u = np.concatenate(
        [
            [0.0, 1.0],
            points,
            np.nextafter(points, 0.0),
            np.nextafter(points, 2.0),
            rng.random(100_000),
        ]
    )
    return np.sort(u[(u >= 0.0) & (u <= 1.0)])


def _assert_merge_exact(cdf, u):
    """merge_index equals searchsorted on u and on windows that trim both cdf ends."""
    assert np.array_equal(merge_index(cdf, u), np.searchsorted(cdf, u, side="left"))
    for a, b in ((0.0, 0.5), (0.25, 0.75), (0.5, 1.0), (0.4, 0.41)):
        window = u[(u >= a) & (u <= b)]
        assert np.array_equal(merge_index(cdf, window), np.searchsorted(cdf, window, side="left"))


class TestCoupledLattice:
    # the first step's index is the merge of sorted u into the cdf; the ids
    # keep the names the guide-table index had
    @pytest.mark.parametrize("p", [1e-3, 0.02, 0.3, 0.5, 0.97])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1024, 4096, 100_000, 2**20])
    def test_guide_index_equals_searchsorted(self, n, p):
        law = count_law(builtin("bernoulli-variance", p=p), n)
        assert law.cdf.size == law.values.size == n + 1
        u = _adversarial_uniforms(law.cdf, 1024, rngstreams.stream(n, 17))
        _assert_merge_exact(law.cdf, u)

    @pytest.mark.parametrize("buckets", [12, 20, 24, 4 * 4097])
    def test_guide_index_exact_for_entries_next_to_bucket_edges(self, buckets):
        # cdf entries at and one ulp either side of the points j/K, with
        # u at the same points: ties and near-ties on both sides of the merge
        edges = np.arange(1, buckets) / buckets
        near = np.stack([np.nextafter(edges, 0.0), edges, np.nextafter(edges, 2.0)])
        cdf = np.append(near[np.arange(edges.size) % 3, np.arange(edges.size)], 1.0)
        cdf = np.repeat(cdf, 1 + np.arange(cdf.size) % 2)  # repeated entries too
        _assert_merge_exact(cdf, _adversarial_uniforms(cdf, buckets, rngstreams.stream(buckets, 18)))

    @pytest.mark.parametrize("name", ["ex3.1-normal", "ex3.1-chisq", "ex3.2"])
    def test_two_sorted_uniforms_per_stratum(self, name):
        # every stratum by default, or the listed ones, ascending: here the
        # jump strata and every third one
        plan = builtin(name)
        law = count_law(plan, 64)
        count, k = 4096, 2048
        for strata in (None, jump_strata(law, count)[0], np.arange(0, k, 3)):
            j = np.arange(k) if strata is None else strata
            counts, y = coupled_batch(law, count, rngstreams.stream(3, 2, 0), strata)
            # stratum j of width 1/k holds (j + U)/k for two U, the smaller first
            draws = np.sort(rngstreams.stream(3, 2, 0).random((j.size, 2)), axis=1)
            u = ((j[:, None] + draws) / k).ravel()
            s = counts[0]
            assert 0 < j.size and counts.shape == (1, 2 * j.size) and y.shape == (2 * j.size, 1)
            assert np.all(np.floor(u * k) == np.repeat(j, 2))
            assert np.all(np.diff(u) >= 0) and np.all(np.diff(s) >= 0)
            assert np.array_equal(s, np.searchsorted(law.cdf, u, side="left"))
            p, t = plan.model.p, plan.mapspec.t
            z = math.sqrt(p * (1 - p)) * ndtri(u)
            scale = plan.mapspec.derivative_tensor.flat[0] / math.factorial(t)
            assert np.allclose(y[:, 0], scale * z**t, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("q", [1e-3, 0.2, 1 / 3, 0.5, 0.97])
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64, 300])
    def test_later_step_index_equals_row_searchsorted(self, n, q):
        # u = 0, u = 1 (a draw that rounds up), every cdf entry and bucket
        # edge with both neighbours, and plain draws, against every row
        # step 2 of these three cells is a Binomial(m, q) for every remaining m
        law = count_law(builtin("ex3.6-pearson", probs=[0.3, 0.7 * q, 0.7 * (1 - q)]), n)
        assert law.q[1] == pytest.approx(q, rel=1e-12)
        table = law.steps[0]
        rng = rngstreams.stream(n, 19)
        for m in range(n + 1):
            row = table.cdf[m * (m + 1) // 2 :][: m + 1]
            edges = np.arange(m + 2) / (m + 1)
            points = np.concatenate([row, edges])
            u = np.concatenate(
                [[0.0, 1.0], points, np.nextafter(points, 0.0), np.nextafter(points, 2.0), rng.random(64)]
            )
            u = u[(u >= 0.0) & (u <= 1.0)]
            got = conditional_index(table, np.full(u.size, m), u)
            assert np.array_equal(got, np.searchsorted(row, u, side="left")), m

    def test_duplicate_atoms_merge(self):
        probs, rows = merged_atoms(builtin("ex3.5-brownmood").model)
        assert probs.tolist() == pytest.approx([1 / 3] * 3) and rows.shape == (3, 3)
        assert len(count_law(builtin("ex3.5-brownmood"), 16).steps) == 1
        assert merged_atoms(builtin("ex3.5-friedman").model)[1].shape == (6, 3)
        assert merged_atoms(builtin("friedman", r=8).model) is None

    def test_later_step_block_memory_at_budget(self):
        # one block at the largest n a three-atom law allows: its own arrays
        # are O(count), about 2 MiB at BLOCK_SIZE pairs, below half of the
        # 8 MiB of tables it reads
        plan = builtin("ex3.6-pearson")
        n = max(m for m in range(1400, 1500) if quantile_coupled(plan, m))
        law = count_law(plan, n)
        assert sum(a.nbytes for a in (law.cdf, law.steps[0].cdf)) > 8 * COUPLED_MAX_FLOATS - 8 * n
        rng = rngstreams.stream(5, 2, 0)
        tracemalloc.start()
        try:
            coupled_batch(law, rngstreams.BLOCK_SIZE, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    @pytest.mark.parametrize("count", [0, 1, 4097])
    def test_odd_or_empty_block_rejected(self, count):
        law = count_law(builtin("ex3.1-chisq"), 64)
        with pytest.raises(ArgumentError):
            coupled_batch(law, count, rngstreams.stream(3, 2, 0))

    def test_block_memory_independent_of_n(self):
        # the merge touches only the cdf entries the block's u span; a merge
        # over the whole n = 2^20 cdf would allocate two 8 MiB index arrays
        law = count_law(builtin("ex3.1-chisq"), 2**20)
        rng = rngstreams.stream(5, 2, 0)
        tracemalloc.start()
        try:
            coupled_batch(law, rngstreams.BLOCK_SIZE, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_values_are_the_statistic_at_each_count(self):
        plan = builtin("ex3.2")
        n = 50
        law = count_law(plan, n)
        s = np.arange(n + 1)
        expected = evaluate_statistic(plan.mapspec, (s / n - plan.model.p)[:, None], n)
        assert np.array_equal(law.values, expected)

    def test_nonpositive_n_rejected(self):
        with pytest.raises(ArgumentError):
            count_law(builtin("ex3.1-chisq"), 0)

    def test_size_capped_before_allocating(self):
        # a law past the float budget is refused before any table is built,
        # and a plan whose grid passes it builds and stays one-sided
        for plan, n in ((builtin("ex3.1-chisq"), 2**20 + 1), (builtin("ex3.6-pearson"), 1446)):
            tracemalloc.start()
            try:
                with pytest.raises(RangeError):
                    count_law(plan, n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
            assert quantile_coupled(plan, n - 1) and not quantile_coupled(plan, n)
            wide = builtin(plan.name, n_grid=(16, n))
            assert not quantile_coupled(wide, wide.n_grid[-1]) and quantile_coupled(wide, 16)
        assert not quantile_coupled(builtin("ex3.4"), 2**20 + 1)

    def test_sweep_leaves_no_module_state(self):
        def state():
            return {
                (module.__name__, name): len(value)
                for module in (statistics, mcverify)
                for name, value in vars(module).items()
                if isinstance(value, (dict, list, set))
            }

        before = state()
        for name in ("ex3.1-normal", "ex3.1-chisq", "ex3.2"):
            plan = builtin(name)
            h = mcverify.plan_test_function(plan)
            for n in range(1, 200, 7):
                mcverify.estimate_delta_h(replace(plan, seed=n), h, n, replicates=1000)
        assert state() == before


def _edge_cdf(buckets):
    """A cdf with entries at and one ulp either side of the stratum edges j/K, repeated too."""
    edges = np.arange(1, buckets) / buckets
    near = np.stack([np.nextafter(edges, 0.0), edges, np.nextafter(edges, 2.0)])
    cdf = np.append(near[np.arange(edges.size) % 3, np.arange(edges.size)], 1.0)
    return np.repeat(cdf, 1 + np.arange(cdf.size) % 2)


class TestJumpStrata:
    LAWS = [
        ("ex3.1-normal", 64),
        ("ex3.1-normal", 1024),
        ("ex3.1-chisq", 4096),
        ("ex3.2", 16),
        ("bernoulli-variance p=0.5", 1),  # the cdf entry 1/2 is a stratum edge
        ("bernoulli-variance p=1e-18", 4),  # every cdf entry rounds to 1
        ("edges-4096", None),
        ("edges-501", None),
    ]

    @staticmethod
    def law(name, n):
        if name.startswith("edges-"):
            law = count_law(builtin("ex3.1-chisq"), 64)
            return replace(law, cdf=_edge_cdf(int(name.split("-")[1])))
        if name.startswith("bernoulli-variance p="):
            return count_law(builtin("bernoulli-variance", p=float(name.split("=")[1])), n)
        return count_law(builtin(name), n)

    @pytest.mark.parametrize("count", [2, 6, 1002, 8192, rngstreams.BLOCK_SIZE])
    @pytest.mark.parametrize("name, n", LAWS)
    def test_count_constant_in_undrawn_strata(self, name, n, count):
        # the sampler's u = (j + U)/k at U = 0, the next uniform, 1/2 and the
        # last two below 1 (the last may round up, to 1 at j = k - 1), and
        # each stratum edge j/k with both neighbours: every one of them that
        # lies in an undrawn stratum's range takes that stratum's count
        law = self.law(name, n)
        strata, s = jump_strata(law, count)
        k = count // 2
        j = np.arange(k, dtype=float)
        draws = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-52, 1.0 - 2.0**-53])
        u = (draws[:, None] + j) / k
        low, high = u[0], u[-1]
        assert np.all(np.diff(u, axis=0) >= 0.0)
        assert np.array_equal(strata, np.flatnonzero(
            np.searchsorted(law.cdf, low) != np.searchsorted(law.cdf, high)))
        fixed = np.ones(k, dtype=bool)
        fixed[strata] = False
        assert np.all(np.searchsorted(law.cdf, u[:, fixed]) == s[fixed])
        edges = np.arange(k + 1) / k
        points = np.concatenate(
            [edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0), [0.0, 1.0]]
        )
        for jj in np.flatnonzero(fixed):
            inside = points[(points >= low[jj]) & (points <= high[jj])]
            assert np.all(np.searchsorted(law.cdf, inside) == s[jj]), jj

    @pytest.mark.parametrize("name, n", LAWS[:5])
    def test_drawn_counts_constant_in_undrawn_strata(self, name, n):
        # a whole block drawn stratum by stratum: outside the jump strata
        # both pairs of stratum j take the count s[j]
        law = self.law(name, n)
        count = rngstreams.BLOCK_SIZE
        strata, s = jump_strata(law, count)
        counts, _ = coupled_batch(law, count, rngstreams.stream(n, 21))
        fixed = np.ones(count // 2, dtype=bool)
        fixed[strata] = False
        pairs = counts[0].reshape(-1, 2)
        assert np.all(pairs[fixed] == s[fixed, None])
        assert strata.size < count // 20

    def test_law_without_jumps_has_none(self):
        law = self.law("bernoulli-variance p=1e-18", 4)
        assert np.all(law.cdf == 1.0)
        assert jump_strata(law, rngstreams.BLOCK_SIZE)[0].size == 0


class TestCoupledBlocks:
    @pytest.mark.parametrize("count", [rngstreams.BLOCK_SIZE, 1002])
    @pytest.mark.parametrize("name, n", [("ex3.1-normal", 64), ("ex3.1-chisq", 1024), ("ex3.4", 96)])
    def test_equal_coupled_batch_block_by_block(self, name, n, count):
        law = count_law(builtin(name), n)
        strata = jump_strata(law, count)[0]
        draws = np.stack([rngstreams.stream(3, 2, b).random((strata.size, 2)) for b in range(5)])
        counts, y = coupled_blocks(law, count, draws, strata)
        for b in range(5):
            want_counts, want_y = coupled_batch(law, count, rngstreams.stream(3, 2, b), strata)
            rows = slice(2 * strata.size * b, 2 * strata.size * (b + 1))
            assert np.array_equal(counts[rows], want_counts[0])
            assert np.array_equal(y[rows], want_y)

    @pytest.mark.parametrize("count", [6, 1002, rngstreams.BLOCK_SIZE])
    @pytest.mark.parametrize("name, n", TestJumpStrata.LAWS + [("ex3.1-chisq", 1024)])
    def test_counts_equal_searchsorted(self, name, n, count):
        # every stratum, drawn so that u lands on its edges j/k and
        # (j + 1 - 2^-53)/k, on and one ulp either side of its first, second
        # and last cdf entry, and at plain draws: one comparison settles a
        # stratum with at most one entry, and the tails' wide strata (up to
        # 453 entries at n = 1024, repeats in the edge cdfs) are searched
        law = TestJumpStrata.law(name, n)
        k = count // 2
        j = np.arange(k, dtype=float)
        low = law.cdf.searchsorted(j / k)
        high = law.cdf.searchsorted((j + (1.0 - 2.0**-53)) / k)
        last = law.cdf.size - 1
        draws = [np.zeros(k), np.full(k, 1.0 - 2.0**-53), np.full(k, 0.5)]
        for pos in (low, np.minimum(low + 1, high - 1), high - 1):
            entry = law.cdf[np.clip(pos, 0, last)]
            inside = (pos >= low) & (pos < high)
            u = np.where(inside, entry * k - j, 0.5)
            draws += [u, np.nextafter(u, 0.0), np.nextafter(u, 2.0)]
        draws = np.clip(np.stack(draws), 0.0, 1.0 - 2.0**-53)
        rng = rngstreams.stream(count, 19)
        draws = np.stack([draws, rng.random(draws.shape)], axis=-1)  # (kinds, k, 2)
        u = (j[:, None] + np.sort(draws, axis=-1)) / k
        counts, _ = coupled_blocks(law, count, draws, j)
        assert np.array_equal(counts, law.cdf.searchsorted(u.ravel()))
        assert (high - low > 1).any() or name != "ex3.1-chisq"

    def test_needs_two_atoms(self):
        law = count_law(builtin("ex3.6-pearson"), 16)
        with pytest.raises(CapabilityError):
            coupled_blocks(law, 8, np.zeros((1, 4, 2)), np.arange(4))


class TestPartialCf:
    # two-atom plans: t = 1 with one and two outputs, t = 2 with one
    PLANS = [
        ("ex3.1-normal", {}),
        ("ex3.4", {}),
        ("ex3.1-chisq", {}),
        ("power-mean", {"p_exp": 2, "model": {"kind": "rademacher", "d": 1}}),
    ]

    @staticmethod
    def cases(name, params):
        """(plan, law, h) at frequencies whose largest |c| = |<b, form>| sd^t is 0.5, 5 and 30."""
        plan = builtin(name, **params)
        law = count_law(plan, 16)
        form = np.abs(law.form.reshape(-1)) * law.sd[0] ** plan.mapspec.t
        m = plan.mapspec.m
        for family in ("cosine-wave", "product-form"):
            for c_max in (0.5, 5.0, 30.0):
                a = np.linspace(1.0, 0.5, m)
                a *= c_max / (a @ form)
                yield plan, law, mcverify.SmoothTestFunction(family, tuple(a), 0.7)

    @pytest.mark.parametrize("name, params", PLANS)
    def test_all_strata_sum_to_the_limit_expectation(self, name, params):
        for plan, law, h in self.cases(name, params):
            full = h.expectation(limit_cf(plan))
            k = 8192
            edges = ndtri(np.arange(k + 1) / k)  # -inf and inf at the ends
            z = np.concatenate([[-np.inf], np.linspace(-38.0, 38.0, 257), [np.inf]])
            for e in (edges, z):
                got = h.expectation(partial_cf(law, e[:-1], e[1:]))
                assert abs(got - full) <= 1e-12, (h, got, full)

    @pytest.mark.parametrize("name, params", PLANS)
    def test_single_strata_match_quadrature(self, name, params):
        k = 8192
        strata = [0, 1, 37, k // 2 - 1, k // 2, k - 2, k - 1]
        u_edges = [(ndtri(j / k), ndtri((j + 1) / k)) for j in strata]
        z_edges = [(-38.0, -37.0), (-0.1, 0.2), (0.5, 1.5), (2.0, 9.0), (-4.0, -1.0)]
        for _, law, h in self.cases(name, params):
            sd = law.sd[0]

            def integrand(z):
                y = law.limit(np.array([[sd * z]]))
                return h(y)[0] * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

            for lo, hi in u_edges + z_edges:
                want = quad(integrand, lo, hi, limit=1000, epsabs=1e-14, epsrel=1e-12)[0]
                got = h.expectation(partial_cf(law, np.array([lo]), np.array([hi])))
                assert abs(got - want) <= 1e-10, (h, lo, hi, got, want)

    @pytest.mark.parametrize("name, params", PLANS)
    def test_no_overflow_at_large_frequency_and_far_edges(self, name, params):
        # an erfc form of the complex normal cdf overflows near |c| = 37 for
        # t = 1; the Faddeeva form stays finite and within the interval's mass
        law = count_law(builtin(name, **params), 16)
        edges = np.array([-np.inf, -40.0, -38.0, -37.0, -1.0, 0.0, 1.0, 37.0, 38.0, 40.0, np.inf])
        mass = np.diff(0.5 * (1.0 + np.vectorize(math.erf)(edges / math.sqrt(2.0))))
        form = float(np.abs(law.form).sum()) * law.sd[0] ** law.mapspec.t
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for c in (30.0, 36.5, 37.0, 38.0, 100.0, 1e4):
                b = np.full(law.mapspec.m, c / form / law.mapspec.m)
                for i in range(edges.size - 1):
                    value = partial_cf(law, edges[i : i + 1], edges[i + 1 : i + 2])(b)
                    assert cmath.isfinite(value) and abs(value) <= mass[i] + 1e-15, (c, i, value)

    def test_needs_two_atoms(self):
        law = count_law(builtin("ex3.6-pearson"), 16)
        with pytest.raises(CapabilityError):
            partial_cf(law, np.array([0.0]), np.array([1.0]))


class TestSerialisation:
    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_plan_round_trip_bytes(self, name):
        plan = builtin(name)
        text = plan.to_json()
        again = plan_from_config(json.loads(text))
        assert again.to_json() == text

    def test_multinomial_spec_reads_the_atom_probabilities(self):
        spec = {"kind": "multinomial-indicator", "probs": [0.2, 0.3, 0.5]}
        model = statistics.model_from_spec(spec)
        assert statistics.model_to_spec(model) == spec
        assert model.atom_probs == (0.2, 0.3, 0.5)


class TestSenRepresentation:
    def test_representation_identity_brown_mood_scores(self):
        scores = [1.0, 0.0, 0.0]  # indicator scores, r = 3
        n = 30
        model = rank_scores(scores)
        rng = rngstreams.stream(17, 0)
        x = model.standardized_scores()
        base = np.tile(np.arange(3), (n, 1))
        perms = rng.permuted(base, axis=1)
        direct = sen_statistic(scores, perms + 1)
        rows = x[perms]
        plan = builtin("brown-mood", a=1, r=3)
        generic = evaluate_statistic(plan.mapspec, rows.mean(axis=0), n)[0]
        assert direct == pytest.approx(generic, rel=1e-10)


class TestSquaredMeanPlan:
    def test_ex32_configuration(self):
        plan = builtin("ex3.2")
        assert plan.mapspec.t == 2 and plan.mode == "even"
        assert plan.mapspec.envelope.even_map
        assert not plan.mapspec.envelope.vanishing_third  # skewed Bernoulli rows
        assert plan.limit.kind == "scaled-square"
        assert plan.limit.c == pytest.approx(0.21)

    def test_ex32_verification_dominates(self):
        from steindelta.mcverify import run_verification

        plan = builtin("ex3.2", n_grid=(16, 32), replicates=20_000, w_reps=20_000)
        rows = run_verification(plan)
        assert all(r.status == "dominated" for r in rows)
        assert all(r.rigor == "rigorous" for r in rows)


class TestPowerMeanGeneral:
    def test_cube_of_mean_general_mode(self):
        plan = builtin("power-mean", p_exp=3, model={"kind": "rademacher", "d": 1})
        assert plan.mapspec.t == 3 and plan.mode == "general"
        assert plan.mapspec.envelope.A_at(3) == 3.0  # 3!/2
        assert not quantile_coupled(plan, 1)
        # limit is the cube of a standard normal; check odd/even moments
        rng = rngstreams.stream(19, 0)
        draws = limit_batch(plan, 200_000, rng)[:, 0]
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean()) <= 3 * se
        # E[Z^6] = 15 for the cube's second moment
        se2 = math.sqrt(np.var(draws**2) / draws.size)
        assert abs(np.mean(draws**2) - 15.0) <= 3 * se2

    def test_cube_report_and_domination(self):
        from steindelta.mcverify import plan_bound_report, plan_test_function, estimate_delta_h, verify_bound

        plan = builtin(
            "power-mean", p_exp=3, model={"kind": "rademacher", "d": 1},
            n_grid=(16,), replicates=20_000, w_reps=20_000,
        )
        rep = plan_bound_report(plan, 16)
        assert rep.valid and rep.theorem == "delta-uv-general"
        est = estimate_delta_h(plan, plan_test_function(plan), 16)
        assert verify_bound(est, rep).status == "dominated"


class TestProductLimitLaw:
    def test_statistic_and_limit_second_moments_agree(self):
        # For independent unit-variance coordinates, E[(sqrt(n) X1bar *
        # sqrt(n) X2bar)^2] = 1 exactly at every n, so the limit must have
        # second moment 1 as well; this pins the scale of the product limit.
        plan = builtin("ex3.3-vg")
        rng = rngstreams.stream(23, 0)
        t_draws = statistic_batch(plan.mapspec, plan.model, 256, 200_000, rng)[:, 0]
        y_draws = limit_batch(plan, 200_000, rngstreams.stream(24, 0))[:, 0]
        se_t = math.sqrt(np.var(t_draws**2) / t_draws.size)
        se_y = math.sqrt(np.var(y_draws**2) / y_draws.size)
        assert abs(np.mean(t_draws**2) - 1.0) <= 3 * se_t
        assert abs(np.mean(y_draws**2) - 1.0) <= 3 * se_y

    def test_tensor_route_matches_shortcut_law(self):
        # contracting the cross-derivative tensor with N(0, I2) must give the
        # product law Y = N1 N2: E Y^2 = 1 and E Y^4 = (E N^4)^2 = 9
        plan = builtin("ex3.3-vg")
        draws = limit_batch(plan, 300_000, rngstreams.stream(25, 0))[:, 0]
        for power, moment in ((2, 1.0), (4, 9.0)):
            se = math.sqrt(np.var(draws**power) / draws.size)
            assert abs(np.mean(draws**power) - moment) <= 3 * se
