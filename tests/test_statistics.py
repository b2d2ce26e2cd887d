import cmath
import json
import math
import tracemalloc
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

from steindelta import mcverify, rngstreams, statistics
from steindelta.bounds import GrowthEnvelope
from steindelta.errors import ArgumentError, DomainError, RangeError
from steindelta.moments import atom_model, model_covariance, rademacher, rank_scores
from steindelta.statistics import (
    EXAMPLES,
    CoupledLattice,
    MapSpec,
    builtin,
    coupled_batch,
    coupled_lattice,
    evaluate_statistic,
    friedman_statistic,
    gaussian_batch,
    gaussian_factor,
    guide_table,
    limit_batch,
    limit_cf,
    pearson_statistic,
    plan_from_config,
    quantile_coupled,
    read_stream,
    sen_statistic,
    statistic_batch,
    write_stream,
)


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
        from steindelta.moments import sample_rows

        rows = sample_rows(model, 200, rng)
        assert np.max(np.abs(rows.sum(axis=1))) <= 1e-12
        probs = np.array([0.2, 0.3, 0.5])
        from steindelta.moments import multinomial_indicator

        rows = sample_rows(multinomial_indicator(probs), 200, rng)
        assert np.max(np.abs(rows @ np.sqrt(probs))) <= 1e-12


class TestDeterminismAndParity:
    def test_even_map_negation_bitwise(self):
        plan = builtin("ex3.5-friedman", r=3)
        from steindelta.moments import sample_rows

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
        lattice = coupled_lattice(plan, n)
        s, y_coupled = coupled_batch(lattice, 200_000, rng)
        t_coupled = lattice.values[s]
        t_direct = statistic_batch(
            plan.mapspec, plan.model, n, 200_000, rngstreams.stream(15, 0)
        )[:, 0]
        y_direct = limit_batch(plan, 200_000, rngstreams.stream(16, 0))[:, 0]
        for a, b in ((t_coupled, t_direct), (y_coupled, y_direct)):
            se = math.sqrt(a.var() / a.size + b.var() / b.size)
            assert abs(a.mean() - b.mean()) <= 4 * se
            se2 = math.sqrt(np.var(a**2) / a.size + np.var(b**2) / b.size)
            assert abs(np.mean(a**2) - np.mean(b**2)) <= 4 * se2


def _adversarial_uniforms(cdf, buckets, rng):
    """0, the largest double below 1, every bucket edge and cdf entry with both neighbours, 1e5 draws."""
    edges = np.arange(buckets + 1) / buckets
    points = np.concatenate([edges, cdf])
    u = np.concatenate(
        [
            [0.0, np.nextafter(1.0, 0.0)],
            points,
            np.nextafter(points, 0.0),
            np.nextafter(points, 2.0),
            rng.random(100_000),
        ]
    )
    return u[(u >= 0.0) & (u < 1.0)]


class TestCoupledLattice:
    @pytest.mark.parametrize("p", [1e-3, 0.02, 0.3, 0.5, 0.97])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1024, 4096, 100_000])
    def test_guide_index_equals_searchsorted(self, n, p):
        lattice = coupled_lattice(builtin("bernoulli-variance", p=p), n)
        cdf, buckets = lattice.cdf, 4 * (n + 1)
        assert lattice.guide.size == buckets + 1 and lattice.wide.size == buckets + 1
        assert lattice.values.size == n + 1
        u = _adversarial_uniforms(cdf, buckets, rngstreams.stream(n, 17))
        assert np.array_equal(lattice.index(u), np.searchsorted(cdf, u, side="left"))

    @pytest.mark.parametrize("buckets", [12, 20, 24, 4 * 4097])
    def test_guide_index_exact_for_entries_next_to_bucket_edges(self, buckets):
        # an entry one ulp below an edge j/K can still have floor(x*K) = j
        # (x = nextafter(5/12, 0) at K = 12); the table must bucket it as u is
        edges = np.arange(1, buckets) / buckets
        near = np.stack([np.nextafter(edges, 0.0), edges, np.nextafter(edges, 2.0)])
        cdf = np.append(near[np.arange(edges.size) % 3, np.arange(edges.size)], 1.0)
        guide, wide = guide_table(cdf, buckets)
        lattice = CoupledLattice(0.5, 1, 1.0, cdf, guide, wide, np.zeros(cdf.size))
        assert wide.any() and not wide.all()  # both paths of the index run
        u = _adversarial_uniforms(cdf, buckets, rngstreams.stream(buckets, 18))
        assert np.array_equal(lattice.index(u), np.searchsorted(cdf, u, side="left"))

    def test_values_are_the_statistic_at_each_count(self):
        plan = builtin("ex3.2")
        n = 50
        lattice = coupled_lattice(plan, n)
        s = np.arange(n + 1)
        expected = evaluate_statistic(plan.mapspec, (s / n - plan.model.p)[:, None], n)[:, 0]
        assert np.array_equal(lattice.values, expected)

    def test_nonpositive_n_rejected(self):
        with pytest.raises(ArgumentError):
            coupled_lattice(builtin("ex3.1-chisq"), 0)

    def test_size_capped_before_allocating(self):
        plan = builtin("ex3.1-chisq")
        tracemalloc.start()
        try:
            with pytest.raises(RangeError):
                coupled_lattice(plan, 2**20 + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(RangeError):
            builtin("ex3.1-chisq", n_grid=(16, 2**20 + 1))
        assert builtin("ex3.4", n_grid=(16, 2**20 + 1)).n_grid[-1] == 2**20 + 1  # not coupled

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


class TestSerialisation:
    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_plan_round_trip_bytes(self, name):
        plan = builtin(name)
        text = plan.to_json()
        again = plan_from_config(json.loads(text))
        assert again.to_json() == text

    def test_stream_file_round_trip(self, tmp_path):
        path = tmp_path / "stream.bin"
        values = np.linspace(-2, 2, 17)
        write_stream(path, values)
        raw = path.read_bytes()
        assert raw[:8] == b"SDSTAT01"
        assert np.array_equal(read_stream(path), values)

    def test_stream_magic_checked(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ArgumentError):
            read_stream(path)


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
        assert not quantile_coupled(plan)
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
