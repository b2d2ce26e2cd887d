import cmath
import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import binom

from steindelta import mcverify, rngstreams
from steindelta.bounds import BoundReport, FnEnvelope
from steindelta.core import TestBudget
from steindelta.errors import ArgumentError, CapabilityError
from steindelta.mcverify import (
    DistanceEstimate,
    RatePreconditionError,
    SmoothTestFunction,
    estimate_delta,
    estimate_delta_h,
    fit_rate,
    plan_bound_report,
    plan_test_function,
    point_mass_check,
    stein_solution_check,
    verify_bound,
)
from steindelta.moments import centered_bernoulli
from steindelta.statistics import EXAMPLES, builtin, coupled_lattice, quantile_coupled


def make_report(value, theorem="delta-uv-zero3"):
    rep = BoundReport(theorem, 100, 1, 1, 2, -1.0)
    rep.applicability = [("n >= 8", True)]
    rep.value = value
    rep.terms = {"K": value}
    rep.term_weights = {"K": 1.0}
    return rep


class TestSmoothTestFunction:
    def test_budgets_follow_frequency(self):
        h = SmoothTestFunction(a=(0.5, 2.0), phase=0.3)
        budget = h.budget(4)
        assert budget.sup_norms == (2.0, 4.0, 8.0, 16.0)
        assert h.hprime() == 2.0 and h.hdoubleprime() == 4.0

    def test_cosine_wave_values(self):
        h = SmoothTestFunction(a=(1.0,), phase=math.pi / 2)
        x = np.array([[0.0], [1.0]])
        assert np.allclose(h(x), np.cos([0.0, 1.0]))

    def test_product_form(self):
        h = SmoothTestFunction(family="product-form", a=(1.0, 2.0), phase=0.1)
        x = np.array([[0.3, -0.2]])
        expected = math.sin(0.3 + 0.1) * math.sin(-0.4 + 0.1)
        assert h(x)[0] == pytest.approx(expected, rel=1e-12)


class TestEstimateDelta:
    def test_identical_samplers_within_noise(self):
        h = SmoothTestFunction(a=(1.0,), phase=0.7)
        hits = 0
        for seed in range(100):
            est = estimate_delta(
                lambda c, rng: rng.normal(size=(c, 1)),
                lambda c, rng: rng.normal(size=(c, 1)),
                h,
                2000,
                seed=seed,
            )
            if est.value <= 3 * est.std_error:
                hits += 1
        assert hits >= 99

    def test_gaussian_pair_oracle(self):
        # E[cos Z] = exp(-sigma^2/2); sigma 1 vs 1.1
        oracle = math.exp(-0.5) - math.exp(-(1.1**2) / 2)
        h = SmoothTestFunction(a=(1.0,), phase=math.pi / 2)
        est = estimate_delta(
            lambda c, rng: rng.normal(size=(c, 1)),
            lambda c, rng: 1.1 * rng.normal(size=(c, 1)),
            h,
            200_000,
            seed=3,
        )
        assert oracle == pytest.approx(0.060456, abs=5e-6)
        assert abs(est.value - oracle) <= 3 * est.std_error

    def test_rademacher_vs_gaussian_oracle(self):
        # characteristic-function oracle: E[cos W] = cos(1/2)^4 for n = 4
        oracle = abs(math.cos(0.5) ** 4 - math.exp(-0.5))
        h = SmoothTestFunction(a=(1.0,), phase=math.pi / 2)

        def rademacher_sum(c, rng):
            signs = rng.choice([-1.0, 1.0], size=(c, 4))
            return signs.sum(axis=1, keepdims=True) / 2.0

        est = estimate_delta(
            rademacher_sum, lambda c, rng: rng.normal(size=(c, 1)), h, 200_000, seed=4
        )
        assert abs(est.value - oracle) <= 3 * est.std_error

    def test_unbiased_across_seeds(self):
        oracle = abs(math.cos(0.5) ** 4 - math.exp(-0.5))
        h = SmoothTestFunction(a=(1.0,), phase=math.pi / 2)

        def rademacher_sum(c, rng):
            signs = rng.choice([-1.0, 1.0], size=(c, 4))
            return signs.sum(axis=1, keepdims=True) / 2.0

        hits = 0
        for seed in range(100):
            est = estimate_delta(
                rademacher_sum, lambda c, rng: rng.normal(size=(c, 1)), h, 4000, seed=seed
            )
            if abs(est.value - oracle) <= 3 * est.std_error:
                hits += 1
        assert hits >= 99


class TestBlockEngine:
    @staticmethod
    def two_streams(b, count):
        rng = rngstreams.stream(5, b)
        return 1e6 + rng.standard_normal(count), rng.exponential(size=count)

    def test_large_offset_standard_error(self):
        # sumsq/n - mean^2 loses every digit of the variance at a 1e8 offset
        reps = 100_000
        est = estimate_delta(
            lambda c, rng: rng.normal(size=(c, 1)),
            lambda c, rng: rng.normal(size=(c, 1)),
            lambda x: 1e8 + x[:, 0],
            reps,
            seed=3,
        )
        assert est.std_error == pytest.approx(math.sqrt(2.0 / reps), rel=0.02)

    @pytest.mark.parametrize(
        "total", [1, rngstreams.BLOCK_SIZE, 3 * rngstreams.BLOCK_SIZE + 5]
    )
    def test_matches_two_pass_reference(self, total):
        accs = rngstreams.run_blocks(total, self.two_streams)
        starts = range(0, total, rngstreams.BLOCK_SIZE)
        parts = [
            self.two_streams(b, min(rngstreams.BLOCK_SIZE, total - s))
            for b, s in enumerate(starts)
        ]
        for i, acc in enumerate(accs):
            values = np.concatenate([part[i] for part in parts])
            mean = values.mean()
            assert acc.count == total
            assert acc.mean == pytest.approx(mean, rel=1e-12)
            assert acc.variance == pytest.approx(((values - mean) ** 2).mean(), rel=1e-12)
        assert rngstreams.run_blocks(total, self.two_streams, threads=3) == accs

    def test_rejects_empty_job(self):
        with pytest.raises(ArgumentError):
            rngstreams.run_blocks(0, self.two_streams)


class TestCoupledEstimatorExactOracle:
    @staticmethod
    def exact_delta(plan, n, h):
        p = plan.model.p
        pmf = [math.comb(n, s) * p**s * (1 - p) ** (n - s) for s in range(n + 1)]
        t_mean = 0.0
        for s, w in enumerate(pmf):
            vbar = s / n - p
            t_val = plan.mapspec.evaluator(np.array([vbar]))[0]
            f0 = plan.mapspec.evaluator(np.array([0.0]))[0]
            t_mean += w * h(np.array([[n ** (plan.mapspec.t / 2) * (t_val - f0)]]))[0]
        sigma = math.sqrt(p * (1 - p))
        deriv = float(plan.mapspec.derivative_tensor.flat[0])
        if plan.mapspec.t == 1:
            y_of_z = lambda z: deriv * sigma * z  # noqa: E731
        else:
            y_of_z = lambda z: deriv / 2.0 * (sigma * z) ** 2  # noqa: E731
        integrand = lambda z: (  # noqa: E731
            h(np.array([[y_of_z(z)]]))[0] * math.exp(-z * z / 2) / math.sqrt(2 * math.pi)
        )
        y_mean, err = quad(integrand, -10, 10, limit=200)
        assert err < 1e-8
        return abs(t_mean - y_mean)

    @pytest.mark.parametrize("name,n", [("ex3.1-chisq", 32), ("ex3.1-normal", 48)])
    def test_matches_exact_enumeration(self, name, n):
        plan = builtin(name)
        h = plan_test_function(plan)
        exact = self.exact_delta(plan, n, h)
        est = estimate_delta_h(dataclasses.replace(plan, seed=9), h, n, replicates=300_000)
        assert abs(est.value - exact) <= 3 * est.std_error
        assert est.std_error < exact / 3  # signal well separated


class TestVerifyBound:
    def test_dominated(self):
        est = DistanceEstimate(0.01, 0.001, 1000, 0)
        assert verify_bound(est, make_report(5.0)).status == "dominated"

    def test_violated_with_margin(self):
        est = DistanceEstimate(6.0, 0.1, 1000, 0)
        verdict = verify_bound(est, make_report(5.0))
        assert verdict.status == "violated"
        assert verdict.margin == pytest.approx(0.7, rel=1e-12)

    def test_inconclusive_by_se_rule(self):
        est = DistanceEstimate(0.3, 0.8, 1000, 0)
        assert verify_bound(est, make_report(1.0)).status == "inconclusive"

    def test_invalid_report_rejected(self):
        rep = make_report(1.0)
        rep.applicability = [("n >= 12", False)]
        with pytest.raises(ArgumentError):
            verify_bound(DistanceEstimate(0.1, 0.01, 1000, 0), rep)


class TestFitRate:
    def test_exact_inverse_n(self):
        points = [(n, DistanceEstimate(2.0 / n, 1e-9, 1000, 0)) for n in (16, 32, 64, 128)]
        fit = fit_rate(points)
        assert fit.slope == pytest.approx(-1.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(2.0), abs=1e-9)

    def test_exact_inverse_sqrt(self):
        points = [
            (n, DistanceEstimate(3.0 / math.sqrt(n), 1e-9, 1000, 0)) for n in (16, 64, 256)
        ]
        assert fit_rate(points).slope == pytest.approx(-0.5, abs=1e-9)

    def test_noise_dominated_points_listed(self):
        points = [
            (16, DistanceEstimate(1.0, 0.001, 1000, 0)),
            (32, DistanceEstimate(0.5, 0.001, 1000, 0)),
            (64, DistanceEstimate(0.001, 0.01, 1000, 0)),
        ]
        with pytest.raises(RatePreconditionError) as err:
            fit_rate(points)
        assert err.value.noisy_points == [(64, 0.001, 0.01)]

    def test_needs_three_points(self):
        points = [(16, DistanceEstimate(1.0, 1e-6, 1000, 0))] * 2
        with pytest.raises(ArgumentError):
            fit_rate(points)

    def test_short_grid_rejected_before_sampling(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a two-point rate sweep must not sample")

        monkeypatch.setattr(mcverify, "estimate_delta_h", unreachable)
        with pytest.raises(ArgumentError, match="at least 3 points"):
            mcverify.run_rate(builtin("ex3.1-chisq", n_grid=(64, 128), replicates=2000))


class TestPointMass:
    def test_exact_binomial_value(self):
        exact, asym = point_mass_check(8)
        assert exact == pytest.approx(70 / 256, rel=1e-12)
        assert asym == pytest.approx(math.sqrt(2 / (8 * math.pi)), rel=1e-14)

    def test_ratio_tends_to_one(self):
        exact, asym = point_mass_check(10_000)
        assert abs(exact / asym - 1.0) < 0.01

    def test_odd_rejected(self):
        with pytest.raises(ArgumentError):
            point_mass_check(7)


class TestSteinSolutionCheck:
    def test_constant_test_function_vanishes(self):
        h = SmoothTestFunction(a=(0.0,), phase=0.5)
        checks = stein_solution_check(
            FnEnvelope(1.0, 0.0, 0.0),
            lambda w: w.sum(axis=-1),
            h,
            [[1.0]],
            [0.0, 1.0],
            steps=60,
            mc_reps=4000,
            seed=1,
            budget=TestBudget(1, (0.0,)),
        )
        for c in checks:
            assert c.estimate == pytest.approx(0.0, abs=1e-12)
            assert c.passed

    def test_linear_map_classical_bound(self):
        h = SmoothTestFunction(a=(1.0,), phase=0.0)  # h = sin
        checks = stein_solution_check(
            FnEnvelope(1.0, 0.0, 0.0),
            lambda w: w.sum(axis=-1),
            h,
            [[1.0]],
            [0.0, 1.0, -1.0, 2.0, -2.0],
            steps=200,
            mc_reps=20_000,
            seed=2,
            budget=TestBudget(1, (1.0,)),
        )
        for c in checks:
            assert c.bound == pytest.approx(1.0, rel=1e-12)
            assert c.passed, c.diagnostic

    def test_square_map_growth_envelope(self):
        h = SmoothTestFunction(a=(1.0,), phase=0.0)
        env = FnEnvelope(0.0, 1.0, 1.0)
        checks = stein_solution_check(
            env,
            lambda w: (w**2).sum(axis=-1),
            h,
            [[1.0]],
            [0.0, 1.0, -1.0],
            steps=200,
            mc_reps=20_000,
            seed=3,
            budget=TestBudget(1, (1.0,)),
        )
        for c in checks:
            expected = math.sqrt(2) * (abs(c.w[0]) + math.sqrt(2 / math.pi))
            assert c.bound == pytest.approx(expected, rel=1e-12)
            assert c.passed, c.diagnostic


class TestDeterminism:
    def test_thread_count_invariance_bitwise(self):
        plan = builtin("ex3.5-friedman", r=2)
        h = plan_test_function(plan)
        plan = dataclasses.replace(plan, seed=5)
        a = estimate_delta_h(plan, h, 16, replicates=40_000, threads=1)
        b = estimate_delta_h(plan, h, 16, replicates=40_000, threads=4)
        assert a.value == b.value and a.std_error == b.std_error

    def test_rerun_bitwise(self):
        plan = builtin("ex3.1-chisq")
        h = plan_test_function(plan)
        plan = dataclasses.replace(plan, seed=6)
        a = estimate_delta_h(plan, h, 64, replicates=50_000)
        b = estimate_delta_h(plan, h, 64, replicates=50_000)
        assert (a.value, a.std_error) == (b.value, b.std_error)


class TestPlanBoundReports:
    @pytest.mark.parametrize(
        "name",
        ["ex3.1-normal", "ex3.1-chisq", "ex3.2", "ex3.3-vg", "ex3.5-friedman", "ex3.6-pearson"],
    )
    def test_builtin_reports_valid(self, name):
        plan = builtin(name, replicates=1000, w_reps=4000)
        n = plan.n_grid[0]
        rep = plan_bound_report(plan, n)
        assert rep.valid, rep.failed_conditions()
        assert rep.value > 0


    def test_replaced_model_reads_its_own_moments(self):
        plan = builtin("ex3.1-normal")
        before = plan_bound_report(plan, 64).value  # from the p = 0.3 moments
        swapped = dataclasses.replace(plan, model=centered_bernoulli(0.1))
        fresh = dataclasses.replace(builtin("ex3.1-normal"), model=centered_bernoulli(0.1))
        value = plan_bound_report(swapped, 64).value
        assert value == plan_bound_report(fresh, 64).value
        assert value != before

    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_builtin_bound_values_pinned(self, name):
        plan = builtin(name)
        values = [plan_bound_report(plan, n).value for n in plan.n_grid]
        assert values == pytest.approx(PINNED_BOUNDS[name], rel=1e-12)


# Each built-in's bound value at every point of its default grid (seed 1234,
# so the Monte Carlo W-moment entries are fixed too).
PINNED_BOUNDS = {
    "ex3.1-chisq": [
        1.2053986292921146, 0.6026993146460573, 0.30134965732302865, 0.15067482866151433,
        0.07533741433075716, 0.03766870716537858, 0.01883435358268929,
    ],
    "ex3.1-normal": [
        5.581414579332833, 3.946656097659707, 2.7907072896664165, 1.9733280488298535,
        1.3953536448332082, 0.9866640244149267, 0.6976768224166041,
    ],
    "ex3.2": [18.01504977819512, 9.00752488909756, 4.50376244454878, 2.25188122227439],
    "ex3.3-normal": [851.531167324694, 600.8310420540813, 425.07654566912845],
    "ex3.3-vg": [66794131.061570354, 35514613.77706667, 18627121.442607403, 9488226.450637039],
    "ex3.4": [153.19852008255685, 108.93585273089593, 76.07373734981559],
    "ex3.5-brownmood": [102567072.4625548, 54940435.113921925, 27236813.254829258],
    "ex3.5-friedman": [90718.86262500001, 45983.36703515627, 23474.357652832034],
    "ex3.6-pearson": [101253443.10280494, 51466157.63352633, 26999995.952379867],
}


class TestCoupling:
    @pytest.mark.parametrize(
        "name, params, coupled",
        [
            ("ex3.1-normal", {}, True),
            ("ex3.1-chisq", {}, True),
            ("ex3.2", {}, True),
            ("ex3.3-normal", {}, False),
            ("ex3.3-vg", {}, False),
            ("ex3.4", {}, False),
            ("ex3.5-friedman", {}, False),
            ("ex3.5-brownmood", {}, False),
            ("ex3.6-pearson", {}, False),
            ("power-mean", {"p_exp": 3}, False),
            ("power-mean", {"p_exp": 4}, False),
            ("power-mean", {"p_exp": 2, "model": {"kind": "rademacher", "d": 1}}, False),
            ("friedman", {"r": 8}, False),
            ("sen-rank", {"scores": [1, 2, 3, 4]}, False),
            ("bernoulli-variance", {"p": 0.2}, True),
        ],
    )
    def test_derived_coupling(self, name, params, coupled):
        plan = builtin(name, **params)
        assert quantile_coupled(plan) == coupled
        if not coupled:
            with pytest.raises(CapabilityError):
                coupled_lattice(plan, 16)


def exact_coupled_distance(plan, n):
    """|E h(T_n) - E h(Y)| for a quantile-coupled plan with a one-frequency sinusoidal h.

    E h(T_n) sums h at the n+1 lattice values against the Binomial(n, p)
    pmf of the success count.  The limit is Y = g Z (t = 1) or g Z^2 / 2
    (t = 2), with g the map's derivative at 0 and Z ~ N(0, p(1-p)), so
    E h(Y) is closed form: sin(phi) e^{-a^2 g^2 p(1-p)/2}, or
    Im(e^{i phi} (1 - 2 i a c)^{-1/2}) with c = g p(1-p)/2.
    """
    h = plan_test_function(plan)
    a, phi = h.a[0], h.phase
    p = plan.model.p
    values = coupled_lattice(plan, n).values
    e_t = float(np.dot(binom.pmf(np.arange(n + 1), n, p), h(values[:, None])))
    g = float(plan.mapspec.derivative_tensor.flat[0])
    if plan.mapspec.t == 1:
        e_y = math.sin(phi) * math.exp(-a * a * g * g * p * (1 - p) / 2.0)
    else:
        c = g * p * (1 - p) / 2.0
        e_y = (cmath.exp(1j * phi) * (1.0 - 2j * a * c) ** -0.5).imag
    return abs(e_t - e_y)


class TestExactCoupledOracle:
    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("name", ["ex3.1-normal", "ex3.1-chisq", "ex3.2"])
    def test_estimate_within_4se_of_exact(self, name, n):
        plan = builtin(name)
        est = estimate_delta_h(plan, plan_test_function(plan), n)
        exact = exact_coupled_distance(plan, n)
        assert 0.0 < est.std_error
        assert abs(est.value - exact) <= 4.0 * est.std_error, (est.value, exact, est.std_error)


def exact_one_sided_distance(name, n):
    """|E h(T_n) - E h(Y)| for ex3.3-normal, ex3.3-vg or ex3.4 at its default test function.

    ex3.3: the rows are two independent signs, so the means are
    2 k_i / n - 1 for two Binomial(n, 1/2) counts, (n+1)^2 terms.  ex3.4:
    the rows take two atoms, so the mean is fixed by one Binomial(n, p)
    count of the first.  E h(Y) is closed form for h = sin(<1, y> + 0.7):
    Y = Z1 + Z2 ~ N(0, 2), Y = Z1 Z2 with E e^{iY} = 2^{-1/2}, and
    Y ~ N(0, V) with V the atoms' covariance.
    """
    phi = 0.7
    if name.startswith("ex3.3"):
        k = np.arange(n + 1)
        x1, x2 = np.meshgrid(2.0 * k / n - 1.0, 2.0 * k / n - 1.0, indexing="ij")
        weight = np.outer(binom.pmf(k, n, 0.5), binom.pmf(k, n, 0.5))
        if name == "ex3.3-normal":  # f = (1 + x1)(1 + x2), t = 1
            t_vals = math.sqrt(n) * (x1 + x2 + x1 * x2)
            e_y = math.sin(phi) * math.exp(-1.0)
        else:  # f = x1 x2, t = 2
            t_vals = n * x1 * x2
            e_y = math.sin(phi) / math.sqrt(2.0)
    else:  # f = (p + x1, s2 + x2 - x1^2), t = 1
        p = 0.3
        s2 = p * (1 - p)
        atoms = np.array([[1 - p, (1 - p) ** 2 - s2], [-p, p**2 - s2]])
        k = np.arange(n + 1)
        weight = binom.pmf(k, n, p)
        x1, x2 = np.outer(k / n, atoms[0]).T + np.outer(1 - k / n, atoms[1]).T
        t_vals = math.sqrt(n) * (x1 + x2 - x1 * x1)
        v = atoms.T @ np.diag([p, 1 - p]) @ atoms
        e_y = math.sin(phi) * math.exp(-v.sum() / 2.0)
    return abs(float((weight * np.sin(t_vals + phi)).sum()) - e_y)


class TestOneSidedExactOracle:
    @pytest.mark.parametrize("name", ["ex3.3-normal", "ex3.3-vg", "ex3.4"])
    def test_estimate_within_4se_of_exact(self, name, monkeypatch):
        # every default grid point at the plan's seed and replicates; the
        # limit side is exact, so the only stream drawn is the statistic's
        keys = []
        original = rngstreams.stream
        monkeypatch.setattr(rngstreams, "stream", lambda *key: keys.append(key) or original(*key))
        plan = builtin(name)
        h = plan_test_function(plan)
        blocks = -(-plan.replicates // rngstreams.BLOCK_SIZE)
        for n in plan.n_grid:
            keys.clear()
            est = estimate_delta_h(plan, h, n)
            exact = exact_one_sided_distance(name, n)
            assert keys == [(plan.seed, 0, b) for b in range(blocks)]
            assert est.replicates == plan.replicates and 0.0 < est.std_error
            assert abs(est.value - exact) <= 4.0 * est.std_error, (n, est.value, exact)


class TestDualModeDominance:
    def test_both_fast_routes_valid_and_dominant(self):
        base = builtin("ex3.1-chisq", replicates=50_000, n_grid=(64,))
        h = plan_test_function(base)
        est = estimate_delta_h(base, h, 64)
        for mode in ("zero-third", "even"):
            plan = dataclasses.replace(base, mode=mode)
            rep = plan_bound_report(plan, 64)
            assert rep.valid, (mode, rep.failed_conditions())
            assert verify_bound(est, rep).status == "dominated"


class TestRigorFlag:
    def test_mc_w_moments_downgrade_reports(self):
        plan = builtin("ex3.5-friedman", r=4, w_reps=4000)
        rep = plan_bound_report(plan, 16)
        assert rep.rigor == "mc-estimated-moments"

    def test_variance_route_keeps_rigor(self):
        plan = builtin("ex3.1-chisq")
        rep = plan_bound_report(plan, 64)
        assert rep.rigor == "rigorous"


from hypothesis import given, settings
from hypothesis import strategies as st


class TestVerdictProperties:
    @given(
        value=st.floats(min_value=0.0, max_value=10.0),
        se=st.floats(min_value=1e-9, max_value=5.0),
        bound=st.floats(min_value=1e-6, max_value=10.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_exactly_one_status_and_margin_sign(self, value, se, bound):
        verdict = verify_bound(
            DistanceEstimate(value, se, 1000, 0), make_report(bound)
        )
        assert verdict.status in ("dominated", "violated", "inconclusive")
        if se > 0.5 * bound:
            assert verdict.status == "inconclusive"
        elif value - 3 * se > bound:
            assert verdict.status == "violated" and verdict.margin > 0
        else:
            assert verdict.status == "dominated" and verdict.margin is None
