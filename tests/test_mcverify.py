import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.stats import binom
from scipy.special import ndtri
from scipy.stats import t as t_dist

from steindelta import mcverify, rngstreams
from steindelta.bounds import BoundReport, FnEnvelope, stein_derivative_bound
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
from steindelta.moments import binomial_logpmf, centered_bernoulli
from steindelta.statistics import (
    EXAMPLES,
    builtin,
    count_law,
    coupled_batch,
    gaussian_factor,
    jump_strata,
    limit_cf,
    partial_cf,
    quantile_coupled,
)


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

    @pytest.mark.parametrize(
        "a, phase", [((math.nan,), 0.0), ((1.0, math.inf), 0.0), ((1.0,), math.nan)]
    )
    def test_non_finite_frequency_or_phase_rejected(self, a, phase):
        with pytest.raises(ArgumentError, match="finite"):
            SmoothTestFunction(a=a, phase=phase)

    @staticmethod
    def _inputs():
        """Read-only (N, 1) inputs: +-0.0, |x| near 40, C- and column-major."""
        x = np.random.default_rng(3).standard_normal((1000, 1)) * 3.0
        x[:4, 0] = [0.0, -0.0, 40.0, -39.9]
        x[4:104, 0] = np.linspace(-40.0, 40.0, 100)
        for arr in (x, np.asfortranarray(x[::-1])):
            arr.flags.writeable = False  # h must not write into its argument
            yield arr

    @staticmethod
    def _bits(values):
        return np.ascontiguousarray(values).view(np.int64)

    @pytest.mark.parametrize("phase", [0.0, -0.0, 0.4, -1.7])
    @pytest.mark.parametrize("a", [1.0, 1.3, -2.5, 0.0, -0.0])
    def test_one_frequency_is_bitwise_the_matmul_form(self, a, phase):
        h = SmoothTestFunction(a=(a,), phase=phase)
        freq = np.array([a])
        for x in self._inputs():
            expected = self._bits(np.sin(x @ freq + phase))
            assert np.array_equal(self._bits(h(x)), expected)
            assert np.array_equal(self._bits(h(x[:, 0])), expected)  # 1-D input

    def test_several_frequencies_and_product_form_unchanged(self):
        x = np.random.default_rng(4).standard_normal((500, 2)) * 10.0
        x[0] = [-0.0, 0.0]
        x.flags.writeable = False
        a, phase = np.array([1.3, -0.7]), 0.25
        wave = SmoothTestFunction(a=tuple(a), phase=phase)
        product = SmoothTestFunction("product-form", tuple(a), phase)
        assert np.array_equal(self._bits(wave(x)), self._bits(np.sin(x @ a + phase)))
        expected = np.prod(np.sin(x * a + phase), axis=-1)
        assert np.array_equal(self._bits(product(x)), self._bits(expected))
        one = SmoothTestFunction("product-form", (1.3,), phase)
        column = x[:, :1]
        assert np.array_equal(
            self._bits(one(column)), self._bits(np.prod(np.sin(column * 1.3 + phase), axis=-1))
        )


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

    @pytest.mark.parametrize("threads", [0, -3, 2.5, True])
    def test_rejects_a_thread_count_that_is_not_a_positive_integer(self, threads):
        with pytest.raises(ArgumentError, match="threads"):
            rngstreams.run_blocks(1, self.two_streams, threads)


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

    def test_ci_uses_student_t_quantile(self):
        points = [
            (n, DistanceEstimate(2.0 / n * (1.1 if n == 32 else 1.0), 1e-9, 1000, 0))
            for n in (16, 32, 64, 128)
        ]
        fit = fit_rate(points)
        half = t_dist.ppf(0.975, 2) * fit.slope_se
        assert fit.slope_se > 0
        assert fit.ci95 == (fit.slope - half, fit.slope + half)

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


def _shifted_pair(g, z, e, c, wp, wm):
    """(g at e w+ + c z, g at e w- + c z), each on a fresh row-major array."""
    return g(e * wp + c * z), g(e * wm + c * z)


def _reference_stein_check(fn_env, g, h, sigma, points, s_max, steps, mc_reps, seed, budget):
    """``stein_solution_check`` written with fresh arrays at every node.

    Row-major draws, two calls of g per node on fresh shifted arrays, and
    h(v+) - h(v-) in its cosine form a cos(a (v+ + v-) / 2 + phase) (v+ - v-)
    on the library's Gauss-Legendre nodes; every result must equal the
    library's bit for bit.
    """
    sigma, points, s_max, steps, mc_reps = mcverify.stein_check_inputs(
        sigma, points, s_max, steps, mc_reps
    )
    d = sigma.shape[0]
    sigmas = np.sqrt(np.diag(sigma))
    z = rngstreams.stream(seed, 9).standard_normal((mc_reps, d)) @ gaussian_factor(sigma).T
    decay, spread, weight = mcverify._stein_nodes(s_max, steps)
    (a,), phase = h.a, h.phase
    tail = math.exp(-s_max)
    results = []
    for w in points:
        delta = 1e-4 * (1.0 + float(np.abs(w).max()))
        for j in range(d):
            wp, wm = w.copy(), w.copy()
            wp[j] += delta
            wm[j] -= delta
            integrand = np.empty(steps)
            for i, (e, c) in enumerate(zip(decay, spread)):
                vp, vm = _shifted_pair(g, z, e, c, wp, wm)
                integrand[i] = a * np.mean(np.cos((vp + vm) * (0.5 * a) + phase) * (vp - vm))
            estimate = abs(-math.fsum(weight * integrand) / (2.0 * delta))
            bound = stein_derivative_bound("solution", 1, fn_env, budget, 1, w, sigmas)
            passed = estimate <= bound * (1.0 + mcverify.STEIN_SLACK)
            diag = ""
            if not passed:
                diag = (
                    f"estimate {estimate:.6g} above bound {bound:.6g}; "
                    f"truncation tail e^-s_max = {tail:.3g}"
                )
            results.append(
                mcverify.SteinPointCheck(
                    tuple(float(v) for v in w), j, float(estimate), float(bound),
                    bool(passed), tail, diag,
                )
            )
    return results


def _square_in_place(w):
    np.square(w, out=w)
    return w.sum(axis=-1)


class TestSteinCheckBitwiseReference:
    """The node loop against ``_reference_stein_check``, bit for bit."""

    CASES = {
        "linear-1d": (FnEnvelope(1.0, 0.0, 0.0), lambda w: w.sum(axis=-1), [[1.0]]),
        "square-1d": (FnEnvelope(0.0, 1.0, 1.0), lambda w: (w**2).sum(axis=-1), [[1.0]]),
        "square-2d": (
            FnEnvelope(0.0, 1.0, 1.0), lambda w: (w**2).sum(axis=-1), [[1.0, 0.3], [0.3, 1.0]]
        ),
        "in-place-2d": (FnEnvelope(0.0, 1.0, 1.0), _square_in_place, [[1.0, 0.3], [0.3, 1.0]]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_reference(self, case):
        env, g, sigma = self.CASES[case]
        d = len(sigma)
        points = [[0.0] * d, [1.0, -1.0][:d], [-2.0, 0.5][:d]]
        h = SmoothTestFunction(a=(1.3,), phase=0.4)
        args = (env, g, h, sigma, points, 6.0, 12, 1000, 5, TestBudget(1, (1.3,)))
        checks = stein_solution_check(*args)
        reference = _reference_stein_check(*args)
        assert checks == reference
        assert [c.estimate.hex() for c in checks] == [c.estimate.hex() for c in reference]
        assert all(c.estimate > 0 for c in checks)

    def test_memory_flat_in_steps(self):
        """Peak below 8 draw arrays at d = 2, 50,000 draws, whatever the node count."""
        reps = 50_000
        draws_bytes = reps * 2 * 8
        peaks = []
        for steps in (10, 400):
            tracemalloc.start()
            try:
                stein_solution_check(
                    FnEnvelope(0.0, 1.0, 1.0), lambda w: (w**2).sum(axis=-1),
                    SmoothTestFunction(), [[1.0, 0.3], [0.3, 1.0]], [[1.0, -1.0]],
                    steps=steps, mc_reps=reps, seed=5, budget=TestBudget(1, (1.0,)),
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 8 * draws_bytes, peaks
        assert abs(peaks[1] - peaks[0]) < 0.1 * peaks[0], peaks


STEIN_MAPS = {"linear": lambda w: w.sum(axis=-1), "square": lambda w: (w**2).sum(axis=-1)}


def _stein_per_draw(g, w, steps, reps, seed):
    """Per-draw derivative values of the check for sigma = 1 and h = sin at the 1-D point w.

    Their mean is the check's signed estimate on the same draws and nodes, so
    their standard deviation over sqrt(reps) is its standard error.
    """
    z = rngstreams.stream(seed, 9).standard_normal((reps, 1))
    delta = 1e-4 * (1.0 + abs(w))
    total = np.zeros(reps)
    for e, c, wt in zip(*mcverify._stein_nodes(mcverify.STEIN_S_MAX, steps)):
        vp, vm = _shifted_pair(g, z, e, c, np.array([w + delta]), np.array([w - delta]))
        total += wt * np.cos((vp + vm) / 2) * (vp - vm)
    return -total / (2.0 * delta)


class TestSteinQuadrature:
    @pytest.mark.parametrize("steps", [mcverify.STEIN_STEPS, 11, 400])
    def test_nodes_integrate_exponentials(self, steps):
        # int_0^s_max e^{-k s} ds is int sin^{k-1} cos dtheta in theta: smooth, so exact to rounding
        for s_max in (6.0, mcverify.STEIN_S_MAX):
            x, c, weight = mcverify._stein_nodes(s_max, steps)
            assert x.shape == (steps,) and np.unique(x).size == steps
            assert np.all((math.exp(-s_max) < x) & (x < 1.0))
            np.testing.assert_allclose(x**2 + c**2, 1.0, rtol=1e-15)
            for k in (1, 2, 3):
                exact = -math.expm1(-k * s_max) / k
                assert weight @ x**k == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(STEIN_MAPS))
    def test_cosine_form_matches_two_sided_difference(self, name):
        """a cos(a v_mid + phase) (v+ - v-) against sin(a v+ + phase) - sin(a v- + phase),
        node by node on the check's own nodes and draws, within 1e-6 of the mean size
        of the two-sided difference: the cosine form is off by a relative
        (a (v+ - v-) / 2)^2 / 6 per draw, up to 4e-7 here, and a node's mean may cancel."""
        g, a, phase = STEIN_MAPS[name], 1.3, 0.4
        z = rngstreams.stream(5, 9).standard_normal((20_000, 1))
        for w in (0.0, 1.0, -1.0, 2.0, -2.0):
            delta = 1e-4 * (1.0 + abs(w))
            for e, c in zip(*mcverify._stein_nodes(mcverify.STEIN_S_MAX, mcverify.STEIN_STEPS)[:2]):
                vp, vm = _shifted_pair(g, z, e, c, np.array([w + delta]), np.array([w - delta]))
                cosine = a * np.mean(np.cos((vp + vm) * (0.5 * a) + phase) * (vp - vm))
                two_sided = np.sin(a * vp + phase) - np.sin(a * vm + phase)
                scale = np.mean(np.abs(two_sided))
                assert abs(cosine - np.mean(two_sided)) <= 1e-6 * scale, (name, w, e)

    def test_two_frequencies_rejected(self):
        with pytest.raises(ArgumentError, match="one frequency"):
            stein_solution_check(
                FnEnvelope(1.0, 0.0, 0.0), lambda w: w.sum(axis=-1),
                SmoothTestFunction(a=(1.0, 2.0)), [[1.0]], [0.0], steps=10, mc_reps=1000,
            )

    @pytest.mark.parametrize("name", sorted(STEIN_MAPS))
    def test_default_nodes_converged(self, name):
        """At w = +-2 and 50,000 draws, STEIN_STEPS nodes and four times as many
        differ by less than 0.1 SE on the same draws."""
        g, steps, reps, seed = STEIN_MAPS[name], mcverify.STEIN_STEPS, 50_000, 91
        points = [2.0, -2.0]
        args = (FnEnvelope(1.0, 1.0, 2.0), g, SmoothTestFunction(), [[1.0]], points)
        kw = dict(mc_reps=reps, seed=seed, budget=TestBudget(1, (1.0,)))
        coarse = stein_solution_check(*args, steps=steps, **kw)
        fine = stein_solution_check(*args, steps=4 * steps, **kw)
        for w, c, f in zip(points, coarse, fine):
            per_draw = _stein_per_draw(g, w, steps, reps, seed)
            se = per_draw.std(ddof=1) / math.sqrt(reps)
            assert abs(per_draw.mean()) == pytest.approx(c.estimate, rel=1e-9)
            assert abs(c.estimate - f.estimate) < 0.1 * se, (w, c.estimate, f.estimate, se)


class TestSteinLinearExactReference:
    """The check's estimate against the exact derivative for g(w) = sum(w).

    With h = sin(a x + phase), S = sum(w), G = sum(Z) ~ N(0, v), v = 1' Sigma 1,
    and x = e^{-s}, one draw of the check estimates
    X = -int_0^1 h'(x S + sqrt(1 - x^2) G) dx, so
    d_j f(w) = E X = -int_0^1 a cos(a x S + phase) exp(-a^2 (1 - x^2) v / 2) dx.
    E X^2 follows from cos A cos B = (cos(A - B) + cos(A + B)) / 2 and
    E cos(alpha + beta G) = cos(alpha) exp(-beta^2 v / 2).
    """

    A, PHASE, REPS = 1.3, 0.4, 20_000

    def exact(self, s, v):
        a, phase = self.A, self.PHASE

        def first(x):
            return -a * math.cos(a * x * s + phase) * math.exp(-a * a * (1 - x * x) * v / 2)

        def second(y, x):
            alpha_x, alpha_y = a * x * s + phase, a * y * s + phase
            beta_x, beta_y = a * math.sqrt(1 - x * x), a * math.sqrt(1 - y * y)
            return a * a / 2 * (
                math.cos(alpha_x - alpha_y) * math.exp(-((beta_x - beta_y) ** 2) * v / 2)
                + math.cos(alpha_x + alpha_y) * math.exp(-((beta_x + beta_y) ** 2) * v / 2)
            )

        mean = quad(first, 0.0, 1.0, epsabs=1e-13)[0]
        square = dblquad(second, 0.0, 1.0, 0.0, 1.0, epsabs=1e-11)[0]
        return mean, math.sqrt((square - mean * mean) / self.REPS)

    @pytest.mark.parametrize(
        "sigma, points",
        [([[1.0]], [[0.0], [0.7], [-1.5]]), ([[1.0, 0.3], [0.3, 0.5]], [[0.4, -0.2]])],
    )
    def test_estimate_within_4se_of_exact(self, sigma, points):
        h = SmoothTestFunction(a=(self.A,), phase=self.PHASE)
        checks = stein_solution_check(
            FnEnvelope(1.0, 0.0, 0.0), lambda w: w.sum(axis=-1), h, sigma, points,
            mc_reps=self.REPS, seed=5, budget=TestBudget(1, (self.A,)),
        )
        v = float(np.sum(sigma))
        assert len(checks) == len(points) * len(sigma)
        for c in checks:
            mean, se = self.exact(sum(c.w), v)
            assert 0.0 < se < 0.01
            assert abs(c.estimate - abs(mean)) <= 4 * se, (c.w, c.coord, c.estimate, mean, se)


class TestSteinSquareExactReference:
    """The check's estimate against the exact derivative for g(w) = |w|^2.

    With h = sin(a q + phase), x = e^{-s} and y = x w + sqrt(1 - x^2) Z,
    Z ~ N(0, Sigma), Q = |y|^2 is a non-central Gaussian quadratic form, so
    E h(Q) = Im(e^{i phase} cf_Q(a)) with, for Sigma = V diag(lam) V',
    cf_Q(a) = prod_k (1 - 2 i a b lam_k)^{-1/2} exp(i a x^2 sum_k (V'w)_k^2 / (1 - 2 i a b lam_k)),
    b = 1 - x^2.  Its w_j-derivative carries 2 i a x^2 (M w)_j, M = (I - 2 i a b Sigma)^{-1},
    and d_j f(w) = -int_0^1 d_{w_j} E h(Q) dx / x.  The check's per-draw value is
    X = -int_0^1 2 a cos(a Q + phase) y_j dx; its standard deviation is taken
    from fixed Gaussian draws with Gauss-Legendre nodes in x = sin(theta).
    """

    A, PHASE, REPS = 1.0, 0.0, 20_000  # h = sin, as in criterion 9

    def exact(self, w, j, sigma):
        a, phase = self.A, self.PHASE
        lam, vec = np.linalg.eigh(np.asarray(sigma))
        wr = vec.T @ np.asarray(w)

        def derivative(x):
            den = 1.0 - 2j * a * (1.0 - x * x) * lam
            cf = np.prod(den**-0.5) * np.exp(1j * a * x * x * np.sum(wr**2 / den))
            return -(cmath.exp(1j * phase) * cf * 2j * a * x * (vec[j] @ (wr / den))).imag

        return quad(derivative, 0.0, 1.0, epsabs=1e-13, limit=200)[0]

    def draw_sd(self, w, j, sigma, draws=4000, nodes=200):
        a, phase = self.A, self.PHASE
        z = np.random.default_rng(0).standard_normal((draws, len(w)))
        z = z @ np.linalg.cholesky(np.asarray(sigma)).T
        theta, weight = np.polynomial.legendre.leggauss(nodes)
        theta, weight = (theta + 1.0) * math.pi / 4.0, weight * math.pi / 4.0
        x, c = np.sin(theta), np.cos(theta)  # dx = cos(theta) dtheta
        y = x[:, None, None] * np.asarray(w) + c[:, None, None] * z
        integrand = -2.0 * a * np.cos(a * (y**2).sum(-1) + phase) * y[..., j] * c[:, None]
        per_draw = weight @ integrand
        return float(per_draw.std())

    @pytest.mark.parametrize(
        "sigma, points",
        [
            ([[1.0]], [[0.0], [1.0], [-1.0], [2.0], [-2.0]]),
            ([[1.0, 0.3], [0.3, 0.5]], [[0.4, -0.2]]),
        ],
    )
    def test_estimate_within_4se_of_exact(self, sigma, points):
        h = SmoothTestFunction(a=(self.A,), phase=self.PHASE)
        checks = stein_solution_check(
            FnEnvelope(0.0, 1.0, 1.0), lambda w: (w**2).sum(axis=-1), h, sigma, points,
            mc_reps=self.REPS, seed=5, budget=TestBudget(1, (self.A,)),
        )
        assert len(checks) == len(points) * len(sigma)
        for c in checks:
            mean = self.exact(c.w, c.coord, sigma)
            se = self.draw_sd(c.w, c.coord, sigma) / math.sqrt(self.REPS)
            assert 0.0 < se < 0.01
            assert abs(c.estimate - abs(mean)) <= 4 * se, (c.w, c.coord, c.estimate, mean, se)


class TestDeterminism:
    def test_thread_count_invariance_bitwise(self):
        # one-sided: 24 atoms are past the coupling cap, and r = 8 has no atom table
        for r in (4, 8):
            plan = builtin("ex3.5-friedman", r=r, seed=5)
            assert not quantile_coupled(plan, 16)
            h = plan_test_function(plan)
            a = estimate_delta_h(plan, h, 16, replicates=40_000, threads=1)
            b = estimate_delta_h(plan, h, 16, replicates=40_000, threads=4)
            assert a.value == b.value and a.std_error == b.std_error

    @pytest.mark.parametrize(
        "name", ["ex3.1-normal", "ex3.1-chisq", "ex3.2", "ex3.4", "ex3.6-pearson", "ex3.5-friedman"]
    )
    def test_coupled_thread_count_invariance_bitwise(self, name):
        plan = builtin(name, seed=5)
        h = plan_test_function(plan)
        a = estimate_delta_h(plan, h, 64, replicates=40_000, threads=1)
        b = estimate_delta_h(plan, h, 64, replicates=40_000, threads=2)
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


# Each built-in's bound value at every point of its default grid.  Every input
# is exact or a proven bound (no Monte Carlo W moments), so no seed enters.
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
    "ex3.3-normal": [849.8676691915986, 601.941559491267, 425.98905468156306],
    "ex3.3-vg": [67782731.85185184, 36139614.81481481, 18646660.74074074, 9469392.592592591],
    "ex3.4": [153.01866391816728, 108.28711592432211, 76.60151436887134],
    "ex3.5-brownmood": [101118498.98611103, 52428748.2430555, 26688511.46527775],
    "ex3.5-friedman": [90196.87499999999, 45773.4375, 23055.46875],
    "ex3.6-pearson": [101118498.98611121, 52428748.2430556, 26688511.465277795],
}


class TestCoupling:
    @pytest.mark.parametrize(
        "name, params, coupled",
        [
            ("ex3.1-normal", {}, True),
            ("ex3.1-chisq", {}, True),
            ("ex3.2", {}, True),
            ("ex3.3-normal", {}, True),
            ("ex3.3-vg", {}, True),
            ("ex3.4", {}, True),
            ("ex3.5-friedman", {}, True),
            ("ex3.5-brownmood", {}, True),
            ("ex3.6-pearson", {}, True),
            ("power-mean", {"p_exp": 3}, False),
            ("power-mean", {"p_exp": 4}, False),
            ("power-mean", {"p_exp": 2, "model": {"kind": "rademacher", "d": 1}}, True),
            ("friedman", {"r": 8}, False),
            ("sen-rank", {"scores": [1, 2, 3, 4]}, False),
            ("bernoulli-variance", {"p": 0.2}, True),
            ("pearson", {"probs": [0.125] * 8}, True),
            ("friedman", {"r": 4}, False),
            ("product-means", {"mu1": 1.0, "mu2": 1.0, "model1": {"kind": "rademacher", "d": 1},
                               "model2": {"kind": "centered-bernoulli", "p": 0.3}}, True),
        ],
    )
    def test_derived_coupling(self, name, params, coupled):
        # an atom table of 2 to 8 distinct atoms and t <= 2; Friedman r = 4
        # (24 atoms) and sen-rank r = 4 stay one-sided, r = 8 has no table
        plan = builtin(name, **params)
        assert quantile_coupled(plan, plan.n_grid[-1]) == coupled
        if not coupled:
            with pytest.raises(CapabilityError):
                count_law(plan, 16)


def _exact(plan, n):
    exact = mcverify.exact_distance(plan, n)
    assert exact is not None and exact > 0.0, (plan.name, n)
    return exact


class TestExactCoupledOracle:
    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("name", ["ex3.1-normal", "ex3.1-chisq", "ex3.2"])
    def test_estimate_within_4se_of_exact(self, name, n):
        plan = builtin(name)
        est = estimate_delta_h(plan, plan_test_function(plan), n)
        exact = _exact(plan, n)
        assert 0.0 < est.std_error
        assert abs(est.value - exact) <= 4.0 * est.std_error, (est.value, exact, est.std_error)

    @pytest.mark.parametrize("seed", [1234, 77])
    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_default_grid_within_4se_of_exact(self, name, seed):
        # every built-in at every default grid point, at its default budget;
        # the theorem's bound must dominate the exact distance too
        plan = builtin(name, seed=seed)
        h = plan_test_function(plan)
        for n in plan.n_grid:
            est = estimate_delta_h(plan, h, n)
            exact = _exact(plan, n)
            assert 0.0 < est.std_error
            assert abs(est.value - exact) <= 4.0 * est.std_error, (n, est, exact)
            assert exact <= plan_bound_report(plan, n).value

    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_exact_slope_matches_rate_exponent(self, name):
        # OLS slope of log exact distance on log n over the default grid
        plan = builtin(name)
        x = np.log(plan.n_grid)
        y = np.log([_exact(plan, n) for n in plan.n_grid])
        slope = np.polyfit(x, y, 1)[0]
        rate = plan_bound_report(plan, plan.n_grid[-1]).rate_exponent
        assert abs(slope - rate) <= 0.1, (slope, rate)

    @pytest.mark.parametrize(
        "name, n",
        [(name, n) for name in ("ex3.1-normal", "ex3.1-chisq") for n in (64, 256)]
        + [("ex3.4", 64)],
    )
    def test_standard_error_calibrated_over_seeds(self, name, n):
        # sqrt(sum d^2) / N is the paired-stratum SE: at 20,000 pairs the
        # z-scores of 40 seeds against the exact distance have SD near 1;
        # ex3.4 has two-coordinate rows on two atoms
        self._assert_calibrated(builtin(name), n)

    @pytest.mark.parametrize(
        "name, n", [("ex3.3-vg", 64), ("ex3.6-pearson", 32), ("ex3.5-friedman", 32)]
    )
    def test_stick_breaking_standard_error_calibrated_over_seeds(self, name, n):
        # four, three and six atoms: the later steps' fresh uniforms leave
        # the paired-stratum SE calibrated
        self._assert_calibrated(builtin(name), n)

    @staticmethod
    def _assert_calibrated(plan, n):
        h = plan_test_function(plan)
        exact = _exact(plan, n)
        z = []
        for seed in range(40):
            est = estimate_delta_h(dataclasses.replace(plan, seed=seed), h, n, replicates=20_000)
            z.append((est.value - exact) / est.std_error)
        assert 0.7 <= np.std(z, ddof=1) <= 1.3, z

    @pytest.mark.parametrize("replicates", [1001, 16_385, 10**6 + 1])
    def test_odd_budget_rounds_up_to_whole_strata(self, replicates, monkeypatch):
        # two pairs to a stratum: an odd budget stands for one pair more and
        # says so; each block draws exactly its jump strata
        drawn = []

        def counting_batch(law, count, rng, strata=None):
            assert np.array_equal(strata, jump_strata(law, count)[0])
            drawn.append(count)
            return coupled_batch(law, count, rng, strata)

        monkeypatch.setattr(mcverify, "coupled_batch", counting_batch)
        plan = builtin("ex3.1-normal")
        est = estimate_delta_h(plan, plan_test_function(plan), 64, replicates=replicates)
        assert est.replicates == sum(drawn) == replicates + 1
        assert all(count % 2 == 0 for count in drawn)
        assert math.isfinite(est.std_error) and est.std_error > 0.0
        exact = _exact(plan, 64)
        assert abs(est.value - exact) <= 4.0 * est.std_error, (est, exact)

    def test_block_without_jump_strata_draws_nothing(self, monkeypatch):
        # p = 1e-18: every binomial cdf entry rounds to 1, so T(0) is certain
        # and the estimate is exact, with no stream built and nothing drawn
        def refuse(*args):
            raise AssertionError("drew from a block without jump strata")

        monkeypatch.setattr(mcverify, "coupled_batch", refuse)
        monkeypatch.setattr(rngstreams, "stream", refuse)
        plan = builtin("bernoulli-variance", p=1e-18, testfn={"a": [1e9], "phase": 0.7})
        h = plan_test_function(plan)
        est = estimate_delta_h(plan, h, 4, replicates=3 * rngstreams.BLOCK_SIZE + 1000)
        t0 = count_law(plan, 4).values[0]
        exact = abs(h(t0[None, :])[0] - h.expectation(limit_cf(plan)))
        assert est.std_error == 0.0 and est.value == pytest.approx(exact, rel=1e-12, abs=1e-15)
        assert exact > 1e-3

    def test_jump_route_sides_match_their_exact_means(self):
        # the statistic side (h(T) drawn on jump strata, exact elsewhere) and
        # the limit side (h(Y) drawn on jump strata, its exact share
        # elsewhere) each within 4 SE of its exact mean over 200,000 pairs
        plan = builtin("ex3.1-chisq")
        n, count, blocks = 64, rngstreams.BLOCK_SIZE, 12
        law = count_law(plan, n)
        h = plan_test_function(plan)
        h_values = h(law.values)
        strata, s = jump_strata(law, count)
        k = count // 2
        fixed = np.ones(k, dtype=bool)
        fixed[strata] = False
        edges = ndtri(np.stack([strata, strata + 1]) / k)
        target = h.expectation(limit_cf(plan))
        # each undrawn stratum's mean h(Y), as a share of the limit's mean off the jump strata
        share = (target - h.expectation(partial_cf(law, edges[0], edges[1]))) * k / fixed.sum()
        sides = np.empty((2, blocks))
        spread = np.zeros(2)
        for b in range(blocks):
            counts, y = coupled_batch(law, count, rngstreams.stream(14, 2, b), strata)
            for i, drawn in enumerate((h_values[counts[0]], h(y))):
                exact_part = h_values[s[fixed]].sum() if i == 0 else share * fixed.sum()
                sides[i, b] = (2 * exact_part + drawn.sum()) / count
                spread[i] += ((drawn[0::2] - drawn[1::2]) ** 2).sum()
        se = np.sqrt(spread) / (count * blocks)
        e_t = float(np.exp(binomial_logpmf(n, plan.model.p)) @ h_values)
        for side, want, err in zip(sides.mean(axis=1), (e_t, target), se):
            assert 0.0 < err and abs(side - want) <= 4.0 * err, (side, want, err)


class TestExactDistance:
    def test_binomial_route_matches_scipy_pmf(self):
        # ex3.4: the mean is fixed by one Binomial(n, p) count of the first atom
        plan, n, phi = builtin("ex3.4"), 64, 0.7
        p, s2 = 0.3, 0.21
        atoms = np.array([[1 - p, (1 - p) ** 2 - s2], [-p, p**2 - s2]])
        k = np.arange(n + 1)
        x1, x2 = np.outer(k / n, atoms[0]).T + np.outer(1 - k / n, atoms[1]).T
        t_vals = math.sqrt(n) * (x1 + x2 - x1 * x1)
        v = atoms.T @ np.diag([p, 1 - p]) @ atoms
        e_y = math.sin(phi) * math.exp(-v.sum() / 2.0)
        exact = abs(float(binom.pmf(k, n, p) @ np.sin(t_vals + phi)) - e_y)
        assert mcverify.exact_distance(plan, n) == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("name", ["ex3.3-normal", "ex3.3-vg"])
    def test_product_route_matches_two_binomials(self, name):
        # two independent signs: the means are 2 k_i / n - 1 for two
        # Binomial(n, 1/2) counts; E h(Y) for Y = Z1 + Z2 + ... is closed form
        n, phi = 32, 0.7
        k = np.arange(n + 1)
        x1, x2 = np.meshgrid(2.0 * k / n - 1.0, 2.0 * k / n - 1.0, indexing="ij")
        weight = np.outer(binom.pmf(k, n, 0.5), binom.pmf(k, n, 0.5))
        if name == "ex3.3-normal":
            t_vals, e_y = math.sqrt(n) * (x1 + x2 + x1 * x2), math.sin(phi) * math.exp(-1.0)
        else:
            t_vals, e_y = n * x1 * x2, math.sin(phi) / math.sqrt(2.0)
        exact = abs(float((weight * np.sin(t_vals + phi)).sum()) - e_y)
        assert mcverify.exact_distance(builtin(name), n) == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_routes_agree(self, n, monkeypatch):
        # Friedman's rank-sum lattice and Brown-Mood's three merged atoms
        # against the compositions over all six permutations
        for name in ("ex3.5-friedman", "ex3.5-brownmood"):
            plan = builtin(name)
            lattice = mcverify.exact_distance(plan, n)
            with monkeypatch.context() as m:
                m.setattr(mcverify, "_rank_sum_lattice", lambda model, n: None)
                m.setattr(mcverify, "merged_atoms", lambda model: model.atoms())
                compositions = mcverify.exact_distance(plan, n)
            assert lattice == pytest.approx(compositions, rel=1e-9, abs=1e-15), name
        pearson = mcverify.exact_distance(builtin("ex3.6-pearson"), n)
        assert pearson == pytest.approx(mcverify.exact_distance(builtin("ex3.5-brownmood"), n), rel=1e-9)

    def test_no_route_is_none(self):
        assert mcverify.exact_distance(builtin("power-mean", p_exp=3), 16) is None  # t = 3
        assert mcverify.exact_distance(builtin("friedman", r=8), 16) is None  # no atom table
        assert mcverify.exact_distance(builtin("ex3.6-pearson", probs=[0.125] * 8), 64) is None
        assert mcverify.exact_distance(builtin("ex3.6-pearson", probs=[0.125] * 8), 16) > 0.0


class TestOneSidedExactOracle:
    @staticmethod
    def check_grid(name, route, monkeypatch):
        # every default grid point at the plan's seed and replicates: block b
        # reads stream (seed, route, b) alone, and lies within 4 SE of exact
        keys = []
        original = rngstreams.stream
        monkeypatch.setattr(rngstreams, "stream", lambda *key: keys.append(key) or original(*key))
        plan = builtin(name)
        h = plan_test_function(plan)
        blocks = -(-plan.replicates // rngstreams.BLOCK_SIZE)
        for n in plan.n_grid:
            keys.clear()
            est = estimate_delta_h(plan, h, n)
            exact = _exact(plan, n)
            assert keys == [(plan.seed, route, b) for b in range(blocks)]
            assert est.replicates == plan.replicates and 0.0 < est.std_error
            assert abs(est.value - exact) <= 4.0 * est.std_error, (n, est.value, exact)

    @pytest.mark.parametrize("name", ["ex3.3-normal", "ex3.3-vg", "ex3.4"])
    def test_estimate_within_4se_of_exact(self, name, monkeypatch):
        # the three plans are coupled now, so the one stream drawn is the pair's
        self.check_grid(name, 2, monkeypatch)

    @pytest.mark.parametrize("name", ["ex3.3-normal", "ex3.3-vg", "ex3.4"])
    def test_one_sided_route_within_4se_of_exact(self, name, monkeypatch):
        # the route that Friedman r >= 4, sen-rank and grids past the table
        # budget still take: E h(Y) exact, only h(T_n) drawn
        monkeypatch.setattr(mcverify, "quantile_coupled", lambda plan, n: False)
        self.check_grid(name, 0, monkeypatch)


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

    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_default_builtins_draw_no_w_moment(self, name, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("w_moment_mc drawn without w_reps")

        monkeypatch.setattr("steindelta.moments.w_moment_mc", refuse)
        plan = builtin(name)
        assert plan.w_reps is None and "w_reps" not in plan.to_config()
        assert [plan_bound_report(plan, n).rigor for n in plan.n_grid] == ["rigorous"] * len(
            plan.n_grid
        )


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
