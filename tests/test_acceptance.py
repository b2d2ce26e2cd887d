"""Acceptance gate: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
PASS lines as they stream).
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from steindelta import cli, rngstreams
from steindelta.bounds import FnEnvelope, GrowthEnvelope, bound_delta_univariate
from steindelta.core import (
    TestBudget,
    faa_di_bruno_checksum,
    h_budget,
    stirling2,
)
from steindelta.mcverify import (
    SmoothTestFunction,
    estimate_delta,
    estimate_delta_h,
    fit_rate,
    plan_bound_report,
    plan_test_function,
    point_mass_check,
    scaled_replicates,
    stein_solution_check,
)
from steindelta.moments import centered_bernoulli, sample_rows
from steindelta.statistics import builtin

from test_bounds import oracle_delta_mv_even, oracle_fn_mv, table_for
from steindelta.bounds import bound_delta_multivariate, bound_fn_multivariate
from steindelta.moments import multinomial_indicator


def report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


class TestAcceptance:
    def test_criterion_01_bernoulli_variance_constants(self):
        model = centered_bernoulli(0.5)  # the worst case p(1-p) = 1/4
        env1 = GrowthEnvelope(t=1, A={1: 2.0, 2: 1.0}, r={1: 1.0, 2: 0.0})
        env2 = GrowthEnvelope(
            t=2, A={2: 1.0, 3: 0.0, 4: 0.0}, r={2: 0.0, 3: 0.0, 4: 0.0},
            even_map=True, vanishing_third=True,
        )
        worst_sqrt = worst_lin = 0.0
        for n in (8, 100, 10_000):
            tab1 = table_for(model, "delta-univariate", "general", env1, n)
            rep1 = bound_delta_univariate("general", env1, tab1, 1.0, 0.0)
            assert rep1.valid and rep1.rigor == "rigorous"
            worst_sqrt = max(worst_sqrt, rep1.value * math.sqrt(n))
            tab2 = table_for(model, "delta-univariate", "zero-third", env2, n)
            rep2 = bound_delta_univariate("zero-third", env2, tab2, 1.0, 1.0)
            assert rep2.valid and rep2.rigor == "rigorous"
            worst_lin = max(worst_lin, rep2.value * n)
        report(
            1,
            worst_sqrt < 89.0 and worst_lin < 78.0,
            f"value*sqrt(n) <= {worst_sqrt:.4f} < 89; value*n <= {worst_lin:.4f} < 78",
        )

    def test_criterion_02_budget_closed_forms(self):
        ok = True
        for m in range(1, 6):
            ok &= h_budget(TestBudget.unit(3), m) == m + 3 * m**2 + m**3
            ok &= h_budget(TestBudget.unit(4), m) == m + 7 * m**2 + 6 * m**3 + m**4
            ok &= (
                h_budget(TestBudget.unit(6), m)
                == m + 31 * m**2 + 90 * m**3 + 65 * m**4 + 15 * m**5 + m**6
            )
        report(2, ok, "orders 3, 4, 6 reproduce the closed forms for m in 1..5")

    def test_criterion_03_partition_checksum(self):
        checked = 0
        for d in (1, 2, 3):
            for m in (1, 2, 3):
                for nu in product(range(5), repeat=d):
                    n = sum(nu)
                    if not 1 <= n <= 4:
                        continue
                    for k in range(1, n + 1):
                        expected = Fraction(m**k * stirling2(n, k))
                        assert faa_di_bruno_checksum(nu, k, m) == expected
                        checked += 1
        report(3, checked > 300, f"{checked} partition identities hold exactly")

    def test_criterion_04_rate_separation(self):
        fits = {}
        for name in ("ex3.1-normal", "ex3.1-chisq"):
            plan = builtin(name)
            h = plan_test_function(plan)
            points = []
            for n in plan.n_grid:
                reps = scaled_replicates(plan, n)
                assert reps >= 10**6
                points.append((n, estimate_delta_h(plan, h, n, replicates=reps)))
            fits[name] = fit_rate(points)
        slope_normal = fits["ex3.1-normal"].slope
        slope_chisq = fits["ex3.1-chisq"].slope
        ci_normal = fits["ex3.1-normal"].ci95
        ci_chisq = fits["ex3.1-chisq"].ci95
        disjoint = ci_normal[0] > ci_chisq[1] or ci_chisq[0] > ci_normal[1]
        ok = (
            abs(slope_normal + 0.5) <= 0.15
            and abs(slope_chisq + 1.0) <= 0.2
            and disjoint
        )
        report(
            4,
            ok,
            f"slopes {slope_normal:.3f} (target -0.5+-0.15) and {slope_chisq:.3f} "
            f"(target -1.0+-0.2), CIs {ci_normal} / {ci_chisq} disjoint={disjoint}",
        )

    def test_criterion_05_bound_dominance(self):
        plans = [
            builtin("ex3.1-normal", replicates=100_000),
            builtin("ex3.1-chisq", replicates=100_000),
            builtin("ex3.3-normal"),
            builtin("ex3.3-vg"),
            builtin("ex3.4"),
            builtin("ex3.5-friedman", r=2),
            builtin("ex3.5-friedman", r=3),
            builtin("ex3.5-friedman", r=4),
            builtin("ex3.6-pearson", probs=[1 / 3] * 3),
            builtin("ex3.6-pearson", probs=[1 / 4] * 4),
        ]
        worst = math.inf
        checked = 0
        for plan in plans:
            h = plan_test_function(plan)
            for n in plan.n_grid:
                rep = plan_bound_report(plan, n)
                assert rep.valid, (plan.name, n, rep.failed_conditions())
                est = estimate_delta_h(plan, h, n)
                low = est.value - 3.0 * est.std_error
                assert low <= rep.value, (
                    f"{plan.name} n={n}: estimate {est.value} - 3se exceeds "
                    f"bound {rep.value}"
                )
                worst = min(worst, rep.value - low)
                checked += 1
        report(5, checked >= 30, f"{checked} (plan, n) dominance checks hold")

    def test_criterion_06_closed_form_distance_oracles(self):
        h = SmoothTestFunction(a=(1.0,), phase=math.pi / 2)  # cos
        gauss_oracle = math.exp(-0.5) - math.exp(-(1.1**2) / 2)
        est1 = estimate_delta(
            lambda c, rng: rng.normal(size=(c, 1)),
            lambda c, rng: 1.1 * rng.normal(size=(c, 1)),
            h,
            10**6,
            seed=61,
        )

        def rademacher_sum(c, rng):
            signs = rng.choice([-1.0, 1.0], size=(c, 4))
            return signs.sum(axis=1, keepdims=True) / 2.0

        rad_oracle = abs(math.cos(0.5) ** 4 - math.exp(-0.5))
        est2 = estimate_delta(
            rademacher_sum, lambda c, rng: rng.normal(size=(c, 1)), h, 10**6, seed=62
        )
        ok1 = abs(est1.value - gauss_oracle) <= 3 * est1.std_error
        ok2 = abs(est2.value - rad_oracle) <= 3 * est2.std_error
        report(
            6,
            ok1 and ok2,
            f"gaussian pair {est1.value:.5f} vs {gauss_oracle:.5f} "
            f"(3se {3 * est1.std_error:.5f}); sign-sum {est2.value:.5f} vs "
            f"{rad_oracle:.5f} (3se {3 * est2.std_error:.5f})",
        )

    def test_criterion_07_point_mass_floor(self):
        exact8, asym8 = point_mass_check(8)
        ok = abs(exact8 - 70 / 256) <= 1e-12
        ok &= abs(asym8 - math.sqrt(2 / (8 * math.pi))) <= 1e-14
        exact, asym = point_mass_check(10_000)
        ratio = exact / asym
        ok &= abs(ratio - 1.0) < 0.01
        report(7, ok, f"exact(8) = 70/256, ratio at n=1e4 is {ratio:.5f}")

    def test_criterion_08_covariance_structure(self):
        n_obs = 10**6
        ok = True
        details = []
        for plan, diag, off in (
            (builtin("ex3.5-friedman", r=3), 2 / 3, -1 / 3),
            (builtin("ex3.6-pearson", probs=[1 / 3] * 3), 2 / 3, -1 / 3),
        ):
            rows = sample_rows(plan.model, n_obs, rngstreams.stream(81, 0))
            emp = rows.T @ rows / n_obs  # rows have exact zero mean
            for j in range(3):
                for k in range(3):
                    target = diag if j == k else off
                    prods = rows[:, j] * rows[:, k]
                    se = prods.std() / math.sqrt(n_obs)
                    ok &= abs(emp[j, k] - target) <= 3 * se
            details.append(f"{plan.name}: max dev {np.max(np.abs(emp - plan.moment_table(16).sigma)):.2e}")
        report(8, ok, "; ".join(details))

    def test_criterion_09_stein_solution_dominance(self):
        h = SmoothTestFunction(a=(1.0,), phase=0.0)  # h = sin
        points = [0.0, 1.0, -1.0, 2.0, -2.0]
        configs = [
            ("linear", FnEnvelope(1.0, 0.0, 0.0), lambda w: w.sum(axis=-1)),
            ("square", FnEnvelope(0.0, 1.0, 1.0), lambda w: (w**2).sum(axis=-1)),
        ]
        ok = True
        details = []
        for name, env, g in configs:
            checks = stein_solution_check(
                env, g, h, [[1.0]], points,
                s_max=20.0, steps=400, mc_reps=50_000, seed=91,
                budget=TestBudget(1, (1.0,)),
            )
            ok &= all(c.passed for c in checks)
            slack = min(c.bound * 1.1 - c.estimate for c in checks)
            details.append(f"{name}: min slack {slack:.3f}")
        report(9, ok, "; ".join(details))

    def test_criterion_10_engineering_equivalences(self, tmp_path):
        # factored vs naive double-sum evaluation
        env = GrowthEnvelope(
            t=2, A={2: 2.0, 3: 0.0, 4: 0.0, 5: 0.0, 6: 0.0},
            r={2: 1 / 6, 3: 0.0, 4: 0.0, 5: 0.0, 6: 0.0}, even_map=True,
        )
        fn_env = FnEnvelope(8.0, 64.0, 6.0)
        budget6 = TestBudget.unit(6)
        agree = True
        for n in (12, 16, 20):
            for probs in ([0.2, 0.3, 0.5], [0.5, 0.5]):
                model = multinomial_indicator(probs)
                tab = table_for(model, "delta-multivariate", "even", env, n)
                rep = bound_delta_multivariate("even", env, tab, budget6, 1)
                _, terms = oracle_delta_mv_even(tab, env, n, 1, budget6)
                agree &= abs(rep.terms["K4,d"] - terms["K4,d"]) <= 1e-12 * terms["K4,d"]
                tab2 = table_for(model, "fn-multivariate", "even", fn_env, n)
                rep2 = bound_fn_multivariate("even", fn_env, tab2, budget6, 1, parity=True)
                _, terms2 = oracle_fn_mv(tab2, fn_env, n, 1, budget6, "even")
                agree &= abs(rep2.terms["K2"] - terms2["K2"]) <= 1e-12 * terms2["K2"]

        # shard/thread independence of Monte Carlo estimates
        plan = builtin("ex3.5-friedman", r=3, seed=101)
        h = plan_test_function(plan)
        est1 = estimate_delta_h(plan, h, 16, replicates=50_000, threads=1)
        est4 = estimate_delta_h(plan, h, 16, replicates=50_000, threads=4)
        shard_ok = est1.value == est4.value and est1.std_error == est4.std_error

        # byte-identical reruns of a CLI verification
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            doc = {
                "command": "verify",
                "seed": 17,
                "out": str(out),
                "experiment": {
                    "builtin": "bernoulli-variance",
                    "params": {"p": 0.5},
                    "n_grid": [16, 32],
                    "replicates": 5000,
                },
            }
            assert cli.run(doc, "verify") == cli.EXIT_OK
            outs.append((out / "verify.csv").read_bytes())
        bytes_ok = outs[0] == outs[1]
        report(
            10,
            agree and shard_ok and bytes_ok,
            f"factored=naive to 1e-12: {agree}; thread-invariant: {shard_ok}; "
            f"byte-identical reruns: {bytes_ok}",
        )
