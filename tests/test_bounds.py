import math

import numpy as np
import pytest

from steindelta import bounds
from steindelta.bounds import (
    BoundReport,
    FnEnvelope,
    GrowthEnvelope,
    bound_delta_multivariate,
    bound_delta_univariate,
    bound_fn_multivariate,
    bound_fn_univariate,
    dominating_envelope,
    evaluate_bound,
    required_moment_orders,
    small_constants,
    stein_derivative_bound,
    theorem_constants,
)
from steindelta.core import TestBudget, a_factor, abs_normal_moment, h_budget
from steindelta.errors import ArgumentError, DomainError
from steindelta.moments import (
    analytic_moments,
    centered_bernoulli,
    multinomial_indicator,
    product_model,
    rademacher,
    rank_scores,
)

SQRT2 = math.sqrt(2.0)


def mu(r, sigma):
    return 2.0 ** (r / 2.0) * sigma**r * math.gamma((r + 1) / 2.0) / math.sqrt(math.pi)


def table_for(model, kind, mode, env, n, **kw):
    req = required_moment_orders(kind, mode, n, env)
    return analytic_moments(
        model, req.x_orders, n, w_orders=req.w_orders, w_seed=kw.get("w_seed", 0),
        w_reps=kw.get("w_reps", 20_000),
    )


class TestTheoremConstants:
    def test_family1_t3_unit(self):
        env = GrowthEnvelope(t=3, A={3: 1.0}, r={3: 0.5})
        C, u = theorem_constants(1, 100, env)
        assert C == pytest.approx(SQRT2, rel=1e-14)  # max{4/8, sqrt2, 1}
        assert u == pytest.approx(3 * (0.5 + 2), rel=1e-14)

    def test_family1_t1_substitution(self):
        env = GrowthEnvelope(t=1, A={1: 2.0, 2: 1.0, 3: 0.0}, r={1: 1.0})
        C, u = theorem_constants(1, 100, env)
        assert C == pytest.approx(max(32.0, SQRT2 / 10.0, 0.0), rel=1e-14)
        assert u == pytest.approx(3.0, rel=1e-14)

    def test_family4_t2(self):
        env = GrowthEnvelope(t=2, A={2: 1.0}, r={2: 0.0})
        C, u = theorem_constants(4, 50, env)
        assert C == pytest.approx(2.0, rel=1e-14)  # max{1/0!, 2/1}
        assert u == pytest.approx(2.0, rel=1e-14)

    def test_family2_t2_example_constant(self):
        env = GrowthEnvelope(t=2, A={2: 1 / 3}, r={2: 0.0})
        C, u = theorem_constants(2, 16, env)
        assert C == pytest.approx(4 / 27, rel=1e-14)
        assert u == pytest.approx(6.0, rel=1e-14)

    def test_incompatible_family_t(self):
        env = GrowthEnvelope(t=3, A={3: 1.0}, r={3: 0.0})
        for family in (2, 3):
            with pytest.raises(ArgumentError):
                theorem_constants(family, 20, env)
        with pytest.raises(ArgumentError):
            theorem_constants(4, 20, GrowthEnvelope(t=1, A={1: 1.0}, r={}))


class TestSmallConstants:
    def test_plain_boundary(self):
        a, b, g = small_constants(1.0, 0.7)
        assert (a, b) == (4.0, 4.0)
        assert g == pytest.approx(2 * mu(1, 0.7), rel=1e-14)

    def test_plain_r2(self):
        a, b, g = small_constants(2.0, 1.0)
        assert (a, b) == (5.0, 7.0)
        assert g == pytest.approx(3 * mu(3, 1.0), rel=1e-14)
        assert g == pytest.approx(3 * 2 * math.sqrt(2 / math.pi), rel=1e-13)

    def test_tilde_r2(self):
        a, b, g = small_constants(2.0, 1.0, tilde=True)
        assert (a, b) == (14.0, 26.0)
        assert g == pytest.approx(15 * mu(3, 1.0), rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            small_constants(-1.0, 1.0)
        with pytest.raises(DomainError):
            small_constants(1.0, 0.0)


# ---------------------------------------------------------------------------
# Nested-loop oracles: the formulas re-evaluated term by term, naively
# ---------------------------------------------------------------------------

def oracle_delta_mv_general(tab, env, n, m, budget):
    t, d = env.t, tab.d
    A, r = env.A_at, env.r_at
    if t == 1:
        u = max(3 * r(1), 1.5 * r(2), r(3))
        C = max(4 * A(1) ** 3, SQRT2 * A(2) ** 1.5 / math.sqrt(n), A(3) / n ** (5 / 6))
    elif t == 2:
        u = max(3 * (r(2) + 1), r(3))
        C = max(4 * A(2) ** 3, SQRT2 * A(2) ** 1.5, A(3) / math.sqrt(n))
    else:
        raise NotImplementedError
    a = max(d / n ** (r(t) / 2.0), 1.0)
    sj = [math.sqrt(tab.sigma[j, j]) for j in range(d)]
    m1 = (
        A(t + 1) * d**t / math.factorial(t + 1)
        * sum(
            mu(t + 1, sj[j]) + d / n ** (r(t + 1) / 2.0) * mu(r(t + 1) + t + 1, sj[j])
            for j in range(d)
        )
    )
    m2 = 0.0
    for _ in range(n):
        for j in range(d):
            for k in range(d):
                m2 += (
                    (1 + 2 ** (u / 2) * mu(u, sj[k])) * tab.abs_moment(j, 3)
                    + tab.abs_moment(j, u + 3)
                    + 2 ** (1.5 * u) * tab.abs_moment(j, 3) * tab.w_abs_moment(k, u).value
                )
    m2 *= C * a**3 * d ** (3 * t - 2) / n
    value = (m * budget.norm(1) * m1 + h_budget(budget, m, order=3) * m2) / math.sqrt(n)
    return value, {"M1,d": m1, "M2,d": m2}


def oracle_delta_mv_even(tab, env, n, m, budget):
    t, d = env.t, tab.d
    assert t == 2
    A, r = env.A_at, env.r_at
    u = max(6 * (r(2) + 1), 2 * r(3), 1.5 * r(4), 1.2 * r(5), r(6))
    C = max(
        32 * A(2) ** 6,
        4 * A(2) ** 3,
        4 * A(3) ** 2 / n,
        SQRT2 * A(4) ** 1.5 / n**1.5,
        2**0.2 * A(5) ** 1.2 / n**1.8,
        A(6) / n**2,
    )
    a = max(d / n ** (r(2) / 2.0), 1.0)
    sj = [math.sqrt(tab.sigma[j, j]) for j in range(d)]
    k1 = (
        A(t + 2) * d ** (t + 1) / math.factorial(t + 2)
        * sum(
            mu(t + 2, sj[j]) + d / n ** (r(t + 2) / 2.0) * mu(r(t + 2) + t + 2, sj[j])
            for j in range(d)
        )
    )
    k2 = (
        d ** (2 * t + 1) / math.factorial(t + 1) ** 2
        * sum(
            A(t + 1) ** 2 * mu(2 * (t + 1), sj[j])
            + 2 * A(t + 2) ** 2 * d**2 / ((t + 2) ** 2 * n)
            * (mu(2 * (t + 2), sj[j]) + d**2 * mu(2 * (r(t + 2) + t + 2), sj[j]))
            for j in range(d)
        )
    )
    k3 = 0.0
    for _ in range(n):
        for j in range(d):
            for k in range(d):
                k3 += (
                    (1 + 2 ** (u / 2) * mu(u, sj[k])) * tab.abs_moment(j, 4)
                    + tab.abs_moment(j, u + 4)
                    + 2 ** (1.5 * u) * tab.abs_moment(j, 4) * tab.w_abs_moment(k, u).value
                )
    k3 *= 13 * C * a**6 * d ** (6 * t - 4) / (12 * n)
    k4 = 0.0
    for _ in range(n):  # i
        for _ in range(n):  # alpha
            for j in range(d):
                for k in range(d):
                    for l in range(d):
                        third = abs(tab.third(j, k, l))
                        if third == 0.0:
                            continue
                        for aa in range(d):
                            for q in range(d):
                                k4 += third * (
                                    (1 + 2 * 3 ** (u / 2) * mu(u, sj[q]))
                                    * tab.abs_moment(aa, 3)
                                    + tab.abs_moment(aa, u + 3)
                                    + 12 ** (u / 2)
                                    * tab.abs_moment(aa, 3)
                                    * tab.w_abs_moment(q, u).value
                                )
    k4 *= C * a**6 * d ** (6 * t - 5) / (12 * n**2)
    value = (
        m * budget.norm(1) * k1
        + m**2 * budget.norm(2) * k2
        + h_budget(budget, m, order=4) * k3
        + h_budget(budget, m, order=6) * k4
    ) / n
    return value, {"K1,d": k1, "K2,d": k2, "K3,d": k3, "K4,d": k4}


def oracle_fn_mv(tab, fn_env, n, m, budget, mode):
    d = tab.d
    A, B, r = fn_env.A, fn_env.B, fn_env.r
    sj = [math.sqrt(tab.sigma[j, j]) for j in range(d)]
    if mode == "general":
        s = 0.0
        for _ in range(n):
            for j in range(d):
                for k in range(d):
                    s += (
                        (A / d + 2 ** (r / 2) * mu(r, sj[k]) * B) * tab.abs_moment(j, 3)
                        + B * tab.abs_moment(j, r + 3)
                        + 2 ** (1.5 * r) * B * tab.abs_moment(j, 3)
                        * tab.w_abs_moment(k, r).value
                    )
        return d**2 * h_budget(budget, m, order=3) / (2 * n**1.5) * s, {"S": s / n}
    k1 = 0.0
    for _ in range(n):
        for j in range(d):
            for k in range(d):
                k1 += (
                    (A / d + 2 ** (r / 2) * mu(r, sj[k]) * B) * tab.abs_moment(j, 4)
                    + B * tab.abs_moment(j, r + 4)
                    + 2 ** (1.5 * r) * B * tab.abs_moment(j, 4)
                    * tab.w_abs_moment(k, r).value
                )
    k1 *= 5 * d**3 / (12 * n)
    if mode == "zero-third":
        return h_budget(budget, m, order=4) * k1 / n, {"K1": k1}
    k2 = 0.0
    for _ in range(n):
        for _ in range(n):
            for j in range(d):
                for k in range(d):
                    for l in range(d):
                        third = abs(tab.third(j, k, l))
                        if third == 0.0:
                            continue
                        for aa in range(d):
                            for q in range(d):
                                k2 += third * (
                                    (A / d + 2 * 3 ** (r / 2) * mu(r, sj[q]) * B)
                                    * tab.abs_moment(aa, 3)
                                    + B * tab.abs_moment(aa, r + 3)
                                    + 12 ** (r / 2) * B * tab.abs_moment(aa, 3)
                                    * tab.w_abs_moment(q, r).value
                                )
    k2 *= d**2 / (24 * n**2)
    value = (
        13 / 10 * h_budget(budget, m, order=4) * k1 + h_budget(budget, m, order=6) * k2
    ) / n
    return value, {"K1": k1, "K2": k2}


def oracle_fn_uni_k3(tab, fn_env, n):
    A, B, r = fn_env.A, fn_env.B, fn_env.r
    sigma = math.sqrt(tab.sigma[0, 0])
    if r <= 1:
        alpha, beta, gamma = 4.0, 4.0, 2 * mu(r, sigma)
    else:
        alpha, beta, gamma = r + 3, r + 5, (r + 1) * mu(r + 1, sigma) / sigma
    total = 0.0
    for _ in range(n):
        total += (
            (A * alpha + 2 ** (r / 2) * B * gamma) * tab.abs_moment(0, 4)
            + 2 ** (1.5 * r) * B * beta * tab.abs_moment(0, 4)
            * tab.w_abs_moment(0, r).value
            + B * beta * tab.abs_moment(0, r + 4)
        )
    return 5.0 / (3 * sigma**2 * n) * total


# ---------------------------------------------------------------------------
# Bound evaluators vs oracles
# ---------------------------------------------------------------------------

class TestDeltaMultivariate:
    def test_zero_budget_gives_zero(self):
        env = GrowthEnvelope(t=1, A={1: 1.0, 2: 1.0, 3: 0.0}, r={1: 0.0})
        tab = table_for(rademacher(1), "delta-multivariate", "general", env, 64)
        budget = TestBudget(3, (0.0, 0.0, 0.0))
        rep = bound_delta_multivariate("general", env, tab, budget, 1)
        assert rep.valid and rep.value == 0.0

    def test_general_against_oracle(self):
        env = GrowthEnvelope(
            t=1, A={1: 1.0, 2: 1 / 3, 3: 0.0}, r={1: 1.0, 2: 0.0, 3: 0.0}
        )
        model = product_model(rademacher(1), rademacher(1))
        n = 64
        tab = table_for(model, "delta-multivariate", "general", env, n)
        budget = TestBudget.unit(3)
        rep = bound_delta_multivariate("general", env, tab, budget, 1)
        value, terms = oracle_delta_mv_general(tab, env, n, 1, budget)
        assert rep.valid
        assert rep.value == pytest.approx(value, rel=1e-10)
        for name, v in terms.items():
            assert rep.terms[name] == pytest.approx(v, rel=1e-10)

    @pytest.mark.parametrize("m", [1, 2])
    def test_even_mode_product_config_against_oracle(self, m):
        env = GrowthEnvelope(
            t=2,
            A={2: 1 / 3, 3: 0.0, 4: 0.0, 5: 0.0, 6: 0.0},
            r={k: 0.0 for k in range(2, 7)},
            even_map=True,
        )
        model = product_model(rademacher(1), rademacher(1))
        n = 16
        tab = table_for(model, "delta-multivariate", "even", env, n)
        budget = TestBudget.unit(6)
        rep = bound_delta_multivariate("even", env, tab, budget, m)
        value, terms = oracle_delta_mv_even(tab, env, n, m, budget)
        assert rep.valid
        assert rep.value == pytest.approx(value, rel=1e-10)
        for name, v in terms.items():
            assert rep.terms[name] == pytest.approx(v, rel=1e-10, abs=1e-300)

    def test_even_mode_nonzero_thirds_against_oracle(self):
        # multinomial rows have non-vanishing mixed thirds, exercising K4
        env = GrowthEnvelope(
            t=2,
            A={2: 2.0, 3: 0.0, 4: 0.0, 5: 0.0, 6: 0.0},
            r={2: 1 / 6, 3: 0.0, 4: 0.0, 5: 0.0, 6: 0.0},
            even_map=True,
        )
        model = multinomial_indicator([0.2, 0.3, 0.5])
        n = 20
        tab = table_for(model, "delta-multivariate", "even", env, n)
        budget = TestBudget.unit(6)
        rep = bound_delta_multivariate("even", env, tab, budget, 1)
        value, terms = oracle_delta_mv_even(tab, env, n, 1, budget)
        assert rep.valid
        assert rep.terms["K4,d"] > 0
        assert rep.value == pytest.approx(value, rel=1e-10)
        for name, v in terms.items():
            assert rep.terms[name] == pytest.approx(v, rel=1e-10)

    @pytest.mark.parametrize("n", [12, 16, 20])
    @pytest.mark.parametrize(
        "probs", [[0.2, 0.3, 0.5], [0.5, 0.5], [0.25, 0.25, 0.5]]
    )
    def test_factored_k4_equals_naive(self, n, probs):
        env = GrowthEnvelope(
            t=2,
            A={2: 2.0, 3: 0.0, 4: 0.0, 5: 0.0, 6: 0.0},
            r={2: 1 / 6, 3: 0.0, 4: 0.0, 5: 0.0, 6: 0.0},
            even_map=True,
        )
        model = multinomial_indicator(probs)
        tab = table_for(model, "delta-multivariate", "even", env, n)
        budget = TestBudget.unit(6)
        rep = bound_delta_multivariate("even", env, tab, budget, 1)
        _, terms = oracle_delta_mv_even(tab, env, n, 1, budget)
        assert rep.terms["K4,d"] == pytest.approx(terms["K4,d"], rel=1e-12)
        assert rep.terms["K3,d"] == pytest.approx(terms["K3,d"], rel=1e-12)

    def test_applicability_failures_listed(self):
        env = GrowthEnvelope(t=1, A={1: 1.0}, r={1: 0.0})
        tab = table_for(rademacher(2), "delta-multivariate", "general", env, 16)
        rep = bound_delta_multivariate("general", env, tab, TestBudget.unit(3), 1)
        assert not rep.valid  # needs n >= d^6 = 64
        assert rep.value is None and rep.terms == {}
        assert any("d^6" in name for name in rep.failed_conditions())

    def test_missing_moments_listed(self):
        env = GrowthEnvelope(t=1, A={1: 1.0, 2: 0.0, 3: 0.0}, r={1: 1.0})
        tab = analytic_moments(rademacher(1), [3.0], 64)  # missing order u+3 and W
        rep = bound_delta_multivariate("general", env, tab, TestBudget.unit(3), 1)
        assert not rep.valid
        assert any("missing" in name for name in rep.failed_conditions())

    def test_zero_third_mode_checks_table(self):
        env = GrowthEnvelope(
            t=2, A={2: 1.0, 3: 0.0, 4: 0.0}, r={2: 0.0}, vanishing_third=True
        )
        model = multinomial_indicator([0.2, 0.3, 0.5])  # thirds do NOT vanish
        tab = table_for(model, "delta-multivariate", "zero-third", env, 16)
        rep = bound_delta_multivariate("zero-third", env, tab, TestBudget.unit(4), 1)
        assert not rep.valid
        assert any("mixed thirds" in name for name in rep.failed_conditions())


class TestDeltaUnivariate:
    def test_example_constants_hold(self):
        model = centered_bernoulli(0.5)
        env1 = GrowthEnvelope(t=1, A={1: 2.0, 2: 1.0}, r={1: 1.0, 2: 0.0})
        tab1 = table_for(model, "delta-univariate", "general", env1, 100)
        rep1 = bound_delta_univariate("general", env1, tab1, 1.0, 0.0)
        assert rep1.valid and rep1.rigor == "rigorous"
        assert rep1.value * 10 < 89.0

        env2 = GrowthEnvelope(
            t=2, A={2: 1.0, 3: 0.0, 4: 0.0}, r={2: 0.0, 3: 0.0, 4: 0.0},
            even_map=True, vanishing_third=True,
        )
        tab2 = table_for(model, "delta-univariate", "zero-third", env2, 100)
        rep2 = bound_delta_univariate("zero-third", env2, tab2, 1.0, 1.0)
        assert rep2.valid and rep2.value * 100 < 78.0

    def test_zero_budgets_zero(self):
        env = GrowthEnvelope(t=1, A={1: 2.0, 2: 1.0}, r={1: 1.0, 2: 0.0})
        tab = table_for(centered_bernoulli(0.4), "delta-univariate", "general", env, 64)
        rep = bound_delta_univariate("general", env, tab, 0.0, 0.0)
        assert rep.value == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_budgets_finite_and_non_negative(self, bad):
        env = GrowthEnvelope(t=1, A={1: 2.0, 2: 1.0}, r={1: 1.0, 2: 0.0})
        tab = table_for(centered_bernoulli(0.4), "delta-univariate", "general", env, 64)
        for budgets in ((bad, 0.0), (1.0, bad)):
            with pytest.raises(ArgumentError, match="finite and non-negative"):
                bound_delta_univariate("general", env, tab, *budgets)

    def test_even_mode_k7_from_tilde_oracle(self):
        # Square of a skewed Bernoulli mean: K7 carries the tilde constants.
        p = 0.3
        model = centered_bernoulli(p)
        env = GrowthEnvelope(
            t=2, A={2: 1.0, 3: 0.0, 4: 0.0}, r={2: 0.0, 3: 0.0, 4: 0.0}, even_map=True
        )
        n = 16
        tab = table_for(model, "delta-univariate", "even", env, n)
        rep = bound_delta_univariate("even", env, tab, 1.0, 1.0)
        sigma = math.sqrt(p * (1 - p))
        u = 2.0
        ta, tb, tg = 14.0, 26.0, 15.0 * mu(3.0, sigma) / sigma
        third = abs(p * (1 - p) * (1 - 2 * p))
        m3 = tab.abs_moment(0, 3)
        w2 = tab.w_abs_moment(0, 2.0).value
        c4 = 2.0
        k7 = (
            3 * c4 / (2 * sigma**4)
            * third
            * ((ta + 3 ** (u / 2) * tg) * m3 + 12 ** (u / 2) * tb * m3 * w2
               + tb * tab.abs_moment(0, u + 3))
        )
        assert rep.valid and rep.terms["K7"] == pytest.approx(k7, rel=1e-12)

    def test_even_needs_n12(self):
        env = GrowthEnvelope(
            t=2, A={2: 1.0, 3: 0.0, 4: 0.0}, r={2: 0.0}, even_map=True
        )
        tab = table_for(centered_bernoulli(0.3), "delta-univariate", "even", env, 8)
        rep = bound_delta_univariate("even", env, tab, 1.0, 1.0)
        assert not rep.valid
        assert any("n >= 12" in c for c in rep.failed_conditions())


class TestFnBounds:
    def test_friedman_k1_against_oracle(self):
        model = rank_scores([1, 2, 3])
        fn_env = FnEnvelope(4.0, 16.0, 4.0)
        n = 100
        tab = table_for(model, "fn-multivariate", "zero-third", fn_env, n)
        budget = TestBudget.unit(4)
        rep = bound_fn_multivariate("zero-third", fn_env, tab, budget, 1)
        value, terms = oracle_fn_mv(tab, fn_env, n, 1, budget, "zero-third")
        assert rep.valid
        assert rep.value == pytest.approx(value, rel=1e-10)
        assert rep.terms["K1"] == pytest.approx(terms["K1"], rel=1e-10)

    def test_even_mode_k2_oracle_with_thirds(self):
        model = multinomial_indicator([0.2, 0.3, 0.5])
        fn_env = FnEnvelope(8.0, 64.0, 6.0)
        n = 16
        tab = table_for(model, "fn-multivariate", "even", fn_env, n)
        budget = TestBudget.unit(6)
        rep = bound_fn_multivariate("even", fn_env, tab, budget, 1, parity=True)
        value, terms = oracle_fn_mv(tab, fn_env, n, 1, budget, "even")
        assert rep.valid and rep.terms["K2"] > 0
        assert rep.value == pytest.approx(value, rel=1e-10)
        assert rep.terms["K2"] == pytest.approx(terms["K2"], rel=1e-12)

    def test_even_b_zero_reduces_to_closed_form(self):
        model = rank_scores([1, 2, 3])
        fn_env = FnEnvelope(5.0, 0.0, 0.0)
        n = 20
        tab = table_for(model, "fn-multivariate", "even", fn_env, n)
        budget = TestBudget.unit(6)
        rep = bound_fn_multivariate("even", fn_env, tab, budget, 1, parity=True)
        d = 3
        # hand reduction: K1 = (5 d^3 A / 12) sum_j E[X_j^4] once B = 0
        k1_closed = 5 * d**3 * 5.0 / 12 * sum(tab.abs_moment(j, 4) for j in range(d))
        assert rep.terms["K1"] == pytest.approx(k1_closed, rel=1e-12)

    def test_fn_univariate_k3_oracle(self):
        model = rademacher(1)
        fn_env = FnEnvelope(0.0, 4.0, 2.0)
        n = 64
        tab = table_for(model, "fn-univariate", "zero-third", fn_env, n)
        rep = bound_fn_univariate("zero-third", fn_env, tab, 1.0, 1.0)
        k3 = oracle_fn_uni_k3(tab, fn_env, n)
        assert rep.valid
        assert rep.terms["K3"] == pytest.approx(k3, rel=1e-12)
        assert rep.value == pytest.approx(2.0 * k3 / n, rel=1e-12)
        assert rep.rigor == "rigorous"  # r = 2 uses the variance route

    def test_even_mode_symmetric_model_k4_vanishes(self):
        model = rademacher(1)
        fn_env = FnEnvelope(0.0, 4.0, 2.0)
        n = 64
        tab = table_for(model, "fn-univariate", "even", fn_env, n)
        even = bound_fn_univariate("even", fn_env, tab, 1.0, 1.0, parity=True)
        zero3 = bound_fn_univariate("zero-third", fn_env, tab, 1.0, 1.0)
        assert even.terms["K4"] == 0.0
        # with K4 gone the even route is exactly the 13/10-weighted K3 term
        assert even.value == pytest.approx(1.3 * zero3.value, rel=1e-12)

    def test_zero_budgets(self):
        model = rademacher(1)
        fn_env = FnEnvelope(1.0, 1.0, 2.0)
        tab = table_for(model, "fn-univariate", "general", fn_env, 64)
        rep = bound_fn_univariate("general", fn_env, tab, 0.0, 0.0)
        assert rep.value == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_budgets_finite_and_non_negative(self, bad):
        # a NaN, infinite or negative hprime gave a "valid" bound of nan, inf or < 0
        fn_env = FnEnvelope(1.0, 1.0, 2.0)
        tab = table_for(rademacher(1), "fn-univariate", "general", fn_env, 64)
        for budgets in ((bad, 0.0), (1.0, bad)):
            with pytest.raises(ArgumentError, match="finite and non-negative"):
                bound_fn_univariate("general", fn_env, tab, *budgets)


# ---------------------------------------------------------------------------
# Each route's full hypothesis list, names and order (bound.json writes it)
# ---------------------------------------------------------------------------

_T1 = GrowthEnvelope(t=1, A={1: 1.0, 2: 0.5}, r={1: 0.0})
_T2 = GrowthEnvelope(t=2, A={2: 1.0}, r={2: 0.0}, even_map=True, vanishing_third=True)
_T2_PLAIN = GrowthEnvelope(t=2, A={2: 1.0}, r={2: 0.0})
_T3 = GrowthEnvelope(t=3, A={3: 1.0}, r={3: 0.0})
_FN = FnEnvelope(1.0, 1.0, 1.0)
_NO_W = "moment availability (missing: [('W', 0, 0.0)])"
_NO_THIRD = "moment availability (missing: [('mixed-third',)])"

# (kind, mode, model, envelope, n, budget order, parity, table, applicability):
# per route a valid report, then an invalid one (two on the vanishing-third
# delta-multivariate and fn-univariate routes).  The table is the route's
# own ("full"), one holding only E|X|^3 ("missing"), or the route's own
# with the mixed thirds dropped ("nothird").
ROUTE_CASES = [
    ("delta-multivariate", "general", rademacher(2), _T1, 64, 3, False, "full",
     [("n >= max(d^6, 8) = 64", True), ("budget order >= 3", True),
      ("moment availability", True)]),
    ("delta-multivariate", "general", rademacher(2), _T1, 16, 2, False, "missing",
     [("n >= max(d^6, 8) = 64", False), ("budget order >= 3", False),
      ("moment availability (missing: [('W', 0, 0.0), ('W', 1, 0.0)])", False)]),
    ("delta-multivariate", "even", rademacher(2), _T2, 64, 6, False, "full",
     [("t even and >= 2", True), ("map is even", True), ("n >= 12", True),
      ("budget order >= 6", True), ("moment availability", True)]),
    ("delta-multivariate", "even", rademacher(2), _T3, 8, 3, False, "full",
     [("t even and >= 2", False), ("map is even", False), ("n >= 12", False),
      ("budget order >= 6", False), ("constants defined (family 2 needs even t >= 2)", False)]),
    ("delta-multivariate", "zero-third", rademacher(2), _T2, 64, 4, False, "full",
     [("t even and >= 2", True), ("vanishing-third flag", True),
      ("mixed thirds vanish (<= 1e-12)", True), ("n >= 8", True),
      ("budget order >= 4", True), ("moment availability", True)]),
    ("delta-multivariate", "zero-third", centered_bernoulli(0.3), _T2_PLAIN, 4, 3, False, "full",
     [("t even and >= 2", True), ("vanishing-third flag", False),
      ("mixed thirds vanish (<= 1e-12)", False), ("n >= 8", False),
      ("budget order >= 4", False), ("moment availability", True)]),
    # without a thirds table a route names no thirds hypothesis; its moment check fails
    ("delta-multivariate", "zero-third", rademacher(2), _T2, 64, 4, False, "nothird",
     [("t even and >= 2", True), ("vanishing-third flag", True), ("n >= 8", True),
      ("budget order >= 4", True), (_NO_THIRD, False)]),
    ("delta-univariate", "general", centered_bernoulli(0.3), _T1, 64, 2, False, "full",
     [("Var(W) > 0", True), ("n >= 8", True), ("moment availability", True)]),
    ("delta-univariate", "general", centered_bernoulli(0.3), _T1, 4, 2, False, "missing",
     [("Var(W) > 0", True), ("n >= 8", False), (_NO_W, False)]),
    ("delta-univariate", "even", centered_bernoulli(0.5), _T2, 64, 2, False, "full",
     [("Var(W) > 0", True), ("t even and >= 2", True), ("map is even", True),
      ("n >= 12", True), ("moment availability", True)]),
    ("delta-univariate", "even", centered_bernoulli(0.5), _T1, 8, 2, False, "full",
     [("Var(W) > 0", True), ("t even and >= 2", False), ("map is even", False),
      ("n >= 12", False), ("constants defined (family 4 needs t >= 2)", False)]),
    ("delta-univariate", "zero-third", rademacher(1), _T2, 64, 2, False, "full",
     [("Var(W) > 0", True), ("t even and >= 2", True), ("E[X^3] = 0 (<= 1e-12)", True),
      ("n >= 8", True), ("moment availability", True)]),
    ("delta-univariate", "zero-third", rademacher(1), _T2, 4, 2, False, "nothird",
     [("Var(W) > 0", True), ("t even and >= 2", True), ("n >= 8", False), (_NO_THIRD, False)]),
    ("fn-multivariate", "general", rademacher(2), _FN, 64, 3, False, "full",
     [("n >= 8", True), ("budget order >= 3", True), ("moment availability", True)]),
    ("fn-multivariate", "general", rademacher(2), _FN, 4, 2, False, "missing",
     [("n >= 8", False), ("budget order >= 3", False),
      ("moment availability (missing: [(0, 4.0), (1, 4.0), ('W', 0, 1.0), ('W', 1, 1.0)])",
       False)]),
    ("fn-multivariate", "even", rademacher(2), _FN, 64, 6, True, "full",
     [("map is even", True), ("n >= 12", True), ("budget order >= 6", True),
      ("moment availability", True)]),
    ("fn-multivariate", "even", rademacher(2), _FN, 8, 3, False, "full",
     [("map is even", False), ("n >= 12", False), ("budget order >= 6", False),
      ("moment availability", True)]),
    ("fn-multivariate", "zero-third", rademacher(2), _FN, 64, 4, False, "full",
     [("mixed thirds vanish (<= 1e-12)", True), ("n >= 8", True),
      ("budget order >= 4", True), ("moment availability", True)]),
    ("fn-multivariate", "zero-third", rademacher(2), _FN, 4, 3, False, "nothird",
     [("n >= 8", False), ("budget order >= 4", False), (_NO_THIRD, False)]),
    ("fn-univariate", "general", centered_bernoulli(0.3), _FN, 64, 2, False, "full",
     [("Var(W) > 0", True), ("n >= 8", True), ("moment availability", True)]),
    ("fn-univariate", "general", centered_bernoulli(0.3), _FN, 4, 2, False, "missing",
     [("Var(W) > 0", True), ("n >= 8", False),
      ("moment availability (missing: [(0, 4.0), ('W', 0, 1.0)])", False)]),
    ("fn-univariate", "even", centered_bernoulli(0.5), _FN, 64, 2, True, "full",
     [("Var(W) > 0", True), ("map is even", True), ("n >= 12", True),
      ("moment availability", True)]),
    ("fn-univariate", "even", centered_bernoulli(0.5), _FN, 8, 2, False, "full",
     [("Var(W) > 0", True), ("map is even", False), ("n >= 12", False),
      ("moment availability", True)]),
    ("fn-univariate", "zero-third", rademacher(1), _FN, 64, 2, False, "full",
     [("Var(W) > 0", True), ("E[X^3] = 0 (<= 1e-12)", True), ("n >= 8", True),
      ("moment availability", True)]),
    ("fn-univariate", "zero-third", centered_bernoulli(0.3), _FN, 4, 2, False, "full",
     [("Var(W) > 0", True), ("E[X^3] = 0 (<= 1e-12)", False), ("n >= 8", False),
      ("moment availability", True)]),
    ("fn-univariate", "zero-third", rademacher(1), _FN, 64, 2, False, "nothird",
     [("Var(W) > 0", True), ("n >= 8", True), (_NO_THIRD, False)]),
]


class TestPairSum:
    def test_one_normal_moment_per_coordinate(self, monkeypatch):
        # Pearson with 8 cells: 8 gamma-function calls per pair sum, not 64,
        # and bitwise the per-pair formula
        d, u, order, c, c_w, A, B = 8, 1.0, 3.0, 2.0**0.5, 2.0**1.5, 0.125, 1.0
        table = analytic_moments(multinomial_indicator([1 / d] * d), [3.0, 4.0], 64, w_orders=[u])
        calls = []

        def counted(r, sigma):
            calls.append((r, sigma))
            return abs_normal_moment(r, sigma)

        monkeypatch.setattr(bounds, "abs_normal_moment", counted)
        got = bounds._pair_sum(table, d, u, order, c, c_w, A, B)
        assert len(calls) == d
        want = 0.0
        for j in range(d):
            mj, mtail = table.abs_moment(j, order), table.abs_moment(j, u + order)
            for k in range(d):
                want += (
                    (A + c * abs_normal_moment(u, table.sigma_j(k)) * B) * mj
                    + B * mtail
                    + c_w * B * mj * table.w_abs_moment(k, u).value
                )
        assert got == want


class TestRouteApplicability:
    @pytest.mark.parametrize(
        "kind, mode, model, env, n, order, parity, which, expected",
        ROUTE_CASES,
        ids=[f"{c[0]}-{c[1]}-{'valid' if all(ok for _, ok in c[-1]) else 'invalid'}-{c[7]}"
             for c in ROUTE_CASES],
    )
    def test_full_list(self, kind, mode, model, env, n, order, parity, which, expected):
        if which == "missing":
            table = analytic_moments(model, [3.0], n)
        else:
            try:
                req = required_moment_orders(kind, mode, n, env)
            except ArgumentError:  # the route's constants are undefined at this t
                req = None
            table = (
                analytic_moments(model, [3.0], n) if req is None
                else table_for(model, kind, mode, env, n, w_reps=500)
            )
            if which == "nothird":
                table.mixed_third = None
        rep = evaluate_bound(kind, mode, env, table, TestBudget.unit(order), 1, parity)
        assert rep.applicability == expected
        assert rep.valid == all(ok for _, ok in expected)


class TestDominatingEnvelope:
    def test_uni1_t1(self):
        env = GrowthEnvelope(t=1, A={1: 2.0}, r={1: 1.0})
        fe = dominating_envelope("delta-univariate", "general", env, 100, 1)
        assert (fe.A, fe.B, fe.r) == (4.0, 4.0, 1.0)

    def test_family1_d1_powers(self):
        env = GrowthEnvelope(t=1, A={1: 1.0, 2: 0.0, 3: 0.0}, r={1: 0.0})
        C, u = theorem_constants(1, 100, env)
        fe = dominating_envelope("delta-multivariate", "general", env, 100, 1)
        assert fe.A == pytest.approx(2 * C, rel=1e-14)
        assert fe.B == pytest.approx(2 * C, rel=1e-14)
        assert fe.r == pytest.approx(u, rel=1e-14)

    def test_family3_substitution(self):
        env = GrowthEnvelope(t=2, A={2: 1 / 3, 3: 0.0, 4: 0.0}, r={2: 0.0}, even_map=True)
        n, d = 100, 3
        C, u = theorem_constants(3, n, env)
        a = a_factor(n, d, 0.0)
        base = 2 * C * a**4 * d ** (4 * 2 - 5)
        fe = dominating_envelope("delta-multivariate", "zero-third", env, n, d)
        assert fe.A == pytest.approx(base * d, rel=1e-14)
        assert fe.B == pytest.approx(base, rel=1e-14)
        assert fe.r == pytest.approx(u, rel=1e-14)

    def test_uni2_uses_family4(self):
        env = GrowthEnvelope(t=2, A={2: 1.0}, r={2: 0.0})
        fe = dominating_envelope("delta-univariate", "even", env, 50, 1)
        assert (fe.A, fe.B, fe.r) == (4.0, 4.0, 2.0)

    @pytest.mark.parametrize(
        "kind, mode",
        [("fn-univariate", "general"), ("fn-multivariate", "even"),
         ("delta-multivariate", "odd"), ("delta-univariate", "uni-2"), ("delta", "general")],
    )
    def test_only_delta_routes_have_one(self, kind, mode):
        env = GrowthEnvelope(t=2, A={2: 1.0}, r={2: 0.0}, even_map=True)
        with pytest.raises(ArgumentError):
            dominating_envelope(kind, mode, env, 50, 1)

    def test_delta_routes_never_call_the_public_fn_evaluators(self, monkeypatch):
        # the main terms are shared below the evaluators, so a traced
        # delta evaluation does not count a nested fn evaluation
        from steindelta import bounds
        from steindelta.mcverify import plan_bound_report
        from steindelta.statistics import EXAMPLES, builtin

        def refuse(*args, **kwargs):
            raise AssertionError("a delta bound called a public fn evaluator")

        monkeypatch.setattr(bounds, "bound_fn_multivariate", refuse)
        monkeypatch.setattr(bounds, "bound_fn_univariate", refuse)
        plans = [builtin(name, w_reps=500) for name in sorted(EXAMPLES)]
        plans.append(builtin("power-mean", p_exp=3, w_reps=500))
        delta = [plan for plan in plans if plan.bound_kind.startswith("delta")]
        assert {(p.bound_kind, p.mode) for p in delta} >= {
            ("delta-univariate", "general"), ("delta-univariate", "even"),
            ("delta-univariate", "zero-third"), ("delta-multivariate", "general"),
            ("delta-multivariate", "even"),
        }
        for plan in delta:
            for n in plan.n_grid:
                assert plan_bound_report(plan, n).valid


class TestSteinDerivativeBound:
    def test_zero_budget(self):
        fe = FnEnvelope(1.0, 1.0, 1.0)
        assert stein_derivative_bound("solution", 1, fe, TestBudget(1, (0.0,)), 1, [0.0], [1.0]) == 0.0

    def test_constant_envelope(self):
        fe = FnEnvelope(1.0, 0.0, 0.0)
        for w in (0.0, 1.5, -3.0):
            val = stein_derivative_bound("solution", 1, fe, TestBudget(1, (2.0,)), 1, [w], [1.0])
            assert val == pytest.approx(2.0, rel=1e-14)

    def test_psi_substitution(self):
        fe = FnEnvelope(0.0, 1.0, 2.0)
        budget = TestBudget.unit(6)
        val = stein_derivative_bound("psi", 6, fe, budget, 1, [1.0], [1.0])
        assert val == pytest.approx(h_budget(budget, 1) / 2.0, rel=1e-13)


class TestBoundInvariants:
    def _chisq_setup(self, n):
        env = GrowthEnvelope(
            t=2, A={2: 1.0, 3: 0.0, 4: 0.0}, r={2: 0.0, 3: 0.0, 4: 0.0},
            even_map=True, vanishing_third=True,
        )
        tab = table_for(centered_bernoulli(0.5), "delta-univariate", "zero-third", env, n)
        return env, tab

    def test_term_sum_identity(self):
        env, tab = self._chisq_setup(100)
        rep = bound_delta_univariate("zero-third", env, tab, 1.3, 0.7)
        manual = sum(rep.term_weights[k] * rep.terms[k] for k in rep.terms)
        assert rep.value == pytest.approx(manual, rel=1e-12)
        assert rep.value == pytest.approx(rep.recombine(), rel=1e-12)

    def test_n_scaling_non_increasing(self):
        values = []
        for n in [12 * 2**k for k in range(11)]:
            env, tab = self._chisq_setup(n)
            rep = bound_delta_univariate("zero-third", env, tab, 1.0, 1.0)
            values.append(n * rep.value)
        for a, b in zip(values, values[1:]):
            assert b <= a * (1 + 1e-12)

    def test_monotone_in_moments_budgets_and_envelope(self):
        rng = np.random.default_rng(42)
        env = GrowthEnvelope(
            t=2, A={2: 1.0, 3: 0.0, 4: 0.0}, r={2: 0.0}, even_map=True,
        )
        model = centered_bernoulli(0.3)
        n = 32
        tab = table_for(model, "delta-univariate", "even", env, n)
        base = bound_delta_univariate("even", env, tab, 1.0, 1.0).value
        for _ in range(20):
            bump = float(rng.uniform(0.01, 0.5))
            key = tuple(rng.choice(len(tab.abs_moments)) for _ in range(1))
            k = list(tab.abs_moments)[key[0]]
            tab2 = table_for(model, "delta-univariate", "even", env, n)
            tab2.abs_moments[k] = tab2.abs_moments[k] + bump
            v = bound_delta_univariate("even", env, tab2, 1.0, 1.0).value
            assert v >= base * (1 - 1e-12)
        bigger_budget = bound_delta_univariate("even", env, tab, 1.5, 1.0).value
        assert bigger_budget >= base
        env2 = GrowthEnvelope(
            t=2, A={2: 1.5, 3: 0.0, 4: 0.0}, r={2: 0.0}, even_map=True
        )
        v2 = bound_delta_univariate("even", env2, tab, 1.0, 1.0).value
        assert v2 >= base

    def test_mode_consistency_both_routes_valid(self):
        env, _ = self._chisq_setup(64)
        # even-mode orders are a superset of the zero-third ones
        tab = table_for(centered_bernoulli(0.5), "delta-univariate", "even", env, 64)
        even = bound_delta_univariate("even", env, tab, 1.0, 1.0)
        zero3 = bound_delta_univariate("zero-third", env, tab, 1.0, 1.0)
        assert even.valid and zero3.valid
        assert even.rate_exponent == zero3.rate_exponent == -1.0

    def test_report_serialisation(self):
        env, tab = self._chisq_setup(100)
        rep = bound_delta_univariate("zero-third", env, tab, 1.0, 1.0)
        doc = rep.to_json()
        assert '"theorem":"delta-uv-zero3"' in doc
        row = rep.to_csv_row()
        assert row.startswith("delta-uv-zero3,100,1,1,2,")
        assert BoundReport.CSV_HEADER == "theorem,n,d,m,t,value,rate,rigor"


class TestFractionalGrowthOrders:
    def test_sixth_root_exponent_flows_through(self):
        # fractional r_t gives fractional moment orders (u = 7, orders 10, 11)
        env = GrowthEnvelope(
            t=2,
            A={2: 2.0, 3: 0.0, 4: 0.0, 5: 0.0, 6: 0.0},
            r={2: 1 / 6, 3: 0.0, 4: 0.0, 5: 0.0, 6: 0.0},
            even_map=True,
        )
        C, u = theorem_constants(2, 16, env)
        assert u == pytest.approx(7.0, abs=1e-12)
        tab = table_for(rank_scores([1, 2, 3]), "delta-multivariate", "even", env, 16)
        assert tab.has_abs_moment(0, u + 4)
        rep = bound_delta_multivariate("even", env, tab, TestBudget.unit(6), 1)
        assert rep.valid and rep.value > 0

    def test_envelope_requires_leading_constant(self):
        with pytest.raises(ArgumentError):
            GrowthEnvelope(t=2, A={2: 0.0}, r={2: 0.0})
        with pytest.raises(ArgumentError):
            GrowthEnvelope(t=2, A={2: 1.0, 3: -0.1}, r={2: 0.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_envelopes_reject_non_finite(self, bad):
        for A, r in (({2: bad}, {2: 0.0}), ({2: 1.0, 3: bad}, {2: 0.0}), ({2: 1.0}, {2: bad})):
            with pytest.raises(ArgumentError, match="finite"):
                GrowthEnvelope(t=2, A=A, r=r)
        for args in ((bad, 0.0, 0.0), (1.0, bad, 0.0), (1.0, 0.0, bad)):
            with pytest.raises(ArgumentError, match="finite"):
                FnEnvelope(*args)
