"""Cross-module identities tying the two bound families together.

The statistic-level bounds control their sum-level remainder through a
dominating envelope; the corresponding main terms must therefore agree
exactly with the smooth-function bounds evaluated under that envelope.
These tests pin the envelope plumbing to 1e-12 in every mode.
"""

import math

import pytest

from steindelta.bounds import (
    GrowthEnvelope,
    bound_delta_multivariate,
    bound_delta_univariate,
    bound_fn_multivariate,
    bound_fn_univariate,
    dominating_envelope,
    required_moment_orders,
)
from steindelta.core import TestBudget
from steindelta.moments import (
    analytic_moments,
    centered_bernoulli,
    multinomial_indicator,
    rank_scores,
)


def build_table(model, kind, mode, env, n):
    req = required_moment_orders(kind, mode, n, env)
    return analytic_moments(
        model, req.x_orders, n, w_orders=req.w_orders, w_seed=1, w_reps=8000
    )


MULTI_ENV = GrowthEnvelope(
    t=2,
    A={2: 2.0, 3: 0.0, 4: 0.0, 5: 0.0, 6: 0.0},
    r={2: 1 / 6, 3: 0.0, 4: 0.0, 5: 0.0, 6: 0.0},
    even_map=True,
    vanishing_third=False,
)


class TestMultivariateEnvelopeIdentities:
    def test_general_main_term_matches_fn_route(self):
        env = GrowthEnvelope(
            t=1, A={1: 1.5, 2: 0.5, 3: 0.0}, r={1: 1.0, 2: 0.0, 3: 0.0}
        )
        n = 64
        model = multinomial_indicator([0.5, 0.5])
        budget = TestBudget.unit(3)
        fn_env = dominating_envelope("delta-multivariate", "general", env, n, model.d)
        tab_d = build_table(model, "delta-multivariate", "general", env, n)
        tab_f = build_table(model, "fn-multivariate", "general", fn_env, n)
        delta = bound_delta_multivariate("general", env, tab_d, budget, 1)
        fn = bound_fn_multivariate("general", fn_env, tab_f, budget, 1)
        # the order-3 budget part of the statistic bound is the fn bound
        main = delta.term_weights["M2,d"] * delta.terms["M2,d"]
        assert main == pytest.approx(fn.value, rel=1e-12)

    def test_even_main_terms_match_fn_route(self):
        n = 16
        model = multinomial_indicator([0.2, 0.3, 0.5])
        budget = TestBudget.unit(6)
        fn_env = dominating_envelope("delta-multivariate", "even", MULTI_ENV, n, model.d)
        tab_d = build_table(model, "delta-multivariate", "even", MULTI_ENV, n)
        tab_f = build_table(model, "fn-multivariate", "even", fn_env, n)
        delta = bound_delta_multivariate("even", MULTI_ENV, tab_d, budget, 1)
        fn = bound_fn_multivariate("even", fn_env, tab_f, budget, 1, parity=True)
        main = (
            delta.term_weights["K3,d"] * delta.terms["K3,d"]
            + delta.term_weights["K4,d"] * delta.terms["K4,d"]
        )
        assert main == pytest.approx(fn.value, rel=1e-12)

    def test_zero_third_main_term_matches_fn_route(self):
        env = GrowthEnvelope(
            t=2,
            A={2: 2.0, 3: 0.0, 4: 0.0},
            r={2: 1 / 6, 3: 0.0, 4: 0.0},
            even_map=True,
            vanishing_third=True,
        )
        n = 32
        model = rank_scores([1, 2, 3])
        budget = TestBudget.unit(4)
        fn_env = dominating_envelope("delta-multivariate", "zero-third", env, n, model.d)
        tab_d = build_table(model, "delta-multivariate", "zero-third", env, n)
        tab_f = build_table(model, "fn-multivariate", "zero-third", fn_env, n)
        delta = bound_delta_multivariate("zero-third", env, tab_d, budget, 1)
        fn = bound_fn_multivariate("zero-third", fn_env, tab_f, budget, 1)
        main = delta.term_weights["K5,d"] * delta.terms["K5,d"]
        assert main == pytest.approx(fn.value, rel=1e-12)


class TestUnivariateEnvelopeIdentities:
    def test_general_main_term(self):
        env = GrowthEnvelope(t=1, A={1: 2.0, 2: 1.0}, r={1: 1.0, 2: 0.0})
        n = 64
        model = centered_bernoulli(0.3)
        fn_env = dominating_envelope("delta-univariate", "general", env, n, 1)
        tab_d = build_table(model, "delta-univariate", "general", env, n)
        tab_f = build_table(model, "fn-univariate", "general", fn_env, n)
        delta = bound_delta_univariate("general", env, tab_d, 1.0, 0.0)
        fn = bound_fn_univariate("general", fn_env, tab_f, 1.0, 0.0)
        main = delta.term_weights["M3"] * delta.terms["M3"]
        assert main == pytest.approx(fn.value, rel=1e-12)

    @pytest.mark.parametrize("mode", ["even", "zero-third"])
    def test_fast_route_main_terms(self, mode):
        model = centered_bernoulli(0.3 if mode == "even" else 0.5)
        env = GrowthEnvelope(
            t=2,
            A={2: 1.0, 3: 0.0, 4: 0.0},
            r={2: 0.0, 3: 0.0, 4: 0.0},
            even_map=True,
            vanishing_third=(mode == "zero-third"),
        )
        n = 24
        fn_env = dominating_envelope("delta-univariate", mode, env, n, 1)
        tab_d = build_table(model, "delta-univariate", mode, env, n)
        tab_f = build_table(model, "fn-univariate", mode, fn_env, n)
        delta = bound_delta_univariate(mode, env, tab_d, 1.0, 1.0)
        fn = bound_fn_univariate(mode, fn_env, tab_f, 1.0, 1.0, parity=True)
        main = delta.term_weights["K6"] * delta.terms["K6"]
        if mode == "even":
            main += delta.term_weights["K7"] * delta.terms["K7"]
        assert main == pytest.approx(fn.value, rel=1e-12)


class TestRemainingConstantCases:
    def test_even_family_t4(self):
        env = GrowthEnvelope(
            t=4, A={4: 2.0, 5: 1.0, 6: 3.0}, r={4: 0.0, 5: 0.0, 6: 0.0},
            even_map=True,
        )
        from steindelta.bounds import theorem_constants

        C, u = theorem_constants(2, 100, env)
        # max{2^6/1458, 2^3/2, 2*2^2, sqrt2*2^1.5, 2^0.2/100^0.6, 3/100} = 8
        assert C == pytest.approx(8.0, rel=1e-14)
        assert u == pytest.approx(18.0, rel=1e-14)  # 6*(0+3)

    def test_even_family_large_t(self):
        env = GrowthEnvelope(t=6, A={6: 1.0}, r={6: 0.0}, even_map=True)
        from steindelta.bounds import theorem_constants

        C, u = theorem_constants(2, 100, env)
        assert C == pytest.approx(2**0.2, rel=1e-14)
        assert u == pytest.approx(30.0, rel=1e-14)

    def test_zero_third_family_t4(self):
        env = GrowthEnvelope(t=4, A={4: 1.0}, r={4: 0.25}, vanishing_third=True)
        from steindelta.bounds import theorem_constants

        C, u = theorem_constants(3, 100, env)
        assert C == pytest.approx(2 ** (1 / 3), rel=1e-14)
        assert u == pytest.approx(4 * (0.25 + 3), rel=1e-14)

    def test_general_family_large_t(self):
        env = GrowthEnvelope(t=5, A={5: 2.0}, r={5: 0.5})
        from steindelta.bounds import theorem_constants

        C, u = theorem_constants(1, 100, env)
        expected = max(
            4 * 8 / math.factorial(4) ** 3,
            math.sqrt(2) * 2**1.5 / math.factorial(3) ** 1.5,
            2.0 / math.factorial(2),
        )
        assert C == pytest.approx(expected, rel=1e-14)
        assert u == pytest.approx(3 * (0.5 + 4), rel=1e-14)
