import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steindelta.core import (
    PartitionTerm,
    TestBudget,
    a_factor,
    abs_normal_moment,
    faa_di_bruno_checksum,
    faa_di_bruno_enumerate,
    h_budget,
    index_order_key,
    stirling2,
)
from steindelta.errors import ArgumentError, DomainError, RangeError


def _stirling2_altsum(n: int, k: int) -> int:
    """Reference: k! S(n, k) = sum_j (-1)^(k-j) C(k, j) j^n, exact in integers."""
    if k == 0:
        return 1 if n == 0 else 0
    total = sum((-1) ** (k - j) * math.comb(k, j) * j**n for j in range(k + 1))
    q, rem = divmod(total, math.factorial(k))
    assert rem == 0, (n, k)
    return q


class TestStirling:
    @pytest.mark.parametrize(
        "n,k,expected", [(3, 2, 3), (4, 2, 7), (6, 3, 90), (0, 0, 1), (5, 5, 1)]
    )
    def test_known_values(self, n, k, expected):
        assert stirling2(n, k) == expected

    def test_single_block(self):
        for n in range(1, 12):
            assert stirling2(n, 1) == 1

    def test_recurrence(self):
        for n in range(12):
            for k in range(12):
                assert stirling2(n + 1, k + 1) == (k + 1) * stirling2(n, k + 1) + stirling2(n, k)

    def test_matches_alternating_sum(self):
        for n in range(31):
            for k in range(31):
                assert stirling2(n, k) == _stirling2_altsum(n, k), (n, k)

    def test_range_guard(self):
        with pytest.raises(RangeError):
            stirling2(31, 2)
        with pytest.raises(DomainError):
            stirling2(-1, 2)


class TestAbsNormalMoment:
    def test_zeroth(self):
        assert abs_normal_moment(0, 2.5) == pytest.approx(1.0, rel=1e-14)
        assert abs_normal_moment(0, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_second_is_variance(self):
        for sigma in (0.25, 1.0, 3.0):
            assert abs_normal_moment(2, sigma) == pytest.approx(sigma**2, rel=1e-13)

    def test_first_standard(self):
        assert abs_normal_moment(1, 1) == pytest.approx(math.sqrt(2 / math.pi), rel=1e-13)

    def test_fourth_via_gamma_recurrence(self):
        # oracle: 2^2 Gamma(5/2)/sqrt(pi) with Gamma(5/2) = (3/2)(1/2)sqrt(pi)
        assert abs_normal_moment(4, 1) == pytest.approx(3.0, rel=1e-13)

    @given(
        r=st.floats(min_value=0.0, max_value=10.0),
        sigma=st.floats(min_value=1e-3, max_value=10.0),
        c=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_scaling(self, r, sigma, c):
        left = abs_normal_moment(r, c * sigma)
        right = c**r * abs_normal_moment(r, sigma)
        assert left == pytest.approx(right, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            abs_normal_moment(-1, 1)
        with pytest.raises(DomainError):
            abs_normal_moment(1, -1)


class TestHBudget:
    def test_order3_closed_form(self):
        for m in range(1, 6):
            assert h_budget(TestBudget.unit(3), m) == m + 3 * m**2 + m**3

    def test_order4_closed_form(self):
        for m in range(1, 6):
            assert h_budget(TestBudget.unit(4), m) == m + 7 * m**2 + 6 * m**3 + m**4

    def test_order6_closed_form(self):
        for m in range(1, 6):
            expected = m + 31 * m**2 + 90 * m**3 + 65 * m**4 + 15 * m**5 + m**6
            assert h_budget(TestBudget.unit(6), m) == expected

    def test_order1_collapses(self):
        assert h_budget(TestBudget(1, (2.5,)), 1) == 2.5

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_sup_norms_finite_and_non_negative(self, bad):
        for norms in ((bad,), (1.0, bad)):
            with pytest.raises(ArgumentError, match="finite and non-negative"):
                TestBudget(len(norms), norms)

    @given(
        m=st.integers(min_value=1, max_value=5),
        order=st.integers(min_value=1, max_value=6),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_budgets_and_m(self, m, order, data):
        norms = tuple(
            data.draw(st.floats(min_value=0.0, max_value=5.0)) for _ in range(order)
        )
        base = h_budget(TestBudget(order, norms), m)
        k = data.draw(st.integers(min_value=0, max_value=order - 1))
        bumped = list(norms)
        bumped[k] += 1.0
        assert h_budget(TestBudget(order, tuple(bumped)), m) > base
        if any(norms):
            assert h_budget(TestBudget(order, norms), m + 1) > base


class TestOrderRelation:
    def test_degree_first(self):
        assert index_order_key((1, 0)) < index_order_key((1, 1))
        assert index_order_key((0, 2)) < index_order_key((3, 0))

    def test_lexicographic_tie_break(self):
        assert index_order_key((1, 2, 0)) < index_order_key((2, 0, 1))  # case (ii)
        assert index_order_key((2, 0, 1)) < index_order_key((2, 1, 0))  # case (iii)
        assert not index_order_key((2, 1, 0)) < index_order_key((2, 1, 0))

    def test_total_order(self):
        idxs = list(product(range(3), repeat=2))
        for a in idxs:
            for b in idxs:
                ka, kb = index_order_key(a), index_order_key(b)
                if a == b:
                    assert not ka < kb and not kb < ka
                else:
                    assert (ka < kb) != (kb < ka)


def _exhaustive_enumerate(nu, lam):
    """Every PartitionTerm for (nu, lam), from every strictly increasing tuple of l's.

    The unpruned reference: combinations() of the candidate l's, each tuple
    assigned k's and kept when they sum to lam and the weighted l's to nu.
    """
    def nonzero_upto(bound):
        out = [idx for idx in product(*(range(b + 1) for b in bound)) if sum(idx) > 0]
        return sorted(out, key=lambda idx: (sum(idx), idx))

    candidates, k_candidates = nonzero_upto(nu), nonzero_upto(lam)
    terms = []

    def assign(ls, lam_rem, nu_rem, acc):
        if len(acc) == len(ls):
            if not any(lam_rem) and not any(nu_rem):
                terms.append(PartitionTerm(tuple(acc), ls))
            return
        l = ls[len(acc)]
        for k in k_candidates:
            w = sum(k)
            if all(kv <= lv for kv, lv in zip(k, lam_rem)) and all(
                w * li <= r for li, r in zip(l, nu_rem)
            ):
                assign(
                    ls,
                    tuple(lv - kv for lv, kv in zip(lam_rem, k)),
                    tuple(r - w * li for r, li in zip(nu_rem, l)),
                    acc + [k],
                )

    for s in range(1, min(sum(nu), sum(lam)) + 1):
        for ls in combinations(candidates, s):
            assign(ls, lam, nu, [])
    return terms


class TestFaaDiBruno:
    def test_chain_rule_second_derivative_outer_first(self):
        terms = faa_di_bruno_enumerate((2,), (1,))
        assert len(terms) == 1
        assert terms[0].k_vectors == ((1,),)
        assert terms[0].l_vectors == ((2,),)

    def test_chain_rule_second_derivative_outer_second(self):
        terms = faa_di_bruno_enumerate((2,), (2,))
        assert len(terms) == 1
        assert terms[0].k_vectors == ((2,),)
        assert terms[0].l_vectors == ((1,),)

    def test_term_invariants(self):
        nu, lam = (2, 1), (1, 1)
        for term in faa_di_bruno_enumerate(nu, lam):
            assert all(sum(k) > 0 for k in term.k_vectors)
            for a, b in zip(term.l_vectors, term.l_vectors[1:]):
                assert index_order_key(a) < index_order_key(b)
            ksum = tuple(sum(col) for col in zip(*term.k_vectors))
            assert ksum == lam
            weighted = [0] * len(nu)
            for k, l in zip(term.k_vectors, term.l_vectors):
                for i, li in enumerate(l):
                    weighted[i] += sum(k) * li
            assert tuple(weighted) == nu

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_checksum_identity_exact(self, d, m):
        for nu in product(range(5), repeat=d):
            n = sum(nu)
            if not 1 <= n <= 4:
                continue
            for k in range(1, n + 1):
                expected = Fraction(m**k * stirling2(n, k))
                assert faa_di_bruno_checksum(nu, k, m) == expected

    @pytest.mark.parametrize(
        "nu, lam",
        [
            ((1,), (1,)),
            ((3,), (2,)),
            ((2, 1), (1, 1)),
            ((1, 1, 1), (2, 1)),
            ((2, 2), (1, 2, 1)),
            ((5,), (1, 1, 1, 2)),
            ((2, 3), (3, 2)),
            ((1, 1, 1, 2), (2, 1)),
            ((1, 1, 1, 1), (1, 1, 1, 1)),
        ],
    )
    def test_pruned_enumeration_matches_exhaustive(self, nu, lam):
        # small cases and the guard limits: |nu| = 5 and dimensions 4
        assert faa_di_bruno_enumerate(nu, lam) == _exhaustive_enumerate(nu, lam)

    def test_scale_guard(self):
        with pytest.raises(RangeError):
            faa_di_bruno_enumerate((6,), (1,))
        with pytest.raises(RangeError):
            faa_di_bruno_enumerate((1,) * 5, (1,))


class TestCompositeBound:
    # Any order-n mixed partial of h(g(w)) is at most h_budget(budget, m) * P(w)
    # when every order-k partial of g satisfies |d^k g|^{n/k} <= P(w).
    def test_zero_envelope(self):
        assert h_budget(TestBudget.unit(3), 2) * 0.0 == 0.0

    def test_first_order_product(self):
        assert h_budget(TestBudget(1, (2.0,)), 1) * 3.0 == 6.0

    def test_two_dim_weight(self):
        # 2 {2 1} + 4 {2 2} with unit budgets and unit envelope
        assert h_budget(TestBudget.unit(2), 2) == 6.0

    def test_finite_difference_dominance(self):
        # h(y) = sin(y1 + y2), g(w) = (w^2, w^2): the composite is sin(2 w^2).
        # The order-2 envelope needs max(|2w|^2, 2) at each point.
        rng = np.random.default_rng(7)
        budget = TestBudget.unit(2)
        step = 1e-5
        for w in rng.uniform(-3, 3, size=100):
            phi = lambda x: math.sin(2 * x * x)  # noqa: E731
            second = (phi(w + step) - 2 * phi(w) + phi(w - step)) / step**2
            p_value = max((2 * w) ** 2, 2.0)
            bound = h_budget(budget, 2) * p_value
            assert abs(second) <= bound * (1 + 1e-6)


class TestAFactor:
    def test_growth_exponent_zero(self):
        for d in (1, 3, 7):
            assert a_factor(50, d, 0.0) == d

    def test_saturates_at_one(self):
        assert a_factor(16, 3, 1.0) == 1.0
        assert a_factor(100, 2, 2.0) == 1.0

    def test_small_n_side(self):
        assert a_factor(4, 6, 1.0) == 3.0

    def test_guards(self):
        with pytest.raises(DomainError):
            a_factor(0, 1, 1.0)
        with pytest.raises(DomainError):
            a_factor(1, 1, -0.5)
