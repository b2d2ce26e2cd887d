"""Exact combinatorics and closed-form moment kernels.

Everything here is a small deterministic function: Stirling numbers,
absolute moments of a centred normal, the derivative-budget weight
``h_budget``, the multivariate chain-rule partition enumeration with its
exact-arithmetic checksum, and the ``max(d / n^{r/2}, 1)`` saturation
factor.  These are the pieces every bound in :mod:`steindelta.bounds` is
assembled from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .errors import ArgumentError, DomainError, RangeError

MAX_STIRLING = 30


@lru_cache(maxsize=None)
def _stirling2_rec(n: int, k: int) -> int:
    if k == 0:
        return 1 if n == 0 else 0
    if k > n:
        return 0
    if k == n:
        return 1
    return k * _stirling2_rec(n - 1, k) + _stirling2_rec(n - 1, k - 1)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, exact.

    Computed by the triangular recurrence, limited to ``n, k <= 30``.
    """
    if n < 0 or k < 0:
        raise DomainError(f"stirling2 needs n, k >= 0, got ({n}, {k})")
    if n > MAX_STIRLING or k > MAX_STIRLING:
        raise RangeError(f"stirling2 limited to n, k <= {MAX_STIRLING}")
    return _stirling2_rec(n, k)


def abs_normal_moment(r: float, sigma: float) -> float:
    """E|Z|^r for Z ~ N(0, sigma^2); fractional r allowed.

    Equals 2^{r/2} sigma^r Gamma((r+1)/2) / sqrt(pi), with 0^0 = 1.
    """
    if r < 0:
        raise DomainError(f"moment order must be >= 0, got {r}")
    if sigma < 0:
        raise DomainError(f"sigma must be >= 0, got {sigma}")
    return 2.0 ** (r / 2.0) * sigma**r * math.gamma((r + 1.0) / 2.0) / math.sqrt(math.pi)


def a_factor(n: int, d: int, r: float) -> float:
    """max(d / n^{r/2}, 1): the sample-size saturation of the envelopes."""
    if n < 1 or d < 1:
        raise DomainError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if r < 0:
        raise DomainError(f"growth exponent must be >= 0, got {r}")
    return max(d / n ** (r / 2.0), 1.0)


@dataclass(frozen=True)
class TestBudget:
    """Sup-norm budgets |h|_1..|h|_order of a smooth test function."""

    __test__ = False  # not a pytest test class

    order: int
    sup_norms: tuple[float, ...]

    def __post_init__(self):
        if not 1 <= self.order <= 6:
            raise ArgumentError(f"budget order must be in 1..6, got {self.order}")
        if len(self.sup_norms) != self.order:
            raise ArgumentError(
                f"expected {self.order} sup-norms, got {len(self.sup_norms)}"
            )
        if not all(0 <= b < math.inf for b in self.sup_norms):
            raise ArgumentError(f"sup-norms must be finite and non-negative, got {self.sup_norms}")

    def norm(self, k: int) -> float:
        """|h|_k for 1 <= k <= order."""
        return self.sup_norms[k - 1]

    @classmethod
    def unit(cls, order: int) -> "TestBudget":
        return cls(order, (1.0,) * order)


def h_budget(budget: TestBudget, m: int, order: int | None = None) -> float:
    """Combinatorial derivative weight sum_k m^k {p brace k} |h|_k.

    ``order`` defaults to the budget's own order; a smaller value uses
    only the leading sup-norms (the weight of order p for the same h).
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    p = budget.order if order is None else order
    if p > budget.order:
        raise ArgumentError(f"budget carries orders up to {budget.order}, asked {p}")
    return sum(m**k * stirling2(p, k) * budget.norm(k) for k in range(1, p + 1))


# ---------------------------------------------------------------------------
# Multi-index order and the generalised chain-rule partitions
# ---------------------------------------------------------------------------

def index_order_key(idx: tuple[int, ...]):
    """Sort key realising the strict total order on multi-indices.

    Indices compare first by total degree, then lexicographically; this
    is exactly the (i)-(iii) case split written out in one key.
    """
    return (sum(idx), idx)


def _vec_factorial(idx: tuple[int, ...]) -> int:
    out = 1
    for v in idx:
        out *= math.factorial(v)
    return out


@dataclass(frozen=True)
class PartitionTerm:
    """One term of the multivariate chain-rule expansion.

    ``k_vectors`` are m-dimensional with |k_i| > 0, ``l_vectors`` are
    d-dimensional and strictly increasing; together they satisfy
    sum k_i = lambda and sum |k_i| l_i = nu.
    """

    k_vectors: tuple[tuple[int, ...], ...]
    l_vectors: tuple[tuple[int, ...], ...]

    @property
    def s(self) -> int:
        return len(self.k_vectors)

    def coefficient(self, nu: tuple[int, ...]) -> Fraction:
        """Exact weight nu! / prod_j k_j! (l_j!)^{|k_j|}."""
        denom = 1
        for k, l in zip(self.k_vectors, self.l_vectors):
            denom *= _vec_factorial(k) * _vec_factorial(l) ** sum(k)
        return Fraction(_vec_factorial(nu), denom)


def _nonzero_indices_upto(bound: tuple[int, ...]):
    ranges = [range(b + 1) for b in bound]
    out = [idx for idx in product(*ranges) if sum(idx) > 0]
    out.sort(key=index_order_key)
    return out


def faa_di_bruno_enumerate(
    nu: tuple[int, ...], lam: tuple[int, ...]
) -> list[PartitionTerm]:
    """All chain-rule partition terms for derivative nu and outer index lam.

    Exhaustive enumeration; guarded to |nu| <= 5 and dimensions <= 4.
    """
    nu = tuple(int(v) for v in nu)
    lam = tuple(int(v) for v in lam)
    if any(v < 0 for v in nu) or any(v < 0 for v in lam):
        raise DomainError("multi-index entries must be non-negative")
    n = sum(nu)
    d, m = len(nu), len(lam)
    if n > 5 or d > 4 or m > 4:
        raise RangeError(
            f"enumeration guarded to |nu| <= 5, dims <= 4; got |nu|={n}, d={d}, m={m}"
        )
    if n == 0 or sum(lam) == 0:
        return []

    candidates = _nonzero_indices_upto(nu)  # every l_i <= nu componentwise
    k_candidates = _nonzero_indices_upto(lam)
    terms: list[PartitionTerm] = []

    def assign(pos, ls, lam_rem, nu_rem, acc):
        if pos == len(ls):
            if all(v == 0 for v in lam_rem) and all(v == 0 for v in nu_rem):
                terms.append(PartitionTerm(tuple(acc), ls))
            return
        l = ls[pos]
        for k in k_candidates:
            if any(kv > lv for kv, lv in zip(k, lam_rem)):
                continue
            w = sum(k)
            if any(w * l[i] > nu_rem[i] for i in range(d)):
                continue
            assign(
                pos + 1,
                ls,
                tuple(lv - kv for lv, kv in zip(lam_rem, k)),
                tuple(nu_rem[i] - w * l[i] for i in range(d)),
                acc + [k],
            )

    def choose(start, s, ls, room):
        # the s-subsets of candidates[start:] in lexicographic order, as
        # combinations() gives them; each |k_i| >= 1, so an l above what is
        # left of nu in any coordinate cuts every tuple that would hold it
        if s == 0:
            assign(0, ls, lam, nu, [])
            return
        for i in range(start, len(candidates) - s + 1):
            l = candidates[i]
            if all(lv <= rv for lv, rv in zip(l, room)):
                choose(i + 1, s - 1, ls + (l,), tuple(rv - lv for rv, lv in zip(room, l)))

    max_s = min(n, sum(lam))
    for s in range(1, max_s + 1):
        choose(0, s, (), nu)
    return terms


def faa_di_bruno_checksum(nu: tuple[int, ...], k: int, m: int) -> Fraction:
    """Exact sum of term weights over all lambda with |lambda| = k.

    Equals m^k {|nu| brace k}; used as the enumeration's identity check.
    """
    total = Fraction(0)
    for lam in product(range(k + 1), repeat=m):
        if sum(lam) != k:
            continue
        for term in faa_di_bruno_enumerate(nu, lam):
            total += term.coefficient(nu)
    return total
