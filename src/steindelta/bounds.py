"""Explicit error-bound evaluation.

Four evaluators cover the statistic-level bounds (multivariate and
univariate, each with a general O(n^{-1/2}) mode and two O(n^{-1}) modes:
even map, or vanishing third moments) and the sum-level bounds for smooth
functions of the normalised sum W.  Constants are evaluated exactly as
stated, case by case; nothing is asymptotic.

Reports never repair a failed precondition: if a hypothesis does not
hold, the report is marked invalid, lists every failed condition, and
carries no value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import TestBudget, a_factor, abs_normal_moment, h_budget
from .errors import ArgumentError, DomainError
from .moments import MomentTable, order_key

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class GrowthEnvelope:
    """Polynomial growth of the map's partial derivatives.

    ``A[k]``, ``r[k]`` bound order-k partials by A_k (1 + sum_i |w_i|^{r_k})
    for k = t .. t + n_max.  Orders with A_k = 0 may omit r_k (treated as 0).
    """

    t: int
    A: dict[int, float]
    r: dict[int, float]
    even_map: bool = False
    vanishing_third: bool = False

    def __post_init__(self):
        if self.t < 1:
            raise ArgumentError(f"t must be >= 1, got {self.t}")
        if self.A.get(self.t, 0.0) <= 0:
            raise ArgumentError("leading envelope constant A_t must be > 0")
        if not all(0 <= v < math.inf for v in (*self.A.values(), *self.r.values())):
            raise ArgumentError(
                f"envelope constants must be finite and non-negative, got A={self.A}, r={self.r}"
            )

    def A_at(self, k: int) -> float:
        return self.A.get(k, 0.0)

    def r_at(self, k: int) -> float:
        return self.r.get(k, 0.0)


@dataclass(frozen=True)
class FnEnvelope:
    """Dominating function A + B sum_i |w_i|^r for a map of W itself."""

    A: float
    B: float
    r: float

    def __post_init__(self):
        if not all(0 <= v < math.inf for v in (self.A, self.B, self.r)):
            raise ArgumentError(
                f"envelope parameters must be finite and non-negative, "
                f"got A={self.A}, B={self.B}, r={self.r}"
            )


@dataclass
class BoundReport:
    """One theorem's bound with its term breakdown and applicability."""

    theorem: str
    n: int
    d: int
    m: int
    t: int
    rate_exponent: float
    terms: dict[str, float] = field(default_factory=dict)
    term_weights: dict[str, float] = field(default_factory=dict)
    applicability: list[tuple[str, bool]] = field(default_factory=list)
    rigor: str = "rigorous"
    value: float | None = None
    notes: dict[str, str] = field(default_factory=dict)

    @property
    def valid(self) -> bool:
        return all(ok for _, ok in self.applicability)

    def failed_conditions(self) -> list[str]:
        return [name for name, ok in self.applicability if not ok]

    def recombine(self) -> float:
        """Reassemble the value from terms and weights (identity check)."""
        return sum(self.term_weights[k] * self.terms[k] for k in self.terms)

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "n": self.n,
            "d": self.d,
            "m": self.m,
            "t": self.t,
            "rate_exponent": self.rate_exponent,
            "value": self.value,
            "terms": dict(sorted(self.terms.items())),
            "term_weights": dict(sorted(self.term_weights.items())),
            "applicability": [[name, ok] for name, ok in self.applicability],
            "rigor": self.rigor,
            "valid": self.valid,
            "notes": dict(sorted(self.notes.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    CSV_HEADER = "theorem,n,d,m,t,value,rate,rigor"

    def to_csv_row(self) -> str:
        value = "" if self.value is None else repr(self.value)
        return (
            f"{self.theorem},{self.n},{self.d},{self.m},{self.t},"
            f"{value},{self.rate_exponent},{self.rigor}"
        )


# ---------------------------------------------------------------------------
# Constant families
# ---------------------------------------------------------------------------

def theorem_constants(family: int, n: int, env: GrowthEnvelope) -> tuple[float, float]:
    """(C, u) constants of the statistic-level bounds at the envelope's order t.

    Families 1/2/3 are the multivariate general, even-map and
    vanishing-third routes; family 4 is the univariate O(n^{-1}) route.
    The small-t cases carry explicit n-dependent entries.
    """
    A, r, t = env.A_at, env.r_at, env.t
    if family == 1:
        if t < 1:
            raise ArgumentError("family 1 needs t >= 1")
        if t == 1:
            u = max(3 * r(1), 1.5 * r(2), r(3))
            C = max(4 * A(1) ** 3, SQRT2 * A(2) ** 1.5 / math.sqrt(n), A(3) / n ** (5 / 6))
        elif t == 2:
            u = max(3 * (r(2) + 1), r(3))
            C = max(4 * A(2) ** 3, SQRT2 * A(2) ** 1.5, A(3) / math.sqrt(n))
        else:
            u = 3 * (r(t) + t - 1)
            C = max(
                4 * A(t) ** 3 / math.factorial(t - 1) ** 3,
                SQRT2 * A(t) ** 1.5 / math.factorial(t - 2) ** 1.5,
                A(t) / math.factorial(t - 3),
            )
        return C, u
    if family == 2:
        if t < 2 or t % 2:
            raise ArgumentError("family 2 needs even t >= 2")
        if t == 2:
            u = max(6 * (r(2) + 1), 2 * r(3), 1.5 * r(4), 1.2 * r(5), r(6))
            C = max(
                32 * A(2) ** 6,
                4 * A(2) ** 3,
                4 * A(3) ** 2 / n,
                SQRT2 * A(4) ** 1.5 / n**1.5,
                2**0.2 * A(5) ** 1.2 / n**1.8,
                A(6) / n**2,
            )
        elif t == 4:
            u = max(6 * (r(4) + 3), 1.2 * r(5), r(6))
            C = max(
                A(4) ** 6 / 1458,
                A(4) ** 3 / 2,
                2 * A(4) ** 2,
                SQRT2 * A(4) ** 1.5,
                2**0.2 * A(5) ** 1.2 / n**0.6,
                A(6) / n,
            )
        else:
            u = 6 * (r(t) + t - 1)
            C = max(
                32 * A(t) ** 6 / math.factorial(t - 1) ** 6,
                4 * A(t) ** 3 / math.factorial(t - 2) ** 3,
                2 * A(t) ** 2 / math.factorial(t - 3) ** 2,
                SQRT2 * A(t) ** 1.5 / math.factorial(t - 4) ** 1.5,
                2**0.2 * A(t) ** 1.2 / math.factorial(t - 5) ** 1.2,
                A(t) / math.factorial(t - 6),
            )
        return C, u
    if family == 3:
        if t < 2 or t % 2:
            raise ArgumentError("family 3 needs even t >= 2")
        if t == 2:
            u = max(4 * (r(2) + 1), 4 * r(3) / 3, r(4))
            C = max(
                8 * A(2) ** 4,
                2 * A(2) ** 2,
                2 ** (1 / 3) * A(3) ** (4 / 3) / n ** (2 / 3),
                A(4) / n,
            )
        else:
            u = 4 * (r(t) + t - 1)
            C = max(
                8 * A(t) ** 4 / math.factorial(t - 1) ** 4,
                2 * A(t) ** 2 / math.factorial(t - 2) ** 2,
                2 ** (1 / 3) * A(t) ** (4 / 3) / math.factorial(t - 3) ** (4 / 3),
                A(t) / math.factorial(t - 4),
            )
        return C, u
    if family == 4:
        if t < 2:
            raise ArgumentError("family 4 needs t >= 2")
        u = 2 * (r(t) + t - 1)
        C = max(A(t) / math.factorial(t - 2), 2 * A(t) ** 2 / math.factorial(t - 1) ** 2)
        return C, u
    raise ArgumentError(f"unknown constant family {family}")


def small_constants(r: float, sigma: float, tilde: bool = False):
    """(alpha_r, beta_r, gamma_{r,sigma}) with the r <= 1 / r > 1 branch."""
    if r < 0:
        raise DomainError(f"order must be >= 0, got {r}")
    if sigma <= 0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    if tilde:
        if r <= 1:
            return 10.0, 10.0, 10.0 * abs_normal_moment(r + 1, sigma)
        return (
            r * r + r + 8.0,
            r * r + 2.0 * r + 18.0,
            (2.0 * r * r + r + 5.0) * abs_normal_moment(r + 1, sigma) / sigma,
        )
    if r <= 1:
        return 4.0, 4.0, 2.0 * abs_normal_moment(r, sigma)
    return r + 3.0, r + 5.0, (r + 1.0) * abs_normal_moment(r + 1, sigma) / sigma


# ---------------------------------------------------------------------------
# Routes: each kind/mode's constants, moment orders and hypotheses
# ---------------------------------------------------------------------------

BOUND_KINDS = ("delta-univariate", "delta-multivariate", "fn-univariate", "fn-multivariate")

# Highest sup-norm |h|_p each mode's multivariate bound reads.
TEST_ORDER = {"general": 3, "even": 6, "zero-third": 4}

# Theorem-name suffix of each mode; every mode but "general" is an O(1/n) route.
_MODE_TAGS = {"general": "general", "even": "even", "zero-third": "zero3"}


@dataclass(frozen=True)
class RequiredMoments:
    x_orders: tuple[float, ...]
    w_orders: tuple[float, ...]
    needs_third: bool


def budget_order(kind: str, mode: str) -> int:
    """Order of the test-function budget ``evaluate_bound`` expects.

    Raises ArgumentError for an unknown bound kind or mode.
    """
    if kind not in BOUND_KINDS:
        raise ArgumentError(f"unknown bound kind {kind!r}")
    if mode not in TEST_ORDER:
        raise ArgumentError(f"unknown mode {mode!r}")
    return 2 if kind.endswith("univariate") else TEST_ORDER[mode]


def _route_constants(kind: str, mode: str, n: int, env: GrowthEnvelope) -> tuple[float, float]:
    """(C, u) of a delta route: the main term's constant and the order u of E|W|^u it reads.

    The multivariate modes take constant families 1/2/3, the univariate
    O(1/n) modes family 4 and the univariate general mode
    (A_t / (t-1)!, r_t + t - 1), with t the growth envelope's.  Raises
    ArgumentError where the family is undefined at t.
    """
    if kind == "delta-multivariate":
        return theorem_constants({"general": 1, "even": 2, "zero-third": 3}[mode], n, env)
    if mode == "general":
        return env.A_at(env.t) / math.factorial(env.t - 1), env.r_at(env.t) + env.t - 1
    return theorem_constants(4, n, env)


def dominating_envelope(kind: str, mode: str, env: GrowthEnvelope, n: int, d: int) -> FnEnvelope:
    """Envelope certifying a delta route's Taylor remainder as a smooth function of W.

    With (C, u) the route's constants, it is 2C (1 + |w|^u) on the
    univariate routes and 2C a^p d^{pt-p-1} (d + sum_i |w_i|^u) on the
    multivariate ones, where a = ``a_factor(n, d, r_t)`` saturates and p
    is the mode's test order (3, 6 or 4).  The main terms of the
    ``kind``/``mode`` bound are the fn bound of the same mode at this
    envelope.  Raises ArgumentError for an fn kind, an unknown mode, or
    where the route's constants are undefined at t.
    """
    budget_order(kind, mode)
    if not kind.startswith("delta"):
        raise ArgumentError(f"{kind!r} bounds a map of W itself and has no dominating envelope")
    C, u = _route_constants(kind, mode, n, env)
    if kind == "delta-univariate":
        return FnEnvelope(2.0 * C, 2.0 * C, u)
    p, t = TEST_ORDER[mode], env.t
    base = 2.0 * C * a_factor(n, d, env.r_at(t)) ** p * float(d) ** (p * t - p - 1)
    return FnEnvelope(base * d, base, u)


def _orders(mode: str, u: float) -> RequiredMoments:
    u = order_key(u)
    if mode == "general":
        return RequiredMoments((3.0, order_key(u + 3)), (u,), False)
    if mode == "even":
        return RequiredMoments((3.0, 4.0, order_key(u + 3), order_key(u + 4)), (u,), True)
    return RequiredMoments((4.0, order_key(u + 4)), (u,), True)


def required_moment_orders(kind: str, mode: str, n: int, env) -> RequiredMoments:
    """Exact moment-order keys the given bound evaluation will read.

    The order t of a delta kind is the envelope's.  Raises ArgumentError for
    an unknown bound kind or mode.
    """
    budget_order(kind, mode)
    u = env.r if kind.startswith("fn") else _route_constants(kind, mode, n, env)[1]
    return _orders(mode, u)


def min_n(kind: str, mode: str, d: int = 1) -> int:
    """Smallest sample size the hypotheses of the ``kind``/``mode`` bound admit.

    n >= 12 on the even-map routes, n >= max(d^6, 8) on the general
    multivariate delta route and n >= 8 everywhere else.
    """
    if mode == "even":
        return 12
    if kind == "delta-multivariate" and mode == "general":
        return max(d**6, 8)
    return 8


def check_kind_dimension(kind: str, d: int) -> None:
    """ArgumentError when a univariate bound kind gets a model with d != 1."""
    if kind.endswith("univariate") and d != 1:
        raise ArgumentError(f"univariate bound needs d = 1, got d = {d}")


def _open(kind, mode, env, table: MomentTable, m: int = 1, budget=None, even=False):
    """(report, fn_env): one route's report at the table's n, with every hypothesis checked.

    ``even`` is the parity the even mode needs.  ``fn_env`` is the route's
    sum-level envelope: an fn kind's own, a delta kind's dominating
    envelope.  It is None when the route's constants are undefined at t;
    the report then fails on it.
    """
    order = budget_order(kind, mode)
    univariate, delta = kind.endswith("univariate"), kind.startswith("delta")
    d, n, t = table.d, table.n, env.t if delta else 0
    tag = kind.replace("univariate", "uv").replace("multivariate", "mv")
    rate = -0.5 if mode == "general" else -1.0
    report = BoundReport(f"{tag}-{_MODE_TAGS[mode]}", n, d, m, t, rate)

    def check(name, ok):
        report.applicability.append((name, bool(ok)))

    if univariate:
        check("Var(W) > 0", table.sigma[0, 0] > 0)
    if delta and mode != "general":
        check("t even and >= 2", t >= 2 and t % 2 == 0)
    if mode == "even":
        check("map is even", even)
    elif mode == "zero-third":
        if kind == "delta-multivariate":
            check("vanishing-third flag", env.vanishing_third)
        if table.mixed_third is not None:  # a missing table fails the moment check
            vanish = "E[X^3] = 0" if univariate else "mixed thirds vanish"
            check(f"{vanish} (<= 1e-12)", table.max_abs_third() <= 1e-12)
    need = min_n(kind, mode, d)
    formula = "max(d^6, 8) = " if kind == "delta-multivariate" and mode == "general" else ""
    check(f"n >= {formula}{need}", n >= need)
    if not univariate:
        check(f"budget order >= {order}", budget.order >= order)

    try:
        fn_env = dominating_envelope(kind, mode, env, n, d) if delta else env
    except ArgumentError as exc:
        check(f"constants defined ({exc})", False)
        return report, None
    req = _orders(mode, fn_env.r)
    missing = [(j, s) for j in range(d) for s in req.x_orders if not table.has_abs_moment(j, s)]
    missing += [("W", k, r) for k in range(d) for r in req.w_orders if not table.has_w_moment(k, r)]
    if req.needs_third and table.mixed_third is None:
        missing.append(("mixed-third",))
    check("moment availability" + (f" (missing: {missing})" if missing else ""), not missing)
    return report, fn_env


def _finish(report: BoundReport, table: MomentTable, terms=None, weights=None) -> BoundReport:
    """Close the report; a valid one files ``terms`` with their ``weights`` and sums them."""
    if table.any_mc_w():
        report.rigor = "mc-estimated-moments"
    if report.valid:
        report.terms = {k: float(v) for k, v in terms.items()}
        report.term_weights = {k: float(weights[k]) for k in terms}
        report.value = float(report.recombine())
    return report


def _third_sum(table: MomentTable, d: int) -> float:
    """sum over all ordered (j,k,l) of |E[X_j X_k X_l]| for one row."""
    total = 0.0
    for j in range(d):
        for k in range(d):
            for l in range(d):
                total += abs(table.third(j, k, l))
    return total


def _pair_sum(table, d, u, order, c_sigma, c_w, A, B) -> float:
    """Multivariate main term summed over the coordinate pairs (j, k).

    Each pair adds (A + c_sigma E|Z_k|^u B) E|X_j|^order + B E|X_j|^{u+order}
    + c_w B E|X_j|^order E|W_k|^u.  The normal-moment factor depends on k
    alone, so it is computed once per k.
    """
    normal = [c_sigma * abs_normal_moment(u, table.sigma_j(k)) * B for k in range(d)]
    total = 0.0
    for j in range(d):
        mj = table.abs_moment(j, order)
        mtail = table.abs_moment(j, order_key(u + order))
        for k in range(d):
            total += (
                (A + normal[k]) * mj
                + B * mtail
                + c_w * B * mj * table.w_abs_moment(k, u).value
            )
    return total


def _row_term(table, u, order, consts, A, B, tilde=False) -> float:
    """Univariate main term from the (alpha, beta, gamma) constants ``consts``.

    (A alpha + c B gamma) E|X|^order + c' B beta E|X|^order E|W|^u
    + B beta E|X|^{u+order}, with (c, c') = (2^{u/2}, 2^{3u/2}), or
    (3^{u/2}, 12^{u/2}) for the tilde constants.
    """
    alpha, beta, gamma = consts
    if tilde:
        c, c_w = 3.0 ** (u / 2.0), 12.0 ** (u / 2.0)
    else:
        c, c_w = 2.0 ** (u / 2.0), 2.0 ** (1.5 * u)
    mk = table.abs_moment(0, order)
    return (
        (A * alpha + c * B * gamma) * mk
        + c_w * B * beta * mk * table.w_abs_moment(0, u).value
        + B * beta * table.abs_moment(0, order_key(u + order))
    )


def _mv_terms(mode: str, fn_env: FnEnvelope, table: MomentTable) -> dict[str, float]:
    """Multivariate sum-level main terms of a map g of W with envelope ``fn_env``.

    S on the general route; K1, and K2 for an even map, on the O(1/n) routes.
    """
    d, r = table.d, order_key(fn_env.r)
    A, B = fn_env.A / d, fn_env.B  # the constant A is spread over the d rows
    c, c_w = 2.0 ** (r / 2.0), 2.0 ** (1.5 * r)
    if mode == "general":
        return {"S": _pair_sum(table, d, r, 3.0, c, c_w, A, B)}
    terms = {"K1": 5.0 * d**3 / 12.0 * _pair_sum(table, d, r, 4.0, c, c_w, A, B)}
    if mode == "even":
        third = _third_sum(table, d)
        rest = _pair_sum(table, d, r, 3.0, 2.0 * 3.0 ** (r / 2.0), 12.0 ** (r / 2.0), A, B)
        # the (i, alpha) double sum separates exactly: (n * third) * (n * rest) / n^2
        terms["K2"] = d**2 / 24.0 * third * rest
    return terms


def _uv_terms(mode: str, fn_env: FnEnvelope, table: MomentTable) -> dict[str, float]:
    """Univariate sum-level main terms of a map g of W with envelope ``fn_env``.

    S on the general route; K3, and K4 for an even map, on the O(1/n) routes.
    """
    r, sigma2, A, B = order_key(fn_env.r), table.sigma[0, 0], fn_env.A, fn_env.B
    sigma = math.sqrt(sigma2)
    consts = small_constants(r, sigma)
    if mode == "general":
        return {"S": _row_term(table, r, 3.0, consts, A, B)}
    terms = {"K3": 5.0 / (3.0 * sigma2) * _row_term(table, r, 4.0, consts, A, B)}
    if mode == "even":
        tilde = small_constants(r, sigma, tilde=True)
        third = abs(table.third(0, 0, 0))
        terms["K4"] = 3.0 / (4.0 * sigma2**2) * third * _row_term(table, r, 3.0, tilde, A, B, True)
    return terms


def _remainder_first(env: GrowthEnvelope, table: MomentTable) -> float:
    """Order t+1 Taylor remainder of the limit comparison, summed over the d rows."""
    t, d, n, rr = env.t, table.d, table.n, env.r_at(env.t + 1)
    mu = abs_normal_moment
    return (
        env.A_at(t + 1)
        * d**t
        / math.factorial(t + 1)
        * sum(
            mu(t + 1, table.sigma_j(j)) + d / n ** (rr / 2.0) * mu(rr + t + 1, table.sigma_j(j))
            for j in range(d)
        )
    )


def _remainder_second(env: GrowthEnvelope, table: MomentTable) -> tuple[float, float]:
    """The order t+2 remainder and the squared t+1/t+2 term of the O(1/n) routes."""
    t, d, n, rr = env.t, table.d, table.n, env.r_at(env.t + 2)
    mu = abs_normal_moment
    first = (
        env.A_at(t + 2)
        * d ** (t + 1)
        / math.factorial(t + 2)
        * sum(
            mu(t + 2, table.sigma_j(j)) + d / n ** (rr / 2.0) * mu(rr + t + 2, table.sigma_j(j))
            for j in range(d)
        )
    )
    second = (
        d ** (2 * t + 1)
        / math.factorial(t + 1) ** 2
        * sum(
            env.A_at(t + 1) ** 2 * mu(2 * (t + 1), table.sigma_j(j))
            + 2.0
            * env.A_at(t + 2) ** 2
            * d**2
            / ((t + 2) ** 2 * n)
            * (mu(2 * (t + 2), table.sigma_j(j)) + d**2 * mu(2 * (rr + t + 2), table.sigma_j(j)))
            for j in range(d)
        )
    )
    return first, second


def _kolmogorov_notes(t: int) -> dict[str, str]:
    # Rate-only forms: the two quantile-coupling constants are not explicit.
    return {
        "kolmogorov-from-wasserstein": f"<= C' * dW^(1/{1 + t}) with C' not explicit",
        "kolmogorov-from-second-order": f"<= C'' * d2^(1/{1 + 2 * t}) with C'' not explicit",
    }


# ---------------------------------------------------------------------------
# Statistic-level bounds: Taylor remainders plus the sum-level terms
# ---------------------------------------------------------------------------

def bound_delta_multivariate(
    mode: str,
    env: GrowthEnvelope,
    table: MomentTable,
    budget: TestBudget,
    m: int,
) -> BoundReport:
    """Distance bound for the rescaled map statistic against its limit.

    ``mode`` selects the general O(n^{-1/2}) route or one of the two
    O(n^{-1}) routes (even map / vanishing mixed third moments).  The
    bound is the Taylor remainders (M1,d; K1,d and K2,d) plus the fn bound
    of the same mode at the route's ``dominating_envelope``: M2,d is d^2/2
    times its S, K3,d 13/10 times its K1, and K4,d and K5,d are its K2 and K1.
    """
    report, fn_env = _open("delta-multivariate", mode, env, table, m, budget, env.even_map)
    if not report.valid:
        return _finish(report, table)

    d, n, main = table.d, table.n, _mv_terms(mode, fn_env, table)
    if mode == "general":
        terms = {"M1,d": _remainder_first(env, table), "M2,d": d**2 / 2.0 * main["S"]}
        weights = {
            "M1,d": m * budget.norm(1) / math.sqrt(n),
            "M2,d": h_budget(budget, m, order=3) / math.sqrt(n),
        }
        return _finish(report, table, terms, weights)
    k1, k2 = _remainder_second(env, table)
    if mode == "even":
        terms = {"K1,d": k1, "K2,d": k2, "K3,d": 13.0 / 10.0 * main["K1"], "K4,d": main["K2"]}
        weights = {
            "K1,d": m * budget.norm(1) / n,
            "K2,d": m**2 * budget.norm(2) / n,
            "K3,d": h_budget(budget, m, order=4) / n,
            "K4,d": h_budget(budget, m, order=6) / n,
        }
    else:
        terms = {"K1,d": k1, "K2,d": k2, "K5,d": main["K1"]}
        # the printed combination carries m (not m^2) on the |h|_2 term
        weights = {
            "K1,d": m * budget.norm(1) / n,
            "K2,d": m * budget.norm(2) / n,
            "K5,d": h_budget(budget, m, order=4) / n,
        }
    return _finish(report, table, terms, weights)


def bound_delta_univariate(
    mode: str,
    env: GrowthEnvelope,
    table: MomentTable,
    hprime: float,
    hdoubleprime: float = 0.0,
) -> BoundReport:
    """Univariate statistic-level bound (d = m = 1 specialisation).

    The Taylor remainders (M1,1; K1,1 and K2,1) plus the fn bound of the
    same mode at the route's ``dominating_envelope``: M3 is 3/(2 sigma^2)
    times its S, and K6 and K7 are its K3 and K4.
    """
    check_kind_dimension("delta-univariate", table.d)
    TestBudget(2, (hprime, hdoubleprime))  # finite and non-negative, else ArgumentError
    report, fn_env = _open("delta-univariate", mode, env, table, even=env.even_map)
    report.notes = _kolmogorov_notes(env.t)
    if not report.valid:
        return _finish(report, table)

    n, main = table.n, _uv_terms(mode, fn_env, table)
    if mode == "general":
        m3 = 3.0 / (2.0 * table.sigma[0, 0]) * main["S"]
        terms = {"M1,1": _remainder_first(env, table), "M3": m3}
        w = hprime / math.sqrt(n)
        return _finish(report, table, terms, {"M1,1": w, "M3": w})
    k11, k21 = _remainder_second(env, table)
    h = hprime + hdoubleprime
    terms = {"K1,1": k11, "K2,1": k21, "K6": main["K3"]}
    weights = {
        "K1,1": hprime / n,
        "K2,1": hdoubleprime / n,
        "K6": h * (13.0 / 10.0 if mode == "even" else 1.0) / n,
    }
    if mode == "even":
        terms["K7"], weights["K7"] = main["K4"], h / n
    return _finish(report, table, terms, weights)


# ---------------------------------------------------------------------------
# Sum-level bounds for smooth maps of W
# ---------------------------------------------------------------------------

def bound_fn_multivariate(
    mode: str,
    fn_env: FnEnvelope,
    table: MomentTable,
    budget: TestBudget,
    m: int,
    parity: bool = False,
) -> BoundReport:
    """Distance bound between g(W) and g(Z) for g with envelope ``fn_env``."""
    report, fn_env = _open("fn-multivariate", mode, fn_env, table, m, budget, parity)
    if not report.valid:
        return _finish(report, table)

    d, n = table.d, table.n
    if mode == "general":
        weights = {"S": d**2 * h_budget(budget, m, order=3) / (2.0 * math.sqrt(n))}
    elif mode == "even":
        weights = {
            "K1": 13.0 / 10.0 * h_budget(budget, m, order=4) / n,
            "K2": h_budget(budget, m, order=6) / n,
        }
    else:
        weights = {"K1": h_budget(budget, m, order=4) / n}
    return _finish(report, table, _mv_terms(mode, fn_env, table), weights)


def bound_fn_univariate(
    mode: str,
    fn_env: FnEnvelope,
    table: MomentTable,
    hprime: float,
    hdoubleprime: float = 0.0,
    parity: bool = False,
) -> BoundReport:
    """Univariate sum-level bound (d = m = 1)."""
    check_kind_dimension("fn-univariate", table.d)
    TestBudget(2, (hprime, hdoubleprime))  # finite and non-negative, else ArgumentError
    report, fn_env = _open("fn-univariate", mode, fn_env, table, even=parity)
    if not report.valid:
        return _finish(report, table)

    n, h = table.n, hprime + hdoubleprime
    if mode == "general":
        weights = {"S": 3.0 * hprime / (2.0 * table.sigma[0, 0] * math.sqrt(n))}
    else:
        weights = {"K3": h * (13.0 / 10.0 if mode == "even" else 1.0) / n, "K4": h / n}
    return _finish(report, table, _uv_terms(mode, fn_env, table), weights)


# ---------------------------------------------------------------------------
# Dispatch over the four bound kinds
# ---------------------------------------------------------------------------

def evaluate_bound(
    kind: str,
    mode: str,
    env: GrowthEnvelope | FnEnvelope,
    table: MomentTable,
    budget: TestBudget,
    m: int,
    parity: bool = False,
) -> BoundReport:
    """Evaluate the bound of one kind with the matching evaluator.

    The sample size n is the moment table's (``table.n``), so the Monte
    Carlo E|W|^u entries and the constants always share it; a delta kind's
    order t is its envelope's.  ``env`` is a GrowthEnvelope for the delta
    kinds and an FnEnvelope for the fn kinds.  Univariate kinds read |h|_1
    and |h|_2 from ``budget``; multivariate kinds take it whole, of order
    ``budget_order(kind, mode)``.  ``parity`` only applies to the fn kinds.
    """
    if kind == "delta-univariate":
        return bound_delta_univariate(mode, env, table, budget.norm(1), budget.norm(2))
    if kind == "delta-multivariate":
        return bound_delta_multivariate(mode, env, table, budget, m)
    if kind == "fn-univariate":
        return bound_fn_univariate(mode, env, table, budget.norm(1), budget.norm(2), parity)
    if kind == "fn-multivariate":
        return bound_fn_multivariate(mode, env, table, budget, m, parity)
    raise ArgumentError(f"unknown bound kind {kind!r}")


# ---------------------------------------------------------------------------
# Solution-derivative bounds
# ---------------------------------------------------------------------------

def stein_derivative_bound(
    kind: str,
    t_or_order: int,
    fn_env: FnEnvelope,
    budget: TestBudget,
    m: int,
    w,
    sigmas,
) -> float:
    """Pointwise bound on derivatives of the normal-equation solution.

    ``kind='solution'`` bounds the order-t partials of the solution
    itself; ``kind='psi'`` bounds the third partials of the second-stage
    solution (needs order-6 budgets).
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    if w.shape != sigmas.shape:
        raise ArgumentError("w and sigmas must have matching length")
    A, B, r = fn_env.A, fn_env.B, fn_env.r
    if kind == "solution":
        t = t_or_order
        if t < 1:
            raise ArgumentError("derivative order must be >= 1")
        inner = A + sum(
            2.0 ** (r / 2.0) * B * (abs(wi) ** r + abs_normal_moment(r, si))
            for wi, si in zip(w, sigmas)
        )
        return h_budget(budget, m, order=t) / t * inner
    if kind == "psi":
        if budget.order < 6:
            raise ArgumentError("psi bound needs order-6 budgets")
        inner = A + sum(
            3.0 ** (r / 2.0) * B * (abs(wi) ** r + 2.0 * abs_normal_moment(r, si))
            for wi, si in zip(w, sigmas)
        )
        return h_budget(budget, m, order=6) / 18.0 * inner
    raise ArgumentError(f"unknown kind {kind!r}")
