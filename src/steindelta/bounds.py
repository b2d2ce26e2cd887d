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
        if any(v < 0 for v in self.A.values()) or any(v < 0 for v in self.r.values()):
            raise ArgumentError("envelope constants must be non-negative")

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
        if self.A < 0 or self.B < 0 or self.r < 0:
            raise ArgumentError("envelope parameters must be non-negative")


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

def theorem_constants(
    family: int, t: int, n: int, env: GrowthEnvelope
) -> tuple[float, float]:
    """(C, u) constants of the statistic-level bounds.

    Families 1/2/3 are the multivariate general, even-map and
    vanishing-third routes; family 4 is the univariate O(n^{-1}) route.
    The small-t cases carry explicit n-dependent entries.
    """
    A, r = env.A_at, env.r_at
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
# Required moment orders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RequiredMoments:
    x_orders: tuple[float, ...]
    w_orders: tuple[float, ...]
    needs_third: bool


def required_moment_orders(kind: str, mode: str, t: int, n: int, env) -> RequiredMoments:
    """Exact moment-order keys the given bound evaluation will read."""
    if kind in ("delta-multivariate", "delta-univariate"):
        if kind == "delta-univariate" and mode == "general":
            u = env.r_at(t) + t - 1
        else:
            family = {"general": 1, "even": 2, "zero-third": 3}[mode]
            if kind == "delta-univariate":
                family = 4
            _, u = theorem_constants(family, t, n, env)
    else:
        u = env.r
    u = order_key(u)
    if mode == "general":
        return RequiredMoments((3.0, order_key(u + 3)), (u,), False)
    if mode == "even":
        return RequiredMoments(
            (3.0, 4.0, order_key(u + 3), order_key(u + 4)), (u,), True
        )
    if mode == "zero-third":
        return RequiredMoments((4.0, order_key(u + 4)), (u,), True)
    raise ArgumentError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

# Theorem-name suffix of each mode; every mode but "general" is an O(1/n) route.
_MODE_TAGS = {"general": "general", "even": "even", "zero-third": "zero3"}


def _new_report(family: str, mode: str, n: int, d: int, m: int, t: int) -> BoundReport:
    rate = -0.5 if mode == "general" else -1.0
    return BoundReport(f"{family}-{_MODE_TAGS[mode]}", n, d, m, t, rate)


def _condition(report, name, ok):
    report.applicability.append((name, bool(ok)))
    return ok


def _check_moments(report, table: MomentTable, req: RequiredMoments, d: int):
    missing = []
    for j in range(d):
        for s in req.x_orders:
            if not table.has_abs_moment(j, s):
                missing.append((j, s))
    for k in range(d):
        for r in req.w_orders:
            if not table.has_w_moment(k, r):
                missing.append(("W", k, r))
    if req.needs_third and table.mixed_third is None:
        missing.append(("mixed-third",))
    name = "moment availability"
    if missing:
        name += f" (missing: {missing})"
    _condition(report, name, not missing)


def _finish(report: BoundReport, table: MomentTable):
    if table.any_mc_w():
        report.rigor = "mc-estimated-moments"
    if report.valid:
        report.terms = {k: float(v) for k, v in report.terms.items()}
        report.term_weights = {k: float(v) for k, v in report.term_weights.items()}
        report.value = float(report.recombine())
    else:
        report.value = None
        report.terms = {}
        report.term_weights = {}
    return report


def _third_sum(table: MomentTable, d: int) -> float:
    """sum over all ordered (j,k,l) of |E[X_j X_k X_l]| for one row."""
    total = 0.0
    for j in range(d):
        for k in range(d):
            for l in range(d):
                total += abs(table.third(j, k, l))
    return total


def _zero_third_condition(report, table: MomentTable):
    """Univariate vanishing-third applicability, read from the table."""
    if table.mixed_third is None:
        _condition(report, "E[X^3] available", False)
    else:
        _condition(report, "E[X^3] = 0 (<= 1e-12)", abs(table.third(0, 0, 0)) <= 1e-12)


def _pair_sum(table, d, u, order, c_sigma, c_w, A=1.0, B=1.0) -> float:
    """Multivariate main term summed over the coordinate pairs (j, k).

    Each pair adds (A + c_sigma E|Z_k|^u B) E|X_j|^order + B E|X_j|^{u+order}
    + c_w B E|X_j|^order E|W_k|^u.
    """
    total = 0.0
    for j in range(d):
        mj = table.abs_moment(j, order)
        mtail = table.abs_moment(j, order_key(u + order))
        for k in range(d):
            total += (
                (A + c_sigma * abs_normal_moment(u, table.sigma_j(k)) * B) * mj
                + B * mtail
                + c_w * B * mj * table.w_abs_moment(k, u).value
            )
    return total


def _row_term(table, u, order, consts, tilde=False, A=1.0, B=1.0) -> float:
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


def _kolmogorov_notes(t: int, mode: str) -> dict[str, str]:
    # Rate-only forms: the two quantile-coupling constants are not explicit.
    notes = {
        "kolmogorov-from-wasserstein": (
            f"<= C' * dW^(1/{1 + t}) with C' not explicit"
        ),
        "kolmogorov-from-second-order": (
            f"<= C'' * d2^(1/{1 + 2 * t}) with C'' not explicit"
        ),
    }
    return notes


# ---------------------------------------------------------------------------
# Statistic-level bounds (multivariate)
# ---------------------------------------------------------------------------

def bound_delta_multivariate(
    mode: str,
    env: GrowthEnvelope,
    table: MomentTable,
    budget: TestBudget,
    m: int,
    n: int | None = None,
) -> BoundReport:
    """Distance bound for the rescaled map statistic against its limit.

    ``mode`` selects the general O(n^{-1/2}) route or one of the two
    O(n^{-1}) routes (even map / vanishing mixed third moments).
    """
    n = table.n if n is None else n
    d, t = table.d, env.t
    report = _new_report("delta-mv", mode, n, d, m, t)

    if mode == "general":
        _condition(report, f"n >= max(d^6, 8) = {max(d**6, 8)}", n >= max(d**6, 8))
        _condition(report, "budget order >= 3", budget.order >= 3)
        family = 1
    elif mode == "even":
        _condition(report, "t even and >= 2", t >= 2 and t % 2 == 0)
        _condition(report, "map is even", env.even_map)
        _condition(report, "n >= 12", n >= 12)
        _condition(report, "budget order >= 6", budget.order >= 6)
        family = 2
    else:
        _condition(report, "t even and >= 2", t >= 2 and t % 2 == 0)
        _condition(report, "vanishing-third flag", env.vanishing_third)
        if table.mixed_third is not None:
            _condition(
                report, "mixed thirds vanish (<= 1e-12)", table.max_abs_third() <= 1e-12
            )
        _condition(report, "n >= 8", n >= 8)
        _condition(report, "budget order >= 4", budget.order >= 4)
        family = 3

    try:
        C, u = theorem_constants(family, t, n, env)
    except ArgumentError as exc:
        _condition(report, f"constants defined ({exc})", False)
        return _finish(report, table)
    req = required_moment_orders("delta-multivariate", mode, t, n, env)
    _check_moments(report, table, req, d)
    if not report.valid:
        return _finish(report, table)

    a = a_factor(n, d, env.r_at(t))
    mu = abs_normal_moment

    def remainder_first():
        # order t+1 Taylor remainder of the limit comparison
        rr = env.r_at(t + 1)
        return (
            env.A_at(t + 1)
            * d**t
            / math.factorial(t + 1)
            * sum(
                mu(t + 1, table.sigma_j(j))
                + d / n ** (rr / 2.0) * mu(rr + t + 1, table.sigma_j(j))
                for j in range(d)
            )
        )

    def remainder_second():
        rr = env.r_at(t + 2)
        first = (
            env.A_at(t + 2)
            * d ** (t + 1)
            / math.factorial(t + 2)
            * sum(
                mu(t + 2, table.sigma_j(j))
                + d / n ** (rr / 2.0) * mu(rr + t + 2, table.sigma_j(j))
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
                * (
                    mu(2 * (t + 2), table.sigma_j(j))
                    + d**2 * mu(2 * (rr + t + 2), table.sigma_j(j))
                )
                for j in range(d)
            )
        )
        return first, second

    def sum_pairs(order: float) -> float:
        return _pair_sum(table, d, u, order, 2.0 ** (u / 2.0), 2.0 ** (1.5 * u))

    if mode == "general":
        m1 = remainder_first()
        m2 = C * a**3 * d ** (3 * t - 2) * sum_pairs(3.0)
        report.terms = {"M1,d": m1, "M2,d": m2}
        report.term_weights = {
            "M1,d": m * budget.norm(1) / math.sqrt(n),
            "M2,d": h_budget(budget, m, order=3) / math.sqrt(n),
        }
    elif mode == "even":
        k1, k2 = remainder_second()
        k3 = 13.0 * C * a**6 * d ** (6 * t - 4) / 12.0 * sum_pairs(4.0)
        third = _third_sum(table, d)
        rest = _pair_sum(table, d, u, 3.0, 2.0 * 3.0 ** (u / 2.0), 12.0 ** (u / 2.0))
        # the (i, alpha) double sum separates exactly: (n * third) * (n * rest) / n^2
        k4 = C * a**6 * d ** (6 * t - 5) / 12.0 * third * rest
        report.terms = {"K1,d": k1, "K2,d": k2, "K3,d": k3, "K4,d": k4}
        report.term_weights = {
            "K1,d": m * budget.norm(1) / n,
            "K2,d": m**2 * budget.norm(2) / n,
            "K3,d": h_budget(budget, m, order=4) / n,
            "K4,d": h_budget(budget, m, order=6) / n,
        }
    else:
        k1, k2 = remainder_second()
        k5 = 5.0 * C * a**4 * d ** (4 * t - 2) / 6.0 * sum_pairs(4.0)
        report.terms = {"K1,d": k1, "K2,d": k2, "K5,d": k5}
        # the printed combination carries m (not m^2) on the |h|_2 term
        report.term_weights = {
            "K1,d": m * budget.norm(1) / n,
            "K2,d": m * budget.norm(2) / n,
            "K5,d": h_budget(budget, m, order=4) / n,
        }
    return _finish(report, table)


def bound_delta_univariate(
    mode: str,
    env: GrowthEnvelope,
    table: MomentTable,
    hprime: float,
    hdoubleprime: float = 0.0,
    n: int | None = None,
) -> BoundReport:
    """Univariate statistic-level bound (d = m = 1 specialisation)."""
    if table.d != 1:
        raise ArgumentError(f"univariate bound needs d = 1, got d = {table.d}")
    if hprime < 0 or hdoubleprime < 0:
        raise ArgumentError("derivative sup-norms must be non-negative")
    n = table.n if n is None else n
    t = env.t
    report = _new_report("delta-uv", mode, n, 1, 1, t)
    report.notes = _kolmogorov_notes(t, mode)

    sigma2 = table.sigma[0, 0]
    _condition(report, "Var(W) > 0", sigma2 > 0)
    if mode == "general":
        _condition(report, "n >= 8", n >= 8)
        u = env.r_at(t) + t - 1
    elif mode == "even":
        _condition(report, "t even and >= 2", t >= 2 and t % 2 == 0)
        _condition(report, "map is even", env.even_map)
        _condition(report, "n >= 12", n >= 12)
    else:
        _condition(report, "t even and >= 2", t >= 2 and t % 2 == 0)
        _zero_third_condition(report, table)
        _condition(report, "n >= 8", n >= 8)
    if mode in ("even", "zero-third"):
        try:
            C4, u = theorem_constants(4, t, n, env)
        except ArgumentError as exc:
            _condition(report, f"constants defined ({exc})", False)
            return _finish(report, table)
    req = required_moment_orders("delta-univariate", mode, t, n, env)
    _check_moments(report, table, req, 1)
    if not report.valid:
        return _finish(report, table)

    u = order_key(u)
    sigma = math.sqrt(sigma2)
    mu = abs_normal_moment

    def remainder_first():
        rr = env.r_at(t + 1)
        return (
            env.A_at(t + 1)
            / math.factorial(t + 1)
            * (mu(t + 1, sigma) + mu(rr + t + 1, sigma) / n ** (rr / 2.0))
        )

    def remainder_second():
        rr = env.r_at(t + 2)
        first = (
            env.A_at(t + 2)
            / math.factorial(t + 2)
            * (mu(t + 2, sigma) + mu(rr + t + 2, sigma) / n ** (rr / 2.0))
        )
        second = (
            1.0
            / math.factorial(t + 1) ** 2
            * (
                env.A_at(t + 1) ** 2 * mu(2 * (t + 1), sigma)
                + 2.0
                * env.A_at(t + 2) ** 2
                / ((t + 2) ** 2 * n)
                * (mu(2 * (t + 2), sigma) + mu(2 * (rr + t + 2), sigma))
            )
        )
        return first, second

    consts = small_constants(u, sigma)
    if mode == "general":
        row = _row_term(table, u, 3.0, consts)
        m3_term = 3.0 * env.A_at(t) / (math.factorial(t - 1) * sigma2) * row
        report.terms = {"M1,1": remainder_first(), "M3": m3_term}
        w = hprime / math.sqrt(n)
        report.term_weights = {"M1,1": w, "M3": w}
    else:
        k6 = 10.0 * C4 / (3.0 * sigma2) * _row_term(table, u, 4.0, consts)
        k11, k21 = remainder_second()
        report.terms = {"K1,1": k11, "K2,1": k21, "K6": k6}
        report.term_weights = {
            "K1,1": hprime / n,
            "K2,1": hdoubleprime / n,
            "K6": (hprime + hdoubleprime) * (13.0 / 10.0 if mode == "even" else 1.0) / n,
        }
        if mode == "even":
            tilde = small_constants(u, sigma, tilde=True)
            third = abs(table.third(0, 0, 0))
            k7 = 3.0 * C4 / (2.0 * sigma2**2) * third * _row_term(table, u, 3.0, tilde, True)
            report.terms["K7"] = k7
            report.term_weights["K7"] = (hprime + hdoubleprime) / n
    return _finish(report, table)


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
    n: int | None = None,
) -> BoundReport:
    """Distance bound between g(W) and g(Z) for g with envelope ``fn_env``."""
    n = table.n if n is None else n
    d = table.d
    r = order_key(fn_env.r)
    report = _new_report("fn-mv", mode, n, d, m, 0)

    if mode == "general":
        _condition(report, "n >= 8", n >= 8)
        _condition(report, "budget order >= 3", budget.order >= 3)
    elif mode == "even":
        _condition(report, "map is even", parity)
        _condition(report, "n >= 12", n >= 12)
        _condition(report, "budget order >= 6", budget.order >= 6)
    else:
        if table.mixed_third is not None:
            _condition(
                report, "mixed thirds vanish (<= 1e-12)", table.max_abs_third() <= 1e-12
            )
        else:
            _condition(report, "mixed thirds available", False)
        _condition(report, "n >= 8", n >= 8)
        _condition(report, "budget order >= 4", budget.order >= 4)
    req = required_moment_orders("fn-multivariate", mode, 0, n, fn_env)
    _check_moments(report, table, req, d)
    if not report.valid:
        return _finish(report, table)

    A, B = fn_env.A / d, fn_env.B  # the constant A is spread over the d rows

    def sum_pairs(order: float) -> float:
        return _pair_sum(table, d, r, order, 2.0 ** (r / 2.0), 2.0 ** (1.5 * r), A, B)

    if mode == "general":
        s = sum_pairs(3.0)
        report.terms = {"S": s}
        report.term_weights = {
            "S": d**2 * h_budget(budget, m, order=3) / (2.0 * math.sqrt(n))
        }
        return _finish(report, table)

    k1 = 5.0 * d**3 / 12.0 * sum_pairs(4.0)
    if mode == "even":
        third = _third_sum(table, d)
        rest = _pair_sum(table, d, r, 3.0, 2.0 * 3.0 ** (r / 2.0), 12.0 ** (r / 2.0), A, B)
        # exact factorisation of the (i, alpha) double sum
        k2 = d**2 / 24.0 * third * rest
        report.terms = {"K1": k1, "K2": k2}
        report.term_weights = {
            "K1": 13.0 / 10.0 * h_budget(budget, m, order=4) / n,
            "K2": h_budget(budget, m, order=6) / n,
        }
    else:
        report.terms = {"K1": k1}
        report.term_weights = {"K1": h_budget(budget, m, order=4) / n}
    return _finish(report, table)


def bound_fn_univariate(
    mode: str,
    fn_env: FnEnvelope,
    table: MomentTable,
    hprime: float,
    hdoubleprime: float = 0.0,
    parity: bool = False,
    n: int | None = None,
) -> BoundReport:
    """Univariate sum-level bound (d = m = 1)."""
    if table.d != 1:
        raise ArgumentError(f"univariate bound needs d = 1, got d = {table.d}")
    n = table.n if n is None else n
    r = order_key(fn_env.r)
    report = _new_report("fn-uv", mode, n, 1, 1, 0)

    sigma2 = table.sigma[0, 0]
    _condition(report, "Var(W) > 0", sigma2 > 0)
    if mode == "general":
        _condition(report, "n >= 8", n >= 8)
    elif mode == "even":
        _condition(report, "map is even", parity)
        _condition(report, "n >= 12", n >= 12)
    else:
        _zero_third_condition(report, table)
        _condition(report, "n >= 8", n >= 8)
    req = required_moment_orders("fn-univariate", mode, 0, n, fn_env)
    _check_moments(report, table, req, 1)
    if not report.valid:
        return _finish(report, table)

    sigma = math.sqrt(sigma2)
    A, B = fn_env.A, fn_env.B
    consts = small_constants(r, sigma)

    if mode == "general":
        report.terms = {"S": _row_term(table, r, 3.0, consts, A=A, B=B)}
        report.term_weights = {"S": 3.0 * hprime / (2.0 * sigma2 * math.sqrt(n))}
        return _finish(report, table)

    k3 = 5.0 / (3.0 * sigma2) * _row_term(table, r, 4.0, consts, A=A, B=B)
    report.terms = {"K3": k3}
    report.term_weights = {
        "K3": (hprime + hdoubleprime) * (13.0 / 10.0 if mode == "even" else 1.0) / n
    }
    if mode == "even":
        tilde = small_constants(r, sigma, tilde=True)
        third = abs(table.third(0, 0, 0))
        k4 = 3.0 / (4.0 * sigma2**2) * third * _row_term(table, r, 3.0, tilde, True, A, B)
        report.terms["K4"] = k4
        report.term_weights["K4"] = (hprime + hdoubleprime) / n
    return _finish(report, table)


# ---------------------------------------------------------------------------
# Dispatch over the four bound kinds
# ---------------------------------------------------------------------------

# Highest sup-norm |h|_p each mode's multivariate bound reads.
TEST_ORDER = {"general": 3, "even": 6, "zero-third": 4}


def budget_order(kind: str, mode: str) -> int:
    """Order of the test-function budget ``evaluate_bound`` expects."""
    if kind.endswith("univariate"):
        return 2
    return TEST_ORDER[mode]


def evaluate_bound(
    kind: str,
    mode: str,
    env: GrowthEnvelope | FnEnvelope,
    table: MomentTable,
    budget: TestBudget,
    m: int,
    parity: bool = False,
    n: int | None = None,
) -> BoundReport:
    """Evaluate the bound of one kind with the matching evaluator.

    ``env`` is a GrowthEnvelope for the delta kinds and an FnEnvelope for
    the fn kinds.  Univariate kinds read |h|_1 and |h|_2 from ``budget``;
    multivariate kinds take it whole, of order ``budget_order(kind, mode)``.
    ``parity`` only applies to the fn kinds.
    """
    if kind == "delta-univariate":
        return bound_delta_univariate(mode, env, table, budget.norm(1), budget.norm(2), n=n)
    if kind == "delta-multivariate":
        return bound_delta_multivariate(mode, env, table, budget, m, n=n)
    if kind == "fn-univariate":
        return bound_fn_univariate(
            mode, env, table, budget.norm(1), budget.norm(2), parity=parity, n=n
        )
    if kind == "fn-multivariate":
        return bound_fn_multivariate(mode, env, table, budget, m, parity=parity, n=n)
    raise ArgumentError(f"unknown bound kind {kind!r}")


# ---------------------------------------------------------------------------
# Dominating envelopes, Kolmogorov extraction, solution-derivative bounds
# ---------------------------------------------------------------------------

def dominating_envelope(
    family: str, env: GrowthEnvelope, n: int, d: int
) -> FnEnvelope:
    """Envelope certifying the rescaled map as a smooth function of W.

    Families '1'/'2'/'3' are the multivariate routes (cube, sixth and
    fourth powers of the saturation factor); 'uni-1'/'uni-2' the
    univariate ones.
    """
    t = env.t
    if family == "1":
        C, u = theorem_constants(1, t, n, env)
        base = 2.0 * C * a_factor(n, d, env.r_at(t)) ** 3 * float(d) ** (3 * t - 4)
        return FnEnvelope(base * d, base, u)
    if family == "2":
        C, u = theorem_constants(2, t, n, env)
        base = 2.0 * C * a_factor(n, d, env.r_at(t)) ** 6 * float(d) ** (6 * t - 7)
        return FnEnvelope(base * d, base, u)
    if family == "3":
        C, u = theorem_constants(3, t, n, env)
        base = 2.0 * C * a_factor(n, d, env.r_at(t)) ** 4 * float(d) ** (4 * t - 5)
        return FnEnvelope(base * d, base, u)
    if family == "uni-1":
        base = 2.0 * env.A_at(t) / math.factorial(t - 1)
        return FnEnvelope(base, base, env.r_at(t) + t - 1)
    if family == "uni-2":
        C, u = theorem_constants(4, t, n, env)
        return FnEnvelope(2.0 * C, 2.0 * C, u)
    raise ArgumentError(f"unknown envelope family {family!r}")


@dataclass(frozen=True)
class KolmogorovExtraction:
    applicable: bool
    value: float | None
    threshold: float


def kolmogorov_from_d3(
    d3_value: float, d: int, sigma_min_sq: float
) -> KolmogorovExtraction:
    """Kolmogorov-distance bound extracted from a third-order smooth bound.

    Only valid below the stated smooth-distance threshold; above it the
    result is flagged inapplicable rather than raising.
    """
    if sigma_min_sq <= 0:
        raise DomainError(f"need min variance > 0, got {sigma_min_sq}")
    if d3_value < 0 or d < 1:
        raise DomainError("need d3 >= 0 and d >= 1")
    threshold = (2.0 + math.sqrt(2.0 * math.log(d))) / (2.0 * sigma_min_sq)
    if d3_value > threshold:
        return KolmogorovExtraction(False, None, threshold)
    value = (
        6.17
        * ((math.sqrt(math.log(d)) + SQRT2) / sigma_min_sq) ** 0.75
        * d3_value**0.25
    )
    return KolmogorovExtraction(True, value, threshold)


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
