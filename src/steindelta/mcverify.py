"""Monte Carlo verification of the computed bounds.

Estimates smooth-test-function distances between a statistic and its
limit, checks that every valid bound dominates the estimate, fits
log-log convergence rates, and probes the two analytic side results:
the lattice point-mass floor for non-smooth metrics and the pointwise
derivative bounds on the normal-equation solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import t as student_t

from . import rngstreams
from .bounds import (
    BoundReport,
    FnEnvelope,
    TestBudget,
    budget_order,
    evaluate_bound,
    stein_derivative_bound,
)
from .errors import ArgumentError, CapabilityError, DomainError
from .statistics import (
    ExperimentPlan,
    coupled_batch,
    gaussian_factor,
    limit_batch,
    statistic_batch,
)

# Conventions for the dominance verdict; both thresholds are config-exposed.
DOMINANCE_SIGMAS = 3.0
INCONCLUSIVE_RATIO = 0.5


@dataclass(frozen=True)
class SmoothTestFunction:
    """Sinusoidal test functions whose derivative budgets are exact.

    cosine-wave: h(x) = sin(<a, x> + phase); every order-k mixed partial
    is a product of k entries of a times a shifted sine, so
    |h|_k = (max_i |a_i|)^k.  product-form: h(x) = prod_i sin(a_i x_i +
    phase), same budget rule.
    """

    family: str = "cosine-wave"
    a: tuple[float, ...] = (1.0,)
    phase: float = 0.0

    def __post_init__(self):
        if self.family not in ("cosine-wave", "product-form"):
            raise ArgumentError(f"unknown test-function family {self.family!r}")
        if not self.a:
            raise ArgumentError("frequency vector must be non-empty")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        a = np.asarray(self.a, dtype=float)
        if x.shape[-1] != a.size:
            raise ArgumentError(
                f"test function expects dimension {a.size}, got {x.shape[-1]}"
            )
        if self.family == "cosine-wave":
            return np.sin(x @ a + self.phase)
        return np.prod(np.sin(x * a + self.phase), axis=-1)

    def amax(self) -> float:
        return float(np.max(np.abs(self.a)))

    def budget(self, order: int) -> TestBudget:
        amax = self.amax()
        return TestBudget(order, tuple(amax**k for k in range(1, order + 1)))

    def hprime(self) -> float:
        return self.amax()

    def hdoubleprime(self) -> float:
        return self.amax() ** 2


def plan_test_function(plan: ExperimentPlan) -> SmoothTestFunction:
    cfg = plan.testfn
    return SmoothTestFunction(
        family=cfg.get("family", "cosine-wave"),
        a=tuple(float(v) for v in cfg.get("a", [1.0] * plan.mapspec.m)),
        phase=float(cfg.get("phase", 0.0)),
    )


@dataclass
class DistanceEstimate:
    value: float
    std_error: float
    replicates: int
    seed: int
    mean_statistic: float = 0.0
    mean_limit: float = 0.0

    def __post_init__(self):
        if self.std_error < 0:
            raise ArgumentError("standard error must be >= 0")


@dataclass
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    slope_se: float
    ci95: tuple[float, float]
    points: list[tuple[int, float, float]]  # (n, estimate, std_error)


@dataclass
class Verdict:
    status: str  # dominated | violated | inconclusive
    margin: float | None = None


# ---------------------------------------------------------------------------
# Distance estimation
# ---------------------------------------------------------------------------

def estimate_delta(
    sampler_a,
    sampler_b,
    h,
    replicates: int,
    seed: int,
    threads: int = 1,
) -> DistanceEstimate:
    """|E h(A) - E h(B)| from two independent replicate streams.

    ``sampler_a(count, rng)`` returns a (count, d) batch.  Replicates are
    drawn in fixed blocks; the two sides use disjoint sub-streams, so the
    estimate is bitwise reproducible for any thread count.
    """
    if replicates < 1000:
        raise ArgumentError("need at least 1000 replicates")

    def one_block(b, count):
        h_a = h(sampler_a(count, rngstreams.stream(seed, 0, b)))
        return h_a, h(sampler_b(count, rngstreams.stream(seed, 1, b)))

    acc_a, acc_b = rngstreams.run_blocks(replicates, one_block, threads)
    se = math.sqrt((acc_a.variance + acc_b.variance) / replicates)
    return DistanceEstimate(
        abs(acc_a.mean - acc_b.mean), se, replicates, seed, acc_a.mean, acc_b.mean
    )


def estimate_delta_h(
    plan: ExperimentPlan,
    h: SmoothTestFunction,
    n: int,
    replicates: int | None = None,
    seed: int | None = None,
    threads: int = 1,
    coupling: str | None = None,
) -> DistanceEstimate:
    """Distance between the plan's statistic at sample size n and its limit.

    coupling='independent' draws the two expectations from independent
    streams; 'binomial-quantile' shares one uniform stream between the
    coupled pair (common random numbers), shrinking the difference's
    variance while leaving both marginal laws untouched.
    """
    replicates = plan.replicates if replicates is None else replicates
    seed = plan.seed if seed is None else seed
    coupling = plan.coupling if coupling is None else coupling
    if replicates < 1000:
        raise ArgumentError("need at least 1000 replicates")

    if coupling == "binomial-quantile":
        def one_block(b, count):
            t_vals, y_vals = coupled_batch(plan, n, count, rngstreams.stream(seed, 2, b))
            h_t, h_y = h(t_vals[:, None]), h(y_vals[:, None])
            return h_t - h_y, h_t, h_y

        diff, acc_t, acc_y = rngstreams.run_blocks(replicates, one_block, threads)
        return DistanceEstimate(
            abs(diff.mean),
            math.sqrt(diff.variance / replicates),
            replicates,
            seed,
            acc_t.mean,
            acc_y.mean,
        )
    if coupling != "independent":
        raise ArgumentError(f"unknown coupling {coupling!r}")

    def sampler_a(count, rng):
        return statistic_batch(plan.mapspec, plan.model, n, count, rng)

    def sampler_b(count, rng):
        return limit_batch(plan.limit, plan.mapspec, count, rng)

    return estimate_delta(sampler_a, sampler_b, h, replicates, seed, threads)


# ---------------------------------------------------------------------------
# Dominance and rates
# ---------------------------------------------------------------------------

def verify_bound(
    estimate: DistanceEstimate,
    report: BoundReport,
    sigmas: float = DOMINANCE_SIGMAS,
    inconclusive_ratio: float = INCONCLUSIVE_RATIO,
) -> Verdict:
    """Dominance verdict: the theorem guarantees estimate <= bound.

    A violation (estimate minus the noise allowance still above the
    bound) falsifies the implementation, not the theorem.
    """
    if not report.valid or report.value is None:
        raise ArgumentError(
            f"cannot verify an invalid report (failed: {report.failed_conditions()})"
        )
    if estimate.std_error > inconclusive_ratio * report.value:
        return Verdict("inconclusive")
    low = estimate.value - sigmas * estimate.std_error
    if low > report.value:
        return Verdict("violated", margin=low - report.value)
    return Verdict("dominated")


class RatePreconditionError(ArgumentError):
    def __init__(self, noisy_points):
        self.noisy_points = noisy_points
        super().__init__(
            f"estimates not separated from noise (need > 3 SE): {noisy_points}"
        )


def fit_rate(points) -> RateFit:
    """OLS of log(estimate) on log(n); slope is the empirical rate."""
    pts = [(int(n), est.value, est.std_error) for n, est in points]
    if len(pts) < 3:
        raise ArgumentError("need at least 3 points to fit a rate")
    noisy = [(n, v, se) for n, v, se in pts if v <= 3.0 * se]
    if noisy:
        raise RatePreconditionError(noisy)
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    k = len(pts)
    xbar, ybar = x.mean(), y.mean()
    sxx = ((x - xbar) ** 2).sum()
    slope = float(((x - xbar) * (y - ybar)).sum() / sxx)
    intercept = float(ybar - slope * xbar)
    resid = y - (intercept + slope * x)
    ss_res = float((resid**2).sum())
    ss_tot = float(((y - ybar) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    dof = k - 2
    se = math.sqrt(ss_res / dof / sxx) if dof > 0 else 0.0
    tq = float(student_t.ppf(0.975, dof)) if dof > 0 else 0.0
    return RateFit(
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        slope_se=se,
        ci95=(slope - tq * se, slope + tq * se),
        points=pts,
    )


def point_mass_check(n: int) -> tuple[float, float]:
    """Exact lattice return probability vs its square-root asymptote.

    For a fair sign sum of n terms, P(sum = 0) = C(n, n/2) 2^{-n}, which
    decays like sqrt(2/(pi n)); this floor is why O(1/n) rates need
    smooth test functions.
    """
    if n % 2 or n <= 0:
        raise ArgumentError(f"need a positive even n, got {n}")
    if n > 10**6:
        raise ArgumentError("n capped at 1e6")
    k = n // 2
    exact = math.exp(
        math.lgamma(n + 1) - 2.0 * math.lgamma(k + 1) - n * math.log(2.0)
    )
    asymptote = math.sqrt(2.0 / (math.pi * n))
    return exact, asymptote


# ---------------------------------------------------------------------------
# Solution-derivative verification
# ---------------------------------------------------------------------------

@dataclass
class SteinPointCheck:
    w: tuple[float, ...]
    coord: int
    estimate: float
    bound: float
    passed: bool
    tail: float
    diagnostic: str = ""


def stein_solution_check(
    fn_env: FnEnvelope,
    g,
    h,
    sigma,
    points,
    s_max: float = 20.0,
    steps: int = 400,
    mc_reps: int = 50_000,
    seed: int = 0,
    slack: float = 0.10,
    budget: TestBudget | None = None,
    m: int = 1,
) -> list[SteinPointCheck]:
    """Estimate first partials of the normal-equation solution at points.

    The solution is the integral over s of the smoothed test-function
    difference; it is integrated by trapezoid over [0, s_max] with the
    inner expectation shared across all s (common random numbers), then
    differentiated centrally.  Pass means |estimate| is below the
    pointwise derivative bound with 10% numerical slack.
    """
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    d = sigma.shape[0]
    if d > 2:
        raise CapabilityError("solution checks are desk-scale: d <= 2")
    factor = gaussian_factor(sigma)
    sigmas = np.sqrt(np.diag(sigma))
    if budget is None:
        budget = TestBudget.unit(1)
    rng = rngstreams.stream(seed, 9)
    z = rng.standard_normal((mc_reps, d)) @ factor.T
    s_nodes = np.linspace(0.0, s_max, steps + 1)
    decay = np.exp(-s_nodes)
    spread = np.sqrt(1.0 - decay**2)
    tail = math.exp(-s_max)

    results = []
    for w in points:
        w = np.atleast_1d(np.asarray(w, dtype=float))
        if w.shape != (d,):
            raise ArgumentError(f"point {w} does not match dimension {d}")
        delta = 1e-4 * (1.0 + float(np.abs(w).max()))
        for j in range(d):
            wp, wm = w.copy(), w.copy()
            wp[j] += delta
            wm[j] -= delta
            integrand = np.empty(steps + 1)
            for i, (e, c) in enumerate(zip(decay, spread)):
                shifted_p = e * wp + c * z
                shifted_m = e * wm + c * z
                integrand[i] = np.mean(h(g(shifted_p)) - h(g(shifted_m)))
            # f(w+) - f(w-) = -integral of the difference of expectations
            diff = -np.trapezoid(integrand, s_nodes)
            estimate = abs(diff / (2.0 * delta))
            bound = stein_derivative_bound(
                "solution", 1, fn_env, budget, m, w, sigmas
            )
            passed = estimate <= bound * (1.0 + slack)
            diag = ""
            if not passed:
                diag = (
                    f"estimate {estimate:.6g} above bound {bound:.6g}; "
                    f"truncation tail e^-s_max = {tail:.3g}"
                )
            results.append(
                SteinPointCheck(
                    tuple(float(v) for v in w), j, float(estimate), float(bound),
                    bool(passed), tail, diag,
                )
            )
    return results


# ---------------------------------------------------------------------------
# Plan-level wiring
# ---------------------------------------------------------------------------

def plan_bound_report(plan: ExperimentPlan, n: int) -> BoundReport:
    """Evaluate the plan's configured theorem at sample size n."""
    kind, mode = plan.bound_kind, plan.mode
    env = plan.fn_env if kind.startswith("fn") else plan.mapspec.envelope
    table = plan.moment_table(n)
    budget = plan_test_function(plan).budget(budget_order(kind, mode))
    return evaluate_bound(kind, mode, env, table, budget, plan.mapspec.m, plan.fn_parity, n)


@dataclass
class VerificationRow:
    n: int
    estimate: float
    std_error: float
    bound: float
    theorem: str
    status: str
    rigor: str
    replicates: int


def _sweep(plan, threads, seed, replicates_at) -> tuple[list[VerificationRow], list]:
    """Dominance rows over the plan's n grid, plus the (n, estimate) points.

    ``replicates_at(n)`` is the replicate budget at grid point n (None
    means the plan's own).
    """
    h = plan_test_function(plan)
    rows, points = [], []
    for n in plan.n_grid:
        report = plan_bound_report(plan, n)
        if not report.valid:
            raise DomainError(
                f"bound inapplicable at n={n}: {report.failed_conditions()}"
            )
        est = estimate_delta_h(
            plan, h, n, replicates=replicates_at(n), seed=seed, threads=threads
        )
        verdict = verify_bound(est, report)
        rows.append(
            VerificationRow(
                n,
                est.value,
                est.std_error,
                report.value,
                report.theorem,
                verdict.status,
                report.rigor,
                est.replicates,
            )
        )
        points.append((n, est))
    return rows, points


def run_verification(
    plan: ExperimentPlan,
    threads: int = 1,
    replicates: int | None = None,
    seed: int | None = None,
) -> list[VerificationRow]:
    """Estimate-vs-bound rows over the plan's whole n grid."""
    return _sweep(plan, threads, seed, lambda n: replicates)[0]


def scaled_replicates(plan: ExperimentPlan, n: int) -> int:
    """Replicate budget at sweep point n.

    Rate sweeps scale replicates with n so the estimate-to-noise ratio
    stays roughly constant along the grid.
    """
    base = plan.n_grid[0] if plan.n_grid else n
    return max(plan.replicates, int(plan.replicates * n / base))


def run_rate(
    plan: ExperimentPlan,
    threads: int = 1,
    seed: int | None = None,
) -> tuple[list[VerificationRow], RateFit]:
    """Rate sweep: dominance rows plus the fitted log-log slope."""
    rows, points = _sweep(plan, threads, seed, lambda n: scaled_replicates(plan, n))
    return rows, fit_rate(points)
