"""Monte Carlo verification of the computed bounds.

Estimates smooth-test-function distances between a statistic and its
limit (against an exact E h(Y) where the limit has a closed form),
checks that every valid bound dominates the estimate, fits
log-log convergence rates, and probes the two analytic side results:
the lattice point-mass floor for non-smooth metrics and the pointwise
derivative bounds on the normal-equation solution.
"""

from __future__ import annotations

import cmath
import itertools
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
from .errors import ArgumentError, CapabilityError, DomainError, as_count
from .statistics import (
    ExperimentPlan,
    coupled_batch,
    coupled_lattice,
    gaussian_factor,
    limit_batch,
    limit_cf,
    quantile_coupled,
    statistic_batch,
)

# Conventions for the dominance verdict, read by ``verify_bound``; no
# argument or config key sets them.
DOMINANCE_SIGMAS = 3.0
INCONCLUSIVE_RATIO = 0.5

# Relative slack for the trapezoid and central-difference error of a Stein check.
STEIN_SLACK = 0.10
# A Stein check's defaults, the CLI's too: s_max, trapezoid steps, normal draws.
STEIN_S_MAX = 20.0
STEIN_STEPS = 400
STEIN_MC_REPS = 50_000

# Fewest grid points a log-log rate fit takes: with two it has no residual.
MIN_RATE_POINTS = 3


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
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "phase", float(self.phase))
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

    def expectation(self, cf) -> float:
        """E h(Y) from the characteristic function ``cf``(b) = E exp(i<b, Y>).

        A cosine-wave is Im(e^{i phase} cf(a)); a product of m sines expands
        into (2i)^-m times the sum over signs e in {-1, 1}^m of
        prod(e) e^{i phase sum(e)} cf(e a).
        """
        a = np.asarray(self.a, dtype=float)
        if self.family == "cosine-wave":
            return (cmath.exp(1j * self.phase) * cf(a)).imag
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=a.size)))
        total = sum(np.prod(e) * cmath.exp(1j * self.phase * e.sum()) * cf(e * a) for e in signs)
        return (total / (2j) ** a.size).real

    def amax(self) -> float:
        return float(np.max(np.abs(self.a)))

    def budget(self, order: int) -> TestBudget:
        amax = self.amax()
        return TestBudget(order, tuple(amax**k for k in range(1, order + 1)))

    def hprime(self) -> float:
        return self.amax()

    def hdoubleprime(self) -> float:
        return self.amax() ** 2


# The keys of a ``testfn`` config.
TESTFN_KEYS = ("family", "a", "phase")


def build_test_function(testfn: dict, m: int) -> SmoothTestFunction:
    """The test function a ``testfn`` config describes for a map with m outputs.

    ``a`` needs one entry per map output; it defaults to m ones, the family
    to cosine-wave and the phase to 0.
    """
    h = SmoothTestFunction(
        testfn.get("family", "cosine-wave"), testfn.get("a", [1.0] * m), testfn.get("phase", 0.0)
    )
    if len(h.a) != m:
        raise ArgumentError(f"testfn.a needs {m} entries, one per map output, got {len(h.a)}")
    return h


def plan_test_function(plan: ExperimentPlan) -> SmoothTestFunction:
    """The plan's test function; ``a`` needs one entry per map output."""
    return build_test_function(plan.testfn, plan.mapspec.m)


@dataclass
class DistanceEstimate:
    value: float
    std_error: float
    replicates: int
    seed: int

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
    return DistanceEstimate(abs(acc_a.mean - acc_b.mean), se, replicates, seed)


def estimate_delta_h(
    plan: ExperimentPlan,
    h: SmoothTestFunction,
    n: int,
    replicates: int | None = None,
    threads: int = 1,
) -> DistanceEstimate:
    """|E h(T_n) - E h(Y)| for the plan's statistic T_n at sample size n, at the plan's seed.

    The route follows from the plan.  A quantile-coupled plan shares one
    uniform stream between the pair (common random numbers) and evaluates h
    once on the n+1 values of its ``CoupledLattice``, built before any block
    is drawn.  Otherwise, for t <= 2, E h(Y) is exact (``limit_cf``) and
    only h(T_n) is drawn; for t >= 3 the limit is drawn from a stream
    independent of the statistic's, which always reads (seed, 0, block).
    """
    replicates = plan.replicates if replicates is None else replicates
    seed = plan.seed
    if replicates < 1000:
        raise ArgumentError("need at least 1000 replicates")

    if quantile_coupled(plan):
        lattice = coupled_lattice(plan, n)
        h_lattice = h(lattice.values[:, None])  # h(T) at each of the n+1 counts
        target = 0.0  # E of the paired difference h(T) - h(Y)

        def one_block(b, count):
            s, y = coupled_batch(lattice, count, rngstreams.stream(seed, 2, b))
            return (h_lattice[s] - h(y[:, None]),)

    else:

        def sampler_a(count, rng):
            return statistic_batch(plan.mapspec, plan.model, n, count, rng)

        cf = limit_cf(plan)
        if cf is None:

            def sampler_b(count, rng):
                return limit_batch(plan, count, rng)

            return estimate_delta(sampler_a, sampler_b, h, replicates, seed, threads)
        target = h.expectation(cf)

        def one_block(b, count):
            return (h(sampler_a(count, rngstreams.stream(seed, 0, b))),)

    (acc,) = rngstreams.run_blocks(replicates, one_block, threads)
    return DistanceEstimate(
        abs(acc.mean - target), math.sqrt(acc.variance / replicates), replicates, seed
    )


# ---------------------------------------------------------------------------
# Dominance and rates
# ---------------------------------------------------------------------------

def verify_bound(estimate: DistanceEstimate, report: BoundReport) -> Verdict:
    """Dominance verdict: the theorem guarantees estimate <= bound.

    Inconclusive when the standard error exceeds INCONCLUSIVE_RATIO times
    the bound.  A violation (estimate minus DOMINANCE_SIGMAS standard errors
    still above the bound) falsifies the implementation, not the theorem.
    """
    if not report.valid or report.value is None:
        raise ArgumentError(
            f"cannot verify an invalid report (failed: {report.failed_conditions()})"
        )
    if estimate.std_error > INCONCLUSIVE_RATIO * report.value:
        return Verdict("inconclusive")
    low = estimate.value - DOMINANCE_SIGMAS * estimate.std_error
    if low > report.value:
        return Verdict("violated", margin=low - report.value)
    return Verdict("dominated")


class RatePreconditionError(ArgumentError):
    def __init__(self, noisy_points):
        self.noisy_points = noisy_points
        super().__init__(
            f"estimates not separated from noise (need > 3 SE): {noisy_points}"
        )


def check_rate_points(count: int) -> None:
    """ArgumentError unless a rate fit gets at least MIN_RATE_POINTS points."""
    if count < MIN_RATE_POINTS:
        raise ArgumentError(f"need at least {MIN_RATE_POINTS} points to fit a rate, got {count}")


def fit_rate(points) -> RateFit:
    """OLS of log(estimate) on log(n); slope is the empirical rate."""
    pts = [(int(n), est.value, est.std_error) for n, est in points]
    check_rate_points(len(pts))
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


def stein_check_inputs(sigma, points, s_max, steps, mc_reps):
    """Checked (sigma, points, s_max, steps, mc_reps) of ``stein_solution_check``.

    Sigma must be a d x d covariance with d <= 2, the points a non-empty
    list of vectors in R^d, s_max > 0, steps >= 10 and mc_reps >= 1000.
    """
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    d = sigma.shape[0]
    if d > 2:
        raise CapabilityError("solution checks are desk-scale: d <= 2")
    gaussian_factor(sigma)
    points = [np.atleast_1d(np.asarray(w, dtype=float)) for w in points]
    if not points:
        raise ArgumentError("need at least one point")
    for w in points:
        if w.shape != (d,):
            raise ArgumentError(f"point {w} does not match dimension {d}")
    s_max = float(s_max)
    if not s_max > 0:
        raise ArgumentError(f"s_max must be > 0, got {s_max}")
    steps, mc_reps = as_count(steps, "steps", 10), as_count(mc_reps, "mc_reps", 1000)
    return sigma, points, s_max, steps, mc_reps


def stein_solution_check(
    fn_env: FnEnvelope,
    g,
    h,
    sigma,
    points,
    s_max: float = STEIN_S_MAX,
    steps: int = STEIN_STEPS,
    mc_reps: int = STEIN_MC_REPS,
    seed: int = 0,
    budget: TestBudget | None = None,
) -> list[SteinPointCheck]:
    """Estimate first partials of the normal-equation solution at points.

    The solution is the integral over s of the smoothed test-function
    difference; it is integrated by trapezoid over [0, s_max] with the
    inner expectation shared across all s (common random numbers), then
    differentiated centrally.  ``g`` is scalar (m = 1), so the bound is
    ``stein_derivative_bound`` with m = 1 and ``budget`` (default unit
    order 1).  Pass means |estimate| is below that bound with STEIN_SLACK
    relative slack.  The inputs are checked by ``stein_check_inputs`` first.
    """
    sigma, points, s_max, steps, mc_reps = stein_check_inputs(sigma, points, s_max, steps, mc_reps)
    d = sigma.shape[0]
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
            bound = stein_derivative_bound("solution", 1, fn_env, budget, 1, w, sigmas)
            passed = estimate <= bound * (1.0 + STEIN_SLACK)
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
    kind, mode, mapspec = plan.bound_kind, plan.mode, plan.mapspec
    table = plan.moment_table(n)
    budget = plan_test_function(plan).budget(budget_order(kind, mode))
    parity = mapspec.envelope.even_map
    return evaluate_bound(kind, mode, plan.bound_envelope, table, budget, mapspec.m, parity)


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


def _sweep(plan, threads, replicates_at) -> tuple[list[VerificationRow], list]:
    """Dominance rows over the plan's n grid at the plan's seed, plus the (n, estimate) points.

    ``replicates_at(n)`` is the replicate budget at grid point n.
    """
    h = plan_test_function(plan)
    rows, points = [], []
    for n in plan.n_grid:
        report = plan_bound_report(plan, n)
        if not report.valid:
            raise DomainError(
                f"bound inapplicable at n={n}: {report.failed_conditions()}"
            )
        est = estimate_delta_h(plan, h, n, replicates=replicates_at(n), threads=threads)
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


def run_verification(plan: ExperimentPlan, threads: int = 1) -> list[VerificationRow]:
    """Estimate-vs-bound rows over the plan's whole n grid, at its seed and replicates."""
    return _sweep(plan, threads, lambda n: plan.replicates)[0]


def scaled_replicates(plan: ExperimentPlan, n: int) -> int:
    """Replicate budget at sweep point n.

    Rate sweeps scale replicates with n so the estimate-to-noise ratio
    stays roughly constant along the grid.
    """
    return max(plan.replicates, int(plan.replicates * n / plan.n_grid[0]))


def run_rate(plan: ExperimentPlan, threads: int = 1) -> tuple[list[VerificationRow], RateFit]:
    """Rate sweep at the plan's seed: dominance rows plus the fitted log-log slope."""
    check_rate_points(len(plan.n_grid))  # before any replicate is drawn
    rows, points = _sweep(plan, threads, lambda n: scaled_replicates(plan, n))
    return rows, fit_rate(points)
