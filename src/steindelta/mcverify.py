"""Monte Carlo verification of the computed bounds.

Estimates smooth-test-function distances between a statistic and its
limit (against an exact E h(Y) where the limit has a closed form),
computes them exactly where the law of the sample mean can be summed,
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
from scipy.special import eval_legendre, gammaln, ndtri, stdtrit

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
from .moments import binomial_logpmf
from .statistics import (
    ExperimentPlan,
    count_law,
    coupled_batch,
    evaluate_statistic,
    gaussian_factor,
    jump_strata,
    limit_batch,
    limit_cf,
    merged_atoms,
    partial_cf,
    quantile_coupled,
    statistic_batch,
)

# Conventions for the dominance verdict, read by ``verify_bound``; no
# argument or config key sets them.
DOMINANCE_SIGMAS = 3.0
INCONCLUSIVE_RATIO = 0.5

# Relative slack for the quadrature, truncation and central-difference error of a Stein check.
STEIN_SLACK = 0.10
# A Stein check's defaults, the CLI's too: s_max, Gauss-Legendre nodes, normal draws.
# Ten nodes, the fewest ``stein_check_inputs`` takes, move no estimate of the
# acceptance and benchmark configs (50,000 draws) by 0.03 SE against 40.
STEIN_S_MAX = 20.0
STEIN_STEPS = 10
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
        if not all(math.isfinite(v) for v in self.a + (self.phase,)):
            raise ArgumentError(f"a and phase must be finite, got a={self.a}, phase={self.phase}")

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
            if a.size == 1:
                # Bitwise np.sin(x @ a + phase) without the matmul: the matmul's
                # zero start turns -0.0 into +0.0, and so does adding phase + 0.0.
                y = x[..., 0] * a[0]
                y += self.phase + 0.0
                return np.sin(y, out=y)
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

    The route follows from the plan.  Where ``quantile_coupled(plan, n)``
    holds (an atom table of 2 to 8 distinct atoms, t <= 2 and tables that fit
    their float budget), the pair shares the uniforms of one stream
    (``coupled_batch`` on the ``CountLaw`` built before any block is drawn):
    each block of pairs b reads stream (seed, 2, b).  Strata hold two pairs
    each, so the budget rounds up to an even count, which the result's
    ``replicates`` reports.  The SE is sqrt(sum d^2) / N, with d the
    difference of the paired differences f = h(T) - h(Y) within a stratum:
    the mean of a block of c pairs has variance sum d^2 / c^2, and it
    enters the estimate with weight c / N.

    With more than two atoms every stratum is drawn, and h is evaluated on T
    of each pair's counts.  With two, T takes the law's n + 1 values and h
    is evaluated on them once; a block draws only the strata where T can
    change (``jump_strata``), and each other stratum holds h(T) there minus
    an equal share of the limit's mean over all of them, E h(Y) less its part
    on the drawn strata (``partial_cf``), with d = 0.  Both tables are built
    for each block size before any block runs.

    Otherwise, for t <= 2, E h(Y) is exact (``limit_cf``) and only h(T_n)
    is drawn; for t >= 3 the limit is drawn from a stream independent of
    the statistic's, which always reads (seed, 0, block).
    """
    replicates = plan.replicates if replicates is None else replicates
    seed = plan.seed
    if replicates < 1000:
        raise ArgumentError("need at least 1000 replicates")

    if quantile_coupled(plan, n):
        replicates += replicates % 2
        law = count_law(plan, n)
        if law.values is None:

            def coupled_block(b, count):
                counts, y = coupled_batch(law, count, rngstreams.stream(seed, 2, b))
                f = h(law.statistic(counts)) - h(y)
                return f, f[0::2] - f[1::2]

        else:
            h_values = h(law.values)
            target = h.expectation(limit_cf(plan))
            sizes = {count for _, count in rngstreams.blocks(replicates)}
            tables = {count: _exact_strata(law, h, h_values, target, count) for count in sizes}

            def coupled_block(b, count):
                strata, exact_f, exact_d = tables[count]
                if not strata.size:
                    return exact_f, exact_d
                counts, y = coupled_batch(law, count, rngstreams.stream(seed, 2, b), strata)
                f = h_values[counts[0]] - h(y)
                drawn_f, drawn_d = map(rngstreams.Accumulator.of, (f, f[0::2] - f[1::2]))
                return exact_f + drawn_f, exact_d + drawn_d

        # the paired difference has mean 0; sum d^2 is M2 + count * mean^2
        acc, d = rngstreams.run_blocks(replicates, coupled_block, threads)
        se = math.sqrt(d.m2 + d.count * d.mean**2) / replicates
        return DistanceEstimate(abs(acc.mean), se, replicates, seed)

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


def _exact_strata(law, h, h_values, target, count):
    """(strata to draw, f and d of the other strata) for a two-atom block of ``count`` pairs.

    Each undrawn stratum's two pairs take f = h(T(s_j)) minus an equal share
    of E h(Y) less its integral over the drawn strata, so the block's mean f
    stays unbiased; their d is 0.
    """
    strata, s = jump_strata(law, count)
    k = count // 2
    fixed = np.ones(k, dtype=bool)
    fixed[strata] = False
    if not fixed.any():
        return strata, rngstreams.Accumulator(0, 0.0, 0.0), rngstreams.Accumulator(0, 0.0, 0.0)
    edges = ndtri(np.stack([strata, strata + 1]) / k)
    rest = target - h.expectation(partial_cf(law, edges[0], edges[1]))
    f = h_values[s[fixed]] - rest * (k / (k - strata.size))
    exact_d = rngstreams.Accumulator(k - strata.size, 0.0, 0.0)
    return strata, rngstreams.Accumulator.of(np.repeat(f, 2)), exact_d


# ---------------------------------------------------------------------------
# Exact distances
# ---------------------------------------------------------------------------

# Most terms an exact-distance route sums: count vectors, lattice cells or
# grid points, each with one row of atom means.
EXACT_MAX_TERMS = 1 << 20


def _compositions(n: int, k: int) -> np.ndarray:
    """Every vector of k counts >= 0 summing to n, one per row, C(n+k-1, k-1) rows."""
    counts, left = np.zeros((1, 0), dtype=np.int64), np.array([n])
    for _ in range(k - 1):
        width = left + 1
        parent = np.repeat(np.arange(left.size), width)
        first = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
        counts, left = np.column_stack([counts[parent], first]), left[parent] - first
    return np.column_stack([counts, left])


def _independent_two_valued(probs, rows) -> list[tuple[float, float, float]] | None:
    """(v0, v1, P(x_j = v1)) per coordinate of distinct atoms when the coordinates
    are independent and each takes two values, else None."""
    coords = []
    for col in rows.T:
        values = np.unique(col)
        if values.size != 2:
            return None
        coords.append((values[0], values[1], float(probs[col == values[1]].sum())))
    mass = dict(zip(map(tuple, rows), probs))
    for corner in itertools.product(*(((v0, 1 - q), (v1, q)) for v0, v1, q in coords)):
        want = math.prod(q for _, q in corner)
        if abs(mass.get(tuple(v for v, _ in corner), 0.0) - want) > 1e-12:
            return None
    return coords


def _rank_sum_lattice(model, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Law of the mean row of r = 3 integer rank scores, over the lattice of the
    first two column sums, convolved one row at a time."""
    scores = np.asarray(model.scores)
    if model.d != 3 or not np.all(scores == np.round(scores)):
        return None
    low = int(scores.min())
    step = [(int(scores[i]) - low, int(scores[j]) - low) for i, j in itertools.permutations(range(3), 2)]
    width = int(scores.max()) - low
    if (n * width + 1) ** 2 > EXACT_MAX_TERMS:
        return None
    law = np.ones((1, 1))
    for i in range(n):
        grown = np.zeros(((i + 1) * width + 1,) * 2)
        size = law.shape[0]
        for a, b in step:
            grown[a : a + size, b : b + size] += law
        law = grown / len(step)
    s1, s2 = np.nonzero(law)
    sums = np.column_stack([s1, s2]).astype(float) + n * low
    sums = np.column_stack([sums, n * scores.sum() - sums.sum(axis=1)])
    jbar = scores.mean()
    spread = math.sqrt(((scores - jbar) ** 2).sum() / 2)
    return law[s1, s2], (sums - n * jbar) / (n * spread)


def _exact_mean_law(model, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(weights, mean rows) of the sample mean of n rows, or None where no route fits."""
    atoms = merged_atoms(model)
    if atoms is None:
        return None
    probs, rows = atoms
    coords = _independent_two_valued(probs, rows)
    if coords is not None and (n + 1) ** len(coords) <= EXACT_MAX_TERMS:
        weight, means = np.ones(1), np.zeros((1, 0))
        for v0, v1, q in coords:  # one independent binomial per coordinate
            s = np.arange(n + 1)
            weight = np.outer(weight, np.exp(binomial_logpmf(n, q))).ravel()
            mean = (s * v1 + (n - s) * v0) / n
            means = np.column_stack([np.repeat(means, n + 1, axis=0), np.tile(mean, len(means))])
        return weight, means
    if model.kind == "rank-scores":
        lattice = _rank_sum_lattice(model, n)
        if lattice is not None:
            return lattice
    if math.comb(n + len(probs) - 1, len(probs) - 1) > EXACT_MAX_TERMS:
        return None
    counts = _compositions(n, len(probs))
    log_w = gammaln(n + 1) - gammaln(counts + 1).sum(axis=1) + counts @ np.log(probs)
    return np.exp(log_w), counts @ rows / n


def exact_distance(plan: ExperimentPlan, n: int) -> float | None:
    """|E h(T_n) - E h(Y)| for the plan's test function, exact up to rounding, or None.

    E h(Y) is closed form (``limit_cf``, so t <= 2).  E h(T_n) sums h(T)
    against the law of the mean of n rows, by the first route that fits:
    independent binomials for rows whose coordinates are independent and
    two-valued (one for Bernoulli rows, two for ex3.3); the lattice of the
    first two rank sums for r = 3 integer scores (Friedman), built one row
    at a time; or the multinomial compositions of n over the distinct
    atoms (ex3.4, Pearson).  Each route stops at ``EXACT_MAX_TERMS`` terms,
    and None means that no route fits.
    """
    n = as_count(n, "n")
    cf = limit_cf(plan)
    law = None if cf is None else _exact_mean_law(plan.model, n)
    if law is None:
        return None
    weights, means = law
    h = plan_test_function(plan)
    e_t = float(weights @ h(evaluate_statistic(plan.mapspec, means, n)))
    return abs(e_t - h.expectation(cf))


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
    tq = float(stdtrit(dof, 0.975)) if dof > 0 else 0.0  # Student-t quantile
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

    Sigma must be a finite d x d covariance with d <= 2, the points a
    non-empty list of finite vectors in R^d, s_max finite and > 0, steps >= 10
    and mc_reps >= 1000.
    """
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    d = sigma.shape[0]
    if d > 2:
        raise CapabilityError("solution checks are desk-scale: d <= 2")
    if not np.isfinite(sigma).all():
        raise ArgumentError(f"sigma must be finite, got {sigma.tolist()}")
    gaussian_factor(sigma)
    points = [np.atleast_1d(np.asarray(w, dtype=float)) for w in points]
    if not points:
        raise ArgumentError("need at least one point")
    for w in points:
        if w.shape != (d,):
            raise ArgumentError(f"point {w} does not match dimension {d}")
        if not np.isfinite(w).all():
            raise ArgumentError(f"point {w} must be finite")
    s_max = float(s_max)
    if not 0 < s_max < math.inf:
        raise ArgumentError(f"s_max must be finite and > 0, got {s_max}")
    steps, mc_reps = as_count(steps, "steps", 10), as_count(mc_reps, "mc_reps", 1000)
    return sigma, points, s_max, steps, mc_reps


def _stein_nodes(s_max: float, steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, c, weight) of ``steps`` Gauss-Legendre nodes for an integral over s in [0, s_max].

    The rule is Gauss-Legendre in theta over [asin(e^-s_max), pi/2], with
    x = sin(theta) = e^-s, c = cos(theta) = sqrt(1 - x^2) and ds = cot(theta)
    dtheta, so the integral of f(s) ds is sum(weight * f).

    The Legendre roots t take four Newton steps on P_n from Tricomi's
    asymptotic guesses, which reach rounding from n = 10 up; the weights are
    2 (1 - t^2) / (n P_{n-1}(t))^2.  ``scipy.special.roots_legendre`` gives
    the same roots, and weights within 1e-8 relative up to n = 400, but its
    first call loads scipy.linalg and faults in about 0.5 MB of LAPACK code.
    """
    n = steps
    t = (1 - (1 - 1 / n) / (8 * n * n)) * np.cos(np.pi * (4 * np.arange(n) + 3) / (4 * n + 2))
    for _ in range(4):
        p = eval_legendre(n, t)
        t -= p * (1 - t * t) / (n * (eval_legendre(n - 1, t) - t * p))
    w = 2 * (1 - t) * (1 + t) / (n * eval_legendre(n - 1, t)) ** 2
    low = math.asin(math.exp(-s_max))
    half = (math.pi / 2 - low) / 2
    theta = low + half * (t + 1.0)
    x, c = np.sin(theta), np.cos(theta)
    return x, c, w * half * c / x


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
    difference; it is integrated on ``steps`` Gauss-Legendre nodes in x = e^-s
    over [e^-s_max, 1] (``_stein_nodes``) with the inner expectation shared
    across all nodes (common random numbers), then differentiated centrally.
    ``g`` is scalar (m = 1), so the bound is ``stein_derivative_bound`` with
    m = 1 and ``budget`` (default unit order 1).  Pass means |estimate| is
    below that bound with STEIN_SLACK relative slack.  The inputs are checked
    by ``stein_check_inputs`` first.

    ``h`` must be one sinusoid, h(v) = sin(a v + phase): its ``a`` (one
    entry, else ArgumentError) and ``phase`` are read, and h is never called.
    At a node with v = g at w + delta e_j and at w - delta e_j, the difference
    h(v+) - h(v-) is taken as a cos(a (v+ + v-) / 2 + phase) (v+ - v-), the
    exact derivative at the midpoint times the difference of g, which is
    off by a relative (a (v+ - v-) / 2)^2 / 6: one cosine per draw and node.

    ``g`` must work row by row: at every node it receives one column-major
    (2 mc_reps, d) array, the rows at w + delta e_j over the rows at
    w - delta e_j, which is rewritten at the next node, and returns one
    value per row.
    """
    sigma, points, s_max, steps, mc_reps = stein_check_inputs(sigma, points, s_max, steps, mc_reps)
    if len(h.a) != 1:
        raise ArgumentError(f"the Stein check takes one frequency, got a={h.a}")
    (a,), phase = h.a, h.phase
    d = sigma.shape[0]
    factor = gaussian_factor(sigma)
    sigmas = np.sqrt(np.diag(sigma))
    if budget is None:
        budget = TestBudget.unit(1)
    rng = rngstreams.stream(seed, 9)
    z = np.asfortranarray(rng.standard_normal((mc_reps, d)) @ factor.T)
    decay, spread, weight = _stein_nodes(s_max, steps)
    tail = math.exp(-s_max)
    # rows e w+ + c z over rows c z + e w-, one column per coordinate
    shifted = np.empty((2 * mc_reps, d), order="F")
    plus, minus = shifted[:mc_reps], shifted[mc_reps:]
    # g(w+) - g(w-) per draw, and the midpoint's phase, then its cosine times gap
    gap, wave = np.empty(mc_reps), np.empty(mc_reps)

    results = []
    for w in points:
        delta = 1e-4 * (1.0 + float(np.abs(w).max()))
        for j in range(d):
            wp, wm = w.copy(), w.copy()
            wp[j] += delta
            wm[j] -= delta
            integrand = np.empty(steps)
            for i, (e, c) in enumerate(zip(decay, spread)):
                for k in range(d):
                    np.multiply(c, z[:, k], out=plus[:, k])
                    np.add(plus[:, k], e * wm[k], out=minus[:, k])
                    plus[:, k] += e * wp[k]
                v = g(shifted)
                np.subtract(v[:mc_reps], v[mc_reps:], out=gap)
                np.add(v[:mc_reps], v[mc_reps:], out=wave)
                del v  # not alive through the next node's g
                wave *= 0.5 * a
                wave += phase
                np.cos(wave, out=wave)
                wave *= gap
                integrand[i] = a * np.mean(wave)
            # f(w+) - f(w-) = -integral of the difference of expectations
            diff = -math.fsum(weight * integrand)
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
