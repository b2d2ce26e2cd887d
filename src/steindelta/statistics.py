"""Statistic and limit samplers plus the built-in experiments.

The generic statistic is n^{t/2} (f(mean of rows) - f(0)); its limit is
the order-t derivative tensor of f at 0 contracted with a centred
Gaussian vector.  Built-ins configure the concrete experiments studied
in the examples: Bernoulli variance, powers and products of sample
means, joint mean/variance, score-based rank statistics (Friedman,
Brown-Mood and the general score family) and the chi-square
goodness-of-fit statistic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.special import gammaln, ndtri

from .bounds import FnEnvelope, GrowthEnvelope
from .errors import ArgumentError, CapabilityError, DomainError
from .moments import (
    DEFAULT_W_REPS,
    DataModel,
    MomentTable,
    analytic_moments,
    atom_model,
    centered_bernoulli,
    enforce_psd,
    model_covariance,
    multinomial_indicator,
    product_model,
    rademacher,
    rank_scores,
    sample_mean_batch,
    sample_rows,
)

STREAM_MAGIC = b"SDSTAT01"


# ---------------------------------------------------------------------------
# Maps and limits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MapSpec:
    """The smooth map defining the statistic.

    ``evaluator`` must be vectorised over leading axes: input (..., d),
    output (..., m).  ``derivative_tensor`` holds the order-t partials at
    0, shape (m,) + (d,)*t, symmetric in the t trailing axes.
    """

    d: int
    m: int
    t: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    derivative_tensor: np.ndarray
    envelope: GrowthEnvelope

    def __post_init__(self):
        expected = (self.m,) + (self.d,) * self.t
        if self.derivative_tensor.shape != expected:
            raise ArgumentError(
                f"derivative tensor must have shape {expected}, "
                f"got {self.derivative_tensor.shape}"
            )
        if not np.any(self.derivative_tensor):
            raise ArgumentError("order-t derivative tensor must not vanish at 0")
        if self.t >= 2:
            axes = list(range(1, self.t + 1))
            for i in range(len(axes) - 1):
                perm = [0] + axes[:]
                perm[1 + i], perm[2 + i] = perm[2 + i], perm[1 + i]
                if not np.allclose(
                    self.derivative_tensor,
                    np.transpose(self.derivative_tensor, perm),
                    atol=1e-10,
                ):
                    raise ArgumentError("derivative tensor must be symmetric")


def map_from_function(
    f: Callable, d: int, m: int, t: int, envelope: GrowthEnvelope, scale: float = 1.0
) -> MapSpec:
    """MapSpec for a user map; derivatives at 0 by central differences.

    Lower-order derivatives (t >= 2) are checked to vanish at tolerance
    1e-6.  Only t <= 2 is supported for finite differencing.
    """
    if t > 2:
        raise CapabilityError("finite-difference tensors support t <= 2 only")
    h = np.finfo(float).eps ** (1 / 3) * (1.0 + abs(scale))
    f0 = np.atleast_1d(np.asarray(f(np.zeros(d)), dtype=float))

    def grad():
        g = np.zeros((m, d))
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            g[:, i] = (np.asarray(f(e)) - np.asarray(f(-e))) / (2 * h)
        return g

    if t == 1:
        tensor = grad()
    else:
        if np.max(np.abs(grad())) > 1e-6:
            raise ArgumentError("first derivatives must vanish at 0 for t = 2")
        tensor = np.zeros((m, d, d))
        for i in range(d):
            for j in range(i, d):
                ei, ej = np.zeros(d), np.zeros(d)
                ei[i] = h
                ej[j] = h
                if i == j:
                    val = (np.asarray(f(ei)) - 2 * f0 + np.asarray(f(-ei))) / h**2
                else:
                    val = (
                        np.asarray(f(ei + ej))
                        - np.asarray(f(ei - ej))
                        - np.asarray(f(ej - ei))
                        + np.asarray(f(-ei - ej))
                    ) / (4 * h**2)
                tensor[:, i, j] = val
                tensor[:, j, i] = val
    return MapSpec(d, m, t, _vectorize(f, d, m), np.asarray(tensor, dtype=float), envelope)


def _vectorize(f, d, m):
    def ev(v):
        v = np.asarray(v, dtype=float)
        if v.shape[-1] != d:
            raise ArgumentError(f"map expects last axis {d}, got {v.shape}")
        flat = v.reshape(-1, d)
        out = np.stack([np.atleast_1d(np.asarray(f(row), dtype=float)) for row in flat])
        return out.reshape(v.shape[:-1] + (m,))

    return ev


@dataclass(frozen=True)
class LimitDescriptor:
    """The limit law: a tensor contraction of a Gaussian, or a shortcut.

    kinds: tensor-contraction (Sigma), normal (variance matrix),
    chi-square (df), variance-gamma (s: law s*N1*N2/2), scaled-square
    (c: law c*N^2).
    """

    kind: str
    sigma: np.ndarray | None = None
    variance: np.ndarray | None = None
    df: int | None = None
    s: float | None = None
    c: float | None = None

    def __post_init__(self):
        if self.kind == "chi-square" and (self.df is None or self.df < 1):
            raise ArgumentError("chi-square limit needs df >= 1")
        if self.kind == "variance-gamma" and (self.s is None or self.s <= 0):
            raise ArgumentError("variance-gamma limit needs s > 0")
        for mat in (self.sigma, self.variance):
            if mat is not None:
                enforce_psd(np.asarray(mat, dtype=float))


# ---------------------------------------------------------------------------
# Gaussian sampling with singular covariances
# ---------------------------------------------------------------------------

def gaussian_factor(sigma: np.ndarray) -> np.ndarray:
    """Square-root factor via eigendecomposition (singular Sigma fine).

    Eigenvalues below 1e-12 of the trace are treated as exact zeros, so
    rank-deficient directions stay exactly degenerate in the samples.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ArgumentError(f"covariance must be square, got {sigma.shape}")
    if not np.allclose(sigma, sigma.T, atol=1e-12):
        raise DomainError("covariance must be symmetric")
    eigvals, eigvecs = np.linalg.eigh(sigma)
    trace = max(np.trace(sigma), 1e-300)
    if eigvals.min() < -1e-10 * trace:
        raise DomainError(f"covariance indefinite: min eigenvalue {eigvals.min():.3e}")
    eigvals = np.where(eigvals < 1e-12 * trace, 0.0, eigvals)
    return eigvecs * np.sqrt(eigvals)


def gaussian_sampler(sigma: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw from N(0, Sigma)."""
    return gaussian_batch(sigma, rng, 1)[0]


def gaussian_batch(sigma, rng, size: int) -> np.ndarray:
    factor = gaussian_factor(sigma)
    return rng.standard_normal((size, factor.shape[0])) @ factor.T


# ---------------------------------------------------------------------------
# Statistic and limit draws
# ---------------------------------------------------------------------------

def evaluate_statistic(mapspec: MapSpec, mean_rows: np.ndarray, n: int) -> np.ndarray:
    f0 = mapspec.evaluator(np.zeros(mapspec.d))
    return float(n) ** (mapspec.t / 2.0) * (mapspec.evaluator(mean_rows) - f0)


def sample_statistic(
    mapspec: MapSpec, model: DataModel, n: int, rng: np.random.Generator
) -> np.ndarray:
    """One draw of the rescaled statistic."""
    if model.d != mapspec.d:
        raise ArgumentError(f"model dimension {model.d} != map dimension {mapspec.d}")
    rows = sample_rows(model, n, rng)
    return evaluate_statistic(mapspec, rows.mean(axis=0), n)


def statistic_batch(mapspec, model, n, reps, rng) -> np.ndarray:
    if model.d != mapspec.d:
        raise ArgumentError(f"model dimension {model.d} != map dimension {mapspec.d}")
    means = sample_mean_batch(model, n, reps, rng)
    return evaluate_statistic(mapspec, means, n)


def contract_tensor(tensor: np.ndarray, z: np.ndarray, t: int) -> np.ndarray:
    """(1/t!) sum over indices of tensor * z_{i1} ... z_{it}, batched."""
    out = np.broadcast_to(tensor, (z.shape[0],) + tensor.shape)
    for _ in range(t):
        out = np.einsum("r...d,rd->r...", out, z)
    return out / math.factorial(t)


def limit_batch(
    limit: LimitDescriptor, mapspec: MapSpec | None, reps: int, rng
) -> np.ndarray:
    """reps draws of the limit law, shape (reps, m) (m = 1 for shortcuts)."""
    if limit.kind == "tensor-contraction":
        if mapspec is None:
            raise ArgumentError("tensor limit needs the map's derivative tensor")
        z = gaussian_batch(limit.sigma, rng, reps)
        return contract_tensor(mapspec.derivative_tensor, z, mapspec.t)
    if limit.kind == "normal":
        return gaussian_batch(limit.variance, rng, reps)
    if limit.kind == "chi-square":
        return rng.chisquare(limit.df, size=reps)[:, None]
    if limit.kind == "variance-gamma":
        z = rng.standard_normal((reps, 2))
        return (limit.s * z[:, 0] * z[:, 1] / 2.0)[:, None]
    if limit.kind == "scaled-square":
        z = rng.standard_normal(reps)
        return (limit.c * z * z)[:, None]
    raise ArgumentError(f"unknown limit kind {limit.kind!r}")


def sample_limit(limit, mapspec, rng) -> np.ndarray:
    """One draw of the limit."""
    return limit_batch(limit, mapspec, 1, rng)[0]


# ---------------------------------------------------------------------------
# Direct statistic evaluators
# ---------------------------------------------------------------------------

def sen_statistic(scores, rankings) -> float:
    """Score-based rank statistic: sum of squared normalised score sums."""
    scores = np.asarray(scores, dtype=float)
    rankings = np.asarray(rankings, dtype=int)
    if rankings.ndim != 2:
        raise ArgumentError("rankings must be (n, r)")
    n, r = rankings.shape
    if len(scores) != r:
        raise ArgumentError("score vector length must match ranking width")
    expected = np.arange(1, r + 1)
    for row in rankings:
        if not np.array_equal(np.sort(row), expected):
            raise ArgumentError(f"row {row} is not a permutation of 1..{r}")
    jbar = scores.mean()
    sj2 = ((scores - jbar) ** 2).sum() / (r - 1)
    x = (scores[rankings - 1] - jbar) / math.sqrt(sj2)
    w = x.sum(axis=0) / math.sqrt(n)
    return float((w**2).sum())


def friedman_statistic(rankings) -> float:
    r = np.asarray(rankings).shape[1]
    return sen_statistic(np.arange(1, r + 1, dtype=float), rankings)


def pearson_statistic(counts, probs) -> float:
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if counts.shape != probs.shape:
        raise ArgumentError("counts and probabilities must align")
    n = counts.sum()
    if not float(n).is_integer() or n <= 0:
        raise ArgumentError("counts must sum to a positive integer")
    if abs(probs.sum() - 1.0) > 1e-12 or (probs <= 0).any():
        raise ArgumentError("probabilities must be positive and sum to 1")
    return float(((counts - n * probs) ** 2 / (n * probs)).sum())


# ---------------------------------------------------------------------------
# Experiment plans
# ---------------------------------------------------------------------------

@dataclass
class ExperimentPlan:
    """A named statistic with its sweep, seed and bound configuration."""

    name: str
    builtin: str
    params: dict
    model: DataModel
    mapspec: MapSpec
    limit: LimitDescriptor
    n_grid: tuple[int, ...]
    replicates: int
    seed: int
    testfn: dict
    bound_kind: str  # delta-univariate | delta-multivariate | fn-multivariate | fn-univariate
    mode: str  # general | even | zero-third
    fn_env: FnEnvelope | None = None
    fn_parity: bool = False
    coupling: str = "independent"
    w_reps: int = DEFAULT_W_REPS
    score_bound: float | None = None
    _tables: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if list(self.n_grid) != sorted(self.n_grid):
            raise ArgumentError("n_grid must be sorted ascending")
        if self.replicates < 1000:
            raise ArgumentError("plans need at least 1000 replicates")
        if self.w_reps < 1:
            raise ArgumentError("plans need at least 1 W-moment replicate")

    def moment_table(self, n: int) -> MomentTable:
        """Exact moment table sized for this plan's bound at sample size n."""
        from .bounds import required_moment_orders

        key = (n, self.seed, self.w_reps, self.bound_kind, self.mode)
        if key in self._tables:
            return self._tables[key]
        env = self.fn_env if self.bound_kind.startswith("fn") else self.mapspec.envelope
        req = required_moment_orders(self.bound_kind, self.mode, self.mapspec.t, n, env)
        table = analytic_moments(
            self.model,
            req.x_orders,
            n,
            w_orders=req.w_orders,
            w_seed=self.seed + 7 * n + 1,
            w_reps=self.w_reps,
        )
        self._tables[key] = table
        return table

    def to_config(self) -> dict:
        return {
            "builtin": self.builtin,
            "params": self.params,
            "n_grid": list(self.n_grid),
            "replicates": self.replicates,
            "seed": self.seed,
            "testfn": self.testfn,
            "w_reps": self.w_reps,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_config(), sort_keys=True, separators=(",", ":"))


def plan_from_config(doc: dict) -> ExperimentPlan:
    plan = builtin(doc["builtin"], **doc.get("params", {}))
    overrides = {}
    if "n_grid" in doc:
        overrides["n_grid"] = tuple(int(v) for v in doc["n_grid"])
    if "replicates" in doc:
        overrides["replicates"] = int(doc["replicates"])
    if "seed" in doc:
        overrides["seed"] = int(doc["seed"])
    if "testfn" in doc:
        overrides["testfn"] = dict(doc["testfn"])
    if "w_reps" in doc:
        overrides["w_reps"] = int(doc["w_reps"])
    return replace(plan, **overrides, _tables={})


# -- map builders -----------------------------------------------------------

def _poly_map_1d(f, fprime0, t, envelope) -> MapSpec:
    tensor = np.asarray(fprime0, dtype=float).reshape((1,) + (1,) * t)
    return MapSpec(1, 1, t, _last_axis(f), tensor, envelope)


def _last_axis(f):
    def ev(v):
        v = np.asarray(v, dtype=float)
        return f(v[..., 0])[..., None]

    return ev


def _sum_of_squares_map(d: int, envelope: GrowthEnvelope) -> MapSpec:
    tensor = np.zeros((1, d, d))
    tensor[0][np.diag_indices(d)] = 2.0

    def ev(v):
        v = np.asarray(v, dtype=float)
        return (v**2).sum(axis=-1)[..., None]

    return MapSpec(d, 1, 2, ev, tensor, envelope)


# -- built-ins --------------------------------------------------------------

def _bernoulli_variance(p: float, **overrides) -> ExperimentPlan:
    model = centered_bernoulli(p)
    sigma2 = p * (1.0 - p)
    if abs(p - 0.5) > 1e-12:
        env = GrowthEnvelope(t=1, A={1: 2.0, 2: 1.0}, r={1: 1.0, 2: 0.0})
        mapspec = _poly_map_1d(
            lambda v: (p + v) * (1.0 - p - v), 1.0 - 2.0 * p, 1, env
        )
        limit = LimitDescriptor(
            kind="normal",
            variance=np.array([[sigma2 * (1.0 - 2.0 * p) ** 2]]),
        )
        name, mode = "ex3.1-normal", "general"
    else:
        env = GrowthEnvelope(
            t=2,
            A={2: 1.0, 3: 0.0, 4: 0.0},
            r={2: 0.0, 3: 0.0, 4: 0.0},
            even_map=True,
            vanishing_third=True,
        )
        mapspec = _poly_map_1d(lambda v: 0.25 - v * v, -2.0, 2, env)
        limit = LimitDescriptor(kind="scaled-square", c=-0.25)
        name, mode = "ex3.1-chisq", "zero-third"
    plan = ExperimentPlan(
        name=name,
        builtin="bernoulli-variance",
        params={"p": p},
        model=model,
        mapspec=mapspec,
        limit=limit,
        n_grid=tuple(2**k for k in range(6, 13)),
        replicates=1_000_000,
        seed=1234,
        testfn={"family": "cosine-wave", "a": [1.0], "phase": 0.7},
        bound_kind="delta-univariate",
        mode=mode,
        coupling="binomial-quantile",
    )
    return replace(plan, **overrides)


def _power_mean(p_exp: int, model=None, **overrides) -> ExperimentPlan:
    p = int(p_exp)
    if p < 2:
        raise ArgumentError("power must be >= 2")
    model = model_from_spec(model or {"kind": "centered-bernoulli", "p": 0.3})
    if model.d != 1:
        raise ArgumentError("power-mean needs a univariate model")
    third = list(analytic_moments(model, [3.0], 8).mixed_third.values())[0]
    even = p % 2 == 0
    env = GrowthEnvelope(
        t=p,
        A={p: math.factorial(p) / 2.0, p + 1: 0.0, p + 2: 0.0},
        r={p: 0.0, p + 1: 0.0, p + 2: 0.0},
        even_map=even,
        vanishing_third=abs(third) <= 1e-12,
    )
    mapspec = _poly_map_1d(lambda v: v**p, float(math.factorial(p)), p, env)
    sigma2 = float(model_covariance(model)[0, 0])
    if p == 2:
        limit = LimitDescriptor(kind="scaled-square", c=sigma2)
    else:
        limit = LimitDescriptor(
            kind="tensor-contraction", sigma=np.array([[sigma2]])
        )
    plan = ExperimentPlan(
        name="ex3.2",
        builtin="power-mean",
        params={"p_exp": p, "model": model_to_spec(model)},
        model=model,
        mapspec=mapspec,
        limit=limit,
        n_grid=(16, 32, 64, 128),
        replicates=50_000,
        seed=1234,
        testfn={"family": "cosine-wave", "a": [1.0], "phase": 0.7},
        bound_kind="delta-univariate",
        mode="even" if even else "general",
        coupling="binomial-quantile"
        if model.kind == "centered-bernoulli" and p <= 2
        else "independent",
    )
    return replace(plan, **overrides)


def _product_means(mu1: float, mu2: float, model1=None, model2=None, **overrides):
    m1 = model_from_spec(model1 or {"kind": "rademacher", "d": 1})
    m2 = model_from_spec(model2 or {"kind": "rademacher", "d": 1})
    if m1.d != 1 or m2.d != 1:
        raise ArgumentError("product-means needs two univariate models")
    model = product_model(m1, m2)
    cov = model_covariance(model)
    s1, s2 = math.sqrt(cov[0, 0]), math.sqrt(cov[1, 1])
    if abs(mu1) > 1e-12 or abs(mu2) > 1e-12:
        c = max(1.0, abs(mu1), abs(mu2))
        env = GrowthEnvelope(
            t=1, A={1: c, 2: 1.0 / 3.0, 3: 0.0}, r={1: 1.0, 2: 0.0, 3: 0.0}
        )

        def ev(v):
            v = np.asarray(v, dtype=float)
            return ((mu1 + v[..., 0]) * (mu2 + v[..., 1]))[..., None]

        tensor = np.array([[mu2, mu1]])
        mapspec = MapSpec(2, 1, 1, ev, tensor, env)
        limit = LimitDescriptor(
            kind="normal", variance=np.array([[(mu2 * s1) ** 2 + (mu1 * s2) ** 2]])
        )
        name, mode, grid = "ex3.3-normal", "general", (64, 128, 256)
    else:
        env = GrowthEnvelope(
            t=2,
            A={2: 1.0 / 3.0, 3: 0.0, 4: 0.0, 5: 0.0, 6: 0.0},
            r={k: 0.0 for k in range(2, 7)},
            even_map=True,
        )

        def ev(v):
            v = np.asarray(v, dtype=float)
            return (v[..., 0] * v[..., 1])[..., None]

        tensor = np.array([[[0.0, 1.0], [1.0, 0.0]]])
        mapspec = MapSpec(2, 1, 2, ev, tensor, env)
        # the tensor contraction gives Y = Z1 Z2, i.e. s = 2 sigma1 sigma2
        limit = LimitDescriptor(kind="variance-gamma", s=2.0 * s1 * s2)
        name, mode, grid = "ex3.3-vg", "even", (16, 32, 64, 128)
    plan = ExperimentPlan(
        name=name,
        builtin="product-means",
        params={
            "mu1": mu1,
            "mu2": mu2,
            "model1": model_to_spec(m1),
            "model2": model_to_spec(m2),
        },
        model=model,
        mapspec=mapspec,
        limit=limit,
        n_grid=grid,
        replicates=40_000,
        seed=1234,
        testfn={"family": "cosine-wave", "a": [1.0], "phase": 0.7},
        bound_kind="delta-multivariate",
        mode=mode,
    )
    return replace(plan, **overrides)


def _mean_and_variance(model=None, **overrides) -> ExperimentPlan:
    base = model_from_spec(model or {"kind": "centered-bernoulli", "p": 0.3})
    if base.kind != "centered-bernoulli":
        raise CapabilityError("mean-and-variance is built in for Bernoulli data")
    p = base.p
    mu, sigma2 = p, p * (1.0 - p)
    atoms_p = (p, 1.0 - p)
    atoms_v = (
        (1.0 - p, (1.0 - p) ** 2 - sigma2),
        (-p, p**2 - sigma2),
    )
    model = atom_model(atoms_p, atoms_v)
    env = GrowthEnvelope(
        t=1, A={1: 2.0, 2: 2.0 / 3.0, 3: 0.0}, r={1: 1.0, 2: 0.0, 3: 0.0}
    )

    def ev(v):
        v = np.asarray(v, dtype=float)
        return np.stack(
            [mu + v[..., 0], sigma2 + v[..., 1] - v[..., 0] ** 2], axis=-1
        )

    tensor = np.eye(2)
    mapspec = MapSpec(2, 2, 1, ev, tensor, env)
    limit = LimitDescriptor(kind="normal", variance=model_covariance(model))
    plan = ExperimentPlan(
        name="ex3.4",
        builtin="mean-and-variance",
        params={"model": model_to_spec(base)},
        model=model,
        mapspec=mapspec,
        limit=limit,
        n_grid=(64, 128, 256),
        replicates=40_000,
        seed=1234,
        testfn={"family": "cosine-wave", "a": [1.0, 1.0], "phase": 0.7},
        bound_kind="delta-multivariate",
        mode="general",
    )
    return replace(plan, **overrides)


def _rank_plan(name, builtin_name, params, scores, fn_env, mode, **overrides):
    r = len(scores)
    model = rank_scores(scores)
    x = model.standardized_scores()
    s3 = float(np.sum(x**3))
    env = GrowthEnvelope(
        t=2,
        A={2: 2.0, 3: 0.0, 4: 0.0, 5: 0.0, 6: 0.0},
        r={2: 1.0 / 6.0, 3: 0.0, 4: 0.0, 5: 0.0, 6: 0.0},
        even_map=True,
        vanishing_third=abs(s3) <= 1e-12,
    )
    mapspec = _sum_of_squares_map(r, env)
    scores_arr = np.asarray(scores, dtype=float)
    plan = ExperimentPlan(
        name=name,
        builtin=builtin_name,
        params=params,
        model=model,
        mapspec=mapspec,
        limit=LimitDescriptor(kind="chi-square", df=r - 1),
        n_grid=(16, 32, 64),
        replicates=20_000,
        seed=1234,
        testfn={"family": "cosine-wave", "a": [1.0], "phase": 0.7},
        bound_kind="fn-multivariate",
        mode=mode,
        fn_env=fn_env,
        fn_parity=True,
        score_bound=float(np.max(np.abs(scores_arr - scores_arr.mean()))),
    )
    return replace(plan, **overrides)


def _sen_rank(scores, r=None, **overrides):
    scores = tuple(float(s) for s in scores)
    if r is not None and r != len(scores):
        raise ArgumentError("score vector length must equal r")
    return _rank_plan(
        "ex3.5-sen",
        "sen-rank",
        {"scores": list(scores)},
        scores,
        FnEnvelope(8.0, 64.0, 6.0),
        "even",
        **overrides,
    )


def _friedman(r: int, **overrides):
    if r < 2:
        raise ArgumentError("need r >= 2 treatments")
    scores = tuple(float(k) for k in range(1, r + 1))
    return _rank_plan(
        "ex3.5-friedman",
        "friedman",
        {"r": r},
        scores,
        FnEnvelope(4.0, 16.0, 4.0),
        "zero-third",
        **overrides,
    )


def _brown_mood(a: int, r: int, **overrides):
    if r < 2 or not 1 <= a <= r - 1:
        raise ArgumentError("need r >= 2 and cut point a in 1..r-1")
    scores = tuple(1.0 if k <= a else 0.0 for k in range(1, r + 1))
    return _rank_plan(
        "ex3.5-brownmood",
        "brown-mood",
        {"a": a, "r": r},
        scores,
        FnEnvelope(8.0, 64.0, 6.0),
        "even",
        **overrides,
    )


def _pearson(probs, **overrides):
    probs = tuple(float(p) for p in probs)
    model = multinomial_indicator(probs)
    r = len(probs)
    env = GrowthEnvelope(
        t=2,
        A={2: 2.0, 3: 0.0, 4: 0.0, 5: 0.0, 6: 0.0},
        r={2: 1.0 / 6.0, 3: 0.0, 4: 0.0, 5: 0.0, 6: 0.0},
        even_map=True,
    )
    plan = ExperimentPlan(
        name="ex3.6-pearson",
        builtin="pearson",
        params={"probs": list(probs)},
        model=model,
        mapspec=_sum_of_squares_map(r, env),
        limit=LimitDescriptor(kind="chi-square", df=r - 1),
        n_grid=(16, 32, 64),
        replicates=20_000,
        seed=1234,
        testfn={"family": "cosine-wave", "a": [1.0], "phase": 0.7},
        bound_kind="fn-multivariate",
        mode="even",
        fn_env=FnEnvelope(8.0, 64.0, 6.0),
        fn_parity=True,
    )
    return replace(plan, **overrides)


_BUILTINS = {
    "bernoulli-variance": _bernoulli_variance,
    "power-mean": _power_mean,
    "product-means": _product_means,
    "mean-and-variance": _mean_and_variance,
    "sen-rank": _sen_rank,
    "friedman": _friedman,
    "brown-mood": _brown_mood,
    "pearson": _pearson,
}

# named example presets; each resolves to a builtin with pinned parameters
EXAMPLES = {
    "ex3.1-normal": ("bernoulli-variance", {"p": 0.3}),
    "ex3.1-chisq": ("bernoulli-variance", {"p": 0.5}),
    "ex3.2": ("power-mean", {"p_exp": 2}),
    "ex3.3-normal": ("product-means", {"mu1": 1.0, "mu2": 1.0}),
    "ex3.3-vg": ("product-means", {"mu1": 0.0, "mu2": 0.0}),
    "ex3.4": ("mean-and-variance", {}),
    "ex3.5-friedman": ("friedman", {"r": 3}),
    "ex3.5-brownmood": ("brown-mood", {"a": 1, "r": 3}),
    "ex3.6-pearson": ("pearson", {"probs": [1 / 3, 1 / 3, 1 / 3]}),
}


def builtin(name: str, **params) -> ExperimentPlan:
    """Build a named experiment plan; accepts builtin or example names."""
    if name in EXAMPLES:
        base, preset = EXAMPLES[name]
        merged = {**preset, **params}
        return _BUILTINS[base](**merged)
    if name in _BUILTINS:
        return _BUILTINS[name](**params)
    raise ArgumentError(f"unknown builtin {name!r}")


def model_to_spec(model: DataModel) -> dict:
    if model.kind == "centered-bernoulli":
        return {"kind": "centered-bernoulli", "p": model.p}
    if model.kind == "rademacher":
        return {"kind": "rademacher", "d": model.d}
    if model.kind == "rank-scores":
        return {"kind": "rank-scores", "scores": list(model.scores)}
    if model.kind == "multinomial-indicator":
        return {"kind": "multinomial-indicator", "probs": list(model.probs)}
    raise CapabilityError(f"kind {model.kind!r} has no config form")


def model_from_spec(spec: dict) -> DataModel:
    if isinstance(spec, DataModel):
        return spec
    kind = spec.get("kind")
    if kind == "centered-bernoulli":
        return centered_bernoulli(float(spec["p"]))
    if kind == "rademacher":
        return rademacher(int(spec.get("d", 1)))
    if kind == "rank-scores":
        return rank_scores(spec["scores"])
    if kind == "multinomial-indicator":
        return multinomial_indicator(spec["probs"])
    raise ArgumentError(f"unknown model kind {kind!r}")


# ---------------------------------------------------------------------------
# Quantile-coupled draws (Bernoulli-backed univariate plans)
# ---------------------------------------------------------------------------

_binom_cdf_cache: dict[tuple[int, float], np.ndarray] = {}


def _binom_cdf(n: int, p: float) -> np.ndarray:
    key = (n, p)
    if key not in _binom_cdf_cache:
        s = np.arange(n + 1)
        logpmf = (
            gammaln(n + 1)
            - gammaln(s + 1)
            - gammaln(n - s + 1)
            + s * math.log(p)
            + (n - s) * math.log1p(-p)
        )
        cdf = np.cumsum(np.exp(logpmf))
        cdf[-1] = max(cdf[-1], 1.0)
        _binom_cdf_cache[key] = cdf
    return _binom_cdf_cache[key]


def coupled_batch(plan: ExperimentPlan, n: int, count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Quantile-coupled (statistic, limit) pairs sharing one uniform draw.

    Supported for univariate plans over centred Bernoulli rows with
    t <= 2; the coupling shrinks the variance of the paired difference
    without touching either marginal law.
    """
    if plan.model.kind != "centered-bernoulli" or plan.mapspec.d != 1:
        raise CapabilityError("quantile coupling needs a centred-Bernoulli model")
    t = plan.mapspec.t
    if t > 2:
        raise CapabilityError("quantile coupling supports t <= 2")
    p = plan.model.p
    u = rng.random(count)
    s = np.minimum(np.searchsorted(_binom_cdf(n, p), u, side="left"), n)
    vbar = s / n - p
    t_vals = evaluate_statistic(plan.mapspec, vbar[:, None], n)[:, 0]
    u = np.clip(u, 1e-300, 1.0 - 2.0**-53)  # keep the normal quantile finite
    z = math.sqrt(p * (1.0 - p)) * ndtri(u)
    deriv = float(plan.mapspec.derivative_tensor.flat[0])
    if t == 1:
        y_vals = deriv * z
    else:
        y_vals = deriv / 2.0 * z * z
    return t_vals, y_vals


# ---------------------------------------------------------------------------
# Statistic stream files
# ---------------------------------------------------------------------------

def write_stream(path, values) -> None:
    """Spill a statistic stream as little-endian float64 with a magic header."""
    data = np.asarray(values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(STREAM_MAGIC)
        fh.write(data.tobytes())


def read_stream(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(len(STREAM_MAGIC))
        if magic != STREAM_MAGIC:
            raise ArgumentError(f"bad stream magic {magic!r}")
        return np.frombuffer(fh.read(), dtype="<f8")
