"""Batch statistic and limit samplers plus the built-in experiments.

The generic statistic is n^{t/2} (f(mean of rows) - f(0)); its limit is
the order-t derivative tensor of f at 0 contracted with a centred
Gaussian vector whose covariance is the model's row covariance.  The map
and the model are the only source of that law: ``limit_cf`` gives its
characteristic function in closed form for t <= 2, and ``limit_batch``
draws it for any t.  Built-ins configure the concrete experiments studied
in the examples: Bernoulli variance, powers and products of sample
means, joint mean/variance, score-based rank statistics (Friedman,
Brown-Mood and the general score family) and the chi-square
goodness-of-fit statistic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable

import numpy as np
from scipy.special import gammaln, ndtri

from .bounds import FnEnvelope, GrowthEnvelope, required_moment_orders
from .errors import ArgumentError, CapabilityError, DomainError, RangeError, as_count
from .moments import (
    DEFAULT_W_REPS,
    DataModel,
    MomentTable,
    analytic_moments,
    atom_model,
    centered_bernoulli,
    model_covariance,
    multinomial_indicator,
    product_model,
    rademacher,
    rank_scores,
    sample_mean_batch,
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
    0, shape (m,) + (d,)*t, symmetric in the t trailing axes; the growth
    ``envelope`` bounds the partials from the same order t.  So t is the
    envelope's, and d and m are read from the tensor's shape.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    derivative_tensor: np.ndarray
    envelope: GrowthEnvelope

    def __post_init__(self):
        tensor, t = self.derivative_tensor, self.envelope.t
        if tensor.ndim != t + 1 or len(set(tensor.shape[1:])) != 1:
            raise ArgumentError(
                f"derivative tensor shape {tensor.shape} is not (m,) + (d,)*t for envelope t = {t}"
            )
        if not np.any(tensor):
            raise ArgumentError("order-t derivative tensor must not vanish at 0")
        # the transpositions of axis 1 with each later axis generate every permutation
        if not all(np.allclose(tensor, tensor.swapaxes(1, i), atol=1e-10) for i in range(2, t + 1)):
            raise ArgumentError("derivative tensor must be symmetric")

    @property
    def t(self) -> int:
        return self.envelope.t

    @property
    def m(self) -> int:
        return self.derivative_tensor.shape[0]

    @property
    def d(self) -> int:
        return self.derivative_tensor.shape[1]


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


def gaussian_batch(sigma, rng, size: int) -> np.ndarray:
    factor = gaussian_factor(sigma)
    return rng.standard_normal((size, factor.shape[0])) @ factor.T


# ---------------------------------------------------------------------------
# Statistic and limit draws
# ---------------------------------------------------------------------------

def evaluate_statistic(mapspec: MapSpec, mean_rows: np.ndarray, n: int) -> np.ndarray:
    f0 = mapspec.evaluator(np.zeros(mapspec.d))
    return float(n) ** (mapspec.t / 2.0) * (mapspec.evaluator(mean_rows) - f0)


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


def limit_batch(plan: ExperimentPlan, reps: int, rng) -> np.ndarray:
    """reps draws, shape (reps, m), of the limit (1/t!) D^t f(0)[Z, ..., Z] of ``limit_cf``."""
    z = gaussian_batch(model_covariance(plan.model), rng, reps)
    return contract_tensor(plan.mapspec.derivative_tensor, z, plan.mapspec.t)


def limit_cf(plan: ExperimentPlan) -> Callable[[np.ndarray], complex] | None:
    """b -> E exp(i<b, Y>) of the plan's limit Y, or None for t >= 3.

    Y = (1/t!) G[Z, ..., Z] for the derivative tensor G and Z = F N, with F
    the ``gaussian_factor`` of Sigma = ``model_covariance(plan.model)`` and N
    standard normal.  For t = 1, <b, Y> = b^T G F N is normal:
    exp(-|b^T G F|^2 / 2).  For t = 2, <b, Y> = N^T M N / 2 with
    M = F^T (sum_j b_j G_j) F, a weighted sum of chi-square(1) laws:
    prod_k (1 - i lambda_k)^(-1/2) over the eigenvalues of M.
    """
    t = plan.mapspec.t
    if t > 2:
        return None
    factor = gaussian_factor(model_covariance(plan.model))
    tensor = plan.mapspec.derivative_tensor
    tensor_f = tensor @ factor if t == 1 else factor.T @ tensor @ factor  # G F, or F^T G_j F

    def cf(b):
        form = np.tensordot(np.asarray(b, dtype=float), tensor_f, axes=1)  # b^T G F, or M
        if t == 1:
            return complex(math.exp(-0.5 * float(form @ form)))
        return complex(np.prod((1.0 - 1j * np.linalg.eigvalsh(form)) ** -0.5))

    return cf


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

# Plan fields a config or a ``builtin`` keyword may override; every other
# keyword is a parameter of the plan's builder.
PLAN_OVERRIDES = ("n_grid", "replicates", "seed", "testfn", "w_reps")


@dataclass
class ExperimentPlan:
    """A named statistic with its sweep, seed and bound configuration."""

    name: str
    builtin: str
    params: dict
    model: DataModel
    mapspec: MapSpec
    n_grid: tuple[int, ...]
    replicates: int
    seed: int
    testfn: dict
    bound_kind: str  # delta-univariate | delta-multivariate | fn-multivariate | fn-univariate
    mode: str  # general | even | zero-third
    fn_env: FnEnvelope | None = None
    w_reps: int = DEFAULT_W_REPS

    def __post_init__(self):
        self.n_grid = tuple(as_count(n, "n_grid entries") for n in self.n_grid)
        if not self.n_grid or list(self.n_grid) != sorted(self.n_grid):
            raise ArgumentError(f"n_grid must be non-empty and ascending, got {list(self.n_grid)}")
        if quantile_coupled(self):
            _check_lattice_size(self.n_grid[-1])
        self.replicates = as_count(self.replicates, "replicates", 1000)
        self.seed = as_count(self.seed, "seed", 0)
        self.w_reps = as_count(self.w_reps, "w_reps")
        self.testfn = dict(self.testfn)

    @property
    def bound_envelope(self) -> GrowthEnvelope | FnEnvelope:
        """The envelope the plan's bound reads: ``fn_env`` for the fn kinds, else the map's."""
        return self.fn_env if self.bound_kind.startswith("fn") else self.mapspec.envelope

    @property
    def limit(self) -> SimpleNamespace:
        """A quantile-coupled plan's limit by kind, derived from its map and model.

        "normal" carries ``variance`` (t = 1), "scaled-square" ``c`` for c N^2 (t = 2).  This
        read-only view exists for the exact-distance oracle of ``perfbench/workloads.py``
        until the benchmark drops it.  CapabilityError unless ``quantile_coupled``.
        """
        if not quantile_coupled(self):
            raise CapabilityError("a limit by kind exists only for quantile-coupled plans")
        scale, sigma2 = _coupled_scale(self), self.model.p * (1.0 - self.model.p)
        if self.mapspec.t == 1:
            return SimpleNamespace(kind="normal", variance=np.array([[scale * scale * sigma2]]))
        return SimpleNamespace(kind="scaled-square", c=scale * sigma2)

    def moment_table(self, n: int) -> MomentTable:
        """Exact moment table sized for this plan's bound at sample size n."""
        req = required_moment_orders(self.bound_kind, self.mode, n, self.bound_envelope)
        return analytic_moments(
            self.model,
            req.x_orders,
            n,
            w_orders=req.w_orders,
            w_seed=self.seed + 7 * n + 1,
            w_reps=self.w_reps,
        )

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
    """The named built-in with the config's overrides; the plan checks every value."""
    if not isinstance(doc, dict):
        raise ArgumentError(f"a plan config must be an object, got {doc!r}")
    fields = {key: doc[key] for key in PLAN_OVERRIDES if key in doc}
    return builtin(doc.get("builtin"), **doc.get("params", {}), **fields)


# -- map builders -----------------------------------------------------------

def _poly_map_1d(f, fprime0, envelope) -> MapSpec:
    tensor = np.asarray(fprime0, dtype=float).reshape((1,) + (1,) * envelope.t)
    return MapSpec(_last_axis(f), tensor, envelope)


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

    return MapSpec(ev, tensor, envelope)


# -- built-ins --------------------------------------------------------------

def _bernoulli_variance(p: float) -> ExperimentPlan:
    model = centered_bernoulli(p)
    if abs(p - 0.5) > 1e-12:
        env = GrowthEnvelope(t=1, A={1: 2.0, 2: 1.0}, r={1: 1.0, 2: 0.0})
        mapspec = _poly_map_1d(lambda v: (p + v) * (1.0 - p - v), 1.0 - 2.0 * p, env)
        name, mode = "ex3.1-normal", "general"
    else:
        env = GrowthEnvelope(
            t=2,
            A={2: 1.0, 3: 0.0, 4: 0.0},
            r={2: 0.0, 3: 0.0, 4: 0.0},
            even_map=True,
            vanishing_third=True,
        )
        mapspec = _poly_map_1d(lambda v: 0.25 - v * v, -2.0, env)
        name, mode = "ex3.1-chisq", "zero-third"
    return ExperimentPlan(
        name=name,
        builtin="bernoulli-variance",
        params={"p": p},
        model=model,
        mapspec=mapspec,
        n_grid=tuple(2**k for k in range(6, 13)),
        replicates=1_000_000,
        seed=1234,
        testfn={"family": "cosine-wave", "a": [1.0], "phase": 0.7},
        bound_kind="delta-univariate",
        mode=mode,
    )


def _power_mean(p_exp: int, model=None) -> ExperimentPlan:
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
    mapspec = _poly_map_1d(lambda v: v**p, float(math.factorial(p)), env)
    return ExperimentPlan(
        name="ex3.2",
        builtin="power-mean",
        params={"p_exp": p, "model": model_to_spec(model)},
        model=model,
        mapspec=mapspec,
        n_grid=(16, 32, 64, 128),
        replicates=50_000,
        seed=1234,
        testfn={"family": "cosine-wave", "a": [1.0], "phase": 0.7},
        bound_kind="delta-univariate",
        mode="even" if even else "general",
    )


def _product_means(mu1: float, mu2: float, model1=None, model2=None):
    m1 = model_from_spec(model1 or {"kind": "rademacher", "d": 1})
    m2 = model_from_spec(model2 or {"kind": "rademacher", "d": 1})
    if m1.d != 1 or m2.d != 1:
        raise ArgumentError("product-means needs two univariate models")
    model = product_model(m1, m2)
    if abs(mu1) > 1e-12 or abs(mu2) > 1e-12:
        c = max(1.0, abs(mu1), abs(mu2))
        env = GrowthEnvelope(
            t=1, A={1: c, 2: 1.0 / 3.0, 3: 0.0}, r={1: 1.0, 2: 0.0, 3: 0.0}
        )

        def ev(v):
            v = np.asarray(v, dtype=float)
            return ((mu1 + v[..., 0]) * (mu2 + v[..., 1]))[..., None]

        mapspec = MapSpec(ev, np.array([[mu2, mu1]]), env)
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

        mapspec = MapSpec(ev, np.array([[[0.0, 1.0], [1.0, 0.0]]]), env)
        name, mode, grid = "ex3.3-vg", "even", (16, 32, 64, 128)
    return ExperimentPlan(
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
        n_grid=grid,
        replicates=40_000,
        seed=1234,
        testfn={"family": "cosine-wave", "a": [1.0], "phase": 0.7},
        bound_kind="delta-multivariate",
        mode=mode,
    )


def _mean_and_variance(model=None) -> ExperimentPlan:
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

    mapspec = MapSpec(ev, np.eye(2), env)
    return ExperimentPlan(
        name="ex3.4",
        builtin="mean-and-variance",
        params={"model": model_to_spec(base)},
        model=model,
        mapspec=mapspec,
        n_grid=(64, 128, 256),
        replicates=40_000,
        seed=1234,
        testfn={"family": "cosine-wave", "a": [1.0, 1.0], "phase": 0.7},
        bound_kind="delta-multivariate",
        mode="general",
    )


def _rank_plan(name, builtin_name, params, scores, fn_env, mode):
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
    return ExperimentPlan(
        name=name,
        builtin=builtin_name,
        params=params,
        model=model,
        mapspec=mapspec,
        n_grid=(16, 32, 64),
        replicates=20_000,
        seed=1234,
        testfn={"family": "cosine-wave", "a": [1.0], "phase": 0.7},
        bound_kind="fn-multivariate",
        mode=mode,
        fn_env=fn_env,
    )


def _sen_rank(scores, r=None):
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
    )


def _friedman(r: int):
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
    )


def _brown_mood(a: int, r: int):
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
    )


def _pearson(probs):
    probs = tuple(float(p) for p in probs)
    model = multinomial_indicator(probs)
    r = len(probs)
    env = GrowthEnvelope(
        t=2,
        A={2: 2.0, 3: 0.0, 4: 0.0, 5: 0.0, 6: 0.0},
        r={2: 1.0 / 6.0, 3: 0.0, 4: 0.0, 5: 0.0, 6: 0.0},
        even_map=True,
    )
    return ExperimentPlan(
        name="ex3.6-pearson",
        builtin="pearson",
        params={"probs": list(probs)},
        model=model,
        mapspec=_sum_of_squares_map(r, env),
        n_grid=(16, 32, 64),
        replicates=20_000,
        seed=1234,
        testfn={"family": "cosine-wave", "a": [1.0], "phase": 0.7},
        bound_kind="fn-multivariate",
        mode="even",
        fn_env=FnEnvelope(8.0, 64.0, 6.0),
    )


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
    """Build a named experiment plan; accepts builtin or example names.

    Keywords named in ``PLAN_OVERRIDES`` replace the built plan's fields;
    the rest are the builder's parameters, over an example's preset.
    """
    overrides = {key: params.pop(key) for key in PLAN_OVERRIDES if key in params}
    if name in EXAMPLES:
        name, preset = EXAMPLES[name]
        params = {**preset, **params}
    elif name not in _BUILTINS:
        raise ArgumentError(f"unknown builtin {name!r}")
    return replace(_BUILTINS[name](**params), **overrides)


# Each model kind with a config form: its one key besides "kind", and its constructor.
_MODEL_FORMS = {
    "centered-bernoulli": ("p", lambda p: centered_bernoulli(float(p))),
    "rademacher": ("d", rademacher),
    "rank-scores": ("scores", rank_scores),
    "multinomial-indicator": ("probs", multinomial_indicator),
}


def model_to_spec(model: DataModel) -> dict:
    if model.kind not in _MODEL_FORMS:
        raise CapabilityError(f"kind {model.kind!r} has no config form")
    key = _MODEL_FORMS[model.kind][0]
    value = getattr(model, key)
    return {"kind": model.kind, key: list(value) if isinstance(value, tuple) else value}


def model_from_spec(spec: dict) -> DataModel:
    if isinstance(spec, DataModel):
        return spec
    if not isinstance(spec, dict):
        raise ArgumentError(f"a model spec must be an object, got {spec!r}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _MODEL_FORMS:
        raise ArgumentError(f"unknown model kind {kind!r}")
    key, make = _MODEL_FORMS[kind]
    extra = [name for name in spec if name not in ("kind", key)]
    if extra:
        raise ArgumentError(f"a {kind} model reads only {key!r}, got keys {extra}")
    return make(spec[key]) if key in spec else make()


# ---------------------------------------------------------------------------
# Quantile-coupled draws (Bernoulli-backed univariate plans)
# ---------------------------------------------------------------------------

# A lattice peaks at about 100 bytes per count (cdf, guide table, values and
# the log-pmf temporaries): some 100 MiB at the cap.
_MAX_LATTICE_N = 1 << 20


def quantile_coupled(plan: ExperimentPlan) -> bool:
    """Whether ``coupled_lattice`` supports the plan: centred Bernoulli rows, d = 1, t <= 2."""
    return plan.model.kind == "centered-bernoulli" and plan.mapspec.d == 1 and plan.mapspec.t <= 2


def _coupled_scale(plan: ExperimentPlan) -> float:
    """A quantile-coupled plan's limit is this scale times z^t, z ~ N(0, p(1-p))."""
    return float(plan.mapspec.derivative_tensor.flat[0]) / math.factorial(plan.mapspec.t)


def _check_lattice_size(n: int) -> None:
    if n > _MAX_LATTICE_N:
        raise RangeError(f"a coupled lattice takes n <= 2^20 = {_MAX_LATTICE_N}, got n = {n}")


@dataclass(frozen=True)
class CoupledLattice:
    """What every quantile-coupled draw of a plan at sample size n shares.

    The success count of n Bernoulli(p) rows is the binomial quantile of a
    uniform u: s = searchsorted(cdf, u, side="left").  ``index`` finds it
    with a guide table (Chen and Asau 1974) of K = 4(n+1) buckets, u going
    to bucket floor(u*K).  The table buckets the cdf entries with the same
    floating-point map, which is monotone, so every entry in an earlier
    bucket is below u and every entry in a later one above it; no rounding
    of u*K can pick a wrong candidate.  So s is ``guide[b]``, the number of
    entries in buckets below b, plus one if bucket b holds an entry below u.
    The few u in a bucket holding more than one entry (``wide[b]``; only the
    tails of the cdf are that steep) fall back to a binary search.  The
    statistic takes n+1 values, T(s) = ``values[s]``, so a caller evaluates
    a test function on them once.
    """

    p: float
    t: int
    y_scale: float  # the limit draw is y_scale * z (t = 1) or y_scale * z^2 (t = 2)
    cdf: np.ndarray  # Binomial(n, p) cdf at s = 0..n; cdf[n] >= 1
    guide: np.ndarray  # per bucket b = 0..K: the number of cdf entries in buckets below b
    wide: np.ndarray  # per bucket: it holds more than one cdf entry
    values: np.ndarray  # the statistic T(s) for s = 0..n

    def index(self, u: np.ndarray) -> np.ndarray:
        """searchsorted(cdf, u, side="left") for each u in [0, 1)."""
        bucket = (u * (self.guide.size - 1)).astype(np.intp)
        first = self.guide[bucket]  # <= n, as cdf[n] >= 1 lies in bucket K or above
        s = first + (self.cdf[first] < u)
        wide = np.flatnonzero(self.wide[bucket])
        if wide.size:
            s[wide] = np.searchsorted(self.cdf, u[wide], side="left")
        return s


def guide_table(cdf: np.ndarray, buckets: int) -> tuple[np.ndarray, np.ndarray]:
    """(guide, wide) of ``CoupledLattice`` for a nondecreasing cdf and K = ``buckets``.

    Each entry goes to bucket floor(x*K), the map ``CoupledLattice.index``
    applies to u.  As u < 1 gives u*K <= K, the table covers buckets 0..K;
    an entry above bucket K counts as one in bucket K, which can only mark
    bucket K wide.
    """
    in_bucket = (cdf * buckets).astype(np.intp)
    counts = np.bincount(np.minimum(in_bucket, buckets), minlength=buckets + 1)
    return np.cumsum(counts) - counts, counts > 1


def coupled_lattice(plan: ExperimentPlan, n: int) -> CoupledLattice:
    """The plan's quantile-coupling lattice at sample size n: O(n) memory, no cache.

    Supported where ``quantile_coupled(plan)`` holds; RangeError for n > 2^20.
    A coupled plan's grid is checked against the same cap when it is built.
    """
    if not quantile_coupled(plan):
        raise CapabilityError("quantile coupling needs centred-Bernoulli rows, d = 1 and t <= 2")
    n = as_count(n, "n")
    _check_lattice_size(n)
    p = plan.model.p
    s = np.arange(n + 1)
    logpmf = (
        gammaln(n + 1)
        - gammaln(s + 1)
        - gammaln(n - s + 1)
        + s * math.log(p)
        + (n - s) * math.log1p(-p)
    )
    cdf = np.cumsum(np.exp(logpmf))
    cdf[-1] = max(cdf[-1], 1.0)  # every u < 1 maps to a count <= n
    guide, wide = guide_table(cdf, 4 * (n + 1))
    values = evaluate_statistic(plan.mapspec, (s / n - p)[:, None], n)[:, 0]
    arrays = (cdf, guide, wide, values)
    for a in arrays:
        a.flags.writeable = False
    return CoupledLattice(p, plan.mapspec.t, _coupled_scale(plan), *arrays)


def coupled_batch(lattice: CoupledLattice, count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Quantile-coupled (lattice index, limit) pairs sharing one uniform draw.

    The statistic of pair i is ``lattice.values[s[i]]``.  The coupling
    shrinks the variance of the paired difference without touching either
    marginal law.
    """
    u = rng.random(count)
    s = lattice.index(u)
    u = np.clip(u, 1e-300, 1.0 - 2.0**-53)  # keep the normal quantile finite
    z = math.sqrt(lattice.p * (1.0 - lattice.p)) * ndtri(u)
    y = lattice.y_scale * z
    if lattice.t == 2:
        y *= z
    return s, y


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
