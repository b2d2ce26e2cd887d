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

import cmath
import json
import math
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import gammaln, ndtri, wofz

from .bounds import FnEnvelope, GrowthEnvelope, required_moment_orders
from .errors import ArgumentError, CapabilityError, DomainError, RangeError, as_count
from .moments import (
    LATTICE_MAX_N,
    DataModel,
    MomentTable,
    analytic_moments,
    atom_model,
    binomial_logpmf,
    centered_bernoulli,
    model_covariance,
    multinomial_indicator,
    product_model,
    rademacher,
    rank_scores,
    sample_mean_batch,
)


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
        if not isinstance(tensor, np.ndarray):
            raise ArgumentError(f"derivative tensor must be an ndarray, not {type(tensor).__name__}")
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
    w_reps: int | None = None  # None: exact W moments; a count opts in to Monte Carlo

    def __post_init__(self):
        self.n_grid = tuple(as_count(n, "n_grid entries") for n in self.n_grid)
        if not self.n_grid or list(self.n_grid) != sorted(self.n_grid):
            raise ArgumentError(f"n_grid must be non-empty and ascending, got {list(self.n_grid)}")
        self.replicates = as_count(self.replicates, "replicates", 1000)
        self.seed = as_count(self.seed, "seed", 0)
        if self.w_reps is not None:
            self.w_reps = as_count(self.w_reps, "w_reps")
        self.testfn = dict(self.testfn)

    @property
    def bound_envelope(self) -> GrowthEnvelope | FnEnvelope:
        """The envelope the plan's bound reads: ``fn_env`` for the fn kinds, else the map's."""
        return self.fn_env if self.bound_kind.startswith("fn") else self.mapspec.envelope

    @property
    def limit(self) -> SimpleNamespace:
        """A Bernoulli plan's limit by kind, derived from its map and model.

        "normal" carries ``variance`` (t = 1), "scaled-square" ``c`` for c N^2 (t = 2).  This
        read-only view exists for the exact-distance oracle of ``perfbench/workloads.py``
        until the benchmark drops it.  CapabilityError unless the rows are centred
        Bernoulli, d = 1 and t <= 2, whatever ``quantile_coupled`` says.
        """
        if self.model.kind != "centered-bernoulli" or self.mapspec.d != 1 or self.mapspec.t > 2:
            raise CapabilityError("a limit by kind exists only for centred-Bernoulli plans")
        scale, sigma2 = _coupled_scale(self), self.model.p * (1.0 - self.model.p)
        if self.mapspec.t == 1:
            return SimpleNamespace(kind="normal", variance=np.array([[scale * scale * sigma2]]))
        return SimpleNamespace(kind="scaled-square", c=scale * sigma2)

    def moment_table(self, n: int) -> MomentTable:
        """Moment table sized for this plan's bound at sample size n.

        The W entries are Monte Carlo only when ``w_reps`` is set, seeded per n.
        """
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
        config = {
            "builtin": self.builtin,
            "params": self.params,
            "n_grid": list(self.n_grid),
            "replicates": self.replicates,
            "seed": self.seed,
            "testfn": self.testfn,
        }
        if self.w_reps is not None:
            config["w_reps"] = self.w_reps
        return config

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
    value = model.atom_probs if key == "probs" else getattr(model, key)
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
# Quantile-coupled draws (finite-atom plans with t <= 2)
# ---------------------------------------------------------------------------

# A count law's cdf tables hold at most this many floats: the n + 1 entries of
# the first step's binomial cdf, and for K >= 3 atoms K - 2 triangular tables
# of (n + 1)(n + 2)/2.  With K = 2 it is the binomial lattice's n <= 2^20.
COUPLED_MAX_FLOATS = LATTICE_MAX_N + 1
# Models with more distinct atoms than this stay one-sided: each atom past the
# second costs one conditional-binomial step per pair, and at Friedman r = 4
# (24 atoms) the coupled route already lost on time x SE^2.
COUPLED_MAX_ATOMS = 8


def merged_atoms(model: DataModel) -> tuple[np.ndarray, np.ndarray] | None:
    """The model's distinct atoms with positive probability, or None without an atom table.

    Duplicate rows merge into their first appearance, adding their
    probabilities, so Brown-Mood at r = 3 has 3 atoms, not 3! = 6.
    """
    atoms = model.atoms()
    if atoms is None:
        return None
    mass: dict[tuple, float] = {}
    for p, row in zip(*atoms):
        if p > 0.0:
            mass[tuple(row)] = mass.get(tuple(row), 0.0) + p
    return np.array(list(mass.values())), np.array(list(mass))


def _law_floats(k: int, n: int) -> int:
    """Floats in the cdf tables of a count law with k atoms at sample size n."""
    return (n + 1) + (k - 2) * ((n + 1) * (n + 2) // 2)


def quantile_coupled(plan: ExperimentPlan, n: int) -> bool:
    """Whether the plan's draws at sample size n are quantile-coupled.

    They are when the model has an atom table with 2 to ``COUPLED_MAX_ATOMS``
    distinct atoms, the map has t <= 2 and the count law's tables at n fit
    ``COUPLED_MAX_FLOATS``.  Every other (plan, n) is one-sided.
    """
    atoms = merged_atoms(plan.model)
    if atoms is None or plan.mapspec.t > 2:
        return False
    k = len(atoms[0])
    return 2 <= k <= COUPLED_MAX_ATOMS and _law_floats(k, n) <= COUPLED_MAX_FLOATS


def _coupled_scale(plan: ExperimentPlan) -> float:
    """A Bernoulli plan's limit is this scale times z^t, z ~ N(0, p(1-p))."""
    return float(plan.mapspec.derivative_tensor.flat[0]) / math.factorial(plan.mapspec.t)


@dataclass(frozen=True)
class ConditionalCdf:
    """Binomial(m, q) cdfs for every remaining count m = 0..n, stored triangular.

    Row m is ``cdf[m(m+1)/2 :][: m + 1]``, its last entry raised to 1.  Row m
    splits [0, 1] into m + 1 buckets, and ``guide[m(m+5)/2 + b]`` for
    b = 0..m+2 is the position in ``cdf`` of the row's first entry whose
    bucket floor(c (m + 1)) is b or more (see ``conditional_index``).
    """

    cdf: np.ndarray
    guide: np.ndarray


def _conditional_cdfs(n: int, qs: np.ndarray) -> tuple[ConditionalCdf, ...]:
    """The Binomial(m, q) cdf rows for m = 0..n, one table per q, all built at once.

    Row m's log-pmf at j is log m! + m log(1-q) + j log(q/(1-q)) - log j!
    - log (m-j)!; the last term is a sliding window over -log k!, padded
    with -inf so that the entries past j = m vanish before the cumsum.  Rows
    go 32 at a time, over the columns they need.
    """
    if not len(qs):
        return ()
    j = np.arange(n + 1)
    log_fact = gammaln(j + 1.0)
    qs = np.asarray(qs)[:, None]
    by_row = log_fact + j * np.log1p(-qs)
    by_col = j * (np.log(qs) - np.log1p(-qs)) - log_fact
    # window n - m of the padded sequence is -log (m - j)! at j = 0..n
    by_diff = sliding_window_view(np.concatenate([-log_fact[::-1], np.full(n, -np.inf)]), n + 1)
    start = j * (j + 1) // 2
    cdf = np.empty((len(qs), start[-1] + n + 1))
    for lo in range(0, n + 1, 32):
        hi = min(n + 1, lo + 32)
        m = j[lo:hi, None]
        rows = by_diff[n - m[:, 0], :hi] + by_row[:, m]
        rows += by_col[:, None, :hi]
        np.exp(rows, out=rows)
        np.cumsum(rows, axis=2, out=rows)
        triangle = np.flatnonzero(j[:hi] <= m)  # entries j <= m, row by row
        cdf[:, start[lo] : start[hi - 1] + hi] = np.take(rows.reshape(len(qs), -1), triangle, axis=1)
    ends = start + j
    cdf[:, ends] = np.maximum(cdf[:, ends], 1.0)  # every u <= 1 maps to a count <= m
    # guide[m(m+5)/2 + b] is row m's start plus its entries in buckets below b:
    # count each entry at its bucket + 1, then sum along each table's guide
    rows_of = np.repeat(j, j + 1)
    size = (n + 1) * (n + 6) // 2
    slot = np.floor(cdf * (rows_of + 1)).astype(np.intp)
    slot += ((rows_of * (rows_of + 5)) >> 1) + 1
    slot += size * np.arange(len(qs))[:, None]
    guide = np.bincount(slot.ravel(), minlength=slot.shape[0] * size).reshape(-1, size)
    guide = np.cumsum(guide, axis=1, dtype=np.int32)
    for a in (cdf, guide):
        a.flags.writeable = False
    return tuple(map(ConditionalCdf, cdf, guide))


def conditional_index(table: ConditionalCdf, rem: np.ndarray, u: np.ndarray) -> np.ndarray:
    """searchsorted(row rem of ``table``, u, side="left") for each pair, exactly.

    Entries of the row in buckets below u's bucket b = floor(u (rem + 1))
    lie below u, and entries in buckets above lie above it, as rounding is
    monotone; so the answer lies between guide[b] and guide[b + 1].  Most
    buckets hold at most one entry and one comparison settles them; the few
    pairs in wider buckets (the binomial tails) are bisected.
    """
    gpos = (rem * (rem + 5)) >> 1
    gpos += (u * (rem + 1)).astype(np.intp)
    pos = table.guide[gpos]
    hi = table.guide[gpos + 1]
    wide = np.flatnonzero(hi - pos > 1)
    lo, hi, uw = pos[wide], hi[wide], u[wide]
    pos += table.cdf[pos] < u
    if wide.size:
        for _ in range(int((hi - lo).max()).bit_length()):
            mid = (lo + hi) >> 1
            below = table.cdf[mid] < uw
            lo = np.where(below, mid + 1, lo)
            hi = np.where(below, hi, mid)
        pos[wide] = lo
    pos -= (rem * (rem + 1)) >> 1
    return pos


@dataclass(frozen=True)
class CountLaw:
    """What every quantile-coupled draw of a plan at sample size n shares.

    The counts of the K distinct atoms (``merged_atoms``) of n rows are drawn
    by stick-breaking: step k = 1..K-1 draws the count of atom k as a
    Binomial(remaining rows, q_k), q_k = p_k / P_k with P_k the probability
    of atoms k..K, by inverting a uniform, and the last atom takes the rows
    left.  Step 1 reads ``cdf``, the Binomial(n, q_1) cdf; step k >= 2 reads
    ``steps[k - 2]``, one cdf row per remaining count.  The limit's Gaussian
    counts G_k are the matching conditional normals of the same uniforms:
    G_k = -q_k (G_1 + ... + G_{k-1}) + ``sd[k-1]`` ndtri(u_k), with
    sd_k^2 = P_k q_k (1 - q_k), and G_K = -(G_1 + ... + G_{K-1}).  This is a
    stick-breaking factor of diag(p) - p p^T, so both marginals are exact.

    The limit is the map's order-t form at Z = sum_k G_k a_k = D^T G, with D
    the rows a_k - a_K for k < K.  ``form`` holds it in G:
    A = L D^T for t = 1, so Y = A G, and Q_j = D L_j D^T for t = 2, so
    Y_j = G^T Q_j G, with L the derivative tensor over t!.

    With K = 2 atoms T takes n + 1 values, one per count s of the first
    atom, and ``values[s]`` holds them, so a caller evaluates a test
    function on them once; this is the binomial lattice of a centred
    Bernoulli plan, drawn as before.  With K >= 3, ``statistic`` maps each
    pair's counts to T.
    """

    n: int
    q: np.ndarray  # q_k for the K - 1 steps
    sd: np.ndarray  # sqrt(P_k q_k (1 - q_k)) for the K - 1 steps
    cdf: np.ndarray  # Binomial(n, q_1) cdf at s = 0..n; cdf[n] >= 1
    steps: tuple[ConditionalCdf, ...]  # steps 2..K-1
    atoms: np.ndarray  # (K, d) distinct atom rows
    form: np.ndarray  # (m, K - 1) for t = 1, (m, K - 1, K - 1) for t = 2
    mapspec: MapSpec
    values: np.ndarray | None  # K = 2: T(s) for s = 0..n, shape (n + 1, m); else None

    def statistic(self, counts: np.ndarray) -> np.ndarray:
        """T at the (K - 1, count) counts of the first K - 1 atoms, shape (count, m)."""
        return _count_statistic(self.mapspec, self.atoms, self.n, counts)

    def limit(self, gauss: np.ndarray) -> np.ndarray:
        """Y at the (K - 1, count) Gaussian counts, shape (count, m)."""
        if len(gauss) == 1:  # K = 2: each form is one number, A G or Q G G
            y = self.form.reshape(-1, 1) * gauss
            if self.form.ndim == 3:
                y *= gauss
            return y.T
        if self.form.ndim == 2:
            return (self.form @ gauss).T
        y = np.empty((len(self.form), gauss.shape[1]))
        for j, form in enumerate(self.form):
            w = form @ gauss
            w *= gauss
            w.sum(axis=0, out=y[j])
        return y.T


def _count_statistic(mapspec: MapSpec, atoms: np.ndarray, n: int, counts: np.ndarray) -> np.ndarray:
    """T at the (K - 1, count) counts of the first K - 1 atoms: the mean row is
    sum_k (c_k / n)(a_k - a_K) + a_K."""
    mean = (counts.T / n) @ (atoms[:-1] - atoms[-1])
    mean += atoms[-1]
    return evaluate_statistic(mapspec, mean, n)


def _check_law_size(k: int, n: int) -> None:
    # Building a law peaks at 40 to 48 bytes per table float (the cdf, the
    # guide, T's values for K = 2 and one step's int64 temporaries), some 48 MiB at
    # the cap; the law keeps 12 to 16 of them.
    if _law_floats(k, n) > COUPLED_MAX_FLOATS:
        raise RangeError(
            f"a {k}-atom count law at n = {n} needs {_law_floats(k, n)} table floats, "
            f"above the cap of {COUPLED_MAX_FLOATS}"
        )


def merge_index(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """searchsorted(cdf, u, side="left") for a nonempty, nondecreasing u, as a merge.

    s counts the cdf entries below u.  Entries below u[0] count for every
    u and entries from u[-1] up for none; each entry x in between counts
    for the u from searchsorted(u, x, side="right") on.  So the work and
    memory grow with the entries in [u[0], u[-1]), not with the whole cdf.
    """
    lo, hi = cdf.searchsorted((u[0], u[-1]))
    first = np.empty(hi - lo + 2, dtype=np.intp)
    first[0], first[-1] = 0, u.size
    first[1:-1] = u.searchsorted(cdf[lo:hi], side="right")  # the first u above each entry
    return np.arange(lo, hi + 1).repeat(first[1:] - first[:-1])


def count_law(plan: ExperimentPlan, n: int) -> CountLaw:
    """The plan's count law at sample size n: its tables, built once, no cache.

    CapabilityError unless the model has 2 to ``COUPLED_MAX_ATOMS`` distinct
    atoms and t <= 2; RangeError, before allocating, when the tables would
    pass ``COUPLED_MAX_FLOATS``.
    """
    if not quantile_coupled(plan, 1):  # every law fits at n = 1
        raise CapabilityError(
            f"quantile coupling needs 2 to {COUPLED_MAX_ATOMS} distinct atoms and t <= 2"
        )
    n = as_count(n, "n")
    probs, rows = merged_atoms(plan.model)
    k = len(probs)
    _check_law_size(k, n)
    mass = np.concatenate([[1.0], np.cumsum(probs[::-1])[::-1][1:]])  # P_k, P_1 = 1
    q = probs[:-1] / mass[:-1]
    sd = np.sqrt(mass[:-1] * q * (1.0 - q))
    cdf = np.cumsum(np.exp(binomial_logpmf(n, float(q[0]))))
    cdf[-1] = max(cdf[-1], 1.0)  # every u <= 1 maps to a count <= n
    mapspec, values = plan.mapspec, None
    if k == 2:
        values = _count_statistic(mapspec, rows, n, np.arange(n + 1)[None, :])
        values.flags.writeable = False
    cdf.flags.writeable = False
    diffs = rows[:-1] - rows[-1]
    tensor = mapspec.derivative_tensor / math.factorial(mapspec.t)
    form = tensor @ diffs.T if mapspec.t == 1 else diffs @ tensor @ diffs.T
    steps = _conditional_cdfs(n, q[1:])
    return CountLaw(n, q, sd, cdf, steps, rows, form, mapspec, values)


def coupled_batch(
    law: CountLaw, count: int, rng, strata: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Quantile-coupled (counts, limit) pairs, the first step two to each drawn stratum.

    ``count`` must be even.  Step 1: [0, 1) is split into k = count/2
    strata of width 1/k, and each stratum j of ``strata`` (ascending; all k
    by default) draws two uniforms u = (j + U)/k, written smaller first, so
    the drawn u are sorted and the first atom's Binomial(n, q_1) quantile
    is a merge (``merge_index``).  Each later step draws one fresh uniform
    per pair, as one (K - 2, pairs) array after the strata, and inverts the
    Binomial(remaining, q_k) cdf row exactly (``conditional_index``).  The
    Gaussian counts take the normal quantiles of the same uniforms (see
    ``CountLaw``).

    Returns the counts of the first K - 1 atoms, shape (K - 1, pairs), and
    the limit draws, shape (pairs, m), with pairs = 2 len(strata).  The
    coupling shrinks the variance of each paired difference, the strata
    shrink that of their mean, and neither touches a marginal law.  Pairs
    2i and 2i+1 share the i-th drawn stratum, so for a function f of the
    pairs, f[0::2] - f[1::2] estimates the spread within strata.
    """
    count = as_count(count, "count", 2)
    if count % 2:
        raise ArgumentError(f"coupled draws come two to a stratum, got an odd count {count}")
    k = count // 2
    j = np.arange(k, dtype=float) if strata is None else np.asarray(strata, dtype=float)
    gauss = _stratum_uniforms(rng.random((j.size, 2)), j, k, len(law.q))
    counts = np.empty(gauss.shape, dtype=np.intp)
    counts[0] = merge_index(law.cdf, gauss[0])
    if law.steps:
        rng.random(out=gauss[1:])
        rem = law.n - counts[0]
        for i, table in enumerate(law.steps, start=1):
            counts[i] = conditional_index(table, rem, gauss[i])
            rem -= counts[i]
    return counts, _coupled_limit(law, gauss)


def coupled_blocks(
    law: CountLaw, count: int, draws: np.ndarray, strata: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``coupled_batch`` of a two-atom law for several blocks of ``count`` pairs at once.

    ``draws`` holds each block's uniforms for the same ``strata``, shape
    (blocks, len(strata), 2), in the order ``coupled_batch`` draws them
    from a generator.  The arithmetic is ``coupled_batch``'s, on all blocks
    in one pass, so each block's pairs are bitwise the same.  The first
    atom's count of a u is searchsorted(cdf, u), which is what
    ``merge_index`` returns for each block's sorted u: stratum j's u lie
    between the counts low and high of its edges (``jump_strata``), so
    where the stratum holds at most one cdf entry, cdf[low], the count is
    low + (cdf[low] < u), and only the u of wider strata are searched.
    Returns the counts, shape (blocks * pairs,), and the limit draws, shape
    (blocks * pairs, m), block after block.
    """
    if law.values is None:
        raise CapabilityError("coupled blocks need a two-atom law")
    j, k = np.asarray(strata, dtype=float), count // 2
    gauss = _stratum_uniforms(draws, j, k, 1)
    u = gauss[0].reshape(draws.shape)
    low, high = _edge_counts(law, j, k)
    counts = low[:, None] + (law.cdf[low][:, None] < u)
    wide = np.flatnonzero(high - low > 1)
    if wide.size:
        counts[:, wide] = law.cdf.searchsorted(u[:, wide])
    return counts.reshape(-1), _coupled_limit(law, gauss)


def _stratum_uniforms(draws: np.ndarray, j: np.ndarray, k: int, steps: int) -> np.ndarray:
    """A (steps, draws.size) array whose first row holds the stratified u of ``draws``.

    Stratum j's two uniforms U become u = (j + U)/k, written smaller first;
    rounding is monotone, so each block's u stay sorted, and a u may round
    up to 1.  The other rows are left for the later steps' uniforms.
    """
    gauss = np.empty((steps, draws.size))
    u = gauss[0].reshape(draws.shape)
    np.add(np.minimum(draws[..., 0], draws[..., 1]), j, out=u[..., 0])
    np.add(np.maximum(draws[..., 0], draws[..., 1]), j, out=u[..., 1])
    gauss[0] /= k
    return gauss


def _coupled_limit(law: CountLaw, gauss: np.ndarray) -> np.ndarray:
    """The limit draws at the uniforms ``gauss``, one row per step.

    The uniforms become the Gaussian counts in place (see ``CountLaw``).
    """
    # keep the normal quantiles finite: a clip to [1e-300, 1 - 2^-53]
    np.minimum(np.maximum(gauss, 1e-300, out=gauss), 1.0 - 2.0**-53, out=gauss)
    ndtri(gauss, out=gauss)
    gauss *= law.sd[:, None]
    if law.steps:
        total = gauss[0].copy()
        for i in range(1, len(law.q)):
            gauss[i] -= law.q[i] * total
            total += gauss[i]
    return law.limit(gauss)


def jump_strata(law: CountLaw, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(strata, s): the strata of a block of ``count`` pairs where the first
    count can change, ascending, and the count s[j] at each stratum j's
    lower edge.

    ``coupled_batch`` computes stratum j's draws as (U + j)/k with U in
    [0, 1 - 2^-53], and rounding is monotone, so they lie between the float
    values j/k and (j + (1 - 2^-53))/k.  The count is searchsorted(cdf, u),
    so where both ends give the same count every draw of the stratum takes
    it; the other strata are listed.
    """
    count = as_count(count, "count", 2)
    k = count // 2
    low, high = _edge_counts(law, np.arange(k, dtype=float), k)
    return np.flatnonzero(low != high), low


def _edge_counts(law: CountLaw, j: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """searchsorted(cdf, u) at the lowest and highest draw u of each stratum j of k."""
    return law.cdf.searchsorted(j / k), law.cdf.searchsorted((j + (1.0 - 2.0**-53)) / k)


# partial_cf clips interval edges here: the normal mass beyond is below 1e-340,
# under the smallest double.
_EDGE_MAX = 40.0


def partial_cf(law: CountLaw, lo, hi) -> Callable[[np.ndarray], complex]:
    """b -> E[exp(i<b, Y>); G in [lo_i, hi_i) for some i] for a two-atom law.

    Y = form (sd G)^t with G standard normal (``CountLaw``), so
    <b, Y> = c G^t with c = <b, form> sd^t, and each interval adds
    int e^{i c z^t} phi(z) dz.  With Phi the normal cdf, continued to
    complex arguments, that is e^{-c^2/2} [Phi(z - ic)] from lo to hi for
    t = 1, and [Phi(sqrt(a) z)] / sqrt(a) with a = 1 - 2ic for t = 2.
    Each edge x <= 0 enters as its lower tail, the integral from -inf to x:
    1/2 e^{-x^2/2 + i c x} w((-c - ix)/sqrt(2)) for t = 1 and
    1/2 e^{-a x^2/2} w(-i sqrt(a) x/sqrt(2)) / sqrt(a) for t = 2, with the
    Faddeeva function w at an argument in the closed upper half-plane,
    where |w| <= 1, so nothing overflows for any c or edge.  An edge
    x > 0 enters as the whole integral less its upper tail, which is the
    lower tail at -x, with c negated for t = 1 (phi is even).  Edges may
    be infinite.
    """
    if law.values is None:
        raise CapabilityError("a partial characteristic function needs a two-atom law")
    t = law.mapspec.t
    form = law.form.reshape(-1) * law.sd[0] ** t
    edges = np.clip(np.concatenate([hi, lo]).astype(float), -_EDGE_MAX, _EDGE_MAX)
    sign = np.repeat([1.0, -1.0], [len(hi), len(lo)])
    upper = edges > 0.0
    x = -np.abs(edges)
    decay = -0.5 * x * x
    shifts = int(sign[upper].sum())  # mirrored edges: total - tail

    def cf(b):
        c = float(np.asarray(b, dtype=float) @ form)
        if t == 1:
            total = math.exp(-0.5 * c * c)
            cx = np.where(upper, -c, c)  # the mirror flips the sign of c
            tail = np.exp(decay + 1j * x * cx) * wofz((-cx - 1j * x) / math.sqrt(2.0))
        else:
            root = cmath.sqrt(1.0 - 2j * c)
            total = 1.0 / root
            tail = np.exp(decay + 1j * c * x * x) * wofz(-1j * root * x / math.sqrt(2.0)) / root
        tail *= 0.5 * np.where(upper, -sign, sign)
        return complex(shifts * total + tail.sum())

    return cf

