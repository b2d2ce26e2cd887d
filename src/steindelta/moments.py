"""Data models and their moment tables.

A :class:`DataModel` describes one row distribution (observations are
iid copies of it).  :class:`MomentTable` collects everything the bound
formulas consume: per-coordinate absolute moments of fractional order,
signed mixed third moments, the covariance of the normalised sum W, and
upper bounds or Monte Carlo estimates of E|W_k|^r with a provenance tag.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import permutations, product
from typing import Callable

import numpy as np

from . import rngstreams
from .errors import (
    ArgumentError,
    CapabilityError,
    DomainError,
    MissingMomentsError,
)

ORDER_DECIMALS = 12  # moment orders are real-valued keys with 1e-12 tolerance
PSD_CLAMP = 1e-10  # eigenvalues above -PSD_CLAMP * trace are clamped to 0
DEFAULT_W_REPS = 100_000

HOLDER = "holder-bound"
MONTE_CARLO = "monte-carlo"
USER = "user"


def order_key(s: float) -> float:
    return round(float(s), ORDER_DECIMALS)


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DataModel:
    """One observation's distribution.

    ``atoms`` (probabilities + support rows) are set whenever the law has
    finite support; they drive both exact moments and fast multinomial
    sampling of the mean.  ``sampler`` is only used for the user-supplied
    kind.
    """

    kind: str
    d: int
    iid_rows: bool = True
    p: float | None = None
    probs: tuple[float, ...] | None = None
    scores: tuple[float, ...] | None = None
    sampler: Callable | None = None
    atom_probs: tuple[float, ...] | None = None
    atom_values: tuple[tuple[float, ...], ...] | None = None

    def atoms(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(probabilities, support rows) for finite-support models."""
        if self.atom_probs is not None:
            return (
                np.asarray(self.atom_probs, dtype=float),
                np.asarray(self.atom_values, dtype=float),
            )
        return None

    def standardized_scores(self) -> np.ndarray:
        if self.scores is None:
            raise CapabilityError("model carries no rank scores")
        j = np.asarray(self.scores, dtype=float)
        jbar = j.mean()
        sj2 = ((j - jbar) ** 2).sum() / (len(j) - 1)
        if sj2 <= 0:
            raise ArgumentError("rank scores must not be constant")
        return (j - jbar) / math.sqrt(sj2)


def centered_bernoulli(p: float) -> DataModel:
    if not 0.0 < p < 1.0:
        raise ArgumentError(f"p must be in (0,1), got {p}")
    return DataModel(
        kind="centered-bernoulli",
        d=1,
        p=p,
        atom_probs=(p, 1.0 - p),
        atom_values=((1.0 - p,), (-p,)),
    )


def rademacher(d: int = 1) -> DataModel:
    if d < 1 or d > 10:
        raise ArgumentError(f"rademacher dimension must be in 1..10, got {d}")
    values = tuple(product((-1.0, 1.0), repeat=d))
    probs = (1.0 / len(values),) * len(values)
    return DataModel(kind="rademacher", d=d, atom_probs=probs, atom_values=values)


def rank_scores(scores) -> DataModel:
    scores = tuple(float(s) for s in scores)
    r = len(scores)
    if r < 2:
        raise ArgumentError("need at least 2 treatments")
    model = DataModel(kind="rank-scores", d=r, scores=scores)
    if r <= 6:
        x = model.standardized_scores()
        values = tuple(tuple(x[list(perm)]) for perm in permutations(range(r)))
        probs = (1.0 / math.factorial(r),) * math.factorial(r)
        model = DataModel(
            kind="rank-scores",
            d=r,
            scores=scores,
            atom_probs=probs,
            atom_values=values,
        )
    return model


def multinomial_indicator(probs) -> DataModel:
    probs = tuple(float(p) for p in probs)
    if any(p <= 0 for p in probs):
        raise ArgumentError("classification probabilities must be positive")
    if abs(sum(probs) - 1.0) > 1e-12:
        raise ArgumentError(f"probabilities must sum to 1, got {sum(probs)}")
    r = len(probs)
    rows = []
    for c in range(r):
        rows.append(
            tuple(((1.0 if j == c else 0.0) - probs[j]) / math.sqrt(probs[j]) for j in range(r))
        )
    return DataModel(
        kind="multinomial-indicator",
        d=r,
        probs=probs,
        atom_probs=probs,
        atom_values=tuple(rows),
    )


def user_sampler(sampler: Callable, d: int) -> DataModel:
    return DataModel(kind="user-sampler", d=d, sampler=sampler)


def atom_model(probs, values) -> DataModel:
    """Finite-support model given explicitly by its zero-mean atoms."""
    probs = tuple(float(p) for p in probs)
    values = tuple(tuple(float(v) for v in row) for row in values)
    if abs(sum(probs) - 1.0) > 1e-12 or any(p < 0 for p in probs):
        raise ArgumentError("atom probabilities must be non-negative and sum to 1")
    d = len(values[0])
    if any(len(row) != d for row in values):
        raise ArgumentError("atom rows must share one dimension")
    mean = [sum(p * row[j] for p, row in zip(probs, values)) for j in range(d)]
    if any(abs(mu) > 1e-9 for mu in mean):
        raise ArgumentError(f"atoms must have zero mean, got {mean}")
    return DataModel(
        kind="finite-atoms", d=d, atom_probs=probs, atom_values=values
    )


def product_model(*models: DataModel) -> DataModel:
    """Independent product of finite-support univariate-or-larger models."""
    parts = []
    for m in models:
        a = m.atoms()
        if a is None:
            raise CapabilityError("product_model needs finite-support components")
        parts.append(a)
    probs = [1.0]
    rows = [()]
    for p_part, v_part in parts:
        probs = [q * float(p) for q in probs for p in p_part]
        rows = [row + tuple(v) for row in rows for v in v_part]
    return atom_model(probs, rows)


# ---------------------------------------------------------------------------
# Row sampling
# ---------------------------------------------------------------------------

def sample_rows(model: DataModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n iid observation rows, shape (n, d)."""
    if n < 1:
        raise ArgumentError(f"need n >= 1, got {n}")
    atoms = model.atoms()
    if atoms is not None:
        probs, values = atoms
        idx = rng.choice(len(probs), size=n, p=probs)
        return values[idx]
    if model.kind == "rank-scores":
        x = model.standardized_scores()
        base = np.tile(x, (n, 1))
        return rng.permuted(base, axis=1)
    if model.kind == "user-sampler" and model.sampler is not None:
        out = np.asarray(model.sampler(n, rng), dtype=float)
        if out.shape != (n, model.d):
            raise ArgumentError(f"user sampler returned shape {out.shape}")
        return out
    raise CapabilityError(f"cannot sample model kind {model.kind!r}")


def sample_mean_batch(
    model: DataModel, n: int, reps: int, rng: np.random.Generator
) -> np.ndarray:
    """reps draws of the sample mean of n rows, shape (reps, d).

    Finite-support models use one multinomial draw over their atoms per
    replicate, which is exact and avoids materialising n rows.
    """
    atoms = model.atoms()
    if atoms is not None:
        probs, values = atoms
        counts = rng.multinomial(n, probs, size=reps)
        return counts @ values / n
    if model.kind == "rank-scores":
        x = model.standardized_scores()
        base = np.tile(x, (reps * n, 1))
        rows = rng.permuted(base, axis=1).reshape(reps, n, model.d)
        return rows.mean(axis=1)
    out = np.empty((reps, model.d))
    for i in range(reps):
        out[i] = sample_rows(model, n, rng).mean(axis=0)
    return out


# ---------------------------------------------------------------------------
# Moment table
# ---------------------------------------------------------------------------

@dataclass
class WEntry:
    value: float
    provenance: str
    std_error: float | None = None


@dataclass
class MomentTable:
    """Moment inputs for the bound formulas (iid rows).

    ``abs_moments[(j, s)]`` is E|X_{1j}|^s; theorem sums over i multiply
    by ``n``.  ``mixed_third`` is keyed by sorted (j, k, l).
    """

    n: int
    d: int
    sigma: np.ndarray
    abs_moments: dict[tuple[int, float], float] = field(default_factory=dict)
    mixed_third: dict[tuple[int, int, int], float] | None = None
    w_abs_moments: dict[tuple[int, float], WEntry] = field(default_factory=dict)
    abs_moment_ses: dict[tuple[int, float], float] = field(default_factory=dict)
    source: str = "analytic"

    def abs_moment(self, j: int, s: float) -> float:
        key = (j, order_key(s))
        if key not in self.abs_moments:
            raise MissingMomentsError([key])
        return self.abs_moments[key]

    def has_abs_moment(self, j: int, s: float) -> bool:
        return (j, order_key(s)) in self.abs_moments

    def third(self, j: int, k: int, l: int) -> float:
        if self.mixed_third is None:
            raise MissingMomentsError([(j, k, l)])
        return self.mixed_third[tuple(sorted((j, k, l)))]

    def w_abs_moment(self, k: int, r: float) -> WEntry:
        key = (k, order_key(r))
        if key not in self.w_abs_moments:
            raise MissingMomentsError([key])
        return self.w_abs_moments[key]

    def set_user_w_moment(self, k: int, r: float, value: float) -> None:
        """Attach a caller-supplied E|W_k|^r value (provenance 'user')."""
        if value < 0:
            raise DomainError("absolute moments are non-negative")
        self.w_abs_moments[(k, order_key(r))] = WEntry(float(value), USER)

    def has_w_moment(self, k: int, r: float) -> bool:
        return (k, order_key(r)) in self.w_abs_moments

    def sigma_j(self, j: int) -> float:
        return math.sqrt(max(self.sigma[j, j], 0.0))

    def max_abs_third(self) -> float:
        if self.mixed_third is None:
            raise MissingMomentsError(["mixed-third"])
        return max(abs(v) for v in self.mixed_third.values())

    def any_mc_w(self) -> bool:
        return any(e.provenance == MONTE_CARLO for e in self.w_abs_moments.values())

    def validate(self) -> None:
        """Check symmetry/PSD of sigma and Lyapunov ordering of moments."""
        if not np.allclose(self.sigma, self.sigma.T, atol=1e-12):
            raise DomainError("covariance must be symmetric")
        enforce_psd(self.sigma)
        by_coord: dict[int, list[tuple[float, float]]] = {}
        for (j, s), v in self.abs_moments.items():
            by_coord.setdefault(j, []).append((s, v))
        for j, entries in by_coord.items():
            entries.sort()
            for (a, va), (b, vb) in zip(entries, entries[1:]):
                if a <= 0 or va == 0.0:
                    continue
                if va > vb ** (a / b) * (1 + 1e-9) + 1e-15:
                    raise DomainError(
                        f"Lyapunov violation at coord {j}: "
                        f"E|X|^{a}={va} vs (E|X|^{b})^{{{a}/{b}}}"
                    )

    # -- canonical JSON ----------------------------------------------------

    def to_json(self) -> str:
        def fmt(x: float) -> str:
            return format(float(x), ".17g")

        doc = {
            "n": self.n,
            "d": self.d,
            "source": self.source,
            "sigma": [[fmt(v) for v in row] for row in self.sigma.tolist()],
            "abs_moments": {
                f"{j}:{fmt(s)}": fmt(v) for (j, s), v in self.abs_moments.items()
            },
            "mixed_third": None
            if self.mixed_third is None
            else {f"{j},{k},{l}": fmt(v) for (j, k, l), v in self.mixed_third.items()},
            "w_abs_moments": {
                f"{k}:{fmt(r)}": {
                    "value": fmt(e.value),
                    "provenance": e.provenance,
                    "std_error": None if e.std_error is None else fmt(e.std_error),
                }
                for (k, r), e in self.w_abs_moments.items()
            },
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "MomentTable":
        doc = json.loads(text)
        table = cls(
            n=int(doc["n"]),
            d=int(doc["d"]),
            sigma=np.array([[float(v) for v in row] for row in doc["sigma"]]),
            source=doc.get("source", "analytic"),
        )
        for key, v in doc["abs_moments"].items():
            j, s = key.split(":")
            table.abs_moments[(int(j), order_key(float(s)))] = float(v)
        if doc["mixed_third"] is not None:
            table.mixed_third = {}
            for key, v in doc["mixed_third"].items():
                j, k, l = (int(t) for t in key.split(","))
                table.mixed_third[(j, k, l)] = float(v)
        for key, entry in doc["w_abs_moments"].items():
            k, r = key.split(":")
            se = entry["std_error"]
            table.w_abs_moments[(int(k), order_key(float(r)))] = WEntry(
                float(entry["value"]),
                entry["provenance"],
                None if se is None else float(se),
            )
        return table


def enforce_psd(sigma: np.ndarray) -> np.ndarray:
    """Clamp tiny negative eigenvalues to 0; reject real indefiniteness."""
    eigvals, eigvecs = np.linalg.eigh(sigma)
    tol = PSD_CLAMP * max(np.trace(sigma), 1e-300)
    if eigvals.min() < -tol:
        raise DomainError(
            f"covariance has eigenvalue {eigvals.min():.3e} below -{tol:.3e}"
        )
    clamped = np.clip(eigvals, 0.0, None)
    return (eigvecs * clamped) @ eigvecs.T


# ---------------------------------------------------------------------------
# Analytic construction
# ---------------------------------------------------------------------------

def _atom_abs_moment(probs, values, j: int, s: float) -> float:
    return float(np.sum(probs * np.abs(values[:, j]) ** s))


def _atom_table(model, probs, values, orders, n) -> MomentTable:
    d = values.shape[1]
    sigma = (values.T * probs) @ values
    table = MomentTable(n=n, d=d, sigma=sigma)
    for j in range(d):
        for s in orders:
            table.abs_moments[(j, order_key(s))] = _atom_abs_moment(probs, values, j, s)
    table.mixed_third = {}
    for j in range(d):
        for k in range(j, d):
            for l in range(k, d):
                table.mixed_third[(j, k, l)] = float(
                    np.sum(probs * values[:, j] * values[:, k] * values[:, l])
                )
    return table


def _rank_table(model: DataModel, orders, n) -> MomentTable:
    x = model.standardized_scores()
    r = len(x)
    sigma = np.full((r, r), -1.0 / r)
    np.fill_diagonal(sigma, (r - 1.0) / r)
    table = MomentTable(n=n, d=r, sigma=sigma)
    for s in orders:
        value = float(np.mean(np.abs(x) ** s))
        for j in range(r):
            table.abs_moments[(j, order_key(s))] = value
    s3 = float(np.sum(x**3))
    table.mixed_third = {}
    for j in range(r):
        for k in range(j, r):
            for l in range(k, r):
                if j == k == l:
                    v = s3 / r
                elif j == k or k == l or j == l:
                    v = -s3 / (r * (r - 1))
                else:
                    v = 2.0 * s3 / (r * (r - 1) * (r - 2))
                table.mixed_third[(j, k, l)] = v
    return table


def analytic_moments(
    model: DataModel,
    orders,
    n: int,
    w_orders=(),
    w_seed: int = 0,
    w_reps: int = DEFAULT_W_REPS,
) -> MomentTable:
    """Exact moment table for an analytic model.

    ``w_orders`` lists the E|W_k|^r orders to attach; orders <= 2 use the
    rigorous variance bound, larger ones a seeded Monte Carlo estimate.
    """
    if model.kind == "user-sampler":
        raise CapabilityError("user-sampler models need empirical_moments")
    orders = sorted({order_key(s) for s in orders})
    if model.kind == "rank-scores":
        table = _rank_table(model, orders, n)  # marginals beat r! atom sums
    else:
        atoms = model.atoms()
        if atoms is None:
            raise CapabilityError(f"no analytic moments for kind {model.kind!r}")
        table = _atom_table(model, *atoms, orders, n)
    for r in sorted({order_key(r) for r in w_orders}):
        mode = "holder" if r <= 2.0 else "monte-carlo"
        attach_w_moments(table, model, n, r, mode, reps=w_reps, seed=w_seed)
    table.validate()
    return table


def attach_w_moments(
    table: MomentTable,
    model: DataModel,
    n: int,
    r: float,
    mode: str,
    reps: int = DEFAULT_W_REPS,
    seed: int = 0,
) -> None:
    exchangeable = model.kind in ("rank-scores", "rademacher") or (
        model.kind == "multinomial-indicator"
        and model.probs is not None
        and len(set(model.probs)) == 1
    )
    for k in range(table.d):
        if mode == "holder":
            table.w_abs_moments[(k, order_key(r))] = WEntry(
                w_moment_holder(table.sigma_j(k), r), HOLDER
            )
        elif exchangeable and (0, order_key(r)) in table.w_abs_moments:
            table.w_abs_moments[(k, order_key(r))] = table.w_abs_moments[
                (0, order_key(r))
            ]
        else:
            value, se = w_moment_mc(model, n, r, k, reps=reps, seed=seed)
            table.w_abs_moments[(k, order_key(r))] = WEntry(value, MONTE_CARLO, se)


def w_moment_holder(sigma_k: float, r: float) -> float:
    if r > 2.0:
        raise CapabilityError(
            "the variance route E|W|^r <= sigma^r only holds for r <= 2"
        )
    if r < 0:
        raise DomainError("order must be >= 0")
    return sigma_k**r


def w_moment_mc(
    model: DataModel,
    n: int,
    r: float,
    k: int = 0,
    reps: int = DEFAULT_W_REPS,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo estimate of E|W_k|^r with its standard error.

    Deterministic for a given seed: replicates are drawn in fixed blocks
    keyed by block index, reduced in a fixed pairwise order.
    """
    def one_block(b, count):
        rng = rngstreams.stream(seed, 71, b)
        w = math.sqrt(n) * sample_mean_batch(model, n, count, rng)[:, k]
        return (np.abs(w) ** r,)

    (acc,) = rngstreams.run_blocks(reps, one_block)
    return acc.mean, math.sqrt(acc.variance / reps)


def w_moment(
    model: DataModel,
    n: int,
    r: float,
    mode: str,
    reps: int = DEFAULT_W_REPS,
    seed: int = 0,
    k: int = 0,
):
    """E|W_k|^r via the variance bound (r <= 2) or Monte Carlo.

    Returns (value, std_error, provenance); the variance route has no
    standard error because it is an inequality, not an estimate.
    """
    if mode == "holder":
        sigma_k = math.sqrt(model_covariance(model)[k, k])
        return w_moment_holder(sigma_k, r), None, HOLDER
    if mode == "monte-carlo":
        value, se = w_moment_mc(model, n, r, k, reps=reps, seed=seed)
        return value, se, MONTE_CARLO
    raise ArgumentError(f"unknown mode {mode!r}")


def model_covariance(model: DataModel) -> np.ndarray:
    """Exact covariance of one observation row (equals the covariance of W)."""
    if model.kind == "rank-scores":
        r = model.d
        sigma = np.full((r, r), -1.0 / r)
        np.fill_diagonal(sigma, (r - 1.0) / r)
        return sigma
    atoms = model.atoms()
    if atoms is None:
        raise CapabilityError(
            f"no closed-form covariance for kind {model.kind!r}; use empirical_moments"
        )
    probs, values = atoms
    return (values.T * probs) @ values


def mixed_third_moments(model: DataModel) -> dict[tuple[int, int, int], float]:
    """Exact signed tensor E[X_j X_k X_l], keyed by sorted (j, k, l)."""
    if model.kind == "rank-scores":
        return _rank_table(model, [], 1).mixed_third
    atoms = model.atoms()
    if atoms is None:
        raise CapabilityError(f"no closed-form third moments for kind {model.kind!r}")
    probs, values = atoms
    return _atom_table(model, probs, values, [], 1).mixed_third


# ---------------------------------------------------------------------------
# Empirical construction
# ---------------------------------------------------------------------------

def empirical_moments(samples, orders) -> MomentTable:
    """Plug-in moment table from raw observation rows.

    Rows are centred at the sample mean first.  Standard errors are the
    delete-one jackknife, which for these plug-in means is sd/sqrt(N).
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n, d = x.shape
    if n < 2:
        raise ArgumentError("need at least 2 samples")
    x = x - x.mean(axis=0)
    x = x - x.mean(axis=0)  # second pass removes the rounding residue exactly
    sigma = x.T @ x / (n - 1)
    table = MomentTable(n=n, d=d, sigma=sigma, source="empirical")
    for j in range(d):
        for s in sorted({order_key(v) for v in orders}):
            vals = np.abs(x[:, j]) ** s
            table.abs_moments[(j, s)] = float(vals.mean())
            table.abs_moment_ses[(j, s)] = float(vals.std(ddof=1) / math.sqrt(n))
    table.mixed_third = {}
    for j in range(d):
        for k in range(j, d):
            for l in range(k, d):
                table.mixed_third[(j, k, l)] = float(
                    (x[:, j] * x[:, k] * x[:, l]).mean()
                )
    table.validate()
    return table
