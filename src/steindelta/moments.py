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

import numpy as np

from . import rngstreams
from .errors import (
    ArgumentError,
    CapabilityError,
    DomainError,
    MissingMomentsError,
    as_count,
)

ORDER_DECIMALS = 12  # moment orders are real-valued keys with 1e-12 tolerance
PSD_CLAMP = 1e-10  # eigenvalues above -PSD_CLAMP * trace are clamped to 0
DEFAULT_W_REPS = 100_000
RANK_CHUNK_FLOATS = 1 << 19  # rank-score row buffer per call: 4 MiB of float64

HOLDER = "holder-bound"
MONTE_CARLO = "monte-carlo"


def order_key(s: float) -> float:
    return round(float(s), ORDER_DECIMALS)


def moment_orders(orders) -> list[float]:
    """Sorted distinct order keys; ArgumentError unless every order is a real >= 0."""
    keys = sorted({order_key(s) for s in orders})
    if any(not s >= 0 for s in keys):  # NaN fails too
        raise ArgumentError(f"moment orders must be reals >= 0, got {list(orders)}")
    return keys


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DataModel:
    """One observation's distribution.

    ``atoms`` (probabilities + support rows) are set whenever the law has
    finite support; they drive both exact moments and fast multinomial
    sampling of the mean.
    """

    kind: str
    d: int
    p: float | None = None
    probs: tuple[float, ...] | None = None
    scores: tuple[float, ...] | None = None
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
    d = as_count(d, "rademacher dimension")
    if d > 10:
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
    raise CapabilityError(f"cannot sample model kind {model.kind!r}")


def sample_mean_batch(
    model: DataModel, n: int, reps: int, rng: np.random.Generator
) -> np.ndarray:
    """reps draws of the sample mean of n rows, shape (reps, d).

    Finite-support models use one multinomial draw over their atoms per
    replicate, which is exact and avoids materialising n rows.  Rank-score
    models without an atom table permute rows in a fixed-size buffer (see
    :func:`_rank_mean_batch`).
    """
    if n < 1:
        raise ArgumentError(f"need n >= 1, got {n}")
    atoms = model.atoms()
    if atoms is not None:
        probs, values = atoms
        counts = rng.multinomial(n, probs, size=reps)
        return counts @ values / n
    if model.kind == "rank-scores":
        return _rank_mean_batch(model.standardized_scores(), n, reps, rng)
    raise CapabilityError(f"cannot sample model kind {model.kind!r}")


def _rank_mean_batch(
    x: np.ndarray, n: int, reps: int, rng: np.random.Generator
) -> np.ndarray:
    """Means of n uniformly permuted copies of x, in bounded memory.

    Rows are permuted and summed in chunks of at most RANK_CHUNK_FLOATS
    floats.  ``permuted`` draws one row after another, and the sum over
    rows adds them one after another, so the result is bitwise the mean
    of the full (reps * n, r) array of permuted rows.  When n exceeds the
    chunk, the running sum of a replicate is carried in as the first row
    of its next chunk, which keeps that addition order.  The buffer is
    local because ``run_blocks`` calls this from worker threads.
    """
    r = len(x)
    cap = max(2, RANK_CHUNK_FLOATS // r)
    out = np.empty((reps, r))
    if n <= cap:
        k = max(1, min(reps, cap // n))
        buf = np.empty((k * n, r))
        for i in range(0, reps, k):
            m = min(k, reps - i)
            rows = buf[: m * n]
            rows[:] = x
            rng.permuted(rows, axis=1, out=rows)
            rows.reshape(m, n, r).sum(axis=1, out=out[i : i + m])
    else:
        buf = np.empty((cap, r))
        for i in range(reps):
            lead = done = 0  # lead: 1 once buf[0] carries the running sum
            while done < n:
                m = min(cap - lead, n - done)
                rows = buf[lead : lead + m]
                rows[:] = x
                rng.permuted(rows, axis=1, out=rows)
                buf[: lead + m].sum(axis=0, out=out[i])
                buf[0] = out[i]
                lead, done = 1, done + m
    out /= n
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

def _row_table(model: DataModel, orders, n) -> MomentTable:
    """Exact moments of one row; rank scores use their marginals, not r! atoms."""
    table = MomentTable(n=n, d=model.d, sigma=model_covariance(model))
    if model.kind == "rank-scores":
        _rank_moments(table, model.standardized_scores(), orders)
    else:
        _atom_moments(table, *model.atoms(), orders)
    return table


def _atom_moments(table: MomentTable, probs, values, orders) -> None:
    d = table.d
    for j in range(d):
        for s in orders:
            table.abs_moments[(j, order_key(s))] = float(np.sum(probs * np.abs(values[:, j]) ** s))
    table.mixed_third = {}
    for j in range(d):
        for k in range(j, d):
            for l in range(k, d):
                table.mixed_third[(j, k, l)] = float(
                    np.sum(probs * values[:, j] * values[:, k] * values[:, l])
                )


def _rank_moments(table: MomentTable, x: np.ndarray, orders) -> None:
    r = len(x)
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
    Orders must be reals >= 0, and n and w_reps integers >= 1.
    """
    orders, w_orders = moment_orders(orders), moment_orders(w_orders)
    n, w_reps = as_count(n, "n"), as_count(w_reps, "w_reps")
    table = _row_table(model, orders, n)
    # exchangeable coordinates share the Monte Carlo estimate of coordinate 0
    exchangeable = model.kind in ("rank-scores", "rademacher") or (
        model.kind == "multinomial-indicator" and len(set(model.probs)) == 1
    )
    for r in w_orders:
        for k in range(table.d):
            if r <= 2.0:
                entry = WEntry(w_moment_holder(table.sigma_j(k), r), HOLDER)
            elif exchangeable and k > 0:
                entry = table.w_abs_moments[(0, order_key(r))]
            else:
                value, se = w_moment_mc(model, n, r, k, reps=w_reps, seed=w_seed)
                entry = WEntry(value, MONTE_CARLO, se)
            table.w_abs_moments[(k, order_key(r))] = entry
    table.validate()
    return table


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
        # sample first, so n < 1 raises ArgumentError before sqrt sees it
        w = sample_mean_batch(model, n, count, rng)[:, k] * math.sqrt(n)
        return (np.abs(w) ** r,)

    (acc,) = rngstreams.run_blocks(reps, one_block)
    return acc.mean, math.sqrt(acc.variance / reps)


def model_covariance(model: DataModel) -> np.ndarray:
    """Exact covariance of one observation row (equals the covariance of W)."""
    if model.kind == "rank-scores":
        r = model.d
        sigma = np.full((r, r), -1.0 / r)
        np.fill_diagonal(sigma, (r - 1.0) / r)
        return sigma
    atoms = model.atoms()
    if atoms is None:
        raise CapabilityError(f"no closed-form moments for kind {model.kind!r}")
    probs, values = atoms
    return (values.T * probs) @ values
