"""The four benchmark workloads and the layers the traced run records.

Each workload turns the benchmark seed into plan configs, validates them
with ``cli.validate`` and builds its plans; that is its set-up.  A *pass*
is one fixed batch of calls into the library's public functions
(``mcverify.*``, ``cli.run``, ``statistics.plan_from_config``), made one
after another by a single client.  Plans are rebuilt from their configs in
every pass, so per-plan caches such as the moment tables are rebuilt too.

``canonical`` renders a pass's outputs as text; every pass of a run uses
the same inputs, so the texts must match byte for byte.  ``check`` tests
the outputs of a pass against references, and ``thread_check`` re-runs a
cheap part at another estimator thread count and compares it with the
pass.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.stats import binom

from spans import Layer
from steindelta import bounds, cli, core, mcverify, moments, rngstreams, statistics
from steindelta.bounds import FnEnvelope
from steindelta.core import TestBudget

# an estimate farther than this many standard errors from its reference
# (exact value or subsample re-evaluation) fails its check
Z_MAX = 4.5
# criterion-4 rate regimes: (target slope, tolerance)
SLOPE_TARGETS = {"ex3.1-normal": (-0.5, 0.15), "ex3.1-chisq": (-1.0, 0.2)}
# normal draws of each Stein config re-evaluated by the benchmark itself
STEIN_SUBSAMPLE = 4096


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def _rows_text(rows) -> str:
    return "\n".join(
        f"{r.n},{r.estimate!r},{r.std_error!r},{r.bound!r},{r.theorem},{r.status},{r.rigor}"
        for r in rows
    )


def _same_estimate(label, threads, est, row) -> Check:
    """The re-run estimate must equal the pass's row bit for bit."""
    ok = est.value == row.estimate and est.std_error == row.std_error
    return Check(
        f"{label} at threads={threads} equals the pass",
        ok,
        f"{est.value!r}+-{est.std_error!r} vs {row.estimate!r}+-{row.std_error!r}",
    )


class Workload:
    name = ""
    # the layer whose calls are the rows of work_normalized_variance
    row_layer = "estimate_delta_h"

    def __init__(self, seed: int, out: str):
        self.seed = seed
        self.out = out
        self.setup_checks: list[Check] = []

    def validate(self, label: str, doc: dict) -> None:
        diags = cli.validate(doc, doc["command"])
        self.setup_checks.append(
            Check(
                f"cli.validate {label}",
                not diags,
                "; ".join(str(d) for d in diags) or "no diagnostics",
            )
        )

    def row_variance(self, index: int, result) -> list[float]:
        """Squared standard errors of the rows one estimator call produced."""
        return [result.std_error**2]


# ---------------------------------------------------------------------------
# coupled-rate
# ---------------------------------------------------------------------------

def exact_coupled_distance(plan, n: int) -> float:
    """|E h(T_n) - E h(Y)| for a Bernoulli plan with a sinusoidal h.

    E h(T_n) sums h(T(s)) against the Binomial(n, p) pmf of the success
    count s; E h(Y) is closed form: sin(phi) e^{-a^2 v/2} for the normal
    limit N(0, v), Im(e^{i phi} (1 - 2 i a c)^{-1/2}) for c N^2.
    """
    a = float(plan.testfn["a"][0])
    phi = float(plan.testfn["phase"])
    p = plan.model.p
    s = np.arange(n + 1)
    t_vals = statistics.evaluate_statistic(plan.mapspec, (s / n - p)[:, None], n)[:, 0]
    e_t = float(np.dot(binom.pmf(s, n, p), np.sin(a * t_vals + phi)))
    limit = plan.limit
    if limit.kind == "normal":
        v = float(np.asarray(limit.variance).flat[0])
        e_y = math.sin(phi) * math.exp(-a * a * v / 2.0)
    elif limit.kind == "scaled-square":
        e_y = (cmath.exp(1j * phi) * (1.0 - 2j * a * limit.c) ** -0.5).imag
    else:
        raise ValueError(f"no closed form for limit {limit.kind!r}")
    return abs(e_t - e_y)


class CoupledRate(Workload):
    """mcverify.run_rate on the two quantile-coupled Bernoulli plans."""

    name = "coupled-rate"
    plans = ("ex3.1-normal", "ex3.1-chisq")
    n_grid = [64, 256, 1024]

    def __init__(self, seed, out):
        super().__init__(seed, out)
        self.configs = {
            name: {"builtin": name, "n_grid": self.n_grid, "seed": seed} for name in self.plans
        }
        for name, cfg in self.configs.items():
            self.validate(name, {"command": "rate", "seed": seed, "out": out, "experiment": cfg})
        self.replicates = 0
        for cfg in self.configs.values():
            plan = statistics.plan_from_config(cfg)
            base = plan.replicates
            self.replicates += sum(max(base, base * n // self.n_grid[0]) for n in plan.n_grid)

    def run_pass(self, threads):
        return {
            name: mcverify.run_rate(statistics.plan_from_config(cfg), threads=threads)
            for name, cfg in self.configs.items()
        }

    def canonical(self, raw) -> str:
        return "\n".join(
            f"{name}\n{_rows_text(rows)}\nslope {fit.slope!r}" for name, (rows, fit) in raw.items()
        )

    def check(self, raw) -> list[Check]:
        checks = []
        for name, (rows, fit) in raw.items():
            plan = statistics.plan_from_config(self.configs[name])
            for row in rows:
                exact = exact_coupled_distance(plan, row.n)
                z = abs(row.estimate - exact) / row.std_error
                checks.append(
                    Check(
                        f"{name} n={row.n} matches exact",
                        z <= Z_MAX,
                        f"estimate {row.estimate:.6g} exact {exact:.6g} |z| {z:.2f} (<= {Z_MAX})",
                    )
                )
                checks.append(
                    Check(f"{name} n={row.n} not violated", row.status != "violated", row.status)
                )
            target, tol = SLOPE_TARGETS[name]
            checks.append(
                Check(
                    f"{name} slope in regime",
                    abs(fit.slope - target) <= tol,
                    f"slope {fit.slope:.4f}, target {target}+-{tol}",
                )
            )
        return checks

    def thread_check(self, raw, threads) -> list[Check]:
        checks = []
        for name, (rows, _) in raw.items():
            plan = statistics.plan_from_config(self.configs[name])
            h = mcverify.plan_test_function(plan)
            n = plan.n_grid[0]
            est = mcverify.estimate_delta_h(
                plan, h, n, replicates=plan.replicates, threads=threads
            )
            checks.append(_same_estimate(f"{name} n={n}", threads, est, rows[0]))
        return checks


# ---------------------------------------------------------------------------
# rank-moments
# ---------------------------------------------------------------------------

class RankMoments(Workload):
    """run_verification on Friedman r=8 and Pearson with 8 equal cells."""

    name = "rank-moments"
    n_grid = [64, 128, 256]
    w_reps = 20_000

    def __init__(self, seed, out):
        super().__init__(seed, out)
        common = {"n_grid": self.n_grid, "w_reps": self.w_reps, "seed": seed}
        self.configs = {
            "ex3.5-friedman": {"builtin": "ex3.5-friedman", "params": {"r": 8}, **common},
            "ex3.6-pearson": {
                "builtin": "ex3.6-pearson",
                "params": {"probs": [0.125] * 8},
                **common,
            },
        }
        for name, cfg in self.configs.items():
            self.validate(name, {"command": "verify", "seed": seed, "out": out, "experiment": cfg})
        self.replicates = sum(
            plan.replicates * len(plan.n_grid)
            for plan in map(statistics.plan_from_config, self.configs.values())
        )

    def run_pass(self, threads):
        return {
            name: mcverify.run_verification(statistics.plan_from_config(cfg), threads=threads)
            for name, cfg in self.configs.items()
        }

    def canonical(self, raw) -> str:
        return "\n".join(f"{name}\n{_rows_text(rows)}" for name, rows in raw.items())

    def check(self, raw) -> list[Check]:
        return [
            Check(f"{name} n={row.n} not violated", row.status != "violated", row.status)
            for name, rows in raw.items()
            for row in rows
        ]

    def thread_check(self, raw, threads) -> list[Check]:
        checks = []
        for name, rows in raw.items():
            plan = statistics.plan_from_config(self.configs[name])
            h = mcverify.plan_test_function(plan)
            n = plan.n_grid[0]
            est = mcverify.estimate_delta_h(plan, h, n, threads=threads)
            checks.append(_same_estimate(f"{name} n={n}", threads, est, rows[0]))
        return checks


# ---------------------------------------------------------------------------
# stein-check
# ---------------------------------------------------------------------------

@dataclass
class SteinConfig:
    label: str
    g_name: str
    env: FnEnvelope
    sigma: list
    points: list

    def g(self, w):
        return w.sum(axis=-1) if self.g_name == "linear" else (w**2).sum(axis=-1)


class SteinCheck(Workload):
    """stein_solution_check on the criterion-9 configs plus a 2-D square g."""

    name = "stein-check"
    row_layer = "stein_solution_check"
    mc_reps = 10_000
    steps = 400
    s_max = 20.0

    def __init__(self, seed, out):
        super().__init__(seed, out)
        points_1d = [0.0, 1.0, -1.0, 2.0, -2.0]
        self.configs = [
            SteinConfig("linear-1d", "linear", FnEnvelope(1.0, 0.0, 0.0), [[1.0]], points_1d),
            SteinConfig("square-1d", "square", FnEnvelope(0.0, 1.0, 1.0), [[1.0]], points_1d),
            SteinConfig(
                "square-2d",
                "square",
                FnEnvelope(0.0, 1.0, 1.0),
                [[1.0, 0.3], [0.3, 1.0]],
                [[0.0, 0.0], [1.0, -1.0]],
            ),
        ]
        self.h = mcverify.SmoothTestFunction(a=(1.0,), phase=0.0)
        self.budget = TestBudget(1, (self.h.hprime(),))
        for cfg in self.configs:
            self.validate(
                cfg.label,
                {
                    "command": "stein-check",
                    "seed": seed,
                    "out": out,
                    "stein": {
                        "g": cfg.g_name,
                        "envelope": {"A": cfg.env.A, "B": cfg.env.B, "r": cfg.env.r},
                        "sigma": cfg.sigma,
                        "points": cfg.points,
                        "steps": self.steps,
                        "s_max": self.s_max,
                        "replicates": self.mc_reps,
                    },
                },
            )
        rows = sum(len(cfg.points) * len(cfg.sigma) for cfg in self.configs)
        # two integrand evaluations (w + delta, w - delta) per node and draw
        self.replicates = rows * (self.steps + 1) * 2 * self.mc_reps
        self._subsample = None

    def run_pass(self, threads):
        return [
            mcverify.stein_solution_check(
                cfg.env,
                cfg.g,
                self.h,
                cfg.sigma,
                cfg.points,
                s_max=self.s_max,
                steps=self.steps,
                mc_reps=self.mc_reps,
                seed=self.seed,
                budget=self.budget,
            )
            for cfg in self.configs
        ]

    def canonical(self, raw) -> str:
        return "\n".join(
            f"{c.w!r},{c.coord},{c.estimate!r},{c.bound!r},{c.passed}"
            for checks in raw
            for c in checks
        )

    def subsample(self):
        """Per row: the derivative estimate and the per-draw standard deviation,
        re-evaluated on the first STEIN_SUBSAMPLE normal draws of the check's
        own stream with all quadrature nodes broadcast at once."""
        if self._subsample is None:
            nodes = np.linspace(0.0, self.s_max, self.steps + 1)
            weights = np.full(nodes.size, nodes[1] - nodes[0])
            weights[[0, -1]] *= 0.5
            decay = np.exp(-nodes)[:, None, None]
            spread = np.sqrt(1.0 - np.exp(-2.0 * nodes))[:, None, None]
            out = []
            for cfg in self.configs:
                sigma = np.asarray(cfg.sigma, dtype=float)
                factor = statistics.gaussian_factor(sigma)
                rng = rngstreams.stream(self.seed, 9)
                z = rng.standard_normal((STEIN_SUBSAMPLE, sigma.shape[0])) @ factor.T
                rows = []
                for w in cfg.points:
                    w = np.atleast_1d(np.asarray(w, dtype=float))
                    delta = 1e-4 * (1.0 + float(np.abs(w).max()))
                    for j in range(w.size):
                        step = np.zeros_like(w)
                        step[j] = delta

                        def h_of(point):
                            vals = cfg.g(decay * point + spread * z[None])
                            return self.h(vals.ravel()).reshape(vals.shape)

                        per_draw = -(weights @ (h_of(w + step) - h_of(w - step))) / (2 * delta)
                        rows.append((abs(float(per_draw.mean())), float(per_draw.std(ddof=1))))
                out.append(rows)
            self._subsample = out
        return self._subsample

    def row_variance(self, index, result):
        rows = self.subsample()[index % len(self.configs)]
        return [sd**2 / self.mc_reps for _, sd in rows]

    def check(self, raw) -> list[Check]:
        checks = []
        for cfg, results, rows in zip(self.configs, raw, self.subsample()):
            for c, (sub_est, sd) in zip(results, rows):
                label = f"{cfg.label} w={list(c.w)} coord {c.coord}"
                checks.append(
                    Check(
                        f"{label} passes",
                        c.passed,
                        f"estimate {c.estimate:.6g} bound {c.bound:.6g} {c.diagnostic}",
                    )
                )
                se_sub = sd / math.sqrt(STEIN_SUBSAMPLE)
                checks.append(
                    Check(
                        f"{label} agrees with subsample re-evaluation",
                        abs(c.estimate - sub_est) <= Z_MAX * se_sub,
                        f"{c.estimate:.6g} vs {sub_est:.6g} (se {se_sub:.2g})",
                    )
                )
        return checks

    def thread_check(self, raw, threads) -> list[Check]:
        return []  # stein_solution_check has no thread pool


# ---------------------------------------------------------------------------
# examples-suite
# ---------------------------------------------------------------------------

class ExamplesSuite(Workload):
    """cli.run with command 'example' for each built-in, writing artifacts."""

    name = "examples-suite"
    artifacts = ("verify.csv", "verify_summary.json")
    thread_examples = ("ex3.2", "ex3.4")  # one coupled, one independent-stream plan

    def __init__(self, seed, out):
        super().__init__(seed, out)
        self.names = sorted(statistics.EXAMPLES)
        self.docs = {
            name: {
                "command": "example",
                "name": name,
                "seed": seed,
                "out": os.path.join(out, "examples", name),
            }
            for name in self.names
        }
        for name, doc in self.docs.items():
            self.validate(name, doc)
        self.replicates = sum(
            plan.replicates * len(plan.n_grid) for plan in map(statistics.builtin, self.names)
        )

    def _run(self, doc, threads) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run({**doc, "threads": threads}, "example")

    def run_pass(self, threads):
        return {name: self._run(doc, threads) for name, doc in self.docs.items()}

    def _read(self, outdir) -> str:
        parts = []
        for art in self.artifacts:
            with open(os.path.join(outdir, art), encoding="utf-8", newline="") as fh:
                parts.append(fh.read())
        return "".join(parts)

    def canonical(self, raw) -> str:
        return "".join(
            f"{name} exit {code}\n" + (self._read(self.docs[name]["out"]) if code == 0 else "")
            for name, code in raw.items()
        )

    def check(self, raw) -> list[Check]:
        checks = []
        for name, code in raw.items():
            checks.append(Check(f"{name} exit code 0", code == cli.EXIT_OK, f"exit {code}"))
            if code == cli.EXIT_OK:
                with open(os.path.join(self.docs[name]["out"], "verify.csv"), encoding="utf-8") as fh:
                    statuses = [line.rsplit(",", 1)[1] for line in fh.read().splitlines()[1:]]
                checks.append(
                    Check(
                        f"{name} no row violated",
                        "violated" not in statuses,
                        ", ".join(statuses),
                    )
                )
        return checks

    def thread_check(self, raw, threads) -> list[Check]:
        checks = []
        for name in self.thread_examples:
            doc = {**self.docs[name], "out": os.path.join(self.out, f"threads{threads}", name)}
            code = self._run(doc, threads)
            same = code == 0 and self._read(doc["out"]) == self._read(self.docs[name]["out"])
            checks.append(
                Check(f"{name} artifacts at threads={threads} equal the pass", same, f"exit {code}")
            )
        return checks


WORKLOADS = {w.name: w for w in (CoupledRate, RankMoments, SteinCheck, ExamplesSuite)}


def layers(track_alloc: bool) -> list[Layer]:
    """Every traced layer; names are the prefixes of the per-layer metrics."""
    evaluators = (
        "bound_delta_univariate",
        "bound_delta_multivariate",
        "bound_fn_univariate",
        "bound_fn_multivariate",
    )
    return [
        Layer("rngstreams.stream", rngstreams, "stream"),
        Layer("rngstreams.pairwise_sum", rngstreams, "pairwise_sum"),
        Layer("statistics.coupled_batch", statistics, "coupled_batch", work_arg="count"),
        Layer("statistics.statistic_batch", statistics, "statistic_batch", work_arg="reps"),
        Layer("statistics.limit_batch", statistics, "limit_batch", work_arg="reps"),
        Layer("statistics.ExperimentPlan.moment_table", statistics.ExperimentPlan, "moment_table"),
        Layer(
            "moments.sample_mean_batch",
            moments,
            "sample_mean_batch",
            work_arg="reps",
            track_alloc=track_alloc,
        ),
        Layer("moments.analytic_moments", moments, "analytic_moments"),
        Layer("moments.w_moment_mc", moments, "w_moment_mc", work_arg="reps"),
        *(Layer("bounds.evaluators", bounds, name) for name in evaluators),
        Layer("bounds.stein_derivative_bound", bounds, "stein_derivative_bound"),
        Layer("core.h_budget", core, "h_budget"),
        Layer("core.stirling2", core, "stirling2"),
        Layer("core.abs_normal_moment", core, "abs_normal_moment"),
        Layer("mcverify.SmoothTestFunction.call", mcverify.SmoothTestFunction, "__call__"),
        Layer("mcverify.plan_bound_report", mcverify, "plan_bound_report"),
        Layer("mcverify.estimate_delta_h", mcverify, "estimate_delta_h"),
        Layer("mcverify.estimate_delta", mcverify, "estimate_delta"),
        Layer("mcverify.stein_solution_check", mcverify, "stein_solution_check"),
        Layer("mcverify.run_verification", mcverify, "run_verification"),
        Layer("mcverify.run_rate", mcverify, "run_rate"),
        Layer("cli.validate", cli, "validate"),
        Layer("cli.run", cli, "run"),
    ]
