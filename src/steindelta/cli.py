"""Configuration-driven command line front end.

One canonical-JSON config document drives each run; artifacts are byte
reproducible for a fixed seed.  Exit codes separate misuse from
falsification: 0 success, 2 config error, 3 theorem applicability
failure, 4 dominance (or solution-derivative) violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import mcverify
from .bounds import (
    FnEnvelope,
    GrowthEnvelope,
    budget_order,
    evaluate_bound,
    required_moment_orders,
)
from .core import TestBudget
from .errors import SteinDeltaError
from .moments import DEFAULT_W_REPS, analytic_moments
from .statistics import EXAMPLES, ExperimentPlan, model_from_spec, plan_from_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_APPLICABILITY = 3
EXIT_DOMINANCE = 4

COMMANDS = ("bound", "verify", "rate", "example", "stein-check", "moments")

SEED_ENV = "STEIN_DELTA_SEED"


@dataclass(frozen=True)
class Diagnostic:
    path: str
    rule: str
    message: str

    def __str__(self):
        return f"{self.path}: [{self.rule}] {self.message}"


def _canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _check_common(doc, diags):
    cmd = doc.get("command")
    if cmd not in COMMANDS:
        diags.append(
            Diagnostic("command", "command-known", f"must be one of {COMMANDS}, got {cmd!r}")
        )
    if "seed" in doc and (not isinstance(doc["seed"], int) or doc["seed"] < 0):
        diags.append(Diagnostic("seed", "seed-int", "seed must be a non-negative integer"))
    if "threads" in doc and (not isinstance(doc["threads"], int) or doc["threads"] < 1):
        diags.append(Diagnostic("threads", "threads-int", "threads must be an integer >= 1"))
    if doc.get("format", "json") not in ("json", "csv"):
        diags.append(Diagnostic("format", "format-known", "format must be json or csv"))
    if "spill_streams" in doc and not isinstance(doc["spill_streams"], bool):
        diags.append(
            Diagnostic("spill_streams", "spill-bool", "spill_streams must be a boolean")
        )
    out = doc.get("out", ".")
    probe = os.path.abspath(out)
    while probe and not os.path.exists(probe):
        parent = os.path.dirname(probe)
        if parent == probe:
            break
        probe = parent
    if not os.path.isdir(probe) or not os.access(probe, os.W_OK):
        diags.append(Diagnostic("out", "out-writable", f"cannot create artifacts under {out!r}"))


def _plan_min_n(plan: ExperimentPlan) -> tuple[int, str]:
    if plan.mode == "even":
        return 12, "even-map bounds require n >= 12"
    if plan.bound_kind == "delta-multivariate" and plan.mode == "general":
        need = max(plan.mapspec.d**6, 8)
        return need, f"the general multivariate bound requires n >= max(d^6, 8) = {need}"
    return 8, "this bound requires n >= 8"


def _check_experiment(doc, path, diags) -> ExperimentPlan | None:
    if not isinstance(doc, dict):
        diags.append(Diagnostic(path, "experiment-object", "must be an object"))
        return None
    name = doc.get("builtin")
    if not isinstance(name, str):
        diags.append(Diagnostic(f"{path}.builtin", "builtin-named", "builtin name required"))
        return None
    grid = doc.get("n_grid")
    if grid is not None:
        if (
            not isinstance(grid, list)
            or not grid
            or any(not isinstance(v, int) or v < 1 for v in grid)
            or grid != sorted(grid)
        ):
            diags.append(
                Diagnostic(
                    f"{path}.n_grid", "grid-sorted", "n_grid must be sorted positive integers"
                )
            )
            return None
    reps = doc.get("replicates")
    if reps is not None and (not isinstance(reps, int) or reps < 1000):
        diags.append(
            Diagnostic(f"{path}.replicates", "replicates-min", "need at least 1000 replicates")
        )
        return None
    try:
        plan = plan_from_config(doc)
    except (ValueError, KeyError, TypeError) as exc:
        diags.append(Diagnostic(f"{path}.params", "plan-constructible", str(exc)))
        return None
    need, why = _plan_min_n(plan)
    bad = [n for n in plan.n_grid if n < need]
    if bad:
        diags.append(Diagnostic(f"{path}.n_grid", "n-minimum", f"{why}; offending points {bad}"))
    return plan


def _check_w_reps(doc, path, diags):
    w_reps = doc.get("w_reps", DEFAULT_W_REPS)
    if not isinstance(w_reps, int) or w_reps < 1:
        diags.append(Diagnostic(path, "w-reps-positive", "w_reps must be an integer >= 1"))


def _check_inline_bound(doc, diags):
    path = "bound"
    if not isinstance(doc, dict):
        diags.append(Diagnostic(path, "bound-object", "must be an object"))
        return
    kind = doc.get("kind")
    if kind not in (
        "delta-univariate",
        "delta-multivariate",
        "fn-univariate",
        "fn-multivariate",
    ):
        diags.append(Diagnostic(f"{path}.kind", "kind-known", f"unknown bound kind {kind!r}"))
        return
    if doc.get("mode") not in ("general", "even", "zero-third"):
        diags.append(Diagnostic(f"{path}.mode", "mode-known", "mode must be general, even or zero-third"))
        return
    n = doc.get("n")
    if not isinstance(n, int) or n < 1:
        diags.append(Diagnostic(f"{path}.n", "n-positive", "n must be a positive integer"))
    _check_w_reps(doc, f"{path}.w_reps", diags)
    try:
        model_from_spec(doc.get("model", {}))
    except (SteinDeltaError, KeyError, TypeError) as exc:
        diags.append(Diagnostic(f"{path}.model", "model-valid", str(exc)))
    try:
        if kind.startswith("delta"):
            _inline_env(doc)
        else:
            _inline_fn_env(doc)
    except (SteinDeltaError, KeyError, TypeError) as exc:
        diags.append(Diagnostic(f"{path}.envelope", "envelope-valid", str(exc)))


def _check_stein(doc, diags):
    path = "stein"
    if not isinstance(doc, dict):
        diags.append(Diagnostic(path, "stein-object", "must be an object"))
        return
    if doc.get("g") not in ("linear", "square"):
        diags.append(Diagnostic(f"{path}.g", "g-known", "g must be 'linear' or 'square'"))
    sigma = doc.get("sigma", [[1.0]])
    try:
        mat = np.asarray(sigma, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] > 2:
            raise ValueError(f"sigma must be square with d <= 2, got {mat.shape}")
        if not np.allclose(mat, mat.T):
            raise ValueError("sigma must be symmetric")
    except ValueError as exc:
        diags.append(Diagnostic(f"{path}.sigma", "sigma-valid", str(exc)))
        return
    try:
        _inline_fn_env(doc)
    except (SteinDeltaError, KeyError, TypeError) as exc:
        diags.append(Diagnostic(f"{path}.envelope", "envelope-valid", str(exc)))
    pts = doc.get("points", [0.0])
    if not isinstance(pts, list) or not pts:
        diags.append(Diagnostic(f"{path}.points", "points-list", "points must be a non-empty list"))
    steps = doc.get("steps", 400)
    if not isinstance(steps, int) or steps < 10:
        diags.append(Diagnostic(f"{path}.steps", "steps-min", "need at least 10 quadrature steps"))
    reps = doc.get("replicates", 50_000)
    if not isinstance(reps, int) or reps < 1000:
        diags.append(Diagnostic(f"{path}.replicates", "replicates-min", "need >= 1000 replicates"))


def _check_moments(doc, diags):
    try:
        model_from_spec(doc.get("model", {}))
    except (SteinDeltaError, KeyError, TypeError) as exc:
        diags.append(Diagnostic("model", "model-valid", str(exc)))
    for key in ("orders", "w_orders"):
        orders = doc.get(key, [])
        if not isinstance(orders, list) or any(
            not isinstance(v, (int, float)) or v < 0 for v in orders
        ):
            diags.append(Diagnostic(key, "orders-valid", f"{key} must be reals >= 0"))
    _check_w_reps(doc, "w_reps", diags)
    n = doc.get("n", 1)
    if not isinstance(n, int) or n < 1:
        diags.append(Diagnostic("n", "n-positive", "n must be a positive integer"))


def validate(doc: dict, command: str | None = None) -> list[Diagnostic]:
    """Diagnostics for a config document; empty iff run would accept it."""
    diags: list[Diagnostic] = []
    if not isinstance(doc, dict):
        return [Diagnostic("", "document-object", "config must be a JSON object")]
    _check_common(doc, diags)
    cmd = doc.get("command")
    if command is not None and cmd != command and cmd in COMMANDS:
        diags.append(
            Diagnostic("command", "command-matches", f"config says {cmd!r}, invoked {command!r}")
        )
    if cmd not in COMMANDS:
        return diags
    if cmd in ("verify", "rate"):
        _check_experiment(doc.get("experiment"), "experiment", diags)
    elif cmd == "bound":
        if "experiment" in doc:
            plan = _check_experiment(doc.get("experiment"), "experiment", diags)
            n = doc.get("n")
            if n is not None and (not isinstance(n, int) or n < 1):
                diags.append(Diagnostic("n", "n-positive", "n must be a positive integer"))
        elif "bound" in doc:
            _check_inline_bound(doc.get("bound"), diags)
        else:
            diags.append(
                Diagnostic("", "bound-payload", "bound needs 'experiment' or inline 'bound'")
            )
    elif cmd == "example":
        name = doc.get("name")
        if name not in EXAMPLES:
            diags.append(
                Diagnostic(
                    "name", "example-known", f"unknown example {name!r}; know {sorted(EXAMPLES)}"
                )
            )
        elif not isinstance(doc.get("overrides", {}), dict):
            diags.append(Diagnostic("overrides", "overrides-object", "must be an object"))
        else:
            spec = {"builtin": name, "params": {}}
            spec.update(doc.get("overrides", {}))
            _check_experiment(spec, "overrides", diags)
    elif cmd == "stein-check":
        _check_stein(doc.get("stein"), diags)
    elif cmd == "moments":
        _check_moments(doc, diags)
    return diags


# ---------------------------------------------------------------------------
# Inline-bound plumbing
# ---------------------------------------------------------------------------

def _inline_env(doc) -> GrowthEnvelope:
    env = doc.get("envelope", {})
    return GrowthEnvelope(
        t=int(env["t"]),
        A={int(k): float(v) for k, v in env.get("A", {}).items()},
        r={int(k): float(v) for k, v in env.get("r", {}).items()},
        even_map=bool(env.get("even_map", False)),
        vanishing_third=bool(env.get("vanishing_third", False)),
    )


def _inline_fn_env(doc) -> FnEnvelope:
    env = doc.get("envelope", {})
    return FnEnvelope(float(env.get("A", 0.0)), float(env.get("B", 0.0)), float(env.get("r", 0.0)))


def _inline_bound_report(doc, seed):
    kind = doc["kind"]
    mode = doc["mode"]
    n = int(doc["n"])
    model = model_from_spec(doc["model"])
    budgets = doc.get("budgets", {})
    m = int(budgets.get("m", 1))
    if kind.startswith("delta"):
        env = _inline_env(doc)
        t = env.t
    else:
        env = _inline_fn_env(doc)
        t = 0
    req = required_moment_orders(kind, mode, t, n, env)
    table = analytic_moments(
        model,
        req.x_orders,
        n,
        w_orders=req.w_orders,
        w_seed=seed,
        w_reps=int(doc.get("w_reps", DEFAULT_W_REPS)),
    )
    order = budget_order(kind, mode)
    if kind.endswith("univariate"):
        sup = (budgets.get("hprime", 1.0), budgets.get("hdoubleprime", 1.0))
    else:
        sup = budgets.get("sup_norms") or (1.0,) * order
    budget = TestBudget(order, tuple(float(v) for v in sup))
    return evaluate_bound(kind, mode, env, table, budget, m, bool(doc.get("parity", False)), n)


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------

def _write(outdir, name, text) -> str:
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _rows_csv(rows) -> str:
    lines = ["n,estimate,std_error,bound,theorem,dominated"]
    for row in rows:
        lines.append(
            f"{row.n},{row.estimate!r},{row.std_error!r},{row.bound!r},"
            f"{row.theorem},{row.status}"
        )
    return "\n".join(lines) + "\n"


def _spill_streams(plan, outdir, cap=1 << 17):
    """Write one statistic-stream file per grid point for offline analysis."""
    from .statistics import statistic_batch, write_stream
    from . import rngstreams

    os.makedirs(outdir, exist_ok=True)
    for n in plan.n_grid:
        count = min(plan.replicates, cap)
        rng = rngstreams.stream(plan.seed, 5, n)
        values = statistic_batch(plan.mapspec, plan.model, n, count, rng)
        write_stream(os.path.join(outdir, f"stream_n{n}.bin"), values[:, 0])


def _summary_doc(plan, rows, fit=None):
    doc = {
        "plan": plan.to_config(),
        "rows": [asdict(r) for r in rows],
        "violations": sum(r.status == "violated" for r in rows),
    }
    if fit is not None:
        doc["rate_fit"] = asdict(fit)
    return doc


# ---------------------------------------------------------------------------
# Command execution
# ---------------------------------------------------------------------------

def _resolve_plan(doc, seed) -> ExperimentPlan:
    if doc["command"] == "example":
        spec = {"builtin": doc["name"], "params": {}}
        spec.update(doc.get("overrides", {}))
    else:
        spec = doc["experiment"]
    if seed is not None:
        spec = {**spec, "seed": seed}
    return plan_from_config(spec)


def run(doc: dict, command: str | None = None) -> int:
    """Execute one validated config; returns the process exit code."""
    diags = validate(doc, command)
    if diags:
        for diag in diags:
            print(f"config error: {diag}", file=sys.stderr)
        return EXIT_CONFIG

    seed = doc.get("seed")
    threads = doc.get("threads", 1)
    outdir = doc.get("out", ".")
    fmt = doc.get("format", "json")
    cmd = doc["command"]

    try:
        if cmd == "bound":
            if "experiment" in doc:
                plan = _resolve_plan({**doc, "command": "verify"}, seed)
                n = doc.get("n", plan.n_grid[0])
                report = mcverify.plan_bound_report(plan, n)
            else:
                report = _inline_bound_report(doc["bound"], seed if seed is not None else 0)
            if not report.valid:
                print(
                    f"bound inapplicable: {report.failed_conditions()}", file=sys.stderr
                )
                return EXIT_APPLICABILITY
            if fmt == "csv":
                path = _write(
                    outdir, "bound.csv", report.CSV_HEADER + "\n" + report.to_csv_row() + "\n"
                )
            else:
                path = _write(outdir, "bound.json", report.to_json() + "\n")
            print(f"{report.theorem}: value {report.value!r} ({report.rigor}) -> {path}")
            return EXIT_OK

        if cmd in ("verify", "example", "rate"):
            plan = _resolve_plan(doc, seed)
            stem, fit = "verify", None
            if cmd == "rate":
                stem = "rate"
                rows, fit = mcverify.run_rate(plan, threads=threads)
            else:
                rows = mcverify.run_verification(plan, threads=threads)
            csv_path = _write(outdir, f"{stem}.csv", _rows_csv(rows))
            json_path = _write(
                outdir, f"{stem}_summary.json", _canonical_json(_summary_doc(plan, rows, fit))
            )
            if doc.get("spill_streams") and fit is None:
                _spill_streams(plan, outdir)
            for row in rows:
                print(
                    f"n={row.n} estimate={row.estimate:.6g} (se {row.std_error:.2g}) "
                    f"bound={row.bound:.6g} [{row.theorem}] {row.status}"
                )
            if fit is not None:
                print(
                    f"slope {fit.slope:.4f} (se {fit.slope_se:.4f}, "
                    f"95% CI [{fit.ci95[0]:.4f}, {fit.ci95[1]:.4f}], R^2 {fit.r_squared:.4f})"
                )
            print(f"artifacts: {csv_path}, {json_path}")
            if any(r.status == "violated" for r in rows):
                return EXIT_DOMINANCE
            return EXIT_OK

        if cmd == "stein-check":
            payload = doc["stein"]
            g_name = payload["g"]
            if g_name == "linear":
                g = lambda w: w.sum(axis=-1)  # noqa: E731
            else:
                g = lambda w: (w**2).sum(axis=-1)  # noqa: E731
            tf = payload.get("testfn", {})
            h = mcverify.SmoothTestFunction(
                a=tuple(tf.get("a", [1.0])), phase=float(tf.get("phase", 0.0))
            )
            checks = mcverify.stein_solution_check(
                _inline_fn_env(payload),
                g,
                h,
                payload.get("sigma", [[1.0]]),
                payload.get("points", [0.0]),
                s_max=float(payload.get("s_max", 20.0)),
                steps=int(payload.get("steps", 400)),
                mc_reps=int(payload.get("replicates", 50_000)),
                seed=seed if seed is not None else 0,
                budget=TestBudget(1, (h.hprime(),)),
            )
            lines = ["w,coord,estimate,bound,passed"]
            for c in checks:
                lines.append(
                    f"\"{','.join(repr(v) for v in c.w)}\",{c.coord},"
                    f"{c.estimate!r},{c.bound!r},{c.passed}"
                )
            csv_path = _write(outdir, "stein_check.csv", "\n".join(lines) + "\n")
            doc_out = [asdict(c) for c in checks]
            json_path = _write(outdir, "stein_check.json", _canonical_json(doc_out))
            for c in checks:
                print(
                    f"w={c.w} d/dw_{c.coord}: estimate {c.estimate:.6g} "
                    f"bound {c.bound:.6g} {'ok' if c.passed else 'VIOLATED'}"
                )
            print(f"artifacts: {csv_path}, {json_path}")
            if not all(c.passed for c in checks):
                return EXIT_DOMINANCE
            return EXIT_OK

        if cmd == "moments":
            model = model_from_spec(doc["model"])
            table = analytic_moments(
                model,
                doc.get("orders", [2.0, 3.0, 4.0]),
                doc.get("n", 100),
                w_orders=doc.get("w_orders", []),
                w_seed=seed if seed is not None else 0,
                w_reps=int(doc.get("w_reps", DEFAULT_W_REPS)),
            )
            path = _write(outdir, "moments.json", table.to_json() + "\n")
            print(f"moment table ({len(table.abs_moments)} entries) -> {path}")
            return EXIT_OK
    except SteinDeltaError as exc:
        print(f"applicability error: {exc}", file=sys.stderr)
        return EXIT_APPLICABILITY
    raise AssertionError(f"unhandled command {cmd!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stein-delta",
        description="Evaluate explicit delta-method error bounds and verify them by Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config document")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not isinstance(doc, dict):
        print("config error: document must be a JSON object", file=sys.stderr)
        return EXIT_CONFIG
    env_seed = os.environ.get(SEED_ENV)
    if env_seed is not None:
        try:
            doc["seed"] = int(env_seed)
        except ValueError:
            print(f"config error: {SEED_ENV}={env_seed!r} is not an integer", file=sys.stderr)
            return EXIT_CONFIG
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.threads is not None:
        doc["threads"] = args.threads
    if args.out is not None:
        doc["out"] = args.out
    if args.format is not None:
        doc["format"] = args.format
    return run(doc, args.command)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
