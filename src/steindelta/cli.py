"""Configuration-driven command line front end.

One canonical-JSON config document drives each run; artifacts are byte
reproducible for a fixed seed.  Exit codes separate misuse from
falsification: 0 success, 2 config error, 3 theorem applicability
failure, 4 dominance (or solution-derivative) violation.

Each command has one build step that parses its config and constructs
everything the run needs; a value is a config error exactly when a
library constructor rejects it, and a key is one when the build step does
not read it.  ``validate`` is that build step with the result thrown
away, so it is a dry run of ``run``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass

from . import mcverify
from .bounds import (
    FnEnvelope,
    GrowthEnvelope,
    budget_order,
    check_kind_dimension,
    evaluate_bound,
    min_n,
    required_moment_orders,
)
from .core import TestBudget
from .errors import ArgumentError, SteinDeltaError, as_count
from .moments import analytic_moments, moment_orders
from .statistics import (
    EXAMPLES,
    PLAN_OVERRIDES,
    ExperimentPlan,
    model_from_spec,
    plan_from_config,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_APPLICABILITY = 3
EXIT_DOMINANCE = 4

COMMANDS = ("bound", "verify", "rate", "example", "stein-check", "moments")

# Config keys the build steps read: the top-level keys of every command, the
# top-level keys only some commands read (each with those commands; the CLI
# offers a flag for a key only to them), then those of the objects the build
# steps parse.  Each build step adds its own top-level keys.
COMMON_KEYS = ("command", "seed", "out")
OPTIONAL_KEYS = {
    "threads": ("verify", "rate", "example"),
    "format": ("bound",),
}
BOUND_KEYS = ("kind", "mode", "n", "model", "envelope", "budgets", "w_reps")
FN_BOUND_KEYS = BOUND_KEYS + ("parity",)
STEIN_KEYS = ("g", "envelope", "testfn", "sigma", "points", "s_max", "steps", "replicates")
GROWTH_KEYS = ("t", "A", "r", "even_map", "vanishing_third")
FN_KEYS = ("A", "B", "r")
BUDGET_KEYS = ("hprime", "hdoubleprime", "sup_norms", "m")

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
# Checks common to every command
# ---------------------------------------------------------------------------

def _seed(doc) -> int | None:
    """The run's seed: the config's ``seed`` if it is an integer >= 0, else None."""
    seed = doc.get("seed")
    # type(), not isinstance: JSON true is a bool, and a bool is an int
    return seed if type(seed) is int and seed >= 0 else None


def _check_common(doc, command) -> list[Diagnostic]:
    diags = []
    cmd = doc.get("command")
    if cmd not in COMMANDS:
        diags.append(
            Diagnostic("command", "command-known", f"must be one of {COMMANDS}, got {cmd!r}")
        )
    elif command is not None and cmd != command:
        diags.append(
            Diagnostic("command", "command-matches", f"config says {cmd!r}, invoked {command!r}")
        )
    if "seed" in doc and _seed(doc) is None:
        diags.append(Diagnostic("seed", "seed-int", "seed must be a non-negative integer"))
    # an optional key the command does not read is reported once, by its build step
    reads = [key for key, commands in OPTIONAL_KEYS.items() if cmd in commands and key in doc]
    if "threads" in reads:
        try:
            as_count(doc["threads"], "threads")  # the check rngstreams.run_blocks applies
        except ArgumentError:
            diags.append(Diagnostic("threads", "threads-int", "threads must be an integer >= 1"))
    if "format" in reads and doc["format"] not in ("json", "csv"):
        diags.append(Diagnostic("format", "format-known", "format must be json or csv"))
    out = doc.get("out", ".")
    probe = os.path.abspath(out) if isinstance(out, str) else ""
    while probe and not os.path.exists(probe):
        parent = os.path.dirname(probe)
        if parent == probe:
            break
        probe = parent
    if not os.path.isdir(probe) or not os.access(probe, os.W_OK):
        diags.append(Diagnostic("out", "out-writable", f"cannot create artifacts under {out!r}"))
    return diags


# ---------------------------------------------------------------------------
# Build steps: parse a command's config into a job, constructing everything
# ---------------------------------------------------------------------------

class _Rejected(Exception):
    """A config value that a constructor rejected, carrying its Diagnostic."""


def _at(path, rule, make, *args):
    """``make(*args)``; a rejected value becomes a Diagnostic at ``path``."""
    try:
        return make(*args)
    except (ValueError, TypeError, LookupError) as exc:  # SteinDeltaError is a ValueError
        raise _Rejected(Diagnostic(path, rule, str(exc))) from exc


def _w_reps(path, value):
    """A ``w_reps`` key: absent or null keeps W moments exact, a count opts in to Monte Carlo."""
    return None if value is None else _at(path, "w-reps-positive", as_count, value, "w_reps")


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ArgumentError(f"{what} must be an object, got {value!r}")
    return value


def _known(path, cfg, keys) -> None:
    """Reject the first key of ``cfg`` that its build step does not read (non-objects pass)."""
    for key in cfg if isinstance(cfg, dict) else ():
        if key not in keys:
            why = f"unknown key {key!r}; {path or 'the config'} reads {sorted(keys)}"
            raise _Rejected(Diagnostic(f"{path}.{key}" if path else str(key), "key-known", why))


def _top_keys(doc, *own) -> tuple:
    """The top-level keys the config's command reads: the common ones, its optional ones, ``own``."""
    optional = tuple(key for key, commands in OPTIONAL_KEYS.items() if doc["command"] in commands)
    return COMMON_KEYS + optional + own


def _plan(doc, path, spec) -> ExperimentPlan:
    """The plan of ``spec`` at the run's seed; its grid must meet the theorem's minimum n."""
    spec = _at(path, "plan-constructible", _object, spec, path)
    _known(path, spec, ("builtin", "params") + PLAN_OVERRIDES)
    seed = _seed(doc)
    if seed is not None:  # a rejected seed is reported once, by the common checks
        spec = {**spec, "seed": seed}
    plan = _at(path, "plan-constructible", plan_from_config, spec)
    need = min_n(plan.bound_kind, plan.mode, plan.mapspec.d)
    bad = [n for n in plan.n_grid if n < need]
    if bad:
        why = f"the {plan.mode}-mode {plan.bound_kind} bound requires n >= {need}"
        raise _Rejected(Diagnostic(f"{path}.n_grid", "n-minimum", f"{why}; offending points {bad}"))
    _known(f"{path}.testfn", plan.testfn, mcverify.TESTFN_KEYS)
    _at(f"{path}.testfn", "testfn-valid", mcverify.plan_test_function, plan)
    return plan


def _envelope(path, cfg, make, keys):
    """``make`` of the ``envelope`` object of ``cfg``, which may hold only ``keys``."""
    env = _at(path, "envelope-valid", _object, cfg.get("envelope", {}), "envelope")
    _known(path, env, keys)
    return _at(path, "envelope-valid", make, env)


def _growth_env(env) -> GrowthEnvelope:
    return GrowthEnvelope(
        t=as_count(env.get("t"), "envelope.t"),
        A={int(k): float(v) for k, v in _object(env.get("A", {}), "envelope.A").items()},
        r={int(k): float(v) for k, v in _object(env.get("r", {}), "envelope.r").items()},
        even_map=bool(env.get("even_map", False)),
        vanishing_third=bool(env.get("vanishing_third", False)),
    )


def _fn_env(env) -> FnEnvelope:
    return FnEnvelope(float(env.get("A", 0.0)), float(env.get("B", 0.0)), float(env.get("r", 0.0)))


def _budget(budgets, kind, order) -> tuple[TestBudget, int]:
    """(budget, m) of an inline bound.

    Univariate kinds read |h|_1 and |h|_2 from ``hprime`` and
    ``hdoubleprime`` and have m = 1; the others read ``sup_norms`` and ``m``.
    """
    budgets = _object(budgets, "budgets")
    _known("bound.budgets", budgets, BUDGET_KEYS)
    univariate = kind.endswith("univariate")
    other = ("sup_norms",) if univariate else ("hprime", "hdoubleprime")
    unread = [key for key in budgets if key in other]
    if unread:
        raise ArgumentError(f"a {kind} bound does not read budgets {unread}")
    m = as_count(budgets.get("m", 1), "budgets.m")
    if univariate:
        if m != 1:
            raise ArgumentError(f"a univariate bound has m = 1, got m = {m}")
        sup = (budgets.get("hprime", 1.0), budgets.get("hdoubleprime", 1.0))
    else:
        sup = budgets.get("sup_norms", (1.0,) * order)
    return TestBudget(order, tuple(float(v) for v in sup)), m


def _stein_map(name):
    """g(w) of a stein-check: the coordinate sum (linear) or squared norm (square)."""
    if name == "linear":
        return lambda w: w.sum(axis=-1)
    if name == "square":
        return lambda w: (w**2).sum(axis=-1)
    raise ArgumentError(f"g must be 'linear' or 'square', got {name!r}")


def _build_sweep(doc):
    """verify, rate and example: one plan swept over its n grid."""
    if doc["command"] != "example":
        _known("", doc, _top_keys(doc, "experiment"))
        plan = _plan(doc, "experiment", doc.get("experiment"))
        if doc["command"] == "rate":
            _at("experiment.n_grid", "rate-points", mcverify.check_rate_points, len(plan.n_grid))
        return lambda: _sweep_job(doc, plan)
    _known("", doc, _top_keys(doc, "name", "overrides"))
    name, known = doc.get("name"), sorted(EXAMPLES)
    if name not in known:
        raise _Rejected(
            Diagnostic("name", "example-known", f"unknown example {name!r}; know {known}")
        )
    overrides = _at("overrides", "overrides-object", _object, doc.get("overrides", {}), "overrides")
    _known("overrides", overrides, PLAN_OVERRIDES)
    plan = _plan(doc, "overrides", {"builtin": name, "params": {}, **overrides})
    return lambda: _sweep_job(doc, plan)


def _build_bound(doc):
    """bound: a built-in plan's bound at one n, or an inline bound."""
    if "experiment" in doc:
        _known("", doc, _top_keys(doc, "experiment", "n"))
        plan = _plan(doc, "experiment", doc["experiment"])
        n = _at("n", "n-positive", as_count, doc.get("n", plan.n_grid[0]), "n")
        return lambda: _bound_job(doc, mcverify.plan_bound_report(plan, n))
    if "bound" not in doc:
        why = "bound needs 'experiment' or inline 'bound'"
        raise _Rejected(Diagnostic("", "bound-payload", why))
    _known("", doc, _top_keys(doc, "bound"))
    cfg = _at("bound", "bound-object", _object, doc["bound"], "bound")
    kind, mode = cfg.get("kind"), cfg.get("mode")
    order = _at("bound", "kind-known", budget_order, kind, mode)
    delta = kind.startswith("delta")
    _known("bound", cfg, BOUND_KEYS if delta else FN_BOUND_KEYS)  # only the fn kinds read parity
    n = _at("bound.n", "n-positive", as_count, cfg.get("n"), "n")
    w_reps = _w_reps("bound.w_reps", cfg.get("w_reps"))
    model = _at("bound.model", "model-valid", model_from_spec, cfg.get("model", {}))
    _at("bound.model", "model-dimension", check_kind_dimension, kind, model.d)
    make, keys = (_growth_env, GROWTH_KEYS) if delta else (_fn_env, FN_KEYS)
    env = _envelope("bound.envelope", cfg, make, keys)
    budget, m = _at("bound.budgets", "budgets-valid", _budget, cfg.get("budgets", {}), kind, order)
    parity = bool(cfg.get("parity", False))

    def report():
        req = required_moment_orders(kind, mode, n, env)
        table = analytic_moments(
            model, req.x_orders, n, w_orders=req.w_orders, w_seed=_seed(doc) or 0, w_reps=w_reps
        )
        return evaluate_bound(kind, mode, env, table, budget, m, parity)

    return lambda: _bound_job(doc, report())


def _build_stein(doc):
    """stein-check: solution-derivative checks at the configured points."""
    _known("", doc, _top_keys(doc, "stein"))
    cfg = _at("stein", "stein-object", _object, doc.get("stein"), "stein")
    _known("stein", cfg, STEIN_KEYS)
    g = _at("stein.g", "g-known", _stein_map, cfg.get("g"))
    env = _envelope("stein.envelope", cfg, _fn_env, FN_KEYS)
    tf = _at("stein.testfn", "testfn-valid", _object, cfg.get("testfn", {}), "testfn")
    _known("stein.testfn", tf, mcverify.TESTFN_KEYS)
    h = _at("stein.testfn", "testfn-valid", mcverify.build_test_function, tf, 1)  # g is scalar
    sigma, points, s_max, steps, reps = _at(
        "stein", "stein-inputs", mcverify.stein_check_inputs, cfg.get("sigma", [[1.0]]),
        cfg.get("points", [0.0]), cfg.get("s_max", mcverify.STEIN_S_MAX),
        cfg.get("steps", mcverify.STEIN_STEPS), cfg.get("replicates", mcverify.STEIN_MC_REPS),
    )
    budget = TestBudget(1, (h.hprime(),))

    def job():
        checks = mcverify.stein_solution_check(
            env, g, h, sigma, points, s_max=s_max, steps=steps, mc_reps=reps,
            seed=_seed(doc) or 0, budget=budget,
        )
        return _stein_job(doc, checks)

    return job


def _build_moments(doc):
    """moments: one model's moment table at one n."""
    _known("", doc, _top_keys(doc, "model", "orders", "w_orders", "n", "w_reps"))
    model = _at("model", "model-valid", model_from_spec, doc.get("model", {}))
    orders = _at("orders", "orders-valid", moment_orders, doc.get("orders", [2.0, 3.0, 4.0]))
    w_orders = _at("w_orders", "orders-valid", moment_orders, doc.get("w_orders", []))
    n = _at("n", "n-positive", as_count, doc.get("n", 100), "n")
    w_reps = _w_reps("w_reps", doc.get("w_reps"))

    def job():
        table = analytic_moments(
            model, orders, n, w_orders=w_orders, w_seed=_seed(doc) or 0, w_reps=w_reps
        )
        path = _write(doc.get("out", "."), "moments.json", table.to_json() + "\n")
        print(f"moment table ({len(table.abs_moments)} entries) -> {path}")
        return EXIT_OK

    return job


_BUILDERS = {
    "bound": _build_bound,
    "verify": _build_sweep,
    "rate": _build_sweep,
    "example": _build_sweep,
    "stein-check": _build_stein,
    "moments": _build_moments,
}


def _prepare(doc, command):
    """(diagnostics, job): the common checks, then the command's build step."""
    if not isinstance(doc, dict):
        return [Diagnostic("", "document-object", "config must be a JSON object")], None
    diags = _check_common(doc, command)
    job = None
    if doc.get("command") in COMMANDS:
        try:
            job = _BUILDERS[doc["command"]](doc)
        except _Rejected as exc:
            diags.append(exc.args[0])
    return diags, job


def validate(doc: dict, command: str | None = None) -> list[Diagnostic]:
    """Diagnostics for a config document; empty iff run would accept it.

    A dry run of ``run``: the same checks and build step, nothing executed.
    """
    return _prepare(doc, command)[0]


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


def _summary_doc(plan, rows, stem, fit=None, noisy=()):
    """A sweep's summary; a rate summary also holds the fit, null with the noisy points
    where the fit's precondition failed."""
    doc = {
        "plan": plan.to_config(),
        "rows": [asdict(r) for r in rows],
        "violations": sum(r.status == "violated" for r in rows),
    }
    if stem == "rate":
        doc["rate_fit"] = None if fit is None else asdict(fit)
    if noisy:
        doc["noisy_points"] = [{"n": n, "estimate": v, "std_error": se} for n, v, se in noisy]
    return doc


# ---------------------------------------------------------------------------
# Command execution
# ---------------------------------------------------------------------------

def _bound_job(doc, report) -> int:
    if not report.valid:
        print(f"bound inapplicable: {report.failed_conditions()}", file=sys.stderr)
        return EXIT_APPLICABILITY
    outdir = doc.get("out", ".")
    if doc.get("format", "json") == "csv":
        path = _write(outdir, "bound.csv", report.CSV_HEADER + "\n" + report.to_csv_row() + "\n")
    else:
        path = _write(outdir, "bound.json", report.to_json() + "\n")
    print(f"{report.theorem}: value {report.value!r} ({report.rigor}) -> {path}")
    return EXIT_OK


def _sweep_job(doc, plan) -> int:
    outdir, threads = doc.get("out", "."), doc.get("threads", 1)
    stem, fit, failed = "verify", None, None
    if doc["command"] == "rate":
        stem = "rate"
        try:
            rows, fit = mcverify.run_rate(plan, threads=threads)
        except mcverify.RatePreconditionError as exc:
            rows, failed = exc.rows, exc
    else:
        rows = mcverify.run_verification(plan, threads=threads)
    summary = _summary_doc(plan, rows, stem, fit, failed.noisy_points if failed else ())
    csv_path = _write(outdir, f"{stem}.csv", _rows_csv(rows))
    json_path = _write(outdir, f"{stem}_summary.json", _canonical_json(summary))
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
    if failed is not None:
        print(f"applicability error: {failed}", file=sys.stderr)
        return EXIT_APPLICABILITY
    if any(r.status == "violated" for r in rows):
        return EXIT_DOMINANCE
    return EXIT_OK


def _stein_job(doc, checks) -> int:
    outdir = doc.get("out", ".")
    lines = ["w,coord,estimate,bound,passed"]
    for c in checks:
        lines.append(
            f"\"{','.join(repr(v) for v in c.w)}\",{c.coord},"
            f"{c.estimate!r},{c.bound!r},{c.passed}"
        )
    csv_path = _write(outdir, "stein_check.csv", "\n".join(lines) + "\n")
    json_path = _write(outdir, "stein_check.json", _canonical_json([asdict(c) for c in checks]))
    for c in checks:
        print(
            f"w={c.w} d/dw_{c.coord}: estimate {c.estimate:.6g} "
            f"bound {c.bound:.6g} {'ok' if c.passed else 'VIOLATED'}"
        )
    print(f"artifacts: {csv_path}, {json_path}")
    if not all(c.passed for c in checks):
        return EXIT_DOMINANCE
    return EXIT_OK


def run(doc: dict, command: str | None = None) -> int:
    """Build the config's job as ``validate`` does, then execute it; returns the exit code."""
    diags, job = _prepare(doc, command)
    if diags:
        for diag in diags:
            print(f"config error: {diag}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return job()
    except SteinDeltaError as exc:
        print(f"applicability error: {exc}", file=sys.stderr)
        return EXIT_APPLICABILITY


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
        p.add_argument("--out", default=None)
        if name in OPTIONAL_KEYS["threads"]:
            p.add_argument("--threads", type=int, default=None)
        if name in OPTIONAL_KEYS["format"]:
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
    env_seed = os.environ.get(SEED_ENV)
    if env_seed is not None:
        try:
            env_seed = int(env_seed)
        except ValueError:
            print(f"config error: {SEED_ENV}={env_seed!r} is not an integer", file=sys.stderr)
            return EXIT_CONFIG
    flags = {
        "seed": env_seed if args.seed is None else args.seed,
        "out": args.out,
        "threads": getattr(args, "threads", None),
        "format": getattr(args, "format", None),
    }
    if isinstance(doc, dict):  # any other document is reported by run
        doc.update((key, value) for key, value in flags.items() if value is not None)
    return run(doc, args.command)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
