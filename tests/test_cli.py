import copy
import json
import subprocess
import sys
import time
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from steindelta import cli, mcverify
from steindelta.bounds import FnEnvelope
from steindelta.core import TestBudget
from steindelta.mcverify import DistanceEstimate
from steindelta.moments import EXACT, LYAPUNOV, MomentTable
from steindelta.statistics import EXAMPLES, builtin, plan_from_config


def base_verify_config(tmp_path, **extra):
    doc = {
        "command": "verify",
        "seed": 7,
        "out": str(tmp_path),
        "experiment": {
            "builtin": "bernoulli-variance",
            "params": {"p": 0.5},
            "n_grid": [16, 32],
            "replicates": 2000,
        },
    }
    doc.update(extra)
    return doc


class TestValidate:
    def test_well_formed_config_clean(self, tmp_path):
        assert cli.validate(base_verify_config(tmp_path)) == []

    def test_even_mode_grid_minimum(self, tmp_path):
        doc = base_verify_config(tmp_path)
        doc["experiment"] = {
            "builtin": "pearson",
            "params": {"probs": [0.25, 0.25, 0.5]},
            "n_grid": [8],
            "replicates": 2000,
        }
        diags = cli.validate(doc)
        assert any(d.rule == "n-minimum" and "n >= 12" in d.message for d in diags)

    def test_pearson_probability_sum(self, tmp_path):
        doc = base_verify_config(tmp_path)
        doc["experiment"] = {
            "builtin": "pearson",
            "params": {"probs": [0.5, 0.4]},
            "n_grid": [16],
            "replicates": 2000,
        }
        diags = cli.validate(doc)
        assert any(d.rule == "plan-constructible" for d in diags)

    def test_unknown_command(self):
        diags = cli.validate({"command": "plot"})
        assert any(d.rule == "command-known" for d in diags)

    def test_command_mismatch(self, tmp_path):
        doc = base_verify_config(tmp_path)
        diags = cli.validate(doc, command="rate")
        assert any(d.rule == "command-matches" for d in diags)

    def test_unknown_example_name(self, tmp_path):
        diags = cli.validate(
            {"command": "example", "name": "ex9.9", "out": str(tmp_path)}
        )
        assert any(d.rule == "example-known" for d in diags)

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_subcommands_offer_only_the_flags_they_read(self, command):
        for key, value in (("threads", "2"), ("format", "csv")):
            argv = [command, "--config", "cfg.json", f"--{key}", value]
            if command in cli.OPTIONAL_KEYS[key]:
                assert str(getattr(cli._parser().parse_args(argv), key)) == value
            else:
                with pytest.raises(SystemExit):
                    cli._parser().parse_args(argv)

    def test_fn_bound_reads_parity(self, tmp_path):
        doc = copy.deepcopy(MALFORMED_BASES["bound"])
        doc["bound"]["parity"] = True
        assert cli.validate({**doc, "command": "bound", "out": str(tmp_path)}, "bound") == []

    def test_run_builds_the_plan_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_plan_from_config(doc):
            calls.append(doc)
            return plan_from_config(doc)

        monkeypatch.setattr(cli, "plan_from_config", counting_plan_from_config)
        doc = {
            "command": "example",
            "name": "ex3.1-chisq",
            "out": str(tmp_path),
            "overrides": {"n_grid": [16], "replicates": 2000},
        }
        assert cli.run(doc, "example") == cli.EXIT_OK
        assert len(calls) == 1


class TestRunCommands:
    def test_bound_inline_chisq_example(self, tmp_path):
        doc = {
            "command": "bound",
            "out": str(tmp_path),
            "bound": {
                "kind": "delta-univariate",
                "mode": "zero-third",
                "n": 100,
                "model": {"kind": "centered-bernoulli", "p": 0.5},
                "envelope": {
                    "t": 2,
                    "A": {"2": 1.0, "3": 0.0, "4": 0.0},
                    "r": {"2": 0.0},
                    "even_map": True,
                    "vanishing_third": True,
                },
                "budgets": {"hprime": 1.0, "hdoubleprime": 1.0},
            },
        }
        assert cli.run(doc, "bound") == cli.EXIT_OK
        report = json.loads((tmp_path / "bound.json").read_text())
        assert report["value"] <= 78 / 100
        assert report["theorem"] == "delta-uv-zero3"

    def test_bound_from_builtin_plan(self, tmp_path):
        doc = {
            "command": "bound",
            "out": str(tmp_path),
            "format": "csv",
            "n": 100,
            "experiment": {"builtin": "ex3.1-chisq", "params": {}},
        }
        assert cli.run(doc, "bound") == cli.EXIT_OK
        text = (tmp_path / "bound.csv").read_text()
        assert text.splitlines()[0] == "theorem,n,d,m,t,value,rate,rigor"
        value = float(text.splitlines()[1].split(",")[5])
        assert value <= 78 / 100

    def test_verify_smoke_plan_exit_zero(self, tmp_path):
        doc = base_verify_config(tmp_path)
        assert cli.run(doc, "verify") == cli.EXIT_OK
        lines = (tmp_path / "verify.csv").read_text().splitlines()
        assert lines[0] == "n,estimate,std_error,bound,theorem,dominated"
        assert len(lines) == 3
        summary = json.loads((tmp_path / "verify_summary.json").read_text())
        assert summary["violations"] == 0

    def test_example_command(self, tmp_path):
        doc = {
            "command": "example",
            "name": "ex3.5-friedman",
            "out": str(tmp_path),
            "seed": 3,
            "overrides": {"n_grid": [16], "replicates": 2000, "w_reps": 4000},
        }
        assert cli.run(doc, "example") == cli.EXIT_OK
        assert (tmp_path / "verify.csv").exists()

    def test_rate_command_exact_points(self, tmp_path, monkeypatch):
        calls = {}

        def fake_estimate(plan, h, n, replicates=None, threads=1):
            calls[n] = replicates
            return DistanceEstimate(2.0 / n, 1e-9, replicates or 1000, 0)

        monkeypatch.setattr(mcverify, "estimate_delta_h", fake_estimate)
        doc = base_verify_config(tmp_path, command="rate")
        doc["experiment"]["n_grid"] = [16, 32, 64]
        assert cli.run(doc, "rate") == cli.EXIT_OK
        summary = json.loads((tmp_path / "rate_summary.json").read_text())
        assert summary["rate_fit"]["slope"] == pytest.approx(-1.0, abs=1e-6)
        # replicate budgets scale with n along the sweep
        assert calls[32] == 2 * calls[16] and calls[64] == 4 * calls[16]
        assert [row["replicates"] for row in summary["rows"]] == [calls[16], calls[32], calls[64]]

    def test_moments_command(self, tmp_path):
        doc = {
            "command": "moments",
            "out": str(tmp_path),
            "model": {"kind": "rank-scores", "scores": [1, 2, 3]},
            "orders": [2, 3, 4],
            "n": 50,
            "w_orders": [2.0],
        }
        assert cli.run(doc, "moments") == cli.EXIT_OK
        table = MomentTable.from_json((tmp_path / "moments.json").read_text())
        assert table.d == 3 and table.has_abs_moment(0, 3)

    @pytest.mark.parametrize(
        "model",
        [{"kind": "centered-bernoulli", "p": 0.3}, {"kind": "rank-scores", "scores": [1, 2, 3]}],
    )
    def test_moments_cost_bounded_at_huge_n(self, tmp_path, model):
        # above the lattice cap even a two-atom coordinate takes the Lyapunov
        # route: no O(n) array and no sampling, whatever n is
        doc = {
            "command": "moments",
            "out": str(tmp_path),
            "model": model,
            "orders": [2],
            "n": 10**12,
            "w_orders": [3, 4.5, 6],
        }
        tracemalloc.start()
        try:
            start = time.perf_counter()
            assert cli.run(doc, "moments") == cli.EXIT_OK
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5 and peak < 2**20
        table = MomentTable.from_json((tmp_path / "moments.json").read_text())
        tags = {r: table.w_abs_moment(0, r).provenance for r in (3, 4.5, 6)}
        assert tags == {3: LYAPUNOV, 4.5: LYAPUNOV, 6: EXACT}

    def test_stein_check_command(self, tmp_path):
        doc = {
            "command": "stein-check",
            "out": str(tmp_path),
            "seed": 2,
            "stein": {
                "g": "linear",
                "sigma": [[1.0]],
                "envelope": {"A": 1.0, "B": 0.0, "r": 0.0},
                "points": [0.0, 1.0],
                "steps": 80,
                "replicates": 4000,
            },
        }
        assert cli.run(doc, "stein-check") == cli.EXIT_OK
        lines = (tmp_path / "stein_check.csv").read_text().splitlines()
        assert lines[0] == "w,coord,estimate,bound,passed"

    def test_stein_check_defaults_are_the_library_defaults(self, tmp_path):
        # no s_max, steps or replicates: the CLI must run the library's defaults
        doc = {
            "command": "stein-check",
            "out": str(tmp_path),
            "seed": 4,
            "stein": {"g": "linear", "envelope": {"A": 1.0}, "points": [0.5]},
        }
        assert cli.run(doc, "stein-check") == cli.EXIT_OK
        checks = mcverify.stein_solution_check(
            FnEnvelope(1.0, 0.0, 0.0),
            lambda w: w.sum(axis=-1),
            mcverify.SmoothTestFunction(),
            [[1.0]],
            [0.5],
            seed=4,
            budget=TestBudget(1, (1.0,)),
        )
        direct = json.dumps([asdict(c) for c in checks], sort_keys=True, separators=(",", ":"))
        assert (tmp_path / "stein_check.json").read_text() == direct + "\n"


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        doc = base_verify_config(tmp_path)
        doc["experiment"]["replicates"] = 10
        assert cli.run(doc, "verify") == cli.EXIT_CONFIG

    def test_applicability_is_3(self, tmp_path):
        doc = {
            "command": "bound",
            "out": str(tmp_path),
            "bound": {
                "kind": "delta-univariate",
                "mode": "zero-third",
                "n": 6,  # below the n >= 8 hypothesis
                "model": {"kind": "centered-bernoulli", "p": 0.5},
                "envelope": {
                    "t": 2,
                    "A": {"2": 1.0, "3": 0.0, "4": 0.0},
                    "r": {"2": 0.0},
                    "vanishing_third": True,
                },
            },
        }
        assert cli.run(doc, "bound") == cli.EXIT_APPLICABILITY

    def test_dominance_violation_is_4(self, tmp_path, monkeypatch):
        def fake_estimate(plan, h, n, replicates=None, threads=1):
            return DistanceEstimate(1e9, 1e-9, 1000, 0)

        monkeypatch.setattr(mcverify, "estimate_delta_h", fake_estimate)
        doc = base_verify_config(tmp_path)
        assert cli.run(doc, "verify") == cli.EXIT_DOMINANCE

    def test_stein_violation_is_4(self, tmp_path, monkeypatch):
        doc = {
            "command": "stein-check",
            "out": str(tmp_path),
            "stein": {
                "g": "square",
                "sigma": [[1.0]],
                # deliberately broken envelope: bound 0 but derivative not 0
                "envelope": {"A": 0.0, "B": 0.0, "r": 0.0},
                "points": [1.0],
                "steps": 60,
                "replicates": 4000,
            },
        }
        assert cli.run(doc, "stein-check") == cli.EXIT_DOMINANCE


MALFORMED_BASES = {
    "stein-check": {"stein": {"g": "linear", "points": [0.0], "steps": 80, "replicates": 4000}},
    "example": {"name": "ex3.1-chisq"},
    "verify": {"experiment": {"builtin": "ex3.1-chisq", "n_grid": [16], "replicates": 2000}},
    "moments": {"model": {"kind": "rank-scores", "scores": [1, 2, 3]}},
    "bound": {
        "bound": {
            "kind": "fn-univariate",
            "mode": "general",
            "n": 16,
            "model": {"kind": "centered-bernoulli", "p": 0.3},
            "envelope": {"A": 1.0, "B": 1.0, "r": 1.5},
        }
    },
}


def _unreachable(*args, **kwargs):
    raise AssertionError("a rejected config must not reach the sampling work")


class TestMalformedValues:
    @pytest.mark.parametrize("command", sorted(MALFORMED_BASES))
    def test_bases_are_well_formed(self, tmp_path, command):
        doc = {**copy.deepcopy(MALFORMED_BASES[command]), "command": command, "out": str(tmp_path)}
        assert cli.validate(doc, command) == []

    @pytest.mark.parametrize(
        "command, section, key, value",
        [
            ("stein-check", "stein", "steps", "abc"),
            ("stein-check", "stein", "replicates", None),
            ("example", None, "overrides", [1, 2]),
            ("verify", "experiment", "w_reps", "x"),
            ("verify", "experiment", "w_reps", 0),
            ("moments", None, "w_orders", ["x"]),
            ("moments", None, "w_reps", "x"),
            ("bound", "bound", "w_reps", 0),
            # JSON true is not the integer 1
            ("verify", None, "seed", True),
            ("verify", None, "threads", True),
            ("verify", "experiment", "w_reps", True),
            ("moments", None, "n", True),
        ],
    )
    def test_config_error_not_exception(self, tmp_path, command, section, key, value):
        doc = copy.deepcopy(MALFORMED_BASES[command])
        doc.update(command=command, out=str(tmp_path))
        (doc[section] if section else doc)[key] = value
        assert cli.validate(doc, command)
        assert cli.run(doc, command) == cli.EXIT_CONFIG

    @pytest.mark.parametrize(
        "command, settings",
        [
            pytest.param("bound", [(("bound", "envelope"), "x")], id="envelope-str"),
            pytest.param("moments", [(("model",), "x")], id="model-str"),
            pytest.param("stein-check", [(("stein", "s_max"), "abc")], id="s_max-str"),
            pytest.param("stein-check", [(("stein", "testfn"), {"a": "xy"})], id="stein-a-str"),
            pytest.param("bound", [(("bound", "budgets"), {"hprime": "x"})], id="hprime-str"),
            pytest.param("bound", [(("bound", "budgets"), [1])], id="budgets-list"),
            pytest.param("bound", [(("bound", "budgets"), {"m": "x"})], id="m-str"),
            pytest.param("verify", [(("experiment", "testfn"), {"a": "x"})], id="plan-a-str"),
            pytest.param(
                "stein-check",
                [(("stein", "sigma"), [[1.0, 0.0], [0.0, 1.0]])],
                id="point-dimension",
            ),
            pytest.param(
                "stein-check",
                [
                    (("stein", "sigma"), [[1.0, 2.0], [2.0, 1.0]]),
                    (("stein", "points"), [[0.0, 0.0]]),
                ],
                id="sigma-indefinite",
            ),
            pytest.param(
                "bound",
                [
                    (("bound", "kind"), "fn-multivariate"),
                    (("bound", "budgets"), {"sup_norms": [1.0, 1.0]}),
                ],
                id="sup_norms-length",
            ),
            pytest.param("verify", [(("experiment", "w_reps"), 2.5)], id="w_reps-float"),
            pytest.param(
                "moments",
                [(("model",), {"kind": "rank-scores", "scores": [1, 2, 3], "p": 0.3})],
                id="model-extra-key",
            ),
        ],
    )
    def test_constructor_rejection_is_config_error(self, tmp_path, command, settings):
        doc = copy.deepcopy(MALFORMED_BASES[command])
        doc.update(command=command, out=str(tmp_path))
        for path, value in settings:
            _set_path(doc, path, value)
        assert cli.validate(doc, command)
        assert cli.run(doc, command) == cli.EXIT_CONFIG

    @pytest.mark.parametrize(
        "command, settings, path, rule",
        [
            pytest.param(
                "rate",
                [
                    (
                        ("experiment",),
                        {"builtin": "ex3.1-chisq", "n_grid": [64, 128], "replicates": 2000},
                    )
                ],
                "experiment.n_grid",
                "rate-points",
                id="rate-two-points",
            ),
            pytest.param(
                "bound",
                [(("bound", "model"), {"kind": "rank-scores", "scores": [1, 2, 3]})],
                "bound.model",
                "model-dimension",
                id="univariate-kind-d3",
            ),
            pytest.param(
                "stein-check",
                [(("stein", "testfn"), {"a": [1.0, 2.0], "family": "product-form"})],
                "stein.testfn",
                "testfn-valid",
                id="stein-a-length",
            ),
            pytest.param(
                "stein-check",
                [(("stein", "testfn"), {"family": "bogus"})],
                "stein.testfn",
                "testfn-valid",
                id="stein-family",
            ),
            pytest.param(
                "bound",
                [(("bound", "budgets"), {"m": 5, "sup_norms": [9, 9]})],
                "bound.budgets",
                "budgets-valid",
                id="univariate-budgets",
            ),
            pytest.param(
                "bound",
                [(("bound", "budgets"), {"m": 5})],
                "bound.budgets",
                "budgets-valid",
                id="univariate-m",
            ),
            pytest.param(
                "bound",
                [(("bound", "budgets"), {"sup_norms": [9, 9]})],
                "bound.budgets",
                "budgets-valid",
                id="univariate-sup-norms",
            ),
            pytest.param("verify", [(("sed",), 4)], "sed", "key-known", id="unknown-top-level"),
            pytest.param(
                "verify",
                [(("experiment", "w_rep"), 3)],
                "experiment.w_rep",
                "key-known",
                id="unknown-experiment-key",
            ),
            pytest.param(
                "stein-check",
                [(("stein", "stesp"), 20)],
                "stein.stesp",
                "key-known",
                id="unknown-stein-key",
            ),
            pytest.param(
                "stein-check",
                [(("stein", "testfn"), {"frequency": [2.0]})],
                "stein.testfn.frequency",
                "key-known",
                id="unknown-testfn-key",
            ),
            pytest.param(
                "example",
                [(("overrides",), {"builtin": "friedman", "params": {"r": 3}})],
                "overrides.builtin",
                "key-known",
                id="override-swaps-builtin",
            ),
            pytest.param(
                "rate",
                [
                    (("spill_streams",), True),
                    (("format",), "csv"),
                    (
                        ("experiment",),
                        {"builtin": "ex3.1-normal", "n_grid": [64, 128, 256], "replicates": 2000},
                    ),
                ],
                "spill_streams",
                "key-known",
                id="rate-spill-format",
            ),
            pytest.param("verify", [(("format",), "csv")], "format", "key-known", id="verify-format"),
            pytest.param(
                "stein-check", [(("threads",), 0)], "threads", "key-known", id="stein-threads"
            ),
            pytest.param("moments", [(("threads",), 2)], "threads", "key-known", id="moments-threads"),
            pytest.param("bound", [(("threads",), 2)], "threads", "key-known", id="bound-threads"),
            pytest.param(
                "bound",
                [
                    (("bound", "kind"), "delta-univariate"),
                    (("bound", "envelope"), {"t": 1, "A": {"1": 1.0, "2": 1.0}, "r": {"1": 1.0}}),
                    (("bound", "parity"), True),
                ],
                "bound.parity",
                "key-known",
                id="delta-parity",
            ),
            # non-finite or constant scores are rejected by the constructors
            pytest.param(
                "moments",
                [(("model",), {"kind": "rank-scores", "scores": [1, float("nan"), 3]})],
                "model",
                "model-valid",
                id="rank-scores-nan",
            ),
            pytest.param(
                "moments",
                [(("model",), {"kind": "rank-scores", "scores": [2] * 8})],
                "model",
                "model-valid",
                id="rank8-scores-constant",
            ),
            pytest.param(
                "bound",
                [(("bound", "model"), {"kind": "multinomial-indicator",
                                       "probs": [float("nan"), 0.5, 0.5]})],
                "bound.model",
                "model-valid",
                id="cells-nan",
            ),
            pytest.param(
                "verify",
                [(("experiment", "builtin"), "pearson"),
                 (("experiment", "params"), {"probs": [float("nan"), 0.5, 0.5]})],
                "experiment",
                "plan-constructible",
                id="pearson-probs-nan",
            ),
            pytest.param(
                "verify",
                [(("experiment", "builtin"), "sen-rank"),
                 (("experiment", "params"), {"scores": [1, float("inf"), 3]})],
                "experiment",
                "plan-constructible",
                id="sen-scores-inf",
            ),
            # JSON as Python reads it accepts NaN and Infinity; the constructors must not
            pytest.param(
                "verify",
                [(("experiment", "testfn"), {"a": [float("nan")]})],
                "experiment.testfn",
                "testfn-valid",
                id="testfn-a-nan",
            ),
            pytest.param(
                "verify",
                [(("experiment", "testfn"), {"a": [float("inf")]})],
                "experiment.testfn",
                "testfn-valid",
                id="testfn-a-inf",
            ),
            pytest.param(
                "verify",
                [(("experiment", "testfn"), {"phase": float("nan")})],
                "experiment.testfn",
                "testfn-valid",
                id="testfn-phase-nan",
            ),
            pytest.param(
                "stein-check",
                [(("stein", "testfn"), {"a": [float("inf")]})],
                "stein.testfn",
                "testfn-valid",
                id="stein-testfn-inf",
            ),
            pytest.param(
                "stein-check", [(("stein", "s_max"), float("inf"))], "stein", "stein-inputs",
                id="s_max-inf",
            ),
            pytest.param(
                "stein-check", [(("stein", "points"), [float("nan")])], "stein", "stein-inputs",
                id="point-nan",
            ),
            pytest.param(
                "stein-check", [(("stein", "points"), [float("inf")])], "stein", "stein-inputs",
                id="point-inf",
            ),
            pytest.param(
                "stein-check", [(("stein", "sigma"), [[float("inf")]])], "stein", "stein-inputs",
                id="sigma-inf",
            ),
            pytest.param(
                "bound", [(("bound", "envelope", "A"), float("nan"))], "bound.envelope",
                "envelope-valid", id="fn-envelope-A-nan",
            ),
            pytest.param(
                "bound", [(("bound", "envelope", "r"), float("inf"))], "bound.envelope",
                "envelope-valid", id="fn-envelope-r-inf",
            ),
            pytest.param(
                "bound",
                [
                    (("bound", "kind"), "delta-univariate"),
                    (("bound", "envelope"), {"t": 1, "A": {"1": 1.0, "2": float("nan")},
                                             "r": {"1": 1.0}}),
                ],
                "bound.envelope",
                "envelope-valid",
                id="growth-envelope-A-nan",
            ),
            pytest.param(
                "bound", [(("bound", "budgets"), {"hprime": float("nan")})], "bound.budgets",
                "budgets-valid", id="hprime-nan",
            ),
            pytest.param(
                "bound", [(("bound", "budgets"), {"hdoubleprime": float("inf")})], "bound.budgets",
                "budgets-valid", id="hdoubleprime-inf",
            ),
            pytest.param(
                "bound",
                [
                    (("bound", "kind"), "fn-multivariate"),
                    (("bound", "budgets"), {"sup_norms": [1.0, 1.0, float("inf")]}),
                ],
                "bound.budgets",
                "budgets-valid",
                id="sup_norms-inf",
            ),
            pytest.param(
                "stein-check", [(("stein", "envelope"), {"B": float("nan")})], "stein.envelope",
                "envelope-valid", id="stein-envelope-nan",
            ),
            # the run seed is checked once, not again by the plan it is copied into
            pytest.param("verify", [(("seed",), -1)], "seed", "seed-int", id="seed-negative"),
            pytest.param("example", [(("seed",), True)], "seed", "seed-int", id="seed-bool"),
        ],
    )
    def test_hypothesis_rejected_before_work(
        self, tmp_path, monkeypatch, command, settings, path, rule
    ):
        monkeypatch.setattr(mcverify, "estimate_delta_h", _unreachable)
        monkeypatch.setattr(mcverify, "stein_solution_check", _unreachable)
        monkeypatch.setattr(cli, "analytic_moments", _unreachable)
        doc = copy.deepcopy(MALFORMED_BASES.get(command, {}))
        doc.update(command=command, out=str(tmp_path))
        for key_path, value in settings:
            _set_path(doc, key_path, value)
        diags = cli.validate(doc, command)
        assert [(d.path, d.rule) for d in diags] == [(path, rule)]
        assert cli.run(doc, command) == cli.EXIT_CONFIG


def _set_path(doc, path, value):
    for key in path[:-1]:
        doc = doc.setdefault(key, {})
    doc[path[-1]] = value


# One config per command and artifact format, each run twice at one seed.
RERUN_CONFIGS = [
    ("verify", base_verify_config(None)),
    ("bound", MALFORMED_BASES["bound"]),
    ("bound", {**MALFORMED_BASES["bound"], "format": "csv"}),
    ("moments", {**MALFORMED_BASES["moments"], "w_orders": [3.0], "w_reps": 1000}),
    ("stein-check", {"stein": {**MALFORMED_BASES["stein-check"]["stein"], "envelope": {"A": 1.0}}}),
    (
        "rate",
        {"experiment": {"builtin": "ex3.1-chisq", "n_grid": [16, 32, 64], "replicates": 2000}},
    ),
    ("example", {"name": "ex3.1-chisq", "overrides": {"n_grid": [16], "replicates": 2000}}),
]


class TestDeterministicArtifacts:
    def test_rerun_byte_identical(self, tmp_path):
        for i, (command, config) in enumerate(RERUN_CONFIGS):
            runs = []
            for side in ("a", "b"):
                out = tmp_path / f"{i}{side}"
                doc = {**copy.deepcopy(config), "command": command, "seed": 7, "out": str(out)}
                assert cli.run(doc, command) == cli.EXIT_OK, command
                runs.append({path.name: path.read_bytes() for path in out.iterdir()})
            assert runs[0] and runs[0] == runs[1], command

    def test_thread_flag_does_not_change_bytes(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cli.run(base_verify_config(out_a, threads=1), "verify")
        cli.run(base_verify_config(out_b, threads=4), "verify")
        assert (out_a / "verify.csv").read_bytes() == (out_b / "verify.csv").read_bytes()

    def test_seed_overrides_config(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out"
        doc = base_verify_config(out)
        cfg.write_text(json.dumps(doc))
        monkeypatch.setenv(cli.SEED_ENV, "99")
        rc = cli.main(["verify", "--config", str(cfg)])
        assert rc == cli.EXIT_OK
        summary = json.loads((out / "verify_summary.json").read_text())
        assert summary["plan"]["seed"] == 99

    def test_console_malformed_budget_is_config_error(self, tmp_path):
        doc = copy.deepcopy(MALFORMED_BASES["bound"])
        doc.update(command="bound", out=str(tmp_path / "out"))
        doc["bound"]["budgets"] = {"hprime": "x"}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "steindelta.cli", "bound", "--config", str(cfg)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == cli.EXIT_CONFIG
        assert "config error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_console_entry_point(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out"
        cfg.write_text(json.dumps(base_verify_config(out)))
        proc = subprocess.run(
            [sys.executable, "-m", "steindelta.cli", "verify", "--config", str(cfg)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "dominated" in proc.stdout

    def test_console_non_finite_scores_exit_2(self, tmp_path):
        # JSON as Python writes it accepts NaN; the model must not
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"command": "moments", "model": {"kind": "rank-scores", "scores": [1, NaN, 3]},'
            f' "n": 16, "out": {json.dumps(str(tmp_path))}}}'
        )
        assert cli.main(["moments", "--config", str(cfg)]) == cli.EXIT_CONFIG
        assert not (tmp_path / "moments.json").exists()

    @pytest.mark.parametrize(
        "envelope, budgets",
        [('{"A": NaN}', "{}"), ('{"r": Infinity}', "{}"), ("{}", '{"hprime": NaN}')],
    )
    def test_console_non_finite_bound_exit_2(self, tmp_path, envelope, budgets):
        # a NaN or infinite constant must not reach the bound as a value of nan or inf
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"command": "bound", "bound": {"kind": "fn-univariate", "mode": "general", "n": 16,'
            ' "model": {"kind": "centered-bernoulli", "p": 0.3},'
            f' "envelope": {envelope}, "budgets": {budgets}}}, "out": {json.dumps(str(tmp_path))}}}'
        )
        assert cli.main(["bound", "--config", str(cfg)]) == cli.EXIT_CONFIG
        assert not (tmp_path / "bound.json").exists()

    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats costs most of the start-up time and the library needs none of it
        code = "import sys, steindelta.cli; print('scipy.stats' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestRoundTripAndFuzz:
    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_builtin_plan_round_trip(self, name):
        plan = builtin(name)
        text = plan.to_json()
        assert plan_from_config(json.loads(text)).to_json() == text

    def test_fuzz_validate_matches_run(self, tmp_path):
        rng = np.random.default_rng(2024)
        base = base_verify_config(tmp_path / "fuzz")
        base["experiment"]["n_grid"] = [16]
        base["experiment"]["replicates"] = 1000
        base["experiment"]["w_reps"] = 2000

        def mutate(doc):
            doc = copy.deepcopy(doc)
            for _ in range(rng.integers(1, 3)):
                op = rng.integers(0, 10)
                if op == 0:
                    doc.pop("command", None)
                elif op == 1:
                    doc["command"] = str(rng.choice(["verify", "plot", "rate", "bound"]))
                elif op == 2:
                    doc["seed"] = int(rng.integers(-5, 50))
                elif op == 3:
                    doc["format"] = str(rng.choice(["json", "csv", "yaml"]))
                elif op == 4:
                    doc["experiment"]["builtin"] = str(
                        rng.choice(["bernoulli-variance", "friedman", "bogus"])
                    )
                    if doc["experiment"]["builtin"] == "friedman":
                        doc["experiment"]["params"] = {"r": int(rng.choice([0, 2]))}
                elif op == 5:
                    doc["experiment"]["n_grid"] = [
                        int(v) for v in rng.choice([4, 8, 16, 32], size=2)
                    ]
                elif op == 6:
                    doc["experiment"]["replicates"] = int(rng.choice([10, 1000]))
                elif op == 7:
                    doc["experiment"].pop("builtin", None)
                elif op == 8:
                    doc["threads"] = int(rng.integers(-1, 3))
                elif op == 9:
                    doc["experiment"]["params"] = {"p": float(rng.choice([0.5, 1.7]))}
            return doc

        checked_valid = 0
        for i in range(500):
            doc = mutate(base)
            cmd = doc.get("command") if doc.get("command") in cli.COMMANDS else None
            diags = cli.validate(doc, cmd)
            rc = cli.run(doc, cmd)
            if diags:
                assert rc == cli.EXIT_CONFIG, (doc, diags, rc)
            else:
                assert rc != cli.EXIT_CONFIG, (doc, rc)
                checked_valid += 1
        assert checked_valid >= 30  # the fuzz must exercise accepting runs too


    def test_fuzz_wrong_types_all_commands(self, tmp_path):
        bases = {
            "bound": {
                "bound": {
                    "kind": "delta-univariate",
                    "mode": "zero-third",
                    "n": 16,
                    "model": {"kind": "centered-bernoulli", "p": 0.5},
                    "envelope": {
                        "t": 2,
                        "A": {"2": 1.0, "3": 0.0},
                        "r": {"2": 0.0},
                        "even_map": True,
                        "vanishing_third": True,
                    },
                    "budgets": {"m": 1, "hprime": 1.0, "hdoubleprime": 1.0},
                    "w_reps": 1000,
                }
            },
            "verify": {
                "experiment": {
                    "builtin": "bernoulli-variance",
                    "params": {"p": 0.5},
                    "n_grid": [16],
                    "replicates": 1000,
                    "testfn": {"family": "cosine-wave", "a": [1.0], "phase": 0.7},
                    "w_reps": 1000,
                }
            },
            "rate": {
                "experiment": {
                    "builtin": "ex3.1-normal",
                    "n_grid": [16, 32, 64],
                    "replicates": 1000,
                }
            },
            "example": {
                "name": "ex3.5-friedman",
                "overrides": {"n_grid": [16], "replicates": 1000, "w_reps": 1000},
            },
            "stein-check": {
                "stein": {
                    "g": "linear",
                    "sigma": [[1.0]],
                    "envelope": {"A": 1.0, "B": 0.0, "r": 0.0},
                    "points": [0.0],
                    "s_max": 5.0,
                    "steps": 10,
                    "replicates": 1000,
                    "testfn": {"a": [1.0], "phase": 0.0},
                }
            },
            "moments": {
                "model": {"kind": "rank-scores", "scores": [1, 2, 3]},
                "orders": [2, 3],
                "n": 20,
                "w_orders": [2.0],
                "w_reps": 1000,
            },
        }
        wrong = ["x", [1], None, 2.5, -3]

        def paths(node, prefix=()):
            for key, value in node.items():
                yield prefix + (key,)
                if isinstance(value, dict):
                    yield from paths(value, prefix + (key,))

        rng = np.random.default_rng(7)
        cases = []
        for command, base in bases.items():
            base = {**base, "seed": 3, **({"format": "json"} if command == "bound" else {})}
            every = list(paths(base))
            cases.append((command, base, []))
            cases += [(command, base, [(p, v)]) for p in every for v in wrong]
            for _ in range(10):
                picks = rng.choice(len(every), size=2, replace=False)
                values = rng.choice(len(wrong), size=2)
                pairs = [(every[i], wrong[j]) for i, j in zip(picks, values)]
                # a longer path first, so a shorter one that contains it replaces it
                cases.append((command, base, sorted(pairs, key=lambda pv: -len(pv[0]))))
        rejected = 0
        for command, base, settings in cases:
            doc = copy.deepcopy(base)
            doc.update(command=command, out=str(tmp_path / "fuzz"))
            for path, value in settings:
                _set_path(doc, path, value)
            diags = cli.validate(doc, command)
            rc = cli.run(doc, command)
            assert bool(diags) == (rc == cli.EXIT_CONFIG), (doc, diags, rc)
            rejected += bool(diags)
        assert 0 < rejected < len(cases)  # the fuzz must exercise both outcomes


class TestStreamSpill:
    def test_spill_flag_type_checked(self, tmp_path):
        # no command reads spill_streams, so any value of it is an unknown key
        for value in ("yes", True):
            doc = base_verify_config(tmp_path, spill_streams=value)
            diags = cli.validate(doc, "verify")
            assert [(d.path, d.rule) for d in diags] == [("spill_streams", "key-known")]
            assert cli.run(doc, "verify") == cli.EXIT_CONFIG
