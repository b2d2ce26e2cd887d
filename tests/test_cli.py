import copy
import json
import subprocess
import sys

import numpy as np
import pytest

from steindelta import cli, mcverify
from steindelta.mcverify import DistanceEstimate
from steindelta.statistics import EXAMPLES, builtin, plan_from_config


def base_verify_config(tmp_path, **extra):
    doc = {
        "command": "verify",
        "seed": 7,
        "out": str(tmp_path),
        "format": "csv",
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

        def fake_estimate(plan, h, n, replicates=None, seed=None, threads=1, coupling=None):
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
        from steindelta.moments import MomentTable

        table = MomentTable.from_json((tmp_path / "moments.json").read_text())
        assert table.d == 3 and table.has_abs_moment(0, 3)

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
        def fake_estimate(plan, h, n, replicates=None, seed=None, threads=1, coupling=None):
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
            "model": {"kind": "rank-scores", "scores": [1, 2, 3]},
            "envelope": {"A": 1.0, "B": 1.0, "r": 1.5},
        }
    },
}


class TestMalformedValues:
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
        ],
    )
    def test_config_error_not_exception(self, tmp_path, command, section, key, value):
        doc = copy.deepcopy(MALFORMED_BASES[command])
        doc.update(command=command, out=str(tmp_path))
        (doc[section] if section else doc)[key] = value
        assert cli.validate(doc, command)
        assert cli.run(doc, command) == cli.EXIT_CONFIG


class TestDeterministicArtifacts:
    def test_rerun_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            doc = base_verify_config(out)
            assert cli.run(doc, "verify") == cli.EXIT_OK
        assert (out_a / "verify.csv").read_bytes() == (out_b / "verify.csv").read_bytes()
        assert (
            (out_a / "verify_summary.json").read_bytes()
            == (out_b / "verify_summary.json").read_bytes()
        )

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


class TestStreamSpill:
    def test_verify_spills_statistic_streams(self, tmp_path):
        doc = base_verify_config(tmp_path, spill_streams=True)
        assert cli.run(doc, "verify") == cli.EXIT_OK
        from steindelta.statistics import read_stream

        for n in (16, 32):
            values = read_stream(tmp_path / f"stream_n{n}.bin")
            assert values.shape == (2000,)
            assert values.max() <= 1e-12  # the chisq-regime statistic is <= 0

    def test_spill_flag_type_checked(self, tmp_path):
        doc = base_verify_config(tmp_path, spill_streams="yes")
        assert cli.run(doc, "verify") == cli.EXIT_CONFIG
