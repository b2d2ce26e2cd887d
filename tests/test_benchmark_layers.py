"""The benchmark's bindings into the library still resolve.

``perfbench/workloads.py`` names the library functions its traced run
wraps and the configs its workloads validate.  These tests read that file
without changing it, so a program change that deletes or renames a bound
function, drops a replicate-count argument or rejects a benchmark config
fails here, not only in the traced benchmark run.  So does a change that
drops or mis-derives a plan field the benchmark reads.
"""

import cmath
import importlib.util
import inspect
import math
import pathlib
import sys

import numpy as np
import pytest
from scipy.stats import binom

from steindelta.statistics import builtin

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(PERFBENCH))  # workloads.py imports its sibling spans.py
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        del sys.modules[spec.name]
    return module


def test_every_layer_target_resolves(workloads):
    for layer in workloads.layers(track_alloc=False):
        target = getattr(layer.owner, layer.attr, None)
        assert callable(target), layer.name
        if layer.work_arg is not None:
            assert layer.work_arg in inspect.signature(target).parameters, layer.name


def test_every_workload_config_validates_clean(workloads, tmp_path):
    for name, workload in workloads.WORKLOADS.items():
        setup = workload(seed=1, out=str(tmp_path / name))
        failed = [(c.name, c.detail) for c in setup.setup_checks if not c.ok]
        assert setup.setup_checks and failed == [], name


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("name", ["ex3.1-normal", "ex3.1-chisq"])
def test_exact_coupled_distance_reads_the_plan_limit(workloads, name, n):
    # The benchmark's oracle reads plan.limit (kind, variance, c); here the
    # distance is worked out from p and f alone.  The success count s is
    # Binomial(n, p), and the limit of sin(T + phi) is taken in closed form:
    # p = 0.3, f = (p + v)(1 - p - v): Y ~ N(0, (1 - 2p)^2 p (1 - p));
    # p = 0.5, f = 1/4 - v^2: Y = -Z^2 with Z ~ N(0, 1/4).
    plan = builtin(name)
    p, phi = plan.model.p, plan.testfn["phase"]
    s = np.arange(n + 1)
    v = s / n - p
    if name == "ex3.1-normal":
        t_vals = math.sqrt(n) * ((p + v) * (1 - p - v) - p * (1 - p))
        e_y = math.sin(phi) * math.exp(-((1 - 2 * p) ** 2) * p * (1 - p) / 2)
    else:
        t_vals = -n * v * v
        e_y = (cmath.exp(1j * phi) * (1 + 0.5j) ** -0.5).imag
    exact = abs(float(binom.pmf(s, n, p) @ np.sin(t_vals + phi)) - e_y)
    assert workloads.exact_coupled_distance(plan, n) == pytest.approx(exact, abs=1e-12)
