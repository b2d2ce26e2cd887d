"""The benchmark's bindings into the library still resolve.

``perfbench/workloads.py`` names the library functions its traced run
wraps and the configs its workloads validate.  These tests read that file
without changing it, so a program change that deletes or renames a bound
function, drops a replicate-count argument or rejects a benchmark config
fails here, not only in the traced benchmark run.
"""

import importlib.util
import inspect
import pathlib
import sys

import pytest

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
