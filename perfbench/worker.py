"""One benchmark run of one workload, in a fresh process.

run.py starts this script with PYTHONPATH pointing at the checkout's
``src`` and BLAS pinned to one thread:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --launched NS --out DIR [--setup-only]

``--launched`` is the CLOCK_MONOTONIC time (ns) at which the parent
started the process, so set-up time counts interpreter start, imports,
config validation and plan construction.  The last line of stdout is one
JSON object with the measured values, the checks and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy
import scipy

import spans
import workloads
from steindelta import mcverify
from workloads import Check

# The timed phase runs the estimators on one thread: on a shared 2-vCPU
# machine two-thread pass times spread several times wider between runs.
# Thread scaling is measured in the traced run, up to SCALING_THREADS
# capped at nproc, because more threads than cores would measure the
# scheduler.
TIMED_THREADS = 1
SCALING_THREADS = 2
MIN_PASSES = 3  # untraced timed phase; each traced phase makes at least one
PACKAGE = "steindelta"


@dataclass
class Pass:
    wall: float
    cpu: float
    text: str
    raw: object
    rows: list = field(default_factory=list)


class RowTimer:
    """Times each call of one estimator function and keeps its result."""

    def __init__(self, module, attr):
        self.rows: list[tuple[float, object]] = []
        original = getattr(module, attr)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = original(*args, **kwargs)
            self.rows.append((time.perf_counter() - t0, result))
            return result

        self.undo = spans.rebind(original, timed, PACKAGE)


def run_passes(wl, threads, seconds, min_passes, timer=None) -> list[Pass]:
    """Closed loop: start the next pass only after the previous one returns."""
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        if timer is not None:
            timer.rows.clear()
        c0 = time.process_time()
        t0 = time.perf_counter()
        raw = wl.run_pass(threads)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        rows = list(timer.rows) if timer is not None else []
        passes.append(Pass(wall, cpu, wl.canonical(raw), raw, rows))
    return passes


def identity_check(passes, label) -> Check:
    first = passes[0].text
    same = sum(p.text == first for p in passes)
    return Check(
        f"{label}: outputs byte-identical across passes",
        same == len(passes),
        f"{same} of {len(passes)} passes match the first",
    )


def environment(scaling_threads) -> dict:
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {
            k: os.environ.get(k, "unset")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "estimator_threads": TIMED_THREADS,
        "scaling_threads": scaling_threads,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            try:
                with open(os.path.join(base, index, "level"), encoding="utf-8") as fh:
                    level = fh.read().strip()
                with open(os.path.join(base, index, "size"), encoding="utf-8") as fh:
                    size = fh.read().strip()
            except OSError:
                continue
            if level in ("2", "3"):
                env[f"l{level}_cache"] = size
    except OSError:
        pass
    return env


def untraced(wl, seconds):
    timer = RowTimer(mcverify, wl.row_layer)
    try:
        passes = run_passes(wl, TIMED_THREADS, seconds, MIN_PASSES, timer)
    finally:
        spans.restore(timer.undo)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = wl.check(passes[0].raw)
    checks.append(identity_check(passes, f"threads={TIMED_THREADS}"))
    checks.extend(wl.thread_check(passes[0].raw, SCALING_THREADS))

    # every pass makes the same calls in the same order: take each call's
    # median time over the passes, weighted by the variances of its rows
    wnv = 0.0
    for index, (_, result) in enumerate(passes[0].rows):
        seconds = statistics.median(p.rows[index][0] for p in passes)
        variances = wl.row_variance(index, result)
        wnv += sum(seconds / len(variances) * v for v in variances)

    wall = statistics.median(p.wall for p in passes)
    values = {
        "wall_s": wall,
        "cpu_s": statistics.median(p.cpu for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "replicates_per_s": wl.replicates / wall,
        "work_normalized_variance": wnv,
    }
    info = {"passes": [p.wall for p in passes], "replicates": wl.replicates}
    return values, checks, info


def traced_passes(wl, threads, seconds, track_alloc):
    tracer = spans.Tracer()
    undo = spans.instrument(tracer, workloads.layers(track_alloc), PACKAGE)
    try:
        passes = run_passes(wl, threads, seconds, 1)
    finally:
        spans.restore(undo)
    return passes, spans.summarize(tracer.spans)


def traced(wl, seconds, threads):
    """Untraced and traced passes at one thread, then traced at ``threads``."""
    phase = seconds / 3.0
    plain = run_passes(wl, 1, phase, 1)
    one, stats = traced_passes(wl, 1, phase, track_alloc=True)
    many, stats_n = traced_passes(wl, threads, phase, track_alloc=False)

    checks = wl.check(one[0].raw)
    checks.append(identity_check(plain + one + many, f"threads=1 and threads={threads}"))

    k = len(one)
    values = {}
    for name in {layer.name for layer in workloads.layers(track_alloc=False)}:
        s = stats.get(name, spans.Stats())
        values[f"{name}.calls"] = s.calls / k
        values[f"{name}.self_s"] = s.self_s / k
        values[f"{name}.ns_per_replicate"] = s.self_s / s.work * 1e9 if s.work else 0.0
        values[f"{name}.replicates"] = s.work / k
        values[f"{name}.peak_alloc_mb"] = s.peak_bytes / 2**20

    def estimator_time(st, passes):
        s = st.get("mcverify.estimate_delta_h")
        return s.total_s / len(passes) if s else statistics.median(p.wall for p in passes)

    traced_wall = sum(p.wall for p in one)
    values["mcverify.thread_speedup"] = estimator_time(stats, one) / estimator_time(stats_n, many)
    values["trace.coverage"] = sum(s.self_s for s in stats.values()) / traced_wall
    values["trace.overhead"] = statistics.median(p.wall for p in one) / statistics.median(
        p.wall for p in plain
    )
    top = sorted(stats.items(), key=lambda kv: kv[1].self_s, reverse=True)
    info = {
        "passes": {
            "untraced_t1": [p.wall for p in plain],
            "traced_t1": [p.wall for p in one],
            f"traced_t{threads}": [p.wall for p in many],
        },
        "top_self_s": [[name, s.self_s / k, s.calls / k] for name, s in top[:12]],
    }
    return values, checks, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed, args.out)
    setup_s = (time.monotonic_ns() - args.launched) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    threads = min(SCALING_THREADS, len(os.sched_getaffinity(0)))
    if args.trace:
        values, checks, info = traced(wl, args.seconds, threads)
    else:
        values, checks, info = untraced(wl, args.seconds)
    checks = wl.setup_checks + checks
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "values": values,
                "checks": [[c.name, c.ok, c.detail] for c in checks],
                "env": environment(threads),
                "info": info,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
