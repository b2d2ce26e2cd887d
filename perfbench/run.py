"""stein-delta benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload listed in BENCHMARK.json (coupled-rate, rank-moments,
stein-check, examples-suite), or ``all`` to run each in turn.  Every run happens in fresh worker processes
that import the library from the checkout's ``src`` with BLAS pinned to
one thread.  The timed phase runs the estimators on one thread; the
traced run also measures them on two.  The load is batch work in a
closed loop with one client.  Set-up time is the median over
SETUP_PROBES set-up-only processes plus the measuring one.  Timings are
medians over passes; each pass repeats the same inputs, so the outputs of
all passes must be byte-identical.

With ``--trace 0`` the run reports the end-to-end metrics listed in
BENCHMARK.json; with ``--trace 1`` a separate traced run reports the
per-layer metrics.  Human-readable lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Artifacts go to ``.bench_build/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 4
RUN_BUDGET = 170.0  # seconds for one workload, probes included


class BenchError(Exception):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, env, out, deadline, setup_only=False) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", out,
        "--launched", str(time.monotonic_ns()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=deadline - time.monotonic()
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload exceeded its {RUN_BUDGET:.0f} s budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, spec, root) -> tuple[dict, list, list[str]]:
    """Run one workload; returns (metrics, checks, report lines)."""
    deadline = time.monotonic() + RUN_BUDGET
    env = child_env(root)
    out = os.path.join(root, ".bench_build", f"perfbench-{os.getpid()}-{args.workload}")
    try:
        probes = [
            spawn(args, env, out, deadline, setup_only=True)["setup_s"]
            for _ in range(0 if args.trace else SETUP_PROBES)
        ]
        result = spawn(args, env, out, deadline)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    setup = probes + [result["setup_s"]]
    values = dict(result["values"], setup_s=statistics.median(setup))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"worker did not report {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    checks = result["checks"]
    failed = sum(not ok for _, ok, _ in checks)
    info = result["info"]
    lines = [
        f"== {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}",
        "env: " + json.dumps(result["env"], sort_keys=True),
        "load: closed loop, one client; each pass is the workload's fixed batch of calls",
    ]
    if args.trace:
        lines.append(
            f"thread scaling: 1 and {result['env']['scaling_threads']} estimator threads; "
            "the sweep stops at nproc because more threads than cores would measure the "
            "scheduler"
        )
        lines.append("pass wall times: " + json.dumps(info["passes"]))
        lines.append("largest self times per pass (threads=1):")
        lines += [f"  {n:<42} {s:.4f} s  {c:g} calls" for n, s, c in info["top_self_s"]]
    else:
        walls = info["passes"]
        lines.append(
            f"passes: {len(walls)}, replicates per pass {info['replicates']}; "
            "timings are medians over passes"
        )
        lines.append("pass wall times: " + " ".join(f"{w:.4f}" for w in walls))
    lines.append("set-up samples: " + " ".join(f"{s:.4f}" for s in setup))
    for name, m in metrics.items():
        lines.append(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    lines.append(
        f"  {'failed_ratio':<44} {failed / len(checks):.6g} ratio  "
        f"({failed} of {len(checks)} checks failed)"
    )
    for name, ok, detail in checks:
        if not ok:
            lines.append(f"  FAILED {name}: {detail}")
    return metrics, checks, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stein-delta benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "steindelta", "__init__.py")):
        print("error: run from a checkout root that holds src/steindelta", file=sys.stderr)
        return 2
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    known = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in known:
        print(f"error: unknown workload {args.workload!r}; know {known} and 'all'", file=sys.stderr)
        return 2
    names = known if args.workload == "all" else [args.workload]
    all_metrics, all_checks = {}, []
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            metrics, checks, lines = measure(one, spec, root)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        all_checks += checks
        if len(names) == 1:
            all_metrics = metrics
        else:
            all_metrics.update({f"{name}.{k}": v for k, v in metrics.items()})
    failed = sum(not ok for _, ok, _ in all_checks)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(all_checks),
                "failed": failed,
                "metrics": all_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
