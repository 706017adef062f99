"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the shared caches on first use
(``prepare.py``), gives the run its own data and results directories,
starts the workload's set-up several times from a cold process and
reports the median as ``setup_s``, then runs the measured workload
once.  The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.
The full report, with the host provenance block, goes to
``.perfbench_cache/reports/``.  Exits non-zero if an output check
fails, and without a result if the program is missing.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import calibrate
import common

#: Cold set-ups per untraced run (the measured run's own set-up is one).
SETUP_REPEATS = 3
#: Wall budget of one run, below the 180 s limit.
RUN_BUDGET_S = 170.0
PREPARE_BUDGET_S = 850.0


def _spawn(command: list[str], env: dict, deadline: float) -> str:
    """Run a child in its own process group; kill the group on timeout."""
    process = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        common.fail(f"{' '.join(command[1:3])} exceeded its time budget")
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)  # stray grandchildren, if any
        except ProcessLookupError:
            pass
    if process.returncode != 0:
        common.fail(f"{' '.join(command[1:3])} exited with code {process.returncode}")
    return stdout


def ensure_shared(smoke: bool, deadline: float):
    shared = common.shared_dir(smoke)
    if (shared / "READY.json").is_file():
        return shared
    common.CACHE.mkdir(parents=True, exist_ok=True)
    with open(common.CACHE / "prepare.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (shared / "READY.json").is_file():
            prefix = "smoke-" if smoke else "full-"
            for stale in common.CACHE.glob(prefix + "*"):
                shutil.rmtree(stale)
            shared.mkdir(parents=True)
            command = [sys.executable, str(common.BENCH_DIR / "prepare.py"), str(shared)]
            if smoke:
                command.append("--smoke")
            _spawn(command, common.child_env(shared, shared, trace=False), deadline)
    return shared


def run_worker(args, run_dir, shared, setup_only: bool, deadline: float) -> dict:
    command = [
        sys.executable,
        str(common.BENCH_DIR / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--run-dir", str(run_dir),
        "--shared", str(shared),
    ]
    if setup_only:
        command.append("--setup-only")
    if args.smoke:
        command.append("--smoke")
    env = common.child_env(run_dir, shared, trace=bool(args.trace) and not setup_only)
    command += ["--probe-before", repr(calibrate.probe())]
    command += ["--spawned-at", repr(time.perf_counter())]
    return json.loads(_spawn(command, env, deadline).strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=common.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (smoke test)")
    args = parser.parse_args()

    problem = common.layout_error()
    if problem:
        common.fail(problem)
    benchmark = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    shared = ensure_shared(args.smoke, time.monotonic() + PREPARE_BUDGET_S)
    deadline = time.monotonic() + RUN_BUDGET_S
    run_dir = common.CACHE / f"run-{os.getpid()}"
    common.REPORTS.mkdir(parents=True, exist_ok=True)
    try:
        common.prepare_run_dir(run_dir, shared)
        repeats = 1 if (args.trace or args.smoke) else SETUP_REPEATS
        setups = [
            run_worker(args, run_dir, shared, True, deadline) for _ in range(repeats - 1)
        ]
        result = run_worker(args, run_dir, shared, False, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    setups.append(result)

    probes = [reading for setup in setups for reading in setup["probes_s"]]
    host_scale = calibrate.scale(probes)
    raw = dict(result["metrics"])
    if args.trace:
        # A layer the workload bypasses did no work.
        metrics = {
            m["name"]: {"value": float(raw.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in benchmark["per_layer"]
        }
    else:
        # Each set-up is calibrated by the probes just before and after it
        # (the workloads do the same for each unit of measured work).
        raw["setup_s"] = statistics.median(
            setup["setup_s"] * calibrate.scale(setup["probes_s"][:2]) for setup in setups
        )
        raw["peak_rss_mb"] = result["peak_rss_mb"]
        metrics = {
            m["name"]: {"value": float(raw[m["name"]]), "unit": m["unit"]}
            for m in benchmark["end_to_end"]
        }
    finite = all(math.isfinite(metric["value"]) for metric in metrics.values())
    correct = finite and all(result["checks"].values())
    if not finite:
        metrics = {
            name: {"value": metric["value"] if math.isfinite(metric["value"]) else 0.0, "unit": metric["unit"]}
            for name, metric in metrics.items()
        }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": result["host"],
        "setup_samples_s": [setup["setup_s"] for setup in setups],
        "probes_s": probes,
        "host_scale": host_scale,
        "raw_metrics": raw,
        "checks": result["checks"],
        "details": result.get("details"),
        "ledger": result.get("ledger"),
        "metrics": metrics,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (common.REPORTS / name).write_text(json.dumps(report, indent=1) + "\n")
    common.emit({"host": result["host"], "checks": result["checks"]})
    common.emit(
        {
            "correct": correct,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics,
        }
    )
    raise SystemExit(0 if correct else 1)


if __name__ == "__main__":
    main()
