"""Smoke test of the benchmark: every workload at tiny size, in both modes.

    python3 perfbench/smoke.py

Run from the repository root.  Each workload of ``BENCHMARK.json`` runs
with ``--smoke`` (tiny inputs, its own caches) once untraced and once
traced; the last stdout line must hold exactly the result keys, report
correct outputs and carry every end-to-end (untraced) or per-layer
(traced) metric of ``BENCHMARK.json`` with its unit.  Then a directory
holding only ``BENCHMARK.json`` and the benchmark's files must make the
benchmark exit non-zero without printing a result.  Exits non-zero on
the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_benchmark(command: list[str], workload: str, trace: int, cwd: Path, smoke: bool):
    args = command + ["--workload", workload, "--seed", "7", "--seconds", "2", "--trace", str(trace)]
    if smoke:
        args.append("--smoke")
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=900)


def check_result(spec: dict, workload: str, trace: int) -> None:
    completed = run_benchmark(spec["command"], workload, trace, ROOT, smoke=True)
    label = f"{workload} --trace {trace}"
    if completed.returncode != 0:
        raise SystemExit(f"FAIL {label}: exit {completed.returncode}\n{completed.stderr[-3000:]}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        raise SystemExit(f"FAIL {label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        raise SystemExit(f"FAIL {label}: {result['correct']=} {result['attempted']=} {result['failed']=}")
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    names = {metric["name"] for metric in expected}
    if set(result["metrics"]) != names:
        raise SystemExit(f"FAIL {label}: metrics differ by {sorted(names ^ set(result['metrics']))}")
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        if emitted["unit"] != metric["unit"] or not math.isfinite(emitted["value"]):
            raise SystemExit(f"FAIL {label}: {metric['name']} = {emitted}")
    print(f"ok   {label}: {len(names)} metrics")


def check_missing_program(spec: dict) -> None:
    bare = ROOT / ".perfbench_cache" / "bare-layout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(
            ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__")
        )
    try:
        completed = run_benchmark(
            spec["command"], spec["workloads"][0]["name"], 0, bare, smoke=False
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    printed = completed.stdout.strip().splitlines()
    if completed.returncode == 0 or (printed and printed[-1].startswith("{")):
        raise SystemExit("FAIL bare layout: the benchmark ran without the program")
    print("ok   bare layout: exits", completed.returncode, "without a result")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, workload["name"], trace)
    check_missing_program(spec)


if __name__ == "__main__":
    sys.exit(main())
