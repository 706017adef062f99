"""Paths, environment, provenance and small statistics shared by the benchmark.

Every process of a run starts from the root of a checkout, finds the
program under ``src/`` and keeps all of its files under
``.perfbench_cache/`` there: the shared read-only caches (one directory
per content key of the program and benchmark sources) and one scratch
directory per run.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
CACHE = ROOT / ".perfbench_cache"
REPORTS = CACHE / "reports"

WORKLOADS = ("fleet_gateway", "sweep_large_n", "campaign_rw")

#: Processes x BLAS threads stay within the core count: every process
#: of the benchmark (client, server, pool worker) runs one BLAS thread.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def layout_error() -> str | None:
    """Why this directory cannot be benchmarked, or None."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no program sources at {SRC / 'repro'}; run from the repository root"
    if not (ROOT / "data" / "sequences").is_dir():
        return f"no committed sequences at {ROOT / 'data' / 'sequences'}"
    return None


def source_digest() -> str:
    """Content key of the program and benchmark sources (cache identity)."""
    digest = hashlib.sha256()
    for base in (SRC / "repro", BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def shared_dir(smoke: bool) -> Path:
    return CACHE / f"{'smoke' if smoke else 'full'}-{source_digest()}"


def child_env(run_dir: Path, shared: Path, trace: bool) -> dict:
    """Environment of every program process: hermetic dirs, pinned threads."""
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_DATA_DIR"] = str(run_dir / "data")
    env["REPRO_RESULTS_DIR"] = str(run_dir / "results")
    env["REPRO_FAST_CACHE"] = str(shared / "fast_cache")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # Temporary files (the fast provider's one-time compile) stay in the checkout.
    env["TMPDIR"] = str(run_dir / "tmp")
    (run_dir / "tmp").mkdir(parents=True, exist_ok=True)
    for key in ("REPRO_OBS", "REPRO_OBS_DIR", "REPRO_SCALE", "REPRO_BACKEND"):
        env.pop(key, None)
    if trace:
        env["REPRO_OBS"] = "1"
    return env


def prepare_run_dir(run_dir: Path, shared: Path) -> None:
    """A fresh data root: committed sequences plus the prebuilt scenarios."""
    if run_dir.exists():
        shutil.rmtree(run_dir)
    (run_dir / "results").mkdir(parents=True)
    shutil.copytree(ROOT / "data" / "sequences", run_dir / "data" / "sequences")
    shutil.copytree(shared / "data" / "scenarios", run_dir / "data" / "scenarios")


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return ""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return result.stdout.strip() if result.returncode == 0 else ""


def host_block() -> dict:
    """Provenance of a report: machine, toolchain, resolved defaults, code."""
    import inspect

    import cffi
    import numpy
    import scipy

    from repro import SweepEngine
    from repro.common.errors import ConfigurationError
    from repro.engine.fast import resolve_provider

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        provider = resolve_provider().name
    except ConfigurationError as exc:
        provider = f"unavailable ({exc})"
    sha = _git_sha()
    return {
        "cpu_model": cpu,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cffi": cffi.__version__,
        "default_backend": inspect.signature(SweepEngine).parameters["backend"].default,
        "fast_provider": provider,
        "git_sha": sha or f"unavailable (source digest {source_digest()})",
    }


def weighted_percentile(values, weights, q: float) -> float:
    """Nearest-rank percentile of ``values`` where each counts ``weights`` times."""
    import numpy as np

    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    order = np.argsort(values, kind="stable")
    cumulative = np.cumsum(weights[order])
    rank = q * cumulative[-1]
    return float(values[order][min(np.searchsorted(cumulative, rank), len(values) - 1)])


def percentile(values, q: float) -> float:
    import numpy as np

    return weighted_percentile(values, np.ones(len(values)), q)


def emit(payload: dict) -> None:
    """One JSON line on stdout (workers report to the orchestrator this way)."""
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def fail(message: str) -> None:
    """Abort a run: the benchmark prints no result and exits non-zero."""
    sys.stderr.write(f"perfbench: {message}\n")
    raise SystemExit(2)
