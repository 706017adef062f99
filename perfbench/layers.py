"""Per-layer instrumentation: wrappers around each layer's calls, and the metrics.

Layer names follow the program's modules.  The wrappers time calls
into a layer from outside it; counts and the engine's stage times are
read from the program's own ``obs`` registry (enabled in traced runs).
Every per-layer metric of ``BENCHMARK.json`` is reported on every
workload — a layer that a workload bypasses reports zero work.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from tracer import Tracer, clock

ENGINE_STAGES = ("transform", "gather", "weight", "resample", "estimate")


def default_backend():
    """The backend the program runs when none is named (never pinned here)."""
    import inspect

    from repro import SweepEngine
    from repro.engine.backend import get_backend

    return get_backend(inspect.signature(SweepEngine).parameters["backend"].default)


def stack_classes():
    """(backend class, stack class) of the default backend."""
    from repro.core.config import MclConfig

    backend = default_backend()
    return type(backend), type(backend.open_stack(MclConfig(particle_count=1)))


def step_rows(args, kwargs) -> int:
    work = args[1] if len(args) > 1 else kwargs["work"]
    return sum(len(item.rows) for item in work)


class StepLog:
    """Per-frame localization latency from the engine's stacked step.

    Each step call localizes one frame of every row it steps; a call
    with no rows (no run's update gate fired) is not a localization and
    is not recorded.  Pool workers forked from this process inherit the
    wrapper and append their samples to ``directory/<pid>.bin`` when each
    backend ``execute`` returns, so nothing is lost when a worker exits.
    Each sample also names its stack (one per cell run, unique across
    processes), so a latency can be taken over one population at a time.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.owner = os.getpid()
        self.durations: list[float] = []
        self.rows: list[int] = []
        self.stacks: list[int] = []
        self._opened = 0
        self._undo: list[tuple] = []

    def install(self) -> None:
        backend_cls, stack_cls = stack_classes()
        log = self
        step = stack_cls.step
        execute = backend_cls.execute

        def timed_step(stack, work):
            start = clock()
            result = step(stack, work)
            elapsed = clock() - start
            rows = sum(len(item.rows) for item in work)
            if rows:
                log.durations.append(elapsed)
                log.rows.append(rows)
                log.stacks.append(log.stack_number(stack))
            return result

        def flushing_execute(*args, **kwargs):
            result = execute(*args, **kwargs)
            if os.getpid() != log.owner:
                log.flush()
            return result

        for owner, attr, function in (
            (stack_cls, "step", timed_step),
            (backend_cls, "execute", flushing_execute),
        ):
            self._undo.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, function)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def stack_number(self, stack) -> int:
        number = getattr(stack, "_perfbench_stack", None)
        if number is None:
            self._opened += 1
            number = os.getpid() * 2**20 + self._opened
            stack._perfbench_stack = number
        return number

    def _take(self) -> np.ndarray:
        samples = np.column_stack(
            (
                np.asarray(self.durations, dtype=np.float64),
                np.asarray(self.rows, dtype=np.float64),
                np.asarray(self.stacks, dtype=np.float64),
            )
        ).reshape(-1, 3)
        self.durations.clear()
        self.rows.clear()
        self.stacks.clear()
        return samples

    def flush(self) -> None:
        if self.durations:
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(self.directory / f"{os.getpid()}.bin", "ab") as handle:
                handle.write(self._take().tobytes())

    def collect(self) -> np.ndarray:
        """All samples as an ``(n, 3)`` array of (seconds, rows, stack); clears them."""
        parts = [self._take()]
        if self.directory.is_dir():
            for path in sorted(self.directory.glob("*.bin")):
                parts.append(np.fromfile(path, dtype=np.float64).reshape(-1, 3))
                path.unlink()
        return np.concatenate(parts)


class SidecarCounter:
    """Index hit ratio of the packed store: sealed-segment sidecars trusted
    (vs. segments rescanned) per sidecar lookup."""

    def __init__(self) -> None:
        self.lookups = 0
        self.hits = 0
        self._original = None

    def install(self) -> None:
        from repro.eval import store

        original = self._original = store._load_sidecar_payload
        counter = self

        def counting(segment):
            payload = original(segment)
            counter.lookups += 1
            counter.hits += payload is not None
            return payload

        store._load_sidecar_payload = counting

    def uninstall(self) -> None:
        from repro.eval import store

        if self._original is not None:
            store._load_sidecar_payload = self._original
            self._original = None

    @property
    def ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


def install_offline(tracer: Tracer) -> None:
    """Spans at the engine, maps and eval layers of the in-process paths."""
    from repro import SweepEngine
    from repro.eval import campaign, sweep_engine
    from repro.eval.store import CampaignStore
    from repro.maps.distance_field import DistanceField

    backend_cls, stack_cls = stack_classes()
    tracer.wrap(stack_cls, "step", "engine.step", tally=step_rows)
    tracer.wrap(backend_cls, "execute", "engine.execute")
    tracer.wrap(DistanceField, "build", "maps.edt")
    tracer.wrap(SweepEngine, "run", "eval.sweep_engine")
    tracer.wrap(
        sweep_engine,
        "run_localization_batch",
        "eval.sweep_engine",
        span_id=lambda args, kwargs: f"cell:{args[2].fingerprint()}/N={args[2].particle_count}",
    )
    for attr in ("run_campaign", "campaign_status", "aggregate_report", "pivot_report"):
        tracer.wrap(campaign, attr, "eval.campaign")
    tracer.wrap(campaign, "drain_futures", "eval.campaign.pool")
    tracer.wrap(
        CampaignStore,
        "put_cell",
        "eval.store.append",
        span_id=lambda args, kwargs: f"cell:{args[1]}",
    )
    tracer.wrap(CampaignStore, "completed_keys", "eval.store.scan")
    tracer.wrap(CampaignStore, "stream_cells", "eval.store.scan")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def engine_and_maps(tracer: Tracer, window, snapshot: dict, self_s: dict) -> dict:
    """Engine and maps metrics of one process; moves stage time out of
    ``engine.step``'s self time in ``self_s`` (stages run inside steps)."""
    spans = snapshot.get("spans", {})
    counters = snapshot.get("counters", {})
    metrics: dict[str, float] = {}
    stage_total = 0.0
    for stage in ENGINE_STAGES:
        seconds = float(spans.get(f"engine.step.{stage}", {}).get("total_s", 0.0))
        metrics[f"engine.stage.{stage}.self_s"] = seconds
        stage_total += seconds
        if seconds:
            self_s[f"engine.stage.{stage}"] = seconds
    if "engine.step" in self_s:
        self_s["engine.step"] -= stage_total
    calls, busy = tracer.totals("engine.step", window)
    metrics["engine.step.calls"] = calls
    metrics["engine.step.busy_s"] = busy
    metrics["engine.step.rows_per_call"] = _ratio(tracer.tally["engine.step"], calls)
    metrics["engine.execute.busy_s"] = tracer.totals("engine.execute", window)[1]
    resamples = counters.get("engine.resamples", 0)
    metrics["engine.resample_ratio"] = _ratio(
        resamples, resamples + counters.get("engine.resample_skips", 0)
    )
    hits = counters.get("engine.replay_plan.hits", 0)
    metrics["engine.plan_cache.hit_ratio"] = _ratio(
        hits, hits + counters.get("engine.replay_plan.misses", 0)
    )
    builds, build_s = tracer.totals("maps.edt", window)
    metrics["maps.edt.builds"] = builds
    metrics["maps.edt.build_s"] = build_s
    return metrics


def eval_metrics(tracer: Tracer, window, self_s: dict) -> dict:
    append_calls, append_s = tracer.totals("eval.store.append", window)
    return {
        "eval.sweep_engine.self_s": self_s.get("eval.sweep_engine", 0.0),
        "eval.campaign.self_s": self_s.get("eval.campaign", 0.0),
        "eval.campaign.pool_wait_s": self_s.get("eval.campaign.pool", 0.0),
        "eval.store.append.calls": append_calls,
        "eval.store.append_s": append_s,
        "eval.store.scan_s": tracer.totals("eval.store.scan", window)[1]
        + tracer.leaf.get("eval.store.scan", 0.0),
    }


def reconcile(self_s: dict, wall_s: float) -> tuple[dict, bool]:
    """The cost ledger and whether it adds up: no negative self time, and
    layer self times plus the unattributed remainder equal the wall time."""
    attributed = sum(self_s.values())
    book = {
        "wall_s": wall_s,
        "self_s": dict(sorted(self_s.items())),
        "attributed_s": attributed,
        "unattributed_s": wall_s - attributed,
    }
    tolerance = 1e-6 * max(1.0, wall_s)
    balanced = (
        all(seconds >= -tolerance for seconds in self_s.values())
        and book["unattributed_s"] >= -tolerance
        and abs(book["attributed_s"] + book["unattributed_s"] - wall_s) <= tolerance
    )
    return book, balanced
