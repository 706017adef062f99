"""campaign_rw: campaign writes, then report reads, over one store layer.

Phase 1 (writes) runs ``run_campaign(jobs=nproc, store_tier="packed")``
into a fresh store: small cells (N in {32, 64}, fp32 + fp16qm, 2 seeds)
over 12 generated worlds (office/corridor/hall/maze x 3).  The scenario
``.npz`` cache is warm; every in-process cache starts cold, so the work
is per-worker EDT rebuilds, process fan-out and store appends.  Phase 2
(reads) runs a resume-key scan, ``campaign_status``, ``aggregate_report``
and ``pivot_report`` over the shared read-only ~10^5-cell archive.  The
seed orders the campaign's worlds (the pool's dispatch order) and names
its stores; the cells themselves are fixed, so ``ate_m`` and
``success_rate`` are a pure function of the program.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

import common
import layers
import spec as workload_spec
from tracer import Tracer, clock

#: Share of ``--seconds`` given to phase 1 in a traced run; phase 2 gets
#: the rest.  An untraced run gives phase 1 all of it, then makes one
#: untimed phase 2 pass for its checks and its part of ``peak_rss_mb``:
#: no end-to-end time comes from phase 2.
WRITE_SHARE = 0.6
#: Campaigns written per untraced run; its times are medians over them.
MIN_WRITES = 5


def tree_digest(root) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def tree_bytes(root) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def cell_percentiles(samples) -> list[float]:
    """p50 and p99 of each stack's (cell's) step latencies, mean over cells."""
    cells = [samples[samples[:, 2] == stack] for stack in np.unique(samples[:, 2])]
    return [
        float(np.mean([common.weighted_percentile(c[:, 0], c[:, 1], q) for c in cells]))
        for q in (0.50, 0.99)
    ]


def run(ctx) -> dict:
    from repro.eval import campaign
    from repro.eval.aggregate import RunningCellStats
    from repro.eval.campaign import CampaignSpec
    from repro.eval.store import CampaignStore

    sizes = ctx.sizes
    jobs = common.nproc()
    layers.default_backend()
    scenarios = sizes.campaign_scenarios()
    random.Random(ctx.seed).shuffle(scenarios)
    archive_root = ctx.shared / "archive"

    def campaign_spec(name: str):
        return CampaignSpec(
            name=name,
            scenarios=tuple(scenarios),
            variants=sizes.campaign_variants,
            particle_counts=sizes.campaign_particles,
            seeds=sizes.campaign_seeds,
        )

    ctx.ready()
    if ctx.setup_only:
        return {}
    archive_before = tree_digest(archive_root)
    names: list[str] = []
    executed: list[int] = []

    def write_once(jobs_now: int) -> None:
        name = f"bench-s{ctx.seed}-{len(names)}"
        summary = campaign.run_campaign(campaign_spec(name), jobs=jobs_now, store_tier="packed")
        names.append(name)
        executed.append(summary.executed)

    def read_once() -> dict:
        def archive():
            return CampaignStore(workload_spec.ARCHIVE_NAME, root=archive_root)

        keys = archive().completed_keys()
        status = campaign.campaign_status(workload_spec.ARCHIVE_NAME, archive())
        report = campaign.aggregate_report(workload_spec.ARCHIVE_NAME, archive())
        pivot = campaign.pivot_report(workload_spec.ARCHIVE_NAME, workload_spec.PIVOT_KEY, archive())
        return {
            "keys": len(keys),
            "status": status["completed"],
            "report": sum(len(cells) for cells in report.values()),
            "pivot": sum(len(row) for rows in pivot.values() for row in rows.values()),
        }

    def measure(min_writes: int, reads: bool, fanout: bool = False) -> dict:
        """Phase 1 campaigns, then (if ``reads``) phase 2 report passes,
        each one unit; a phase's time and latency percentiles are medians
        over its units, raw and with each unit rescaled by its own
        host-speed probes (``Unit.scale``)."""
        steps = layers.StepLog(ctx.run_dir / "steps")
        steps.install()
        write_share = WRITE_SHARE if reads else 1.0
        writes, samples, units = [], [], []
        seen = None
        try:
            window_start = clock()
            while len(writes) < min_writes or ctx.keep_going(
                sum(u.seconds for u in writes), sum(u.seconds for u in writes) / len(writes), write_share
            ):
                with ctx.unit() as unit:
                    write_once(jobs)
                samples.append(steps.collect())
                writes.append(unit)
            serial = None
            if fanout:
                with ctx.unit() as serial:
                    write_once(1)
                steps.collect()
            while reads and (
                not units
                or ctx.keep_going(
                    sum(u.seconds for u in units), sum(u.seconds for u in units) / len(units), 1.0 - WRITE_SHARE
                )
            ):
                with ctx.unit() as unit:
                    seen = read_once()
                units.append(unit)
            window = (window_start, clock())
        finally:
            steps.uninstall()
        # Per campaign: the p50 and p99 frame latency of each cell (its
        # frames share one N, so they are one population), mean over
        # the cells, in seconds.
        latency = np.array([cell_percentiles(t) for t in samples])
        scales = np.array([u.scale for u in writes])
        return {
            "write_s": float(np.median([u.seconds for u in writes])),
            "write_cal_s": float(np.median([u.seconds * u.scale for u in writes])),
            "write_units_s": [u.seconds for u in writes],
            "unit_scales": scales.tolist(),
            "serial_s": None if serial is None else serial.seconds,
            "read_s": float(np.median([u.seconds for u in units])) if units else None,
            "read_units_s": [u.seconds for u in units],
            "seen": seen,
            "window": window,
            "latency_ms": (1e3 * np.median(latency, axis=0)).tolist(),
            "latency_p50_cal_ms": float(1e3 * np.median(latency[:, 0] * scales)),
            "latency_p50_units_ms": (1e3 * latency[:, 0]).tolist(),
            "frame_samples": int(sum(t[:, 1].sum() for t in samples)),
        }

    total_cells = len(campaign_spec("size").cells())
    if not ctx.trace:
        timed = measure(MIN_WRITES, reads=False)
        timed["seen"] = read_once()
        ledger_report = None
    else:
        from repro import obs

        untraced = measure(1, reads=True)
        obs.reset()
        obs.enable()
        tracer = Tracer()
        layers.install_offline(tracer)
        sidecars = layers.SidecarCounter()
        sidecars.install()
        try:
            timed = measure(1, reads=True, fanout=True)
        finally:
            sidecars.uninstall()
            tracer.unwrap_all()
        snapshot = obs.snapshot()
        obs.disable()

    # Untimed output checks.
    first_store = CampaignStore(names[0])
    first_bytes = dict(first_store.iter_cell_bytes())
    before_resume = tree_digest(first_store.root)
    resumed = campaign.run_campaign(campaign_spec(names[0]), jobs=jobs, resume=True)
    checks = {
        "all_cells_written": all(count == total_cells for count in executed),
        "repeat_stores_identical": all(
            dict(CampaignStore(name).iter_cell_bytes()) == first_bytes for name in names[1:]
        ),
        "resume_executes_nothing": resumed.executed == 0,
        "resume_leaves_bytes": tree_digest(first_store.root) == before_resume,
        "archive_unchanged": tree_digest(archive_root) == archive_before,
    }
    archive_cells = (
        len(sizes.archive_scenarios()) * len(sizes.archive_variants) * len(sizes.archive_particles)
    )
    if timed["seen"] is not None:
        checks["reads_complete"] = all(
            count == archive_cells for count in timed["seen"].values()
        )
    stats = RunningCellStats()
    for _key, payload in first_store.stream_cells():
        stats.add(payload["aggregate"])
    checks["some_run_converged"] = stats.mean_ate_m is not None

    from repro.scenarios import build_scenario

    frames_per_cell = {
        scenario: len(build_scenario(scenario).sequence.timestamps) * len(sizes.campaign_seeds)
        for scenario in scenarios
    }
    frames_per_campaign = sum(
        frames_per_cell[cell.scenario] for cell in campaign_spec("size").cells()
    )
    runs_per_campaign = total_cells * len(sizes.campaign_seeds)
    details = {
        "cells_per_campaign": total_cells,
        "write_units_s": timed["write_units_s"],
        "unit_scales": timed["unit_scales"],
        "read_units_s": timed["read_units_s"],
        "cells_per_s": total_cells / timed["write_cal_s"],
        "frame_samples": timed["frame_samples"],
        "frame_latency_p50_units_ms": timed["latency_p50_units_ms"],
        "frame_latency_p50_raw_ms": timed["latency_ms"][0],
        "frame_latency_p99_ms": timed["latency_ms"][1],
        "runs_per_s_raw": runs_per_campaign / timed["write_s"],
    }
    if timed["read_s"] is not None:
        details["report_cells_per_s"] = sum(timed["seen"].values()) / timed["read_s"]

    if not ctx.trace:
        metrics = {
            "frame_latency_p50_ms": timed["latency_p50_cal_ms"],
            "frames_per_s": frames_per_campaign / timed["write_cal_s"],
            "runs_per_s": runs_per_campaign / timed["write_cal_s"],
            "ate_m": stats.mean_ate_m,
            "success_rate": stats.success_rate,
        }
    else:
        window = timed["window"]
        self_s = tracer.self_times(window)
        metrics = layers.engine_and_maps(tracer, window, snapshot, self_s)
        metrics.update(layers.eval_metrics(tracer, window, self_s))
        book, balanced = layers.reconcile(self_s, window[1] - window[0])
        checks["ledger_balanced"] = balanced
        ledger_report = {"campaign": book, "balanced": balanced}
        serial_rate = total_cells / timed["serial_s"]
        parallel_rate = total_cells / timed["write_s"]
        metrics.update(
            {
                "eval.campaign.fanout_efficiency": parallel_rate / (jobs * serial_rate),
                "eval.store.bytes_per_cell": tree_bytes(first_store.root) / total_cells,
                "eval.store.index_hit_ratio": sidecars.ratio,
                "eval.store.report_cells_per_s": details["report_cells_per_s"],
                "bench.unattributed_s": book["unattributed_s"],
                "bench.frame_latency_p99_ms": timed["latency_ms"][1],
                "obs.trace_overhead": (timed["write_s"] + timed["read_s"])
                / (untraced["write_s"] + untraced["read_s"])
                - 1.0,
            }
        )
        tracer.dump(common.REPORTS / f"campaign_rw-seed{ctx.seed}.spans.jsonl")
    attempted = sum(executed) + 4 * len(timed["read_units_s"])
    failed = sum(total_cells - count for count in executed)
    return {
        "metrics": {k: float(v) if v is not None else float("nan") for k, v in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "ledger": ledger_report,
        "details": details,
    }
