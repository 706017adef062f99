"""sweep_large_n: the paper's Fig. 6/7 evaluation at large N, one process.

``SweepEngine.run`` at its defaults (backend, ``jobs=1``) over the
drone-maze world and the committed sequences, fp32 + fp16qm x
N in {1024, 4096}, paper seeds.  Kernel-bound: one world and one EDT per
field kind, no serving or store layer, so a gateway or store change
must predict no change here.  The cells run in the engine's own grid
order (variant-major), the same in every run: a cell's time depends on
the cells the process ran before it (up to ~15% of a pass, measured
with seeded orders), so a seeded order would move the results with the
seed rather than the program.  The seed picks the cell checked against
the ``reference`` backend; the evaluated set itself is fixed, which
keeps ``ate_m`` and ``success_rate`` a pure function of the program.
"""

from __future__ import annotations

import random

import numpy as np

import common
import layers
from tracer import Tracer, clock

#: Identical passes per run; cell times and latencies are medians over them.
MIN_PASSES = 3


def _run_key(run) -> tuple:
    return (run.sequence_name, run.seed)


def _metrics_tuple(metrics) -> tuple:
    return tuple(
        np.float64(value).tobytes() if isinstance(value, float) else value
        for value in (
            metrics.converged,
            metrics.convergence_time_s,
            metrics.success,
            metrics.ate_mean_m,
            metrics.ate_rmse_m,
            metrics.ate_max_m,
            metrics.yaw_mean_rad,
        )
    )


def run(ctx) -> dict:
    from repro import MclConfig, SweepEngine, build_drone_maze_world, load_all_sequences
    from repro.eval.aggregate import SweepProtocol
    from repro.maps.distance_field import FieldKind

    sizes = ctx.sizes
    layers.default_backend()
    world = build_drone_maze_world()
    committed = load_all_sequences()
    sequences = [committed[index] for index in sizes.sweep_sequences]
    engine = SweepEngine()
    for variant in sizes.sweep_variants:
        config = MclConfig().with_variant(variant)
        engine.field_cache.get(
            world.grid, config.r_max, FieldKind.for_mode(config.precision)
        )
    protocol = SweepProtocol(sequence_count=len(sequences), seeds=sizes.sweep_seeds)
    ctx.ready()
    if ctx.setup_only:
        return {}

    rng = random.Random(ctx.seed)
    order = [(v, n) for v in sizes.sweep_variants for n in sizes.sweep_particles]

    def measure() -> dict:
        """At least ``MIN_PASSES`` identical passes, each cell one unit;
        a cell's time and step-latency percentiles are medians over the
        passes, raw and with each unit rescaled by its own host-speed
        probes (``Unit.scale``)."""
        steps = layers.StepLog(ctx.run_dir / "steps")
        steps.install()
        cell_times, cell_scales, step_times, outcomes = [], [], [], []
        try:
            window_start = clock()
            while len(cell_times) < MIN_PASSES or ctx.keep_going(
                clock() - window_start, (clock() - window_start) / len(cell_times)
            ):
                times, scales, samples, results = [], [], [], {}
                for variant, particles in order:
                    with ctx.unit() as unit:
                        result = engine.run(world.grid, sequences, [variant], [particles], protocol)
                    samples.append(steps.collect())
                    times.append(unit.seconds)
                    scales.append(unit.scale)
                    for sweep_run in result.cell(variant, particles).runs:
                        results[(variant, particles) + _run_key(sweep_run)] = sweep_run
                cell_times.append(times)
                cell_scales.append(scales)
                step_times.append(samples)
                outcomes.append({k: _metrics_tuple(r.metrics) for k, r in results.items()})
                if len(cell_times) == 1:
                    first = results
            window = (window_start, clock())
        finally:
            steps.uninstall()
        identical = all(o == outcomes[0] for o in outcomes) and all(
            np.array_equal(cell[:, 1], first_cell[:, 1])
            for cells in step_times
            for cell, first_cell in zip(cells, step_times[0])
        )
        # Each cell's frames share one N, so its percentiles are those of
        # one population; they are medians over the passes, and the
        # sweep's are their mean over the cells.
        per_pass = np.array(
            [
                [[common.weighted_percentile(c[:, 0], c[:, 1], q) for q in (0.50, 0.99)] for c in cells]
                for cells in step_times
            ]
        )
        scales = np.array(cell_scales)
        latency_ms = list(1e3 * np.median(per_pass, axis=0).mean(axis=0))
        return {
            "passes": len(cell_times),
            "pass_s": float(np.sum(np.median(cell_times, axis=0))),
            "pass_cal_s": float(np.sum(np.median(np.array(cell_times) * scales, axis=0))),
            "latency_p50_cal_ms": float(1e3 * np.median(per_pass[:, :, 0] * scales, axis=0).mean()),
            "window": window,
            "first": first,
            "identical": identical,
            "latency_ms": latency_ms,
            "frame_samples": int(sum(cell[:, 1].sum() for cell in step_times[0])),
        }

    if not ctx.trace:
        timed = measure()
        first = timed["first"]
        frames = sum(len(seq.timestamps) for seq in sequences) * len(sizes.sweep_seeds)
        successes = [r.metrics.success for r in first.values()]
        converged = [r.metrics.ate_mean_m for r in first.values() if r.metrics.converged]
        convergence = {"some_run_converged": bool(converged)}
        metrics = {
            "frame_latency_p50_ms": timed["latency_p50_cal_ms"],
            "frames_per_s": frames * len(order) / timed["pass_cal_s"],
            "runs_per_s": len(first) / timed["pass_cal_s"],
            "ate_m": float(np.mean(converged)) if converged else float("nan"),
            "success_rate": float(np.mean(successes)),
        }
        details = {
            "passes": timed["passes"],
            "runs_per_pass": len(first),
            "pass_s": timed["pass_s"],
            "pass_cal_s": timed["pass_cal_s"],
            "frame_latency_p50_raw_ms": timed["latency_ms"][0],
            "frame_samples_per_pass": timed["frame_samples"],
            "frame_latency_p99_ms": timed["latency_ms"][1],
        }
        ledger_report = None
    else:
        from repro import obs

        untraced = measure()
        obs.reset()
        obs.enable()
        tracer = Tracer()
        layers.install_offline(tracer)
        try:
            timed = measure()
        finally:
            tracer.unwrap_all()
        snapshot = obs.snapshot()
        obs.disable()
        window = timed["window"]
        self_s = tracer.self_times(window)
        per_layer = layers.engine_and_maps(tracer, window, snapshot, self_s)
        per_layer.update(layers.eval_metrics(tracer, window, self_s))
        book, balanced = layers.reconcile(self_s, window[1] - window[0])
        per_layer["bench.unattributed_s"] = book["unattributed_s"]
        per_layer["bench.frame_latency_p99_ms"] = timed["latency_ms"][1]
        per_layer["obs.trace_overhead"] = timed["pass_s"] / untraced["pass_s"] - 1.0
        metrics = per_layer
        first = timed["first"]
        details = {"passes": timed["passes"]}
        ledger_report = {"sweep": book, "balanced": balanced}
        tracer.dump(common.REPORTS / f"sweep_large_n-seed{ctx.seed}.spans.jsonl")

    # Untimed output checks.
    checks = {"passes_identical": bool(timed["identical"])}
    if not ctx.trace:
        checks.update(convergence)
    if ledger_report is not None:
        checks["ledger_balanced"] = ledger_report["balanced"]
    variant = rng.choice(sizes.sweep_variants)
    particles = min(sizes.sweep_particles)
    sequence = rng.choice(sequences)
    reference = SweepEngine(backend="reference").run(
        world.grid,
        [sequence],
        [variant],
        [particles],
        SweepProtocol(sequence_count=1, seeds=sizes.sweep_seeds),
    )
    checks["reference_equal"] = all(
        _metrics_tuple(ref_run.metrics)
        == _metrics_tuple(first[(variant, particles) + _run_key(ref_run)].metrics)
        for ref_run in reference.cell(variant, particles).runs
    )
    details["reference_cell"] = f"{variant}/N={particles}/{sequence.name}"
    attempted = len(first) * timed["passes"]
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": 0,
        "checks": checks,
        "ledger": ledger_report,
        "details": details,
    }
