"""fleet_gateway: the canonical fleet served live over loopback TCP.

256 drones (office + corridor worlds, fp32, N=64) on an ``OnlineServer``
at the program's defaults, running in its own process
(``gateway_server.py``); this process is the only load generator and
uses 2 connections (at most ``nproc``).

* Phase 1, **open loop**: every drone sends each frame when its
  recorded sensor clock says it is due (15 Hz, 3 840 frames/s for the
  fleet), whatever the gateway is doing.  A connection sends, in one
  ``submit(wait=True)``, every frame that is due when it is free, so a
  stall delays the frames behind it; each frame is timed from when it
  was due to when its estimate is served.  The seed draws each drone's
  phase within the frame period and its connection.
* Phase 2, **closed loop**: the same fleet again, each connection
  submitting the next frame of all its drones as soon as the previous
  ones are served, to measure saturated throughput.

Every served trace must equal, bit for bit, the same drone run alone
through the ``reference`` backend (digests cached by ``prepare.py``).
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import subprocess
import sys

import numpy as np

import common
from tracer import clock

CONNECTIONS = 2
#: Closed-loop fleets per run; throughput is the median over them.
MIN_FLEETS = 5
#: Frames per drone per closed-loop request (as ``bench_serve_online``):
#: long enough that the two connections' requests coalesce into shared
#: ticks whatever their relative timing.
ROUND_FRAMES = 8
#: Open-loop flights per run, each cut into ``WINDOWS`` stretches.
PHASE1_FLIGHTS = 2
WINDOWS = 8
#: A frame that is rejected or fails counts as missing every latency
#: limit: it is recorded with this latency.
FAILED_FRAME_S = 60.0


class Gateway:
    """The server process: started, signalled through stdin, waited for."""

    def __init__(self, ctx, trace: bool, tag: str) -> None:
        self.out = ctx.run_dir / f"gateway-{tag}.json"
        self.process = subprocess.Popen(
            [
                sys.executable,
                str(common.BENCH_DIR / "gateway_server.py"),
                "--trace", str(int(trace)),
                "--out", str(self.out),
                "--spans", str(common.REPORTS / f"fleet_gateway-seed{ctx.seed}.spans.jsonl"),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.process.stdout.readline().split()
        if len(line) != 2 or line[0] != "READY":
            self.stop()
            raise RuntimeError(f"gateway failed to start: {line!r}")
        self.port = int(line[1])

    def stop(self, window: tuple[float, float] | None = None) -> dict | None:
        if self.process.poll() is None:
            if window is not None:
                self.process.stdin.write(json.dumps({"window": list(window)}) + "\n")
            self.process.stdin.close()
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        if window is not None and self.out.is_file():
            return json.loads(self.out.read_text())
        return None


def _windows(latencies: np.ndarray, due: np.ndarray) -> list[tuple[float, float]]:
    """(p50, p99) latency of each of ``WINDOWS`` equal stretches of one
    open-loop flight, by due time.  Reported percentiles are medians over
    the stretches, so a burst of host contention moves one stretch, not
    the result."""
    edges = np.linspace(due.min(), due.max(), WINDOWS + 1)
    slot = np.clip(np.searchsorted(edges, due, side="right") - 1, 0, WINDOWS - 1)
    return [
        (common.percentile(latencies[slot == k], 0.50), common.percentile(latencies[slot == k], 0.99))
        for k in range(WINDOWS)
    ]


async def _connect(port: int):
    from repro.serve.online import OnlineClient

    return await OnlineClient.connect("127.0.0.1", port)


async def _close_all(control, session_ids, reference) -> tuple[bool, list[dict]]:
    """Close every session; True if every trace equals its solo reference."""
    import spec as workload_spec
    from repro.scenarios import canonical_scenario_id

    equal = True
    metrics = []
    for sid in session_ids:
        closed = await control.close_session(sid)
        expected = reference[canonical_scenario_id(closed.spec.scenario)][str(closed.spec.seed)]
        equal &= workload_spec.trace_digest(closed.trace) == expected
        metrics.append(closed.metrics)
    return equal, metrics


async def _open_loop(port, groups, due_times, session_ids):
    """Phase 1; returns (latency and due time by frame, generator lags,
    failed frames, start)."""
    from repro.serve.protocol import OnlineError

    latencies: list[np.ndarray] = []
    due: list[np.ndarray] = []
    lags: list[float] = []
    failed = 0

    async def drive(events: list[tuple[float, int]], out: np.ndarray) -> None:
        nonlocal failed
        client = await _connect(port)
        try:
            position = 0
            while position < len(events):
                now = clock()
                if events[position][0] > now:
                    await asyncio.sleep(events[position][0] - now)
                    lags.append(clock() - events[position][0])
                    continue
                batch, drones = [], set()
                end = position
                while end < len(events) and events[end][0] <= now and events[end][1] not in drones:
                    drones.add(events[end][1])
                    batch.append(end)
                    end += 1
                sessions = [session_ids[events[i][1]] for i in batch]
                try:
                    await client.submit(sessions, frames=1, wait=True)
                    served = clock()
                    for i in batch:
                        out[i] = served - events[i][0]
                except OnlineError:
                    # Rejected: nothing was queued.  Count the frames as
                    # failed and still deliver them, so traces stay whole.
                    failed += len(batch)
                    out[batch] = FAILED_FRAME_S
                    await client.submit_with_retry(sessions, frames=1, wait=True)
                position = end
        finally:
            await client.close()

    tasks = []
    start = clock()
    for group in groups:
        events = sorted((start + due, drone) for drone in group for due in due_times[drone])
        out = np.zeros(len(events))
        latencies.append(out)
        due.append(np.array([moment for moment, _ in events]))
        tasks.append(drive(events, out))
    await asyncio.gather(*tasks)
    return np.concatenate(latencies), np.concatenate(due), np.asarray(lags), failed, start


async def _closed_loop(port, groups, frames_total, session_ids) -> None:
    """Phase 2: every connection keeps all its drones stepping, submitting
    the next ``ROUND_FRAMES`` frames of each as soon as the last are served."""

    async def drive(group: list[int]) -> None:
        client = await _connect(port)
        try:
            remaining = {drone: frames_total[drone] for drone in group}
            while remaining:
                live = sorted(remaining)
                frames = min(ROUND_FRAMES, min(remaining[d] for d in live))
                await client.submit([session_ids[d] for d in live], frames=frames, wait=True)
                for drone in live:
                    remaining[drone] -= frames
                    if remaining[drone] == 0:
                        del remaining[drone]
        finally:
            await client.close()

    await asyncio.gather(*(drive(group) for group in groups))


def run(ctx) -> dict:
    # This process is only the load generator: keep its cyclic garbage
    # collector out of the measured latencies (the gateway process, the
    # program under test, keeps the interpreter's defaults).
    gc.disable()
    try:
        return asyncio.run(_run(ctx))
    finally:
        gc.enable()


async def _run(ctx) -> dict:
    from repro.scenarios import build_scenario
    from repro.scenarios.fleet import FleetSpec

    connections = max(1, min(CONNECTIONS, common.nproc()))

    sizes = ctx.sizes
    fleet = FleetSpec.mixed(
        sizes.fleet_families,
        scenario_seed=sizes.fleet_world_seed,
        variant=sizes.fleet_variant,
        particle_count=sizes.fleet_particles,
        replicas=sizes.fleet_drones // len(sizes.fleet_families),
        flight_s=sizes.fleet_flight_s,
    )
    declarations = fleet.declarations()
    gateway = Gateway(ctx, ctx.trace, "main")
    try:
        control = await _connect(gateway.port)
        session_ids = await control.create_fleet(fleet.id)
        timestamps = {
            scenario: build_scenario(scenario).sequence.timestamps
            for scenario in dict.fromkeys(decl.scenario for decl in declarations)
        }
        ctx.ready()
        if ctx.setup_only:
            await control.close()
            gateway.stop()
            return {}

        rng = random.Random(ctx.seed)
        drones = list(range(len(declarations)))
        period = float(np.median(np.diff(next(iter(timestamps.values())))))
        due_times = [
            rng.uniform(0.0, period) + timestamps[decl.scenario] for decl in declarations
        ]
        frames_total = [len(timestamps[decl.scenario]) for decl in declarations]
        order = rng.sample(drones, len(drones))
        groups = [order[c::connections] for c in range(connections)]
        reference = json.loads((ctx.shared / "fleet_reference.json").read_text())

        # Host-speed probes run between units, while the gateway is idle.
        flights, windows = [], []
        checks = {"phase1_traces_equal_reference": True, "phase2_traces_equal_reference": True}
        for flight in range(PHASE1_FLIGHTS):
            if flight:
                session_ids = await control.create_fleet(fleet.id)
            with ctx.unit() as unit:
                latencies, due, lags, failed, start = await _open_loop(
                    gateway.port, groups, due_times, session_ids
                )
            flights.append((unit, latencies, lags, failed))
            windows += [(p50, p99, unit.scale) for p50, p99 in _windows(latencies, due)]
            if not flight:
                window_start = start
            equal, closed = await _close_all(control, session_ids, reference)
            checks["phase1_traces_equal_reference"] &= equal
            if not flight:
                closed_metrics = closed

        fleets: list = []
        phase1_s = sum(unit.seconds for unit, *_ in flights)
        while len(fleets) < MIN_FLEETS or ctx.keep_going(
            phase1_s + sum(f.seconds for f in fleets),
            sum(f.seconds for f in fleets) / len(fleets),
        ):
            session_ids = await control.create_fleet(fleet.id)
            with ctx.unit() as unit:
                await _closed_loop(gateway.port, groups, frames_total, session_ids)
            fleets.append(unit)
            equal, _ = await _close_all(control, session_ids, reference)
            checks["phase2_traces_equal_reference"] &= equal
        window = (window_start, clock())
        await control.close()
    except BaseException:
        gateway.stop()
        raise

    offered = sum(len(latencies) for _, latencies, *_ in flights)
    p99_ms = 1e3 * float(np.median([p99 for _, p99, _ in windows]))
    failed = sum(failed for *_, failed in flights)
    lags = np.concatenate([lags for _, _, lags, _ in flights])
    frames_per_fleet = sum(frames_total)
    fleet_s = float(np.median([unit.seconds for unit in fleets]))
    # End-to-end times: each unit rescaled by its own host-speed probes.
    fleet_cal_s = float(np.median([unit.seconds * unit.scale for unit in fleets]))
    details = {
        "drones": len(declarations),
        "connections": connections,
        "offered_frames_per_s": offered / phase1_s,
        "phase1_s": phase1_s,
        "phase2_fleet_s": [unit.seconds for unit in fleets],
        "unit_scales": [unit.scale for unit, *_ in flights] + [unit.scale for unit in fleets],
        "frame_latency_p50_raw_ms": 1e3 * float(np.median([p50 for p50, _, _ in windows])),
        "frames_failed": failed,
    }
    if not ctx.trace:
        gateway.stop()
        successes = [m["success"] for m in closed_metrics]
        converged = [m["ate_mean_m"] for m in closed_metrics if m["converged"]]
        checks["some_run_converged"] = bool(converged)
        metrics = {
            "frame_latency_p50_ms": 1e3 * float(np.median([p50 * scale for p50, _, scale in windows])),
            "frames_per_s": frames_per_fleet / fleet_cal_s,
            "runs_per_s": len(declarations) / fleet_cal_s,
            "ate_m": float(np.mean(converged)) if converged else float("nan"),
            "success_rate": float(np.mean(successes)),
        }
        ledger_report = None
    else:
        server = gateway.stop(window)
        checks["ledger_balanced"] = server["balanced"]
        # The same closed loop against an untraced gateway: trace overhead.
        plain = Gateway(ctx, False, "untraced")
        try:
            control = await _connect(plain.port)
            session_ids = await control.create_fleet(fleet.id)
            with ctx.unit() as plain_fleet:
                await _closed_loop(plain.port, groups, frames_total, session_ids)
            equal, _ = await _close_all(control, session_ids, reference)
            checks["untraced_traces_equal_reference"] = equal
            await control.close()
        finally:
            plain.stop()
        metrics = dict(server["metrics"])
        metrics["obs.trace_overhead"] = fleet_s / plain_fleet.seconds - 1.0
        metrics["bench.frame_latency_p99_ms"] = p99_ms
        metrics["bench.generator_lag_p99_ms"] = 1e3 * common.percentile(lags, 0.99) if len(lags) else 0.0
        ledger_report = {"gateway": server["ledger"], "balanced": server["balanced"]}
        details["server_stats"] = server["stats"]
    details["frame_latency_p99_ms"] = p99_ms
    details["generator_lag_p99_ms"] = 1e3 * common.percentile(lags, 0.99) if len(lags) else 0.0
    return {
        "metrics": metrics,
        "attempted": offered + frames_per_fleet * len(fleets),
        "failed": failed,
        "checks": checks,
        "ledger": ledger_report,
        "details": details,
    }
