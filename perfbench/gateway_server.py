"""The gateway process of ``fleet_gateway``: one ``OnlineServer`` at its defaults.

    python3 perfbench/gateway_server.py --trace 0|1 --out PATH --spans PATH

Prints ``READY <port>`` once listening on loopback, then serves until
its stdin closes.  In a traced run the client first writes one JSON
line ``{"window": [start, end]}`` (``perf_counter`` is system-wide, so
the client's clock reads the same here); the server then writes its
per-layer metrics and the cost ledger of that window to ``--out`` and
its span log to ``--spans``.

Traced spans come from wrappers around the serving layers' calls: the
protocol's frame encoding and JSON decoding, each verb handler, the
manager's flush, the scheduler's tick, the engine's stacked step and
the EDT build — plus the event loop's ``select`` (idle time), through a
selector handed to ``asyncio.SelectorEventLoop``.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import os
import selectors
import sys
from pathlib import Path

import layers
from tracer import Tracer

class TimedSelector(selectors.DefaultSelector):
    """The event loop's selector, with each ``select`` recorded as idle time."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer

    def select(self, timeout=None):
        with self._tracer.span("serve.online.idle"):
            return super().select(timeout)


class _TimedJson:
    """Stands in for the ``json`` module inside ``repro.serve.protocol``:
    decoding is timed as protocol work, everything else passes through."""

    def __init__(self, tracer: Tracer, module) -> None:
        self._tracer = tracer
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)

    def loads(self, text, *args, **kwargs):
        self._tracer.tally["serve.protocol"] += len(text)
        with self._tracer.span("serve.protocol"):
            return self._module.loads(text, *args, **kwargs)


def install(tracer: Tracer) -> None:
    from repro.maps.distance_field import DistanceField
    from repro.serve import SessionManager, online, protocol
    from repro.serve.scheduler import StepScheduler

    encode = protocol.encode_frame

    def encode_frame(message):
        with tracer.span("serve.protocol"):
            frame = encode(message)
        tracer.tally["serve.protocol"] += len(frame)
        return frame

    protocol.encode_frame = encode_frame
    protocol.json = _TimedJson(tracer, protocol.json)

    requests = itertools.count()
    for op, handler in list(online.OnlineServer._HANDLERS.items()):
        holder = type("_Verb", (), {"call": staticmethod(handler)})
        tracer.wrap(
            holder,
            "call",
            f"serve.online.verb.{op}",
            span_id=lambda args, kwargs: f"request:{next(requests)}",
        )
        online.OnlineServer._HANDLERS[op] = holder.call

    ticks = itertools.count()
    tracer.wrap(SessionManager, "flush", "serve.manager.flush")
    tracer.wrap(
        StepScheduler,
        "tick",
        "serve.scheduler.tick",
        span_id=lambda args, kwargs: f"tick:{next(ticks)}",
    )
    backend_cls, stack_cls = layers.stack_classes()
    tracer.wrap(stack_cls, "step", "engine.step", tally=layers.step_rows)
    tracer.wrap(DistanceField, "build", "maps.edt")


def server_metrics(tracer: Tracer, window, server) -> dict:
    from repro import obs

    self_s = tracer.self_times(window)
    metrics = layers.engine_and_maps(tracer, window, obs.snapshot(), self_s)
    stats = server.stats
    _, submit_busy = tracer.totals("serve.online.verb.submit", window)
    ticks, _ = tracer.totals("serve.scheduler.tick", window)
    frames = stats["frames_served"]
    metrics.update(
        {
            "serve.scheduler.ticks": ticks,
            "serve.scheduler.tick.self_s": self_s.get("serve.scheduler.tick", 0.0),
            "serve.scheduler.frames_per_tick": frames / stats["ticks"] if stats["ticks"] else 0.0,
            "serve.manager.flush.self_s": self_s.get("serve.manager.flush", 0.0),
            "serve.online.verb.submit.self_s": self_s.get("serve.online.verb.submit", 0.0),
            "serve.online.queue_wait_s": submit_busy - self_s.get("serve.online.verb.submit", 0.0),
            "serve.online.idle_s": self_s.get("serve.online.idle", 0.0),
            "serve.online.rejected_overload": stats["rejected_overload"],
            "serve.protocol.busy_s": tracer.totals("serve.protocol", window)[1],
            "serve.protocol.bytes_per_frame": tracer.tally["serve.protocol"] / frames if frames else 0.0,
        }
    )
    book, balanced = layers.reconcile(self_s, window[1] - window[0])
    metrics["bench.unattributed_s"] = book["unattributed_s"]
    return {"metrics": metrics, "ledger": book, "balanced": balanced, "stats": stats}


async def serve(trace: bool, out: Path, spans: Path, tracer: Tracer | None) -> None:
    from repro.serve import OnlineServer

    server = OnlineServer()
    await server.start()
    loop = asyncio.get_running_loop()
    closed = asyncio.Event()
    received = bytearray()

    def on_stdin() -> None:
        chunk = os.read(sys.stdin.fileno(), 65536)
        if chunk:
            received.extend(chunk)
        else:
            loop.remove_reader(sys.stdin.fileno())
            closed.set()

    loop.add_reader(sys.stdin.fileno(), on_stdin)
    print(f"READY {server.address[1]}", flush=True)
    try:
        await closed.wait()
    finally:
        await server.stop()
        # Connection handlers of clients that did not hang up first.
        rest = [task for task in asyncio.all_tasks() if task is not asyncio.current_task()]
        for task in rest:
            task.cancel()
        await asyncio.gather(*rest, return_exceptions=True)
    if trace and received.strip():
        window = tuple(json.loads(received.decode().strip().splitlines()[-1])["window"])
        report = server_metrics(tracer, window, server)
        out.write_text(json.dumps(report))
        tracer.dump(spans)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()
    from repro import obs

    tracer = None
    if args.trace:
        obs.enable()
        tracer = Tracer()
        install(tracer)
        loop = asyncio.SelectorEventLoop(TimedSelector(tracer))
    else:
        obs.disable()
        loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(
            serve(bool(args.trace), Path(args.out), Path(args.spans), tracer)
        )
    finally:
        loop.close()


if __name__ == "__main__":
    main()
