"""One workload process: set up from cold, measure, check, report one JSON line.

Started by ``run.py`` with ``--spawned-at`` set to the orchestrator's
clock just before the spawn (``perf_counter`` is the system-wide
monotonic clock), so ``setup_s`` covers interpreter start, imports,
provider resolution, world and sequence loading, EDT builds and, for
the gateway, server start and fleet creation.  With ``--setup-only``
the process stops once it is ready to time.
"""

from __future__ import annotations

import argparse
from contextlib import contextmanager
from pathlib import Path

import calibrate
import common
import spec as workload_spec
from tracer import clock


class Unit:
    seconds = 0.0
    #: Host-speed factor of this unit alone: the probe readings just
    #: before and just after it, as ``calibrate.scale`` turns them.
    scale = 1.0


class Context:
    """What a workload needs to know about its run."""

    def __init__(self, args) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.setup_only = args.setup_only
        self.run_dir = Path(args.run_dir)
        self.shared = Path(args.shared)
        self.spawned_at = args.spawned_at
        self.probe_before_s = args.probe_before
        self.sizes = workload_spec.sizes(args.smoke)
        self.setup_s: float | None = None
        self.probes: list[float] = []

    def ready(self) -> None:
        """Mark the end of set-up: everything after this is the measured run."""
        self.setup_s = clock() - self.spawned_at
        self.probes = [self.probe_before_s, calibrate.probe()]

    @contextmanager
    def unit(self):
        """Time one unit of work, then read the host-speed probe."""
        record = Unit()
        before = self.probes[-1]
        start = clock()
        try:
            yield record
        finally:
            record.seconds = clock() - start
            self.probes.append(calibrate.probe())
            record.scale = calibrate.scale([before, self.probes[-1]])

    def keep_going(self, elapsed_s: float, unit_s: float, share: float = 1.0) -> bool:
        """Start another unit of work if it would end nearer the budget
        (``share`` of ``--seconds``) than stopping now."""
        return elapsed_s + unit_s / 2.0 < share * self.seconds


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=common.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--shared", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--probe-before", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")

    args = parser.parse_args()
    ctx = Context(args)
    if args.workload == "fleet_gateway":
        import fleet_gateway as workload
    elif args.workload == "sweep_large_n":
        import sweep_large_n as workload
    else:
        import campaign_rw as workload

    result = workload.run(ctx)
    result["setup_s"] = ctx.setup_s
    result["probes_s"] = ctx.probes
    result["peak_rss_mb"] = common.peak_rss_mb()
    if not ctx.setup_only:
        result["host"] = common.host_block()
    common.emit(result)


if __name__ == "__main__":
    main()
