"""Workload inputs: sizes, world specs and the synthetic campaign archive.

Everything here is a pure function of the workload parameters, so the
shared caches built from it (scenario files, reference digests, the
archive) are the same for every run and every seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Sizes:
    # fleet_gateway: the canonical office + corridor fleet, fp32/N=64.
    fleet_families: tuple[str, ...]
    fleet_world_seed: int
    fleet_flight_s: float
    fleet_drones: int
    fleet_variant: str
    fleet_particles: int
    # sweep_large_n: the paper's Fig. 6/7 grid on the drone maze.
    sweep_variants: tuple[str, ...]
    sweep_particles: tuple[int, ...]
    sweep_sequences: tuple[int, ...]
    sweep_seeds: tuple[int, ...]
    # campaign_rw phase 1: small cells over generated worlds.
    campaign_families: tuple[str, ...]
    campaign_world_seeds: tuple[int, ...]
    campaign_flight_s: float
    campaign_variants: tuple[str, ...]
    campaign_particles: tuple[int, ...]
    campaign_seeds: tuple[int, ...]
    # campaign_rw phase 2: the read-only archive (scenarios x variants x N).
    archive_world_seeds: int
    archive_variants: tuple[str, ...]
    archive_particles: tuple[int, ...]

    def fleet_scenarios(self) -> list[str]:
        """Spelled as ``FleetSpec.mixed`` spells them (one cache file each)."""
        return [
            f"{family}:{self.fleet_world_seed}:flight_s={self.fleet_flight_s!r}"
            for family in self.fleet_families
        ]

    def fleet_seeds(self) -> dict[str, list[int]]:
        """Filter seeds per fleet scenario (``FleetSpec.mixed`` staggering)."""
        replicas = self.fleet_drones // len(self.fleet_families)
        return {
            scenario: list(range(index * replicas, (index + 1) * replicas))
            for index, scenario in enumerate(self.fleet_scenarios())
        }

    def campaign_scenarios(self) -> list[str]:
        return [
            f"{family}:{seed}:flight_s={self.campaign_flight_s:g}"
            for family in self.campaign_families
            for seed in self.campaign_world_seeds
        ]

    def archive_scenarios(self) -> list[str]:
        return [
            f"{family}:{seed}"
            for family in self.campaign_families
            for seed in range(self.archive_world_seeds)
        ]


FULL = Sizes(
    fleet_families=("office", "corridor"),
    fleet_world_seed=1,
    fleet_flight_s=8.0,
    fleet_drones=256,
    fleet_variant="fp32",
    fleet_particles=64,
    sweep_variants=("fp32", "fp16qm"),
    sweep_particles=(1024, 4096),
    sweep_sequences=(2,),
    sweep_seeds=(0,),
    campaign_families=("office", "corridor", "hall", "maze"),
    campaign_world_seeds=(1, 2, 3),
    campaign_flight_s=8.0,
    campaign_variants=("fp32", "fp16qm"),
    campaign_particles=(32, 64),
    campaign_seeds=(0, 1),
    # 4 families x 250 worlds x 5 configs x 20 particle counts = 100 000.
    archive_world_seeds=250,
    archive_variants=("fp32", "fp16qm", "fp32+sigma=1.0", "fp32+sigma=3.0", "fp16qm+sigma=1.0"),
    archive_particles=tuple(range(16, 336, 16)),
)

SMOKE = Sizes(
    fleet_families=("office", "corridor"),
    fleet_world_seed=1,
    fleet_flight_s=4.0,
    fleet_drones=8,
    fleet_variant="fp32",
    fleet_particles=64,
    sweep_variants=("fp32", "fp16qm"),
    sweep_particles=(64,),
    sweep_sequences=(0,),
    sweep_seeds=(0,),
    campaign_families=("office", "maze"),
    campaign_world_seeds=(1,),
    campaign_flight_s=4.0,
    campaign_variants=("fp32",),
    campaign_particles=(64,),
    campaign_seeds=(0, 1),
    archive_world_seeds=10,
    archive_variants=("fp32", "fp32+sigma=1.0"),
    archive_particles=(16, 32, 48, 64, 80),
)


def sizes(smoke: bool) -> Sizes:
    return SMOKE if smoke else FULL


ARCHIVE_NAME = "archive"
ARCHIVE_SEEDS = (0, 1)
PIVOT_KEY = "sigma"


def trace_digest(trace) -> str:
    """Byte identity of one run trace (values compared at float64)."""
    digest = hashlib.sha256(str(int(trace.update_count)).encode())
    for array in (
        trace.timestamps,
        trace.position_errors,
        trace.yaw_errors,
        trace.estimate_trace,
    ):
        values = np.asarray(array, dtype=np.float64)
        digest.update(str(values.shape).encode())
        digest.update(values.tobytes())
    return digest.hexdigest()


def archive_payload(cell) -> dict:
    """A stored cell shaped like ``campaign.cell_payload``; bytes keyed by cell."""
    digest = hashlib.sha256(cell.key.encode("ascii")).digest()
    runs = []
    for position, seed in enumerate(cell.seeds):
        byte = digest[position]
        converged = byte % 3 != 0
        ate = 0.05 + (digest[8 + position] / 255.0) * 0.4
        runs.append(
            {
                "sequence": cell.scenario,
                "seed": seed,
                "update_count": 40 + byte % 60,
                "metrics": {
                    "converged": converged,
                    "convergence_time_s": (byte % 50) / 10.0 if converged else None,
                    "success": converged and ate < 0.3,
                    "ate_mean_m": ate if converged else None,
                    "ate_rmse_m": ate * 1.1 if converged else None,
                    "ate_max_m": ate * 2.0 if converged else None,
                    "yaw_mean_rad": (digest[16 + position] / 255.0) * 0.2,
                },
            }
        )
    converged_ates = [r["metrics"]["ate_mean_m"] for r in runs if r["metrics"]["converged"]]
    return {
        "cell": {
            "scenario": cell.scenario,
            "variant": cell.variant,
            "particle_count": cell.particle_count,
            "seeds": list(cell.seeds),
        },
        "runs": runs,
        "aggregate": {
            "runs": len(runs),
            "converged": len(converged_ates),
            "success_rate": sum(r["metrics"]["success"] for r in runs) / len(runs),
            "mean_ate_m": (
                sum(converged_ates) / len(converged_ates) if converged_ates else None
            ),
        },
    }

