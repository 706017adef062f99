"""Build the shared read-only caches of a checkout, once.

Run by ``run.py`` (under a file lock) before the first measured run in
a checkout; every later run copies or opens these files and never
writes them:

* ``data/scenarios`` — the generated worlds of ``fleet_gateway`` and
  ``campaign_rw`` (the scenario ``.npz`` cache the program reads),
* ``fleet_reference.json`` — the trace digest of every fleet drone run
  alone through the ``reference`` backend,
* ``archive/`` — the ~10^5-cell campaign-shaped packed store that
  ``campaign_rw`` reads,
* ``fast_cache/`` — the fast backend's compiled provider
  (``REPRO_FAST_CACHE``), so provider resolution in setup is a lookup.

Usage: ``python3 perfbench/prepare.py SHARED_DIR [--smoke]`` with the
environment of :func:`common.child_env`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import spec as workload_spec


def build_scenarios(sizes) -> None:
    from repro.scenarios import build_scenario

    for scenario in dict.fromkeys(sizes.fleet_scenarios() + sizes.campaign_scenarios()):
        build_scenario(scenario, cache=True)


def build_fleet_reference(sizes, path: Path) -> None:
    from repro.core.config import MclConfig
    from repro.engine.backend import RunSpec, get_backend
    from repro.maps.distance_field import DistanceField
    from repro.scenarios import build_scenario, canonical_scenario_id

    reference = get_backend("reference")
    config = MclConfig(particle_count=sizes.fleet_particles).with_variant(
        sizes.fleet_variant
    )
    digests: dict[str, dict[str, str]] = {}
    for scenario_id, seeds in sizes.fleet_seeds().items():
        scenario = build_scenario(scenario_id, cache=True)
        field = DistanceField.build_for_mode(
            scenario.grid, config.r_max, config.precision
        )
        digests[canonical_scenario_id(scenario_id)] = {
            str(seed): workload_spec.trace_digest(
                reference.execute(
                    scenario.grid, [RunSpec(scenario.sequence, seed)], config, field
                )[0]
            )
            for seed in seeds
        }
    path.write_text(json.dumps(digests, indent=1, sort_keys=True))


def build_archive(sizes, root: Path) -> int:
    from repro.eval.campaign import CampaignSpec
    from repro.eval.store import CampaignStore

    campaign = CampaignSpec(
        name=workload_spec.ARCHIVE_NAME,
        scenarios=tuple(sizes.archive_scenarios()),
        variants=sizes.archive_variants,
        particle_counts=sizes.archive_particles,
        seeds=workload_spec.ARCHIVE_SEEDS,
    )
    store = CampaignStore(campaign.name, root=root, tier="packed")
    store.write_manifest(campaign.to_manifest())
    cells = campaign.cells()
    with store:
        for cell in cells:
            store.put_cell(cell.key, workload_spec.archive_payload(cell))
    return len(cells)


def resolve_fast_provider() -> str:
    from repro.common.errors import ConfigurationError
    from repro.engine.fast import resolve_provider

    try:
        return resolve_provider().name
    except ConfigurationError:
        return "unavailable"


def main() -> None:
    shared = Path(sys.argv[1])
    sizes = workload_spec.sizes("--smoke" in sys.argv[2:])
    build_scenarios(sizes)
    build_fleet_reference(sizes, shared / "fleet_reference.json")
    cells = build_archive(sizes, shared / "archive")
    provider = resolve_fast_provider()
    (shared / "READY.json").write_text(
        json.dumps({"archive_cells": cells, "fast_provider": provider})
    )


if __name__ == "__main__":
    main()
