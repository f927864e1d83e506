"""Warm-start a design-space sweep from the disk-backed compile artifact store.

Every process normally starts with a cold compile cache; with
``FINESSE_CACHE_DIR`` pointing at a shared directory, compile artefacts
persist on disk and a sweep re-run in a *fresh* process performs zero
recompilations -- every kernel is loaded from the store.  Run this script
twice to see the effect::

    python examples/warm_cache_sweep.py --cache-dir .finesse-cache     # cold: compiles
    python examples/warm_cache_sweep.py --cache-dir .finesse-cache     # warm: disk hits

CI uses the second invocation with ``--assert-warm`` at one and at two
workers (``FINESSE_DSE_WORKERS``), which fails unless the sweep was fully
served from the store (``disk_hits > 0``, zero recompilations, no
``corrupt`` entry or write ``errors`` in the store's counters, and every
distinct point answered from a cache tier by the parent:
``cached_points == distinct_points``) -- the warm-path guarantee this
repository advertises, at any worker count.
"""

from __future__ import annotations

import os
import sys

from repro.compiler.pipeline import compile_cache_stats
from repro.compiler.store import CACHE_DIR_ENV, active_store
from repro.curves.catalog import get_curve
from repro.dse.engine import ParallelExplorer
from repro.dse.space import design_points, named_variant_configs
from repro.hw.presets import figure10_models


def main() -> int:
    args = list(sys.argv[1:])
    curve_name = "TOY-BN42"
    cache_dir = os.environ.get(CACHE_DIR_ENV, "") or ".finesse-cache"
    assert_warm = False
    while args:
        arg = args.pop(0)
        if arg == "--curve":
            curve_name = args.pop(0)
        elif arg == "--cache-dir":
            cache_dir = args.pop(0)
        elif arg == "--assert-warm":
            assert_warm = True
        else:
            raise SystemExit(f"unknown argument {arg!r}")

    # Export (rather than just configure) the store so that every DSE worker
    # process inherits it and the whole pool shares one artefact directory.
    os.environ[CACHE_DIR_ENV] = cache_dir

    curve = get_curve(curve_name)
    configs = list(named_variant_configs().values())
    hw_models = figure10_models(curve.params.p.bit_length())[:2]
    points = design_points(configs, hw_models)

    with ParallelExplorer(curve) as engine:      # workers: FINESSE_DSE_WORKERS
        best = engine.best(points, objective="efficiency")
        report = engine.last_report

    print(f"swept {report.points} design points ({report.distinct_points} distinct) "
          f"on {curve.name} with {report.workers} worker(s)")
    print(f"best: {best.label} -- {best.cycles} cycles, "
          f"{best.throughput_per_mm2:.1f} ops/s/mm^2")
    print("sweep cache activity:", report.describe())

    stats = compile_cache_stats()
    recompilations = report.cache_stats.get("result", {}).get("misses", 0)
    disk = report.cache_stats.get("disk", {})
    disk_hits, corrupt, errors = (disk.get(name, 0) for name in ("hits", "corrupt", "errors"))
    store = active_store()
    if store is not None:
        print(f"store: {len(store)} artefacts, {store.total_bytes() / 1024:.0f} KiB "
              f"under {store.namespace}")
    print(f"this sweep: {recompilations} recompilation(s), {disk_hits} disk hit(s)")

    if assert_warm:
        if (recompilations != 0 or disk_hits == 0 or corrupt or errors
                or report.cached_points != report.distinct_points):
            print("FAIL: expected a warm sweep (zero recompilations, disk_hits > 0, "
                  "no corrupt entry or store error, every distinct point cached); got "
                  f"{recompilations} recompilation(s), {disk_hits} disk hit(s), "
                  f"disk corrupt={corrupt} errors={errors} and "
                  f"{report.cached_points} of {report.distinct_points} points cached",
                  file=sys.stderr)
            return 1
        print(f"warm path verified: {disk_hits} disk hit(s), zero recompilations, "
              f"{report.cached_points} cached point(s)")
    else:
        # Surface the full per-stage view on the populating run.
        print("process cache stats:", {name: s.get("hits", 0) for name, s in stats.items()})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
