"""Run every table/figure experiment and render a consolidated report.

``--workers N`` routes the design-space experiments through the parallel
exploration engine (:mod:`repro.dse.engine`) with N worker processes --
exported as ``FINESSE_DSE_WORKERS``, validated at the flag like its siblings
below (a positive integer); the consolidated JSON report additionally records the compile-cache statistics of
the run, so sweep-over-sweep reuse is visible in the artifacts.

``--cache-dir PATH`` activates the disk-backed artifact store
(:mod:`repro.compiler.store`) at PATH -- exported as ``FINESSE_CACHE_DIR`` so
every DSE worker process shares it -- and a re-run over the same experiments
in a fresh process is then served from disk with zero recompilations.
``--no-disk-cache`` disables the disk tier even when the environment variable
is set (useful for timing genuinely cold compiles).

``--fp-backend NAME`` selects the F_p residue type (``python`` | ``gmpy2`` |
``fast``) for the whole run -- exported as ``FINESSE_FP_BACKEND`` so DSE
worker processes inherit it.  Values are identical across backends; only
wall-clock time changes.

``--max-retries N`` / ``--eval-timeout SECONDS`` configure the exploration
engine's failure handling for the whole run -- exported as
``FINESSE_DSE_MAX_RETRIES`` / ``FINESSE_DSE_EVAL_TIMEOUT`` so DSE worker
processes inherit them.  ``--max-retries`` (default 2) is the per-point
retry budget for transient evaluation failures (exponential backoff with
full jitter between attempts); ``--eval-timeout`` (default: off) bounds each
point's evaluation in seconds on sharded sweeps (a stalled worker is killed
and its chunk resubmitted).  Bad values fail the flag with a ``DSEError``,
mirroring ``--budget``.

``--objectives a,b,c`` / ``--budget N`` configure the multi-objective sweep
(the ``pareto_sweep`` experiment, their only reader) -- exported as
``FINESSE_DSE_OBJECTIVES`` / ``FINESSE_DSE_BUDGET``.  ``--budget`` sizes the
sweep's guided row (default: half the space).  ``--objectives help`` prints
the registered objectives with their descriptions and exits; an unknown
objective name fails at the flag with the same ``DSEError`` the explorers
raise.

A value-taking flag given without a value raises a ``DSEError`` naming it,
and so does a name that is no experiment, before anything runs.  ``-h`` /
``--help`` prints the usage and exits.
"""

from __future__ import annotations

import json
import sys
import time

from repro import config
from repro.compiler.pipeline import compile_cache_stats
from repro.compiler.store import active_store, configure_store
from repro.errors import DSEError, FieldError
from repro.fields.backends import normalise_backend
from repro.dse.engine import (
    validate_eval_timeout,
    validate_max_retries,
    worker_cache_stats,
)
from repro.dse.objectives import list_objectives, resolve_objective
from repro.dse.search import validate_budget
from repro.evaluation import (
    batch_verify,
    fig2,
    pareto_sweep,
    fig6,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    table2,
    table3,
    table5,
    table6,
    table7,
)

#: Experiment registry, ordered as in the paper; ``batch_verify`` extends the
#: paper's single-pairing studies with the compiled batched-verifier kernel.
EXPERIMENTS = {
    "table2": table2,
    "table3": table3,
    "table5": table5,
    "table6": table6,
    "table7": table7,
    "fig2": fig2,
    "fig6": fig6,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "batch_verify": batch_verify,
    "pareto_sweep": pareto_sweep,
}


def run_all(scale: str | None = None, names=None, verbose: bool = True) -> dict:
    """Run the selected experiments (all by default) and return their results.

    A name that is no experiment raises ``DSEError`` before any runs."""
    unknown = [name for name in names or () if name not in EXPERIMENTS]
    if unknown:
        raise DSEError(f"unknown experiment {', '.join(map(repr, unknown))} "
                       f"(known: {', '.join(EXPERIMENTS)})")
    results = {}
    for name, module in EXPERIMENTS.items():
        if names is not None and name not in names:
            continue
        start = time.perf_counter()
        result = module.run(scale)
        result["seconds"] = round(time.perf_counter() - start, 2)
        results[name] = result
        if verbose:
            print(f"== {name} ({result['seconds']}s) ==")
            print(module.render(result))
            print()
    if verbose:
        print(render_cache_report())
    return results


def render_cache_report() -> str:
    """One-line-per-stage summary of the compile caches after a run."""
    lines = ["compile caches (stage: hits/misses, entries):"]
    for name, stats in compile_cache_stats().items():
        detail = f"{stats['entries']} entries, " if "entries" in stats else ""
        lines.append(
            f"  {name:<10} {stats['hits']}/{stats['misses']} "
            f"({detail}hit rate {stats['hit_rate']:.0%})"
        )
    store = active_store()
    if store is not None:
        described = store.describe()
        lines.append(
            f"  disk store: {described['entries']} artefacts, "
            f"{described['bytes'] / 1024:.0f} KiB under {described['root']} "
            f"(namespace {described['namespace']})"
        )
    workers = worker_cache_stats()
    if any(any(counters.values()) for counters in workers.values()):
        lines.append("worker pools (stage: hits/misses):")
        for name, counters in workers.items():
            lines.append(f"  {name:<10} {counters['hits']}/{counters['misses']}")
    return "\n".join(lines)


def _check_objectives(raw: str) -> str:
    """Every name goes through the resolution path the explorers use, so a
    typo fails the flag with the identical ``DSEError``."""
    names = [name.strip() for name in raw.split(",") if name.strip()]
    if not names:
        raise DSEError("--objectives needs at least one objective name")
    for name in names:
        resolve_objective(name)
    return ",".join(names)


#: Flags that pin a default for the whole run: flag -> (variable, parser,
#: check, error class for an unparsable value).  The checked value is
#: exported, so DSE worker processes resolve the same default as this
#: process; a bad value fails the flag instead of surfacing later in a worker.
_ENV_FLAGS = {
    "--workers": (config.WORKERS_ENV, int,
                  lambda n: config.positive_int(n, "--workers", DSEError), DSEError),
    "--max-retries": (config.MAX_RETRIES_ENV, int, validate_max_retries, DSEError),
    "--eval-timeout": (config.EVAL_TIMEOUT_ENV, float, validate_eval_timeout, DSEError),
    "--budget": (config.BUDGET_ENV, int, validate_budget, DSEError),
    "--objectives": (config.OBJECTIVES_ENV, str, _check_objectives, DSEError),
    "--fp-backend": (config.BACKEND_ENV, str, normalise_backend, FieldError),
}

_VALUE_FLAGS = ("--scale", "--json", "--cache-dir", *_ENV_FLAGS)


def _export_flag(flag: str, raw: str) -> None:
    name, parse, check, error = _ENV_FLAGS[flag]
    try:
        value = parse(raw)
    except ValueError as exc:
        kind = "an integer" if parse is int else "a number"
        raise error(f"{flag} must be {kind}, got {raw!r}") from exc
    config.export(name, check(value))


def _usage() -> str:
    flags = " ".join(f"[{flag} VALUE]" for flag in _VALUE_FLAGS)
    return (f"usage: python -m repro.evaluation.runner [-h] {flags} [--no-disk-cache] "
            f"[experiment ...]\n\nexperiments (default: all): {' '.join(EXPERIMENTS)}\n"
            f"\n{__doc__}")


def main(argv=None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    names = None
    scale = None
    out_path = None
    args = list(argv)
    while args:
        arg = args.pop(0)
        value = None
        if arg in _VALUE_FLAGS:
            if not args:
                raise DSEError(f"{arg} needs a value")
            value = args.pop(0)
        if arg in ("-h", "--help"):
            print(_usage())
            return 0
        elif arg == "--scale":
            scale = value
        elif arg == "--json":
            out_path = value
        elif arg == "--cache-dir":
            # Exported so DSE worker processes inherit it, AND configured
            # explicitly so a preceding --no-disk-cache pin is overridden:
            # last flag wins in every process of the run.
            config.export(config.CACHE_DIR_ENV, value)
            configure_store(value)
        elif arg == "--no-disk-cache":
            config.export(config.CACHE_DIR_ENV, None)
            configure_store(None)
        elif arg == "--objectives" and value.strip().lower() == "help":
            print("registered objectives (repro.list_objectives()):")
            for name, description in list_objectives().items():
                print(f"  {name:<20} {description}")
            return 0
        elif arg in _ENV_FLAGS:
            _export_flag(arg, value)
        else:
            names = (names or []) + [arg]
    results = run_all(scale=scale, names=names)
    if out_path:
        payload = dict(results)
        payload["_compile_cache"] = compile_cache_stats()
        payload["_worker_compile_cache"] = worker_cache_stats()
        serialisable = json.loads(json.dumps(payload, default=str))
        with open(out_path, "w") as handle:
            json.dump(serialisable, handle, indent=2)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
