"""Co-design over the ALU family (Figure 11).

The "ALU family" axis is the pipeline depth of the fully-pipelined modular
multiplier: deeper pipelines raise the clock frequency (until the technology
floor) but expose more latency to the scheduler, lowering IPC.  The co-design
loop couples the timing model (standing in for the EDA critical-path report)
with the compiler/simulator IPC feedback and picks the best depth.

The per-depth candidates (all-Karatsuba formulas, the 40 nm technology node)
are evaluated through the parallel exploration engine (:mod:`repro.dse.engine`):
``FINESSE_DSE_WORKERS`` sweeps the family across processes, and repeated
sweeps are served from the compile cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dse.space import DesignPoint
from repro.fields.variants import VariantConfig
from repro.hw.presets import default_model
from repro.hw.timing import critical_path_ns


@dataclass(frozen=True)
class CodesignRecord:
    long_latency: int
    critical_path_ns: float
    frequency_mhz: float
    ipc: float
    cycles: int
    latency_us: float
    throughput_kops: float

    def describe(self) -> dict:
        return {
            "long_latency": self.long_latency,
            "critical_path_ns": round(self.critical_path_ns, 2),
            "frequency_mhz": round(self.frequency_mhz, 1),
            "ipc": round(self.ipc, 3),
            "cycles": self.cycles,
            "latency_us": round(self.latency_us, 2),
            "throughput_kops": round(self.throughput_kops, 2),
        }


def alu_family_codesign(curve, long_latencies=tuple(range(14, 42, 3))) -> list:
    """Sweep the mmul pipeline depth and return one record per candidate."""
    from repro.dse.engine import ParallelExplorer

    width = curve.params.p.bit_length()
    config = VariantConfig.all_karatsuba()
    points = [
        DesignPoint(
            variant_config=config,
            hw=default_model(width, name=f"L{latency}").with_long_latency(latency),
            label=f"L{latency}",
        )
        for latency in long_latencies
    ]
    with ParallelExplorer(curve) as engine:
        engine.explore(points, objective="throughput")
    records = []
    for long_latency, metrics in zip(long_latencies, engine.evaluated):
        records.append(
            CodesignRecord(
                long_latency=long_latency,
                critical_path_ns=critical_path_ns(width, long_latency),
                frequency_mhz=metrics.frequency_mhz,
                ipc=metrics.ipc,
                cycles=metrics.cycles,
                latency_us=metrics.latency_us,
                throughput_kops=1e3 / metrics.latency_us,
            )
        )
    return records


def best_depth(records) -> CodesignRecord:
    """The depth with the highest throughput (the co-design decision)."""
    return max(records, key=lambda record: record.throughput_kops)
