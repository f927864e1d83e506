"""The pipeline hardware model (the abstraction below the ISA).

A :class:`HardwareModel` captures exactly the information the compiler and the
cycle-accurate simulator need: instruction itineraries (latency and execution
unit of each machine-op class), the register-bank organisation and its port
limits, the issue width, and the presence of the write-back FIFO that
distinguishes the paper's HW1/HW2 configurations.

The model enforces the framework constraints stated in Section 3.2 of the paper:
one modular multiplier per core (the model has no field to ask for more), at
least as many register banks as the VLIW width, at least 2 reads per bank per
cycle, one write per bank per cycle (the model has no field to ask for more),
and a write-back ring buffer on VLIW configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import HardwareModelError


@dataclass(frozen=True)
class HardwareModel:
    """Parameterised description of one accelerator core configuration."""

    name: str = "default"
    #: Base-field data width in bits (log p rounded up to the machine word).
    word_width: int = 256
    #: Latency (cycles) of the fully-pipelined modular multiplier ("Long" ops).
    long_latency: int = 38
    #: Latency (cycles) of the linear units ("Short" ops).
    short_latency: int = 8
    #: Latency (cycles) of the iterative modular inverter.
    inv_latency: int = 512
    #: Operations issued per cycle (1 = single issue, >1 = VLIW).
    issue_width: int = 1
    #: Number of linear ALUs (mlin/madd); the modular multiplier count is fixed to 1.
    n_linear_units: int = 1
    #: Register-bank organisation.  A bank holds as many registers as the
    #: kernel's allocation asks for (the area model prices that demand).
    n_banks: int = 1
    #: Reads per bank per cycle; each bank takes one write per cycle.
    bank_read_ports: int = 2
    #: Write-back ring buffer absorbing write-port conflicts (the paper's HW2);
    #: it is modelled unbounded.
    has_writeback_fifo: bool = False
    #: Number of replicated cores sharing one instruction memory (SIMT-style).
    n_cores: int = 1

    # -- validation --------------------------------------------------------------
    def validate(self) -> "HardwareModel":
        if self.word_width < 8:
            raise HardwareModelError("word width must be at least 8 bits")
        if self.long_latency < 1 or self.short_latency < 1:
            raise HardwareModelError("latencies must be positive")
        if self.short_latency > self.long_latency:
            raise HardwareModelError("Short ops must not be slower than Long ops")
        if self.issue_width < 1:
            raise HardwareModelError("issue width must be positive")
        if self.n_banks < self.issue_width:
            raise HardwareModelError("need at least as many register banks as the VLIW width")
        if self.bank_read_ports < 2:
            raise HardwareModelError("banks must support at least 2 reads per cycle")
        if self.issue_width >= 2 and not self.has_writeback_fifo:
            raise HardwareModelError("VLIW configurations require the write-back ring buffer")
        if self.n_linear_units < 1:
            raise HardwareModelError("need at least one linear unit")
        if self.n_cores < 1:
            raise HardwareModelError("core count must be positive")
        return self

    # -- itineraries ---------------------------------------------------------------
    def latency_of_unit(self, unit: str) -> int:
        if unit == "long":
            return self.long_latency
        if unit == "short":
            return self.short_latency
        if unit == "inv":
            return self.inv_latency
        if unit == "none":
            return 1
        raise HardwareModelError(f"unknown execution unit {unit!r}")

    def units_of_kind(self, unit: str) -> int:
        if unit == "short":
            return self.n_linear_units
        if unit in ("long", "inv"):
            return 1
        return self.issue_width

    # -- derived helpers -------------------------------------------------------------
    def with_cores(self, n_cores: int) -> "HardwareModel":
        return replace(self, n_cores=n_cores).validate()

    def with_fifo(self, enabled: bool = True) -> "HardwareModel":
        return replace(self, has_writeback_fifo=enabled).validate()

    def with_long_latency(self, cycles: int) -> "HardwareModel":
        return replace(self, long_latency=cycles, name=f"{self.name}-L{cycles}").validate()

    def describe(self) -> dict:
        return {
            "name": self.name,
            "word_width": self.word_width,
            "long_latency": self.long_latency,
            "short_latency": self.short_latency,
            "issue_width": self.issue_width,
            "n_linear_units": self.n_linear_units,
            "n_banks": self.n_banks,
            "has_writeback_fifo": self.has_writeback_fifo,
            "n_cores": self.n_cores,
        }

    def cache_key(self) -> tuple:
        return (
            self.word_width,
            self.long_latency,
            self.short_latency,
            self.inv_latency,
            self.issue_width,
            self.n_linear_units,
            self.n_banks,
            self.bank_read_ports,
            1,  # the retired bank_write_ports: keeps every kernel digest and store key
            self.has_writeback_fifo,
        )
