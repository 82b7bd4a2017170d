"""Accelerator configurations: the output of the generation flow.

An :class:`AcceleratorConfig` fixes how many instances of each unit
template the accelerator instantiates (the ``p_1 ... p_n`` of Equ. 5),
plus the on-chip buffer capacity and clock.  The overall architecture
mirrors Fig. 12: a factor computing block (matmul + vector + special
units), a factor graph inference block (QR + backsub units), an on-chip
buffer, and a controller issuing instructions in order or out of order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from repro.errors import HardwareError
from repro.compiler.isa import (
    UNIT_BSUB,
    UNIT_MATMUL,
    UNIT_QR,
    UNIT_SPECIAL,
    UNIT_VECTOR,
)
from repro.hw.resources import Resources, ZC706
from repro.hw.units import DEFAULT_TEMPLATES, INFRASTRUCTURE, UnitTemplate

ALL_UNIT_CLASSES = (UNIT_MATMUL, UNIT_VECTOR, UNIT_SPECIAL, UNIT_QR,
                    UNIT_BSUB)

DEFAULT_CLOCK_MHZ = 167.0  # the paper's prototype clock


@dataclass(frozen=True)
class AcceleratorConfig:
    """A point in the hardware design space."""

    unit_counts: Dict[str, int] = field(
        default_factory=lambda: {u: 1 for u in ALL_UNIT_CLASSES}
    )
    templates: Dict[str, UnitTemplate] = field(
        default_factory=lambda: dict(DEFAULT_TEMPLATES)
    )
    buffer_kib: int = 512
    clock_mhz: float = DEFAULT_CLOCK_MHZ

    def __post_init__(self):
        for unit, count in self.unit_counts.items():
            if unit not in self.templates:
                raise HardwareError(f"no template for unit class {unit!r}")
            if count < 1:
                raise HardwareError(
                    f"unit class {unit!r} needs at least one instance"
                )

    def count(self, unit_class: str) -> int:
        return self.unit_counts.get(unit_class, 0)

    def with_extra_unit(self, unit_class: str) -> "AcceleratorConfig":
        """A new config with one more instance of a unit class."""
        if unit_class not in self.unit_counts:
            raise HardwareError(f"unknown unit class {unit_class!r}")
        counts = dict(self.unit_counts)
        counts[unit_class] += 1
        return replace(self, unit_counts=counts)

    def with_buffer_kib(self, buffer_kib: int) -> "AcceleratorConfig":
        """A new config with a different on-chip buffer capacity."""
        if buffer_kib < 1:
            raise HardwareError("buffer_kib must be >= 1")
        return replace(self, buffer_kib=buffer_kib)

    def resources(self) -> Resources:
        """Total FPGA resources, including fixed infrastructure and buffer."""
        total = INFRASTRUCTURE
        for unit, count in self.unit_counts.items():
            total = total + count * self.templates[unit].resources
        # On-chip buffer: 1 BRAM (36 kib) per 4 KiB modeled capacity.
        total = total + Resources(bram=self.buffer_kib // 4)
        return total

    def fits(self, budget: Resources = ZC706) -> bool:
        return self.resources().fits_within(budget)

    def describe(self) -> str:
        parts = [f"{unit}x{count}" for unit, count in
                 sorted(self.unit_counts.items())]
        return ", ".join(parts) + f" @ {self.clock_mhz:.0f} MHz"


def minimal_config() -> AcceleratorConfig:
    """The Equ. 5 starting point: one instance of every unit class."""
    return AcceleratorConfig()


def balanced_config() -> AcceleratorConfig:
    """A hand-balanced mid-size design used as a manual-design baseline."""
    return AcceleratorConfig(unit_counts={
        UNIT_MATMUL: 2, UNIT_VECTOR: 2, UNIT_SPECIAL: 1,
        UNIT_QR: 1, UNIT_BSUB: 1,
    })
