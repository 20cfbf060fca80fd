"""Low-level address-pattern walkers.

Each busy (window, region) pair of a schedule is filled with a concrete
access pattern. MediaBench kernels are loop-dominated, so the walker is
a strided loop over a working subset of the region's lines, with a
per-region *tag generation* that advances slowly — modelling a program
moving to a fresh buffer and producing realistic compulsory misses
while keeping hit rates high.

A :class:`RegionWalker` holds a region's drawn loop parameters; the
generator (:meth:`repro.trace.generator.WorkloadGenerator._window_arrays`)
walks every region at once, carrying each one's position and tag
generation, and turns the line offsets into byte addresses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass
class RegionWalker:
    """Per-region loop parameters.

    Attributes
    ----------
    region_lines:
        Lines in the region for the current cache geometry.
    working_lines:
        Lines the loop actually touches (``<= region_lines``).
    stride:
        Loop stride in lines (coprime with the working set so the walk
        visits every line).
    position:
        Starting position within the working set.
    """

    region_lines: int
    working_lines: int
    stride: int = 1
    position: int = 0

    def __post_init__(self) -> None:
        if self.region_lines < 1:
            raise ConfigurationError("region must contain at least one line")
        if not 1 <= self.working_lines <= self.region_lines:
            raise ConfigurationError(
                f"working set {self.working_lines} outside [1, {self.region_lines}]"
            )
        if self.stride < 1:
            raise ConfigurationError("stride must be >= 1")


def make_walkers(
    num_regions: int,
    region_lines: int,
    working_fraction: float,
    rng: np.random.Generator,
) -> list[RegionWalker]:
    """Create one walker per region with randomized phase and stride.

    ``working_fraction`` sets the loop footprint as a share of the
    region; strides are drawn from small odd values (odd strides are
    coprime with any power-of-two working set, guaranteeing full
    coverage).
    """
    if not 0.0 < working_fraction <= 1.0:
        raise ConfigurationError("working_fraction must be in (0, 1]")
    working = max(1, int(round(region_lines * working_fraction)))
    walkers = []
    for _ in range(num_regions):
        stride = int(rng.choice([1, 1, 3, 5]))
        walkers.append(
            RegionWalker(
                region_lines=region_lines,
                working_lines=working,
                stride=stride,
                position=int(rng.integers(0, working)),
            )
        )
    return walkers
