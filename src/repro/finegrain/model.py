"""Configuration and energy model of the line-granularity template.

The array is monolithic (one bank); each of its L lines has a drowsy
supply switch controlled by a per-line idle counter, exactly the
architectural template of Drowsy Caches [20] / dynamic indexing [7].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cache.geometry import CacheGeometry
from repro.errors import ConfigurationError
from repro.indexing.policies import POLICY_NAMES
from repro.indexing.update import UpdateSchedule
from repro.power.energy import EnergyModel, TechnologyParams


@dataclass(frozen=True)
class FineGrainConfig:
    """A monolithic cache with per-line drowsy control and optional
    full-index re-indexing.

    Attributes
    ----------
    geometry:
        Cache geometry (direct-mapped).
    policy:
        ``static`` (a plain drowsy cache), ``probing`` or ``scrambling``
        (dynamic indexing over the full n-bit index, [7]).
    update_period_cycles:
        Re-indexing period; ``None`` disables updates.
    technology:
        Shared technology coefficients.
    breakeven_override:
        Per-line breakeven time; computed from the model when ``None``.
    """

    geometry: CacheGeometry
    policy: str = "static"
    update_period_cycles: int | None = None
    technology: TechnologyParams = field(default_factory=TechnologyParams)
    breakeven_override: int | None = None

    def __post_init__(self) -> None:
        if self.geometry.ways != 1:
            raise ConfigurationError(
                "the fine-grain template models direct-mapped caches"
            )
        if self.policy not in POLICY_NAMES:
            raise ConfigurationError(
                f"unknown policy {self.policy!r}; known: {', '.join(POLICY_NAMES)}"
            )
        if self.update_period_cycles is not None and self.update_period_cycles < 1:
            raise ConfigurationError("update period must be >= 1 cycle")
        if self.breakeven_override is not None and self.breakeven_override < 1:
            raise ConfigurationError("breakeven must be >= 1 cycle")

    def make_energy_model(self) -> "LineEnergyModel":
        """Line-level energy model for this configuration."""
        return LineEnergyModel(self.geometry, self.technology)

    def make_update_schedule(self) -> UpdateSchedule:
        """Periodic update schedule (inactive for static indexing)."""
        return UpdateSchedule(
            None if self.policy == "static" else self.update_period_cycles
        )

    def breakeven(self) -> int:
        """Per-line breakeven time in cycles."""
        if self.breakeven_override is not None:
            return self.breakeven_override
        return self.make_energy_model().line_breakeven_cycles()


class LineEnergyModel:
    """Energy accounting for the monolithic array with per-line sleep.

    Reuses the technology coefficients of :class:`TechnologyParams`:

    * every access pays the *monolithic* access energy (no banking);
    * each line leaks ``1/L`` of the array leakage and saves
      ``(1 - drowsy_ratio)`` of it while asleep;
    * a line transition costs the per-line share of the transition
      energy (no fixed bank term — the sleep devices are per line, which
      is precisely the array-internal modification the paper wants to
      avoid);
    * per-line counters add a control overhead charged per cycle.
    """

    #: Control/counter leakage overhead per line, as a fraction of the
    #: line's own leakage (per-line counters are not free).
    CONTROL_OVERHEAD: float = 0.03

    def __init__(self, geometry: CacheGeometry, technology: TechnologyParams | None = None) -> None:
        self.geometry = geometry
        self.tech = technology if technology is not None else TechnologyParams()
        self._array = EnergyModel(geometry, 1, self.tech)

    @property
    def num_lines(self) -> int:
        """Lines in the array."""
        return self.geometry.num_lines

    def access_energy(self) -> float:
        """Per-access energy (monolithic array; no banking saving)."""
        remap = self.tech.e_remap_per_access
        return self._array.access_energy() + remap

    def line_leakage_power(self) -> float:
        """Active leakage of one line (pJ/cycle), incl. control overhead."""
        share = self._array.bank_leakage_power() / self.num_lines
        return share * (1.0 + self.CONTROL_OVERHEAD)

    def line_drowsy_power(self) -> float:
        """Drowsy leakage of one line (pJ/cycle)."""
        return self.line_leakage_power() * self.tech.drowsy_leak_ratio

    def line_transition_energy(self) -> float:
        """Sleep+wake energy of one line (pJ)."""
        per_line = (
            self.tech.e_transition_per_line
            + self.tech.e_transition_per_tag_bit * self._array.tag_bits_per_line
        )
        return per_line

    def line_breakeven_cycles(self) -> int:
        """Breakeven time of one line, cycles."""
        saved = self.line_leakage_power() - self.line_drowsy_power()
        if saved <= 0:
            raise ConfigurationError("drowsy state saves no leakage")
        return max(1, math.ceil(self.line_transition_energy() / saved))

    def total_energy(
        self,
        accesses: int,
        total_cycles: int,
        total_sleep_cycles: int,
        total_transitions: int,
    ) -> float:
        """Total energy (pJ) given aggregate line activity."""
        if min(accesses, total_cycles, total_sleep_cycles, total_transitions) < 0:
            raise ConfigurationError("activity counters must be non-negative")
        active_line_cycles = self.num_lines * total_cycles - total_sleep_cycles
        return (
            accesses * self.access_energy()
            + active_line_cycles * self.line_leakage_power()
            + total_sleep_cycles * self.line_drowsy_power()
            + total_transitions * self.line_transition_energy()
        )

    def baseline_energy(self, accesses: int, total_cycles: int) -> float:
        """The same unmanaged monolithic baseline as the banked model."""
        return self._array.unmanaged_energy(accesses, total_cycles)
