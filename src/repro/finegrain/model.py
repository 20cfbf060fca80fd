"""Energy model of the line-granularity template.

The array is monolithic (one bank); each of its L lines has a drowsy
supply switch controlled by a per-line idle counter, exactly the
architectural template of Drowsy Caches [20] / dynamic indexing [7].
The ``"finegrain"`` measurement template (:mod:`repro.core.metrics`)
prices each line's counters with this model.
"""

from __future__ import annotations

import math

from repro.cache.geometry import CacheGeometry
from repro.errors import ConfigurationError
from repro.power.energy import EnergyModel, TechnologyParams


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
