"""Energy model for monolithic and partitioned caches.

The paper characterizes power/energy from an industrial 45nm design kit
(STMicroelectronics); we replace it with an analytical model whose
structure follows standard SRAM energy modelling (CACTI-style) and whose
coefficients are calibrated to land near the paper's Table II savings:

* **Access energy** of an array with ``L`` rows of ``W`` bits:
  ``e_fixed + e_line·L + e_bit·W`` — the per-row term models the bitline
  capacitance seen by every access (a monolithic array pays for all of
  its rows; a bank pays only for its own), the fixed term models
  decoders, sense amplifiers and I/O that do not shrink with banking.
* **Leakage power** (per cycle): ``λ_line·L + λ_bit·(L·W)`` — dominated
  by the per-row periphery term in this technology, which is what makes
  (16kB, 32B lines) behave like (8kB, 16B lines) in Table III.
* **Drowsy state** retains data at Vdd_low and leaks
  ``drowsy_leak_ratio`` of the active leakage.
* **Transitions** (sleep entry + wake) cost a fixed part plus per-row
  and per-tag-bit parts; the paper notes tag arrays have a relatively
  larger reactivation penalty, captured by ``e_transition_per_tag_bit``.
* **Partitioning overhead**: routing address/data/control to M banks
  costs a wiring energy factor ``1 + wiring_overhead_per_bank·(M-1)``
  (characterized in the paper from reference [10]'s data), plus the tiny
  remap function f() per access.

Each bank contains its slice of the data array *and* of the tag array;
both are voltage-scaled together (the whole memory-compiler block is
switched, Section III-A1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.cache.geometry import CacheGeometry
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TechnologyParams:
    """Coefficients of the 45nm-like energy model. Units: pJ and pJ/cycle."""

    #: Per-access fixed energy (decode, sense, I/O), pJ.
    e_access_fixed: float = 9.0
    #: Per-access energy per row of the accessed array, pJ.
    e_access_per_line: float = 0.02
    #: Per-access energy per bit read/written (data + tag), pJ.
    e_access_per_bit: float = 0.02
    #: Leakage per row of array periphery, pJ/cycle.
    leak_per_line: float = 0.010
    #: Leakage per stored bit, pJ/cycle.
    leak_per_bit: float = 0.00001
    #: Drowsy leakage as a fraction of active leakage.
    drowsy_leak_ratio: float = 0.04
    #: Fixed energy per sleep/wake transition pair, pJ.
    e_transition_fixed: float = 6.0
    #: Transition energy per row of the switched bank, pJ.
    e_transition_per_line: float = 0.12
    #: Extra transition energy per tag bit of the switched bank, pJ
    #: (tag reactivation penalty, Section IV-B1).
    e_transition_per_tag_bit: float = 0.004
    #: Wiring energy overhead fraction added per extra bank.
    wiring_overhead_per_bank: float = 0.015
    #: Energy of the remap function f() per access, pJ.
    e_remap_per_access: float = 0.05
    #: Physical address width used to size tags, bits.
    address_bits: int = 32

    def __post_init__(self) -> None:
        numeric = {
            "e_access_fixed": self.e_access_fixed,
            "e_access_per_line": self.e_access_per_line,
            "e_access_per_bit": self.e_access_per_bit,
            "leak_per_line": self.leak_per_line,
            "leak_per_bit": self.leak_per_bit,
            "e_transition_fixed": self.e_transition_fixed,
            "e_transition_per_line": self.e_transition_per_line,
            "e_transition_per_tag_bit": self.e_transition_per_tag_bit,
            "wiring_overhead_per_bank": self.wiring_overhead_per_bank,
            "e_remap_per_access": self.e_remap_per_access,
        }
        for name, value in numeric.items():
            if value < 0:
                raise ConfigurationError(f"{name} must be non-negative, got {value}")
        if not 0.0 <= self.drowsy_leak_ratio <= 1.0:
            raise ConfigurationError("drowsy_leak_ratio must be in [0, 1]")
        if self.address_bits < 8:
            raise ConfigurationError("address_bits must be at least 8")


@dataclass(frozen=True)
class BankEnergyBreakdown:
    """Energy tally of one bank over a simulation, in pJ."""

    dynamic: float
    leakage_active: float
    leakage_drowsy: float
    transitions: float

    @property
    def total(self) -> float:
        """Sum of all components."""
        return self.dynamic + self.leakage_active + self.leakage_drowsy + self.transitions


class EnergyModel:
    """Energy evaluation for a cache geometry partitioned into M banks.

    Parameters
    ----------
    geometry:
        Cache geometry (size, line size, associativity).
    num_banks:
        M; use 1 for the monolithic baseline.
    technology:
        Coefficients; defaults to the calibrated 45nm-like set.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        num_banks: int = 1,
        technology: TechnologyParams | None = None,
    ) -> None:
        if num_banks < 1:
            raise ConfigurationError("num_banks must be >= 1")
        if num_banks > geometry.num_lines:
            raise ConfigurationError("more banks than cache lines")
        self.geometry = geometry
        self.num_banks = num_banks
        self.tech = technology if technology is not None else TechnologyParams()

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def lines_per_bank(self) -> int:
        """Rows in each bank's data/tag arrays."""
        return self.geometry.num_lines // self.num_banks

    @property
    def tag_bits_per_line(self) -> int:
        """Tag width per line: address bits minus index and offset bits.

        One valid bit is added, as a memory compiler would store it in
        the tag word.
        """
        tag = (
            self.tech.address_bits
            - self.geometry.index_bits
            - self.geometry.offset_bits
        )
        return max(1, tag) + 1

    @property
    def data_bits_per_line(self) -> int:
        """Data bits per line."""
        return 8 * self.geometry.line_size

    @property
    def wiring_factor(self) -> float:
        """Energy multiplier for routing to M banks (1.0 for monolithic)."""
        return 1.0 + self.tech.wiring_overhead_per_bank * (self.num_banks - 1)

    # ------------------------------------------------------------------
    # Per-event / per-cycle quantities
    # ------------------------------------------------------------------
    def access_energy(self) -> float:
        """Energy of one access to one bank (pJ), incl. remap and wiring.

        An access reads one line's data bits and its tag from the
        accessed bank only — the other banks' select lines stay low.
        """
        tech = self.tech
        array = (
            tech.e_access_fixed
            + tech.e_access_per_line * self.lines_per_bank
            + tech.e_access_per_bit * (self.data_bits_per_line + self.tag_bits_per_line)
        )
        remap = tech.e_remap_per_access if self.num_banks > 1 else 0.0
        return (array + remap) * self.wiring_factor

    def bank_leakage_power(self) -> float:
        """Active leakage of one bank, pJ/cycle, incl. wiring factor."""
        tech = self.tech
        bits = self.lines_per_bank * (self.data_bits_per_line + self.tag_bits_per_line)
        raw = tech.leak_per_line * self.lines_per_bank + tech.leak_per_bit * bits
        return raw * self.wiring_factor

    def drowsy_leakage_power(self) -> float:
        """Drowsy leakage of one bank, pJ/cycle."""
        return self.bank_leakage_power() * self.tech.drowsy_leak_ratio

    def transition_energy(self) -> float:
        """Energy of one sleep+wake pair for one bank, pJ."""
        tech = self.tech
        return (
            tech.e_transition_fixed
            + tech.e_transition_per_line * self.lines_per_bank
            + tech.e_transition_per_tag_bit * self.tag_bits_per_line * self.lines_per_bank
        )

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def bank_energy(
        self,
        accesses: int,
        active_cycles: int,
        sleep_cycles: int,
        transitions: int,
    ) -> BankEnergyBreakdown:
        """Energy of one bank given its activity counters."""
        return self.bank_energies([(accesses, active_cycles, sleep_cycles, transitions)])[0]

    def bank_energies(
        self, counters: Iterable[tuple[int, int, int, int]]
    ) -> tuple[BankEnergyBreakdown, ...]:
        """Energy of each bank given its activity counters.

        ``counters`` yields one ``(accesses, active_cycles, sleep_cycles,
        transitions)`` tuple per bank. The four coefficients are computed
        once per call, not once per bank; each component is one integer
        counter times one float coefficient either way, so the values do
        not depend on how many banks share a call.
        """
        access = self.access_energy()
        leak = self.bank_leakage_power()
        drowsy = self.drowsy_leakage_power()
        transition = self.transition_energy()
        breakdowns: list[BankEnergyBreakdown] = []
        for bank in counters:
            if min(bank) < 0:
                raise ConfigurationError("activity counters must be non-negative")
            accesses, active_cycles, sleep_cycles, transitions = bank
            breakdowns.append(
                BankEnergyBreakdown(
                    dynamic=accesses * access,
                    leakage_active=active_cycles * leak,
                    leakage_drowsy=sleep_cycles * drowsy,
                    transitions=transitions * transition,
                )
            )
        return tuple(breakdowns)

    def unmanaged_energy(self, total_accesses: int, total_cycles: int) -> float:
        """Energy of this cache with power management disabled (pJ).

        All banks stay at full Vdd for the whole run. With
        ``num_banks == 1`` this is the paper's monolithic baseline.
        """
        if total_accesses < 0 or total_cycles < 0:
            raise ConfigurationError("counters must be non-negative")
        leakage = self.num_banks * self.bank_leakage_power() * total_cycles
        return total_accesses * self.access_energy() + leakage

    @staticmethod
    def savings(baseline_pj: float, managed_pj: float) -> float:
        """Fractional energy saving of ``managed`` vs ``baseline``."""
        if baseline_pj <= 0:
            raise ConfigurationError("baseline energy must be positive")
        return 1.0 - managed_pj / baseline_pj
