"""Architecture configuration.

One :class:`ArchitectureConfig` fully describes a simulated cache:
geometry, partitioning, indexing policy, power management and the
technology model. Factories on the config build the runtime objects so
the two simulation engines are guaranteed to simulate the same machine.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter

from repro.cache.geometry import CacheGeometry
from repro.errors import ConfigurationError, SimulationError
from repro.indexing.policies import IndexingPolicy, make_policy
from repro.indexing.update import UpdateSchedule
from repro.power.breakeven import breakeven_cycles
from repro.power.energy import EnergyModel, TechnologyParams
from repro.utils.bitops import is_power_of_two


@dataclass(frozen=True)
class ArchitectureConfig:
    """Complete description of a simulated cache architecture.

    Attributes
    ----------
    geometry:
        Cache geometry (size, line size, associativity).
    num_banks:
        ``M``; 1 models the monolithic cache.
    policy:
        Indexing policy name: ``static``, ``probing`` or ``scrambling``.
    power_managed:
        When False the banks never sleep (the paper's monolithic
        baseline is an unmanaged cache).
    update_period_cycles:
        Interval of the re-indexing ``update`` signal; ``None`` disables
        updates. In a deployed system this is "once a day or less",
        piggybacked on flushes; simulations compress it so several
        updates fall within the trace.
    update_events:
        Explicit strictly-increasing update cycles (e.g. from
        :func:`repro.indexing.update.poisson_flush_schedule` to model
        updates riding on irregular context-switch flushes). Overrides
        ``update_period_cycles`` when set.
    breakeven_override:
        Fixed breakeven time in cycles; ``None`` computes it from the
        energy model.
    technology:
        Energy-model coefficients.
    frequency_hz:
        Clock frequency, used only to convert cycles to seconds.
    """

    geometry: CacheGeometry
    num_banks: int = 4
    policy: str = "static"
    power_managed: bool = True
    update_period_cycles: int | None = None
    update_events: tuple[int, ...] | None = None
    breakeven_override: int | None = None
    technology: TechnologyParams = field(default_factory=TechnologyParams)
    frequency_hz: float = 400e6

    def __post_init__(self) -> None:
        if not is_power_of_two(self.num_banks):
            raise ConfigurationError(
                f"num_banks must be a power of two, got {self.num_banks}"
            )
        if self.num_banks > self.geometry.num_sets:
            raise ConfigurationError("more banks than cache sets")
        if self.update_period_cycles is not None and self.update_period_cycles < 1:
            raise ConfigurationError("update period must be >= 1")
        if self.update_events is not None:
            if any(c < 0 for c in self.update_events):
                raise ConfigurationError("update events must be non-negative")
            if any(b <= a for a, b in zip(self.update_events, self.update_events[1:])):
                raise ConfigurationError("update events must be strictly increasing")
        if self.breakeven_override is not None and self.breakeven_override < 1:
            raise ConfigurationError("breakeven must be >= 1")
        if self.frequency_hz <= 0:
            raise ConfigurationError("frequency must be positive")
        if self.policy != "static" and self.num_banks == 1:
            raise ConfigurationError(
                "dynamic indexing needs at least two banks"
            )

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def make_policy(self) -> IndexingPolicy:
        """Fresh policy object in its initial state."""
        return make_policy(self.policy, self.num_banks)

    def make_energy_model(self) -> EnergyModel:
        """Energy model of the partitioned cache."""
        return EnergyModel(self.geometry, self.num_banks, self.technology)

    def make_baseline_energy_model(self) -> EnergyModel:
        """Energy model of the monolithic (M = 1) reference cache."""
        return EnergyModel(self.geometry, 1, self.technology)

    def make_update_schedule(self) -> UpdateSchedule:
        """Update schedule (inactive for static indexing)."""
        if self.policy == "static":
            return UpdateSchedule(None)
        if self.update_events is not None:
            return UpdateSchedule.from_events(self.update_events)
        return UpdateSchedule(self.update_period_cycles)

    def breakeven(self) -> int:
        """Breakeven time in cycles for one bank."""
        if self.breakeven_override is not None:
            return self.breakeven_override
        return breakeven_cycles(self.make_energy_model())

    # ------------------------------------------------------------------
    # Variants
    # ------------------------------------------------------------------
    def with_policy(self, policy: str) -> "ArchitectureConfig":
        """Copy with a different indexing policy."""
        return replace(self, policy=policy)

    def monolithic(self) -> "ArchitectureConfig":
        """The paper's baseline: one bank, no power management."""
        return replace(
            self,
            num_banks=1,
            policy="static",
            power_managed=False,
            update_period_cycles=None,
            update_events=None,
        )


#: Every config field a breakeven group shares: all but the breakeven.
_group_fields = attrgetter(
    *(f.name for f in fields(ArchitectureConfig) if f.name != "breakeven_override")
)


def validate_breakeven_group(configs: Sequence[ArchitectureConfig]) -> None:
    """Reject groups whose configs differ in anything but the breakeven.

    The group contract of every ``run_group`` path (the fast and
    streaming engines and the estimator), so it is enforced identically
    on all of them: each config must be an ``ArchitectureConfig`` of
    the first one's type with every other field equal to its.
    """
    base = configs[0]
    shared = _group_fields(base)
    for other in configs[1:]:
        if type(other) is not type(base) or _group_fields(other) != shared:
            raise SimulationError(
                "breakeven group configs must differ only in breakeven_override"
            )
