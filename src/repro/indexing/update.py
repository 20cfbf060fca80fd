"""Update-event scheduling.

Section III-A3: updates "can be activated with a very low frequency
(e.g., once a day or even less frequently) given the typical time
horizons of aging", and are best piggybacked on flushes the system
performs anyway (context switches), making them energy-free.

A simulation covers minutes of wall-clock time at most, so the simulator
compresses the schedule. Two forms are supported:

* **periodic** — every ``period_cycles`` simulated cycles (the default
  used by the experiment harness);
* **explicit events** — an arbitrary increasing list of update cycles,
  e.g. produced by :func:`poisson_flush_schedule` to model updates
  riding on context-switch flushes that arrive irregularly.

What matters for the reproduction is the *number* of updates relative
to M (probing needs >= M to reach perfect uniformity), not their exact
spacing — which the irregular-schedule tests confirm.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


class UpdateSchedule:
    """Update-event generator (periodic or explicit).

    Parameters
    ----------
    period_cycles:
        Interval between updates; ``None`` disables updates entirely
        (static indexing or monolithic baselines). Ignored when
        ``events`` is given.
    offset_cycles:
        Cycle of the first periodic update (defaults to one period).
    events:
        Explicit strictly-increasing update cycles.

    Examples
    --------
    >>> s = UpdateSchedule(100)
    >>> [s.due(99), s.due(100), s.due(100)]
    [False, True, False]
    >>> e = UpdateSchedule.from_events([10, 400])
    >>> [e.due(9), e.due(10), e.due(500), e.due(10**9)]
    [False, True, True, False]
    """

    def __init__(
        self,
        period_cycles: int | None,
        offset_cycles: int | None = None,
        events: tuple[int, ...] | None = None,
    ) -> None:
        if events is not None:
            if any(c < 0 for c in events):
                raise ConfigurationError("update events must be non-negative")
            if any(b <= a for a, b in zip(events, events[1:])):
                raise ConfigurationError("update events must be strictly increasing")
            self.period_cycles = None
            self._events: list[int] | None = list(events)
            self._cursor = 0
            self._next = self._events[0] if self._events else None
        else:
            if period_cycles is not None and period_cycles < 1:
                raise ConfigurationError("update period must be >= 1 cycle")
            self.period_cycles = period_cycles
            self._events = None
            self._cursor = 0
            if period_cycles is None:
                self._next = None
            else:
                self._next = offset_cycles if offset_cycles is not None else period_cycles
        self.fired = 0

    @classmethod
    def from_events(cls, events) -> "UpdateSchedule":
        """Build an explicit-event schedule."""
        return cls(None, events=tuple(int(c) for c in events))

    @property
    def next_update_cycle(self) -> int | None:
        """Cycle of the next update, or None when disabled/exhausted."""
        return self._next

    def due(self, cycle: int) -> bool:
        """True exactly once per pending update at or before ``cycle``.

        The caller applies one update per True; repeated calls drain
        multiple overdue events one at a time.
        """
        if self._next is None or cycle < self._next:
            return False
        if self._events is not None:
            self._cursor += 1
            self._next = (
                self._events[self._cursor] if self._cursor < len(self._events) else None
            )
        else:
            self._next += self.period_cycles  # type: ignore[operator]
        self.fired += 1
        return True

    def updates_before(self, horizon_cycles: int) -> int:
        """How many updates a run of ``horizon_cycles`` will see in total.

        Counts events strictly before ``horizon_cycles`` that have not
        already fired.
        """
        if self._events is not None:
            remaining = self._events[self._cursor :]
            return sum(1 for c in remaining if c < horizon_cycles)
        if self.period_cycles is None:
            return 0
        first = self._next if self._next is not None else self.period_cycles
        if horizon_cycles <= first:
            return 0
        return 1 + (horizon_cycles - 1 - first) // self.period_cycles

    def boundaries_up_to(self, last_cycle: int) -> np.ndarray:
        """All firing cycles <= ``last_cycle``."""
        if self._events is not None:
            events = np.asarray(self._events, dtype=np.int64)
            return events[events <= last_cycle]
        if self.period_cycles is None or self._next is None:
            return np.empty(0, dtype=np.int64)
        if self._next > last_cycle:
            return np.empty(0, dtype=np.int64)
        return np.arange(self._next, last_cycle + 1, self.period_cycles, dtype=np.int64)


def poisson_flush_schedule(
    horizon_cycles: int,
    mean_interval_cycles: float,
    rng: np.random.Generator,
) -> tuple[int, ...]:
    """Sample context-switch-like flush times over a horizon.

    Flushes (and therefore updates, which ride on them) arrive as a
    Poisson process with the given mean interval. Returns the strictly
    increasing update cycles within ``[1, horizon_cycles)``.
    """
    if horizon_cycles < 1:
        raise ConfigurationError("horizon must be positive")
    if mean_interval_cycles <= 0:
        raise ConfigurationError("mean interval must be positive")
    events: list[int] = []
    cycle = 0.0
    while True:
        cycle += rng.exponential(mean_interval_cycles)
        if cycle >= horizon_cycles:
            break
        quantized = max(1, int(round(cycle)))
        if events and quantized <= events[-1]:
            quantized = events[-1] + 1
            if quantized >= horizon_cycles:
                break
        events.append(quantized)
    return tuple(events)
