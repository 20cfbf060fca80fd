"""Indexing policy objects.

Policies own a remapper datapath and expose a uniform interface to the
simulators: :meth:`IndexingPolicy.physical_bank` for routing and
:meth:`IndexingPolicy.update` for the time-varying step. They also
expose :meth:`mapping` — the current full logical→physical permutation —
which the fast simulator applies vectorially to a whole epoch of
accesses at once.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ConfigurationError
from repro.hw.remap import ProbingRemapper, ScramblingRemapper, StaticRemapper
from repro.utils.bitops import log2_exact


class IndexingPolicy(ABC):
    """Interface of a dynamic indexing policy over ``num_banks`` banks."""

    #: Registry name; subclasses override.
    name: str = "abstract"

    def __init__(self, num_banks: int) -> None:
        self.num_banks = num_banks
        self.p_bits = log2_exact(num_banks)
        self.updates_applied = 0

    @property
    @abstractmethod
    def remapper(self) -> StaticRemapper:
        """The underlying hardware datapath."""

    def physical_bank(self, logical_bank: int) -> int:
        """Map one logical bank address to its current physical bank."""
        return self.remapper.map(logical_bank)

    def mapping(self) -> np.ndarray:
        """Current permutation as an array: ``phys = mapping[logical]``."""
        return np.array(
            [self.remapper.map(b) for b in range(self.num_banks)], dtype=np.int64
        )

    def update(self) -> None:
        """Pulse the update signal (the mapping changes; caller flushes)."""
        self.remapper.update()
        self.updates_applied += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(num_banks={self.num_banks})"


class StaticPolicy(IndexingPolicy):
    """Identity mapping — the conventional power-managed partition (LT0)."""

    name = "static"

    def __init__(self, num_banks: int) -> None:
        super().__init__(num_banks)
        self._remapper = StaticRemapper(self.p_bits)

    @property
    def remapper(self) -> StaticRemapper:
        return self._remapper


class ProbingPolicy(IndexingPolicy):
    """Linear probing: bank ``i`` maps to ``(i + R) mod M`` after R updates.

    Optimal by construction: after at least M updates every logical bank
    has spent identical time on every physical bank ([7], Section III-A3).
    """

    name = "probing"

    def __init__(self, num_banks: int, increment: int = 1) -> None:
        super().__init__(num_banks)
        self._remapper = ProbingRemapper(self.p_bits, increment=increment)

    @property
    def remapper(self) -> StaticRemapper:
        return self._remapper

    def mapping(self) -> np.ndarray:
        """Vector form of ``(i + counter) mod M`` (cheap, no per-bank calls)."""
        offset = self._remapper.counter
        return (np.arange(self.num_banks, dtype=np.int64) + offset) % self.num_banks


class ScramblingPolicy(IndexingPolicy):
    """LFSR scrambling: bank ``i`` maps to ``i XOR word``.

    Quasi-uniform: the residual imbalance decays as 1/sqrt(N) with the
    number of updates N (Section IV-B2); in any realistic deployment N
    is large enough to make the sub-optimality negligible.

    A bank address wider than the LFSR (the fine-grain template's
    domains over more than 2**16 lines) is scrambled in its low
    ``lfsr_width`` bits: the remapper is built that wide and its word
    is XORed into the full address.
    """

    name = "scrambling"

    def __init__(self, num_banks: int, lfsr_width: int = 16, seed: int = 0xACE1) -> None:
        super().__init__(num_banks)
        self._remapper = ScramblingRemapper(
            min(self.p_bits, lfsr_width), lfsr_width=lfsr_width, seed=seed
        )

    @property
    def remapper(self) -> StaticRemapper:
        return self._remapper

    def physical_bank(self, logical_bank: int) -> int:
        """``logical_bank XOR word`` over the full bank address."""
        if not 0 <= logical_bank < self.num_banks:
            raise ConfigurationError(
                f"bank {logical_bank} out of range for {self.num_banks} banks"
            )
        return logical_bank ^ self._remapper.word

    def mapping(self) -> np.ndarray:
        """Vector form of ``i XOR word``."""
        word = self._remapper.word
        return np.arange(self.num_banks, dtype=np.int64) ^ word


#: Names accepted by :func:`make_policy`.
POLICY_NAMES: tuple[str, ...] = ("static", "probing", "scrambling")


def make_policy(name: str, num_banks: int, **kwargs) -> IndexingPolicy:
    """Construct a policy by registry name.

    >>> make_policy("probing", 4).name
    'probing'
    """
    registry = {
        "static": StaticPolicy,
        "probing": ProbingPolicy,
        "scrambling": ScramblingPolicy,
    }
    try:
        cls = registry[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown policy {name!r}; known: {', '.join(POLICY_NAMES)}"
        ) from None
    return cls(num_banks, **kwargs)
