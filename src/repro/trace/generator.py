"""Materialize a benchmark profile into a concrete address trace.

The generator composes three layers:

1. the **activity schedule** (which regions are busy in which windows,
   :mod:`repro.trace.schedule`) — geometry-independent;
2. the **region walkers** (which lines a busy region touches,
   :mod:`repro.trace.synthetic`) — instantiated per cache geometry, with
   each region covering ``num_sets / 16`` consecutive sets;
3. the **intra-window timing**: a busy region is accessed every
   ``access_stride_cycles`` cycles, with a per-region phase so streams
   from simultaneously busy regions interleave instead of colliding
   (the cache is single-ported). The stride is far below the breakeven
   time, so busy windows contribute no useful idleness — all useful
   idleness comes from scheduled idle windows, which is what the
   calibration relies on.

The index space is normalized: the same schedule drives any cache size
or line size, with the region boundaries scaling along. This mirrors the
paper's observation that idleness "is not directly impacted by the cache
size, since it depends on the idleness distribution over the cache
lines" (Section IV-B1).
"""

from __future__ import annotations

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.errors import ConfigurationError
from repro.trace.mediabench import BenchmarkProfile
from repro.trace.schedule import NUM_REGIONS, ActivitySchedule
from repro.trace.synthetic import make_walkers
from repro.trace.trace import Trace
from repro.utils.rng import RandomStreams

#: Windows per piece that :meth:`WorkloadGenerator.generate` synthesizes
#: at once: enough to amortize a piece's fixed cost, few enough that its
#: temporaries stay a few hundred KiB, as a streamed chunk's do.
_GENERATE_PIECE_WINDOWS = 32


class WorkloadGenerator:
    """Generate traces for benchmark profiles on a given cache geometry.

    Parameters
    ----------
    geometry:
        Target cache geometry (regions are sized from its set count).
    num_windows:
        Schedule length; more windows tighten the idleness calibration.
    window_cycles:
        Cycles per window; must comfortably exceed the breakeven time so
        idle windows convert to sleep.
    master_seed:
        Seed of the deterministic stream family; the same seed yields
        bit-identical traces.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        num_windows: int = 1500,
        window_cycles: int = 1024,
        master_seed: int = 2011,
    ) -> None:
        if geometry.num_sets < NUM_REGIONS:
            raise ConfigurationError(
                f"geometry has {geometry.num_sets} sets; the workload model "
                f"needs at least {NUM_REGIONS}"
            )
        if num_windows < 10:
            raise ConfigurationError("need at least 10 windows")
        if window_cycles < 64:
            raise ConfigurationError("windows must be at least 64 cycles")
        self.geometry = geometry
        self.num_windows = num_windows
        self.window_cycles = window_cycles
        self.streams = RandomStreams(master_seed)

    @property
    def region_sets(self) -> int:
        """Consecutive sets per region."""
        return self.geometry.num_sets // NUM_REGIONS

    @property
    def horizon(self) -> int:
        """Total simulated cycles of any generated trace."""
        return self.num_windows * self.window_cycles

    def _window_arrays(self, profile: BenchmarkProfile, piece_cycles: int):
        """Yield ``(cycles, addresses)`` pieces of the access stream.

        The single source of the generated access stream:
        :meth:`generate` concatenates the pieces, :meth:`stream` passes
        them on as chunks without ever materializing the whole trace.
        One piece holds the windows that start in one
        ``piece_cycles``-aligned cycle range (a range where no window
        starts yields nothing, as does one whose windows are all idle),
        so when ``piece_cycles`` is a multiple of ``window_cycles`` a
        piece is exactly one aligned chunk.

        No random number is drawn here after set-up: the schedule, the
        walkers and the turnover draws come first, in that order, on
        every call, so both paths (and repeated passes over a
        :meth:`stream`) are bit-identical. A piece is then integer
        arithmetic over its windows. In a window with ``n`` busy regions
        the single-ported stream issues an access every
        ``eff = max(1, stride // n)`` cycles, and access ``k`` goes to
        the window's ``k % n``-th busy region, so each region sees a gap
        of about ``stride`` cycles (always below the breakeven time) and
        no two accesses share a cycle. Each busy (window, region) pair
        first moves its region to a fresh tag generation when its
        turnover draw says so, then walks ``ceil((count - j) / n)``
        steps of the region's strided loop over its working lines; the
        region's walk position and generation carry from one pair to
        the next, across pieces too.
        """
        rng_schedule = self.streams.get(f"schedule/{profile.name}")
        rng_walk = self.streams.get(f"walk/{profile.name}")
        schedule = ActivitySchedule(
            profile.schedule_params(), self.num_windows, rng_schedule
        )
        walkers = make_walkers(
            NUM_REGIONS, self.region_sets, profile.working_fraction, rng_walk
        )
        turnover = rng_walk.random(int(schedule.busy.sum())) < profile.tag_turnover

        stride = profile.access_stride_cycles
        window_cycles = self.window_cycles
        offset_bits = self.geometry.offset_bits
        working = walkers[0].working_lines
        walk_strides = np.array([w.stride for w in walkers], dtype=np.int64)
        # Carried per region: walk position and tag generation.
        position = np.array([w.position for w in walkers], dtype=np.int64)
        generation = np.zeros(NUM_REGIONS, dtype=np.int64)
        # Region r's first set, already shifted into place; the walk
        # offset stays below ``working <= region_sets`` and the tag sits
        # above the index bits, so OR assembles the address.
        region_bits = (
            np.arange(NUM_REGIONS, dtype=np.int64) * self.region_sets
        ) << offset_bits
        tag_shift = offset_bits + self.geometry.index_bits
        pairs_done = 0

        lo = 0
        while lo < self.num_windows:
            # The windows that start in lo's piece.
            piece = lo * window_cycles // piece_cycles
            hi = min(self.num_windows, -(-(piece + 1) * piece_cycles // window_cycles))
            busy = schedule.busy[lo:hi]
            window_start = np.arange(lo, hi, dtype=np.int64) * window_cycles
            lo = hi
            n_busy = busy.sum(axis=1)
            eff_stride = np.maximum(1, stride // np.maximum(n_busy, 1))
            counts = np.where(n_busy > 0, -(-window_cycles // eff_stride), 0)

            # Per busy (window, region) pair, in np.nonzero order (the
            # order of the turnover draws): the pair's rank j among its
            # window's busy regions and its number of walk steps.
            window_of, region_of = np.nonzero(busy)
            rank = (np.cumsum(busy, axis=1) - 1)[busy]
            pair_n = n_busy[window_of]
            steps = np.zeros(busy.shape, dtype=np.int64)
            steps[busy] = (counts[window_of] - rank + pair_n - 1) // pair_n
            flips = np.zeros(busy.shape, dtype=np.int64)
            flips[busy] = turnover[pairs_done : pairs_done + window_of.size]
            pairs_done += window_of.size
            # Running sums down each region's column carry its walk and
            # its generation; a pair advances the generation first.
            walked = np.cumsum(steps, axis=0)
            generations = generation + np.cumsum(flips, axis=0)
            starts = (position + walk_strides * (walked - steps))[busy] % working
            pair_strides = walk_strides[region_of]
            pair_bits = (generations[busy] << tag_shift) | region_bits[region_of]
            position = (position + walk_strides * walked[-1]) % working
            generation = generations[-1]

            total = int(counts.sum())
            if total == 0:
                continue
            # Per access: window w's access k is step k // n of the
            # window's pair k % n. Chunk-sized temporaries are updated in
            # place and dropped before the yield, so fewer of them are
            # alive at once and none while the consumer holds the piece.
            k = np.arange(total, dtype=np.int64)
            k -= np.repeat(np.cumsum(counts) - counts, counts)
            step, pair = np.divmod(k, np.repeat(n_busy, counts))
            pair += np.repeat(np.cumsum(n_busy) - n_busy, counts)
            cycles = np.repeat(window_start, counts)
            k *= np.repeat(eff_stride, counts)
            cycles += k
            del k
            offsets = step
            offsets *= pair_strides[pair]
            offsets += starts[pair]
            offsets %= working
            offsets <<= offset_bits
            addresses = pair_bits[pair]
            addresses |= offsets
            del step, offsets, pair
            yield cycles, addresses

    def generate(self, profile: BenchmarkProfile) -> Trace:
        """Produce the trace for ``profile`` on this generator's geometry."""
        piece_cycles = _GENERATE_PIECE_WINDOWS * self.window_cycles
        pieces = list(self._window_arrays(profile, piece_cycles))
        cycles = [piece[0] for piece in pieces] or [np.empty(0, dtype=np.int64)]
        addresses = [piece[1] for piece in pieces] or [np.empty(0, dtype=np.int64)]
        return Trace(
            cycles=np.concatenate(cycles),
            addresses=np.concatenate(addresses),
            horizon=self.horizon,
            name=profile.name,
        )

    def stream(self, profile: BenchmarkProfile, chunk_cycles: int):
        """Chunked, out-of-core view of :meth:`generate`.

        Returns a :class:`~repro.trace.stream.TraceStream` that
        re-derives its windows on every pass; peak memory is one chunk
        window plus the schedule/walker state, independent of
        ``num_windows``. Concatenating the stream reproduces
        ``generate(profile)`` bit-identically (tests enforce it).
        """
        from repro.trace.stream import SyntheticTraceStream

        return SyntheticTraceStream(self, profile, chunk_cycles)
