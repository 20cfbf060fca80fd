"""Read static-noise-margin of a 6T SRAM cell via butterfly curves.

The paper (Section II-A and IV-A) uses the *read* SNM — the SNM with the
access transistors conducting, which is the worst case for NBTI-degraded
cells — as the aging metric: a cell is dead once its read SNM has dropped
by more than 20% from time zero.

This module computes the read SNM numerically, for a batch of cells at
once:

1. For each half-cell (inverter + access transistor with the bitline held
   at Vdd), solve the voltage transfer curve by bisecting the node current
   balance — the net current into the output node is strictly decreasing
   in the node voltage, so bisection is robust. The half-cells of every
   cell in the batch are the rows of one ``(rows, samples)`` array, each
   row with its own device parameters
   (:class:`~repro.aging.devices.MOSFETRows`), and every row and input
   sample bisects in lockstep through one fixed 60-step loop.
2. Form the butterfly plot from VTC A and the mirror of VTC B and find the
   largest square inscribed in each eye. Both boundaries are monotone
   non-increasing functions of the noise-plane abscissa, so the maximal
   square with its lower-left corner on the lower curve and upper-right
   corner on the upper curve can be found by a bisection on the square
   side over a grid of anchors. The eyes of every cell bisect in lockstep
   through one fixed 40-step loop; each step evaluates each eye's upper
   boundary with one :func:`numpy.interp` call. The SNM is the smaller of
   the two eyes.

Every step is element-wise within a row, so a cell's SNM does not depend
on the batch it is solved in: :func:`read_snm` is the one-cell batch and
is bit-identical to that cell's entry in any larger batch. Batching only
removes per-call numpy overhead, which dominates at these array sizes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.aging.devices import (
    MOSFETParams,
    MOSFETRows,
    access_nmos_current,
    nmos_current,
    pmos_current,
)
from repro.errors import ModelError


@dataclass(frozen=True)
class HalfCell:
    """One inverter of the cell plus its access transistor.

    ``pull_up`` is the PMOS (the NBTI victim), ``pull_down`` the driver
    NMOS, ``access`` the pass NMOS to the (precharged) bitline.
    """

    pull_up: MOSFETParams
    pull_down: MOSFETParams
    access: MOSFETParams


class _Boundary(NamedTuple):
    """One eye boundary of the butterfly plot, sampled for interpolation."""

    xp: np.ndarray
    fp: np.ndarray
    left: float | None = None
    right: float | None = None

    def at(self, x: np.ndarray) -> np.ndarray:
        """Ordinates of the boundary at abscissae ``x``."""
        return np.interp(x, self.xp, self.fp, left=self.left, right=self.right)


def _input_grid(vdd: float, samples: int) -> np.ndarray:
    """VTC input samples, which are also the square anchors."""
    if samples < 16:
        raise ModelError("butterfly sampling needs at least 16 points")
    if vdd <= 0:
        raise ModelError("vdd must be positive")
    return np.linspace(0.0, vdd, samples)


def _read_vtcs(
    halves: Sequence[HalfCell], vdd: float, vin: np.ndarray, iters: int = 60
) -> np.ndarray:
    """Solve the read VTCs, one row per half-cell: output node voltage
    for each input sample.

    The node equation is ``I_pullup + I_access = I_pulldown``; the inflow
    decreases monotonically with ``vout``, so a bisection over every
    (half-cell, ``vin``) pair at once converges unconditionally.
    """
    pull_up = MOSFETRows.stack([half.pull_up for half in halves])
    pull_down = MOSFETRows.stack([half.pull_down for half in halves])
    access = MOSFETRows.stack([half.access for half in halves])
    lo = np.zeros((len(halves), vin.size))
    hi = np.full_like(lo, vdd)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        inflow = (
            pmos_current(pull_up, vdd, vin, mid)
            + access_nmos_current(access, vdd, mid)
            - nmos_current(pull_down, vin, mid)
        )
        pull_up_wins = inflow > 0.0
        lo = np.where(pull_up_wins, mid, lo)
        hi = np.where(pull_up_wins, hi, mid)
    return 0.5 * (lo + hi)


def butterfly_curves(
    half_a: HalfCell,
    half_b: HalfCell,
    vdd: float,
    samples: int = 201,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(vin, vtc_a, vtc_b)`` for the two half-cells under read.

    ``vtc_a[i]`` is node Q when QB is forced to ``vin[i]``; ``vtc_b[i]``
    is node QB when Q is forced to ``vin[i]``.
    """
    vin = _input_grid(vdd, samples)
    vtc_a, vtc_b = _read_vtcs([half_a, half_b], vdd, vin)
    return vin, vtc_a, vtc_b


def _max_squares(
    lower: np.ndarray,
    upper: Sequence[_Boundary],
    x: np.ndarray,
    vdd: float,
    iters: int = 40,
) -> np.ndarray:
    """Side of the largest axis-aligned square in each eye (one row each).

    ``lower`` holds each eye's lower boundary at the anchor abscissae
    ``x`` and ``upper`` its upper boundary; both are non-increasing. A
    square of side ``s`` anchored at abscissa ``x`` fits iff
    ``upper(x + s) - lower(x) >= s`` — its lower-left corner sits on the
    lower curve and its upper-right corner below/on the upper curve. For
    fixed ``x`` the residual is decreasing in ``s``, so one bisection
    over every (eye, anchor) pair finds the maximal sides.
    """
    lo = np.zeros_like(lower)
    hi = np.full_like(lower, vdd)
    reach = np.empty_like(lower)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        corner = x + mid
        for row, boundary in enumerate(upper):
            reach[row] = boundary.at(corner[row])
        fits = reach - lower >= mid
        lo = np.where(fits, mid, lo)
        hi = np.where(fits, hi, mid)
    return lo.max(axis=1)


def read_snm_batch(
    cells: Sequence[tuple[HalfCell, HalfCell]],
    vdd: float,
    samples: int = 201,
) -> np.ndarray:
    """Read static noise margin of each ``(half_a, half_b)`` cell, in volts.

    The butterfly is formed in the (QB, Q) plane by VTC A as
    ``(vin, vtc_a)`` and VTC B mirrored as ``(vtc_b, vin)``. The SNM is
    the side of the largest square inscribed in the *smaller* of the two
    eyes (both noise polarities must be survived simultaneously).

    A cell's entry is 0.0 when its eyes have collapsed (cell no longer
    bistable under read).
    """
    vin = _input_grid(vdd, samples)
    if not cells:
        return np.empty(0)
    vtcs = _read_vtcs([half for cell in cells for half in cell], vdd, vin)
    curves_a = [_Boundary(vin, vtc) for vtc in vtcs[0::2]]
    # Mirrored VTC B maps abscissa x (the VTC's *output*) to the input
    # that produced it. The output is non-increasing in the input, so
    # reversing gives the increasing grid np.interp needs; the running
    # max guards against tiny non-monotonicity from the bisection
    # tolerance. Outside the attainable output range the curve is
    # clamped, which only ever shrinks candidate squares (never inflates
    # the SNM).
    mirrored_x = np.maximum.accumulate(vtcs[1::2, ::-1], axis=1)
    mirrors_b = [_Boundary(xp, vin[::-1], vdd, 0.0) for xp in mirrored_x]
    # Eye 1 (first half of the rows): VTC A is the upper boundary,
    # mirrored VTC B the lower one. Eye 2: roles swapped.
    lowers = mirrors_b + curves_a
    uppers = curves_a + mirrors_b
    sides = _max_squares(np.stack([curve.at(vin) for curve in lowers]), uppers, vin, vdd)
    count = len(cells)
    return np.maximum(0.0, np.minimum(sides[:count], sides[count:]))


def read_snm(
    half_a: HalfCell,
    half_b: HalfCell,
    vdd: float,
    samples: int = 201,
) -> float:
    """Read static noise margin of one cell, in volts.

    The one-cell case of :func:`read_snm_batch`.
    """
    return float(read_snm_batch([(half_a, half_b)], vdd, samples=samples)[0])
