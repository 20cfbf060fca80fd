"""Square-law MOSFET models.

These play the role of the HSPICE device cards in the paper's
characterization framework. A long-channel square-law model is accurate
enough for *relative* SNM degradation studies — what matters for the
reproduction is how the butterfly eye shrinks as the pull-up threshold
voltages drift, not absolute currents.

All currents are normalized: the transconductance parameter ``k`` is in
arbitrary units, since SNM is a voltage-domain quantity and scales out
any common current factor.

All functions broadcast over their voltage arguments (gate and drain may
both be numpy arrays), so the butterfly solver can bisect hundreds of
bias points at once. They also accept :class:`MOSFETRows` — one device
per row of a ``(rows, samples)`` bias array — so the solver can bisect
the transfer curves of many differently-aged devices in lockstep. The
currents are computed element-wise with the same float operations either
way, so a row of a batched evaluation is bit-identical to evaluating
that row's :class:`MOSFETParams` alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError


@dataclass(frozen=True)
class MOSFETParams:
    """Square-law device parameters.

    Attributes
    ----------
    k:
        Transconductance factor (``µ·Cox·W/L``), arbitrary units.
    vth:
        Threshold voltage magnitude in volts (positive for both device
        types; the PMOS equations internally negate it).
    """

    k: float
    vth: float

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ModelError(f"transconductance must be positive, got {self.k}")
        if self.vth < 0:
            raise ModelError(f"threshold magnitude must be >= 0, got {self.vth}")

    def with_vth_shift(self, delta: float) -> "MOSFETParams":
        """Return a copy with the threshold magnitude increased by ``delta``.

        This is the "annotation" step of the paper's flow: NBTI-induced
        degradation is written back into the netlist as an increased
        |Vth| on the stressed device.
        """
        if delta < 0:
            raise ModelError("NBTI shifts threshold magnitude upward; delta < 0")
        return MOSFETParams(k=self.k, vth=self.vth + delta)


@dataclass(frozen=True)
class MOSFETRows:
    """Square-law parameters of several devices, one per solver row.

    ``k`` and ``vth`` are ``(rows, 1)`` columns, so they broadcast against
    ``(rows, samples)`` bias arrays: row ``r`` of a current is the current
    of device ``r`` at that row's biases.
    """

    k: np.ndarray
    vth: np.ndarray

    @classmethod
    def stack(cls, devices: Sequence[MOSFETParams]) -> "MOSFETRows":
        """Stack validated devices into per-row parameter columns."""
        return cls(
            k=np.array([device.k for device in devices], dtype=float)[:, None],
            vth=np.array([device.vth for device in devices], dtype=float)[:, None],
        )


def nmos_current(
    params: MOSFETParams | MOSFETRows,
    vgs: np.ndarray | float,
    vds: np.ndarray | float,
) -> np.ndarray:
    """Drain current of an NMOS with source grounded.

    Square-law: cut-off for ``vgs <= vth``; triode for ``vds < vgs - vth``;
    saturation otherwise. Broadcasts over both arguments.
    """
    vov = np.maximum(np.asarray(vgs, dtype=float) - params.vth, 0.0)
    vds_c = np.maximum(np.asarray(vds, dtype=float), 0.0)
    triode = params.k * (vov * vds_c - 0.5 * vds_c**2)
    sat = 0.5 * params.k * vov**2
    return np.where(vds_c < vov, triode, sat)


def pmos_current(
    params: MOSFETParams | MOSFETRows,
    vdd: float,
    vg: np.ndarray | float,
    vd: np.ndarray | float,
) -> np.ndarray:
    """Source-to-drain current of a PMOS with source tied to ``vdd``.

    Expressed with the same square-law equations via source-referred
    voltages: ``vsg = vdd - vg`` and ``vsd = vdd - vd``. Returns the
    current flowing *into* the output node (from the supply). Broadcasts
    over both voltage arguments.
    """
    vov = np.maximum((vdd - np.asarray(vg, dtype=float)) - params.vth, 0.0)
    vsd = np.maximum(vdd - np.asarray(vd, dtype=float), 0.0)
    triode = params.k * (vov * vsd - 0.5 * vsd**2)
    sat = 0.5 * params.k * vov**2
    return np.where(vsd < vov, triode, sat)


def access_nmos_current(
    params: MOSFETParams | MOSFETRows,
    vbl: float,
    vnode: np.ndarray | float,
) -> np.ndarray:
    """Current injected into the storage node by the access transistor.

    During a read the bitline is precharged to ``vbl`` and the wordline is
    at the same potential; the access NMOS conducts from the bitline into
    the node whenever the node sits below ``vbl - vth``. With gate and
    drain both at ``vbl`` the device operates in saturation (``vds = vgs``
    exceeds ``vgs - vth`` for any positive threshold), source-referenced
    at the storage node.
    """
    vov = np.maximum(vbl - np.asarray(vnode, dtype=float) - params.vth, 0.0)
    return 0.5 * params.k * vov**2
