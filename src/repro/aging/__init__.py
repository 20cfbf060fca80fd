"""NBTI aging substrate.

This package replaces the paper's SPICE-based characterization framework
(Section IV-A) with an equivalent analytical flow:

1. :mod:`repro.aging.devices` — square-law MOSFET models (the level-1
   equivalent of the HSPICE device cards).
2. :mod:`repro.aging.snm` — numerical read static-noise-margin evaluation
   of a 6T cell via butterfly curves and the maximal inscribed square
   (Seevinck's construction).
3. :mod:`repro.aging.nbti` — the long-term reaction–diffusion NBTI model
   (threshold-voltage drift ``ΔVth = b·(α·t)^n``) including the reduced
   stress experienced in the drowsy (voltage-scaled) state.
4. :mod:`repro.aging.cell` — the two-phase *pre-stress / post-stress*
   characterization of a cell, mirroring the paper's flow: compute device
   degradation for a stress profile, annotate the cell, re-evaluate SNM,
   and report the lifetime (time until read SNM degrades by 20%).
5. :mod:`repro.aging.lut` — the (p0, Psleep) → lifetime lookup table the
   cache simulator consumes, exactly as in the paper.
6. :mod:`repro.aging.lifetime` — bank- and cache-level lifetime
   computation (cache lifetime is the *worst* bank's lifetime).

Calibration: the NBTI prefactor is fitted so an always-on cell storing
0/1 with equal probability lives 2.93 years (the paper's reference cell
lifetime in the ST 45nm technology), and the drowsy stress-reduction
factor is fitted so sleep suppresses ~75% of the aging rate, which
reproduces the paper's measured lifetime/idleness relation.
"""

from repro.aging.cell import CellAgingCurve, CharacterizationFramework, SRAMCellSpec
from repro.aging.devices import MOSFETParams, nmos_current, pmos_current
from repro.aging.lifetime import (
    CacheLifetimeReport,
    LinearizedLifetimeModel,
    bank_lifetimes_years,
    cache_lifetime_years,
)
from repro.aging.lut import LifetimeLUT
from repro.aging.nbti import NBTIModel
from repro.aging.snm import butterfly_curves, read_snm, read_snm_batch

__all__ = [
    "SRAMCellSpec",
    "CharacterizationFramework",
    "CellAgingCurve",
    "MOSFETParams",
    "nmos_current",
    "pmos_current",
    "NBTIModel",
    "read_snm",
    "read_snm_batch",
    "butterfly_curves",
    "LifetimeLUT",
    "LinearizedLifetimeModel",
    "bank_lifetimes_years",
    "cache_lifetime_years",
    "CacheLifetimeReport",
]
