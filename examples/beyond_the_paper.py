#!/usr/bin/env python3
"""Beyond the paper: baselines and second-order effects.

Four studies the paper motivates but does not evaluate, built on the
same substrate:

1. **Granularity** — the paper vs its own upper bound: line-granularity
   dynamic indexing ([7], requires touching the SRAM array) against the
   paper's bank-granularity scheme (memory-compiler friendly).
2. **Content flipping** ([11]/[15]) — the value-axis mitigation, shown
   to be orthogonal (and ineffective for balanced cache contents).
3. **Process variation** — lifetime distributions once every cell draws
   its own Vth; the weakest-cell effect vs array size.
4. **Self-heating** — hot banks age faster, compounding the imbalance
   the paper fights.

Run:  python examples/beyond_the_paper.py
"""

from __future__ import annotations

from repro import ArchitectureConfig, CacheGeometry, WorkloadGenerator, profile_for, simulate
from repro.aging.cell import CharacterizationFramework
from repro.aging.flipping import flip_gain
from repro.aging.lut import LifetimeLUT
from repro.aging.thermal import thermal_bank_lifetimes
from repro.aging.variation import VariationModel
from repro.utils.tables import format_table


def granularity_study(geometry, trace, lut) -> None:
    rows = []
    for banks in (4, 8, 16):
        config = ArchitectureConfig(
            geometry, num_banks=banks, policy="probing",
            update_period_cycles=trace.horizon // 16,
        )
        result = simulate(config, trace, lut)
        rows.append([f"banked M={banks} (paper)", result.lifetime_years,
                     100 * result.energy_savings])
    for policy, label in (("static", "drowsy lines [20]"), ("probing", "dyn. indexing [7]")):
        # The fine-grain template ignores num_banks: its power domains
        # are the cache lines.
        config = ArchitectureConfig(
            geometry, num_banks=2, policy=policy,
            update_period_cycles=trace.horizon // 32 if policy != "static" else None,
        )
        result = simulate(config, trace, lut, engine="finegrain")
        rows.append([label, result.lifetime_years, 100 * result.energy_savings])
    print(format_table(
        ["architecture", "lifetime [y]", "Esav [%]"], rows,
        title=f"granularity study — {trace.name}",
    ))
    print("Fine grain catches more idleness (lifetime upper bound) but")
    print("saves no dynamic energy and modifies the array internals.\n")


def flipping_study(framework) -> None:
    rows = [[p0, flip_gain(framework, p0)] for p0 in (0.5, 0.7, 0.9, 0.99)]
    print(format_table(
        ["content p0", "flip gain [x]"], rows,
        title="content flipping ([11]/[15]) — value-axis mitigation",
    ))
    print("Gain vanishes for balanced content: caches need the idleness axis.\n")


def variation_study(framework) -> None:
    model = VariationModel(framework, sigma_vth=0.01, offset_grid_points=5)
    rows = []
    for cells in (512, 2048, 8192):
        dist = model.bank_lifetime_distribution(cells, psleep=0.42, samples=60)
        rows.append([cells, dist.mean, dist.yield_lifetime])
    print(format_table(
        ["cells/bank", "mean LT [y]", "99%-yield LT [y]"], rows,
        title="process variation (sigma = 10 mV) at Psleep = 0.42 "
              "(nominal 4.28 y)",
    ))
    print("Bigger arrays die at their weakest cell's pace; wear-leveling")
    print("gains persist as a multiplicative factor on the distribution.\n")


def thermal_study() -> None:
    unbalanced = [0.02, 0.99, 0.99, 0.04]
    balanced = [0.51] * 4
    rows = [
        ["static (unbalanced)", float(thermal_bank_lifetimes(unbalanced).min())],
        ["re-indexed (balanced)", float(thermal_bank_lifetimes(balanced).min())],
    ]
    print(format_table(
        ["configuration", "thermal-aware lifetime [y]"], rows,
        title="self-heating (45°C ambient, 35°C activity rise)",
    ))
    print("Heat concentrates where accesses do — rotation cools the hot")
    print("set while it rests, compounding the paper's benefit.")


def main() -> None:
    geometry = CacheGeometry(16 * 1024, 16)
    trace = WorkloadGenerator(geometry, num_windows=600).generate(
        profile_for("adpcm.dec")
    )
    lut = LifetimeLUT.default()
    framework = CharacterizationFramework()
    granularity_study(geometry, trace, lut)
    flipping_study(framework)
    variation_study(framework)
    thermal_study()


if __name__ == "__main__":
    main()
