//! Hardware overhead model for SynTS-online (paper Sec 6.3).
//!
//! The paper synthesizes the IVM pipe stages with a 45 nm FreePDK library
//! and reports the added hardware — Razor shadow latches on the protected
//! pipeline registers, per-core sampling counters, and the interval
//! controller — at ≈ 3.41% core power and ≈ 2.7% core area. We rebuild the
//! same accounting over our own cell library: both numerator (added cells)
//! and denominator (core cells) come from the same normalized units, so the
//! ratios are library-consistent.

use gatelib::{Netlist, NetlistStats};

/// Normalized area of a standard D flip-flop (INV = 1.0).
const DFF_AREA: f64 = 6.0;
/// Normalized per-cycle energy of a clocked flip-flop.
const DFF_ENERGY: f64 = 4.0;
/// Extra area of a Razor flip-flop over a standard one: shadow latch,
/// delayed-clock XOR comparator and restore mux (Fig 1.1).
const RAZOR_EXTRA_AREA: f64 = 9.0;
/// Extra per-cycle energy of a Razor flip-flop. The shadow latch and its
/// delayed clock toggle every cycle whether or not an error occurs, so the
/// energy premium is proportionally larger than the area premium — the
/// reason the paper's power overhead (3.41%) exceeds its area overhead
/// (2.7%).
const RAZOR_EXTRA_ENERGY: f64 = 8.0;
/// Fraction of a stage's pipeline registers that need Razor protection —
/// only near-critical endpoints are shadowed (Razor's standard sizing).
const RAZOR_COVERAGE: f64 = 0.15;
/// Sampling counters per core: one error counter + one instruction counter.
const COUNTER_BITS: usize = 2 * 18;
/// Controller (per-core share): comparator tree + FSM, in NAND2
/// equivalents. The SynTS-Poly search itself runs in firmware; only the
/// level sequencing and counter snapshot logic is dedicated hardware.
const CONTROLLER_NAND2_EQUIV: f64 = 100.0;
/// Average combinational switching activity (toggles per cell per cycle).
const COMB_ACTIVITY: f64 = 0.12;
/// Fraction of total core area occupied by the three analyzed pipe stages
/// and their registers (the rest is fetch, rename, LSQ, caches...).
const STAGE_FRACTION_OF_CORE: f64 = 0.22;
/// Duty cycle of the controller/counters (active during sampling ≈ 10% of
/// each interval).
const SAMPLING_DUTY: f64 = 0.10;

/// Itemized overhead report, relative to the core (Sec 6.3).
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadReport {
    /// Core area in normalized units (stage netlists scaled to a full core).
    pub core_area: f64,
    /// Core dynamic energy per cycle, same units.
    pub core_energy_per_cycle: f64,
    /// Added area: Razor flip-flops.
    pub razor_area: f64,
    /// Added area: sampling counters.
    pub counter_area: f64,
    /// Added area: the SynTS interval controller.
    pub controller_area: f64,
    /// Added per-cycle energy (all additions, duty-cycle weighted).
    pub added_energy_per_cycle: f64,
    /// Area overhead as a fraction of core area.
    pub area_fraction: f64,
    /// Power overhead as a fraction of core power.
    pub power_fraction: f64,
}

impl OverheadReport {
    /// Area overhead in percent.
    #[must_use]
    pub fn area_pct(&self) -> f64 {
        self.area_fraction * 100.0
    }

    /// Power overhead in percent.
    #[must_use]
    pub fn power_pct(&self) -> f64 {
        self.power_fraction * 100.0
    }
}

/// Estimates SynTS-online's hardware overhead from the analyzed stage
/// netlists (Decode, SimpleALU, ComplexALU of one core).
///
/// # Panics
///
/// Panics if `stages` is empty — there is nothing to scale a core from.
#[must_use]
pub fn estimate_overhead(stages: &[&Netlist]) -> OverheadReport {
    assert!(!stages.is_empty(), "need at least one stage netlist");
    let mut comb_area = 0.0;
    let mut comb_energy = 0.0;
    let mut ff_count = 0usize;
    for stage in stages {
        let stats = NetlistStats::of(stage);
        comb_area += stats.total_area;
        comb_energy += stats.max_switch_energy * COMB_ACTIVITY;
        // Every stage output is latched in a pipeline register.
        ff_count += stats.outputs;
    }
    let stage_area = comb_area + ff_count as f64 * DFF_AREA;
    let stage_energy = comb_energy + ff_count as f64 * DFF_ENERGY;
    let core_area = stage_area / STAGE_FRACTION_OF_CORE;
    let core_energy = stage_energy / STAGE_FRACTION_OF_CORE;

    let protected = (ff_count as f64 * RAZOR_COVERAGE).ceil();
    let razor_area = protected * RAZOR_EXTRA_AREA;
    let razor_energy = protected * RAZOR_EXTRA_ENERGY;

    let counter_area = COUNTER_BITS as f64 * DFF_AREA;
    let counter_energy = COUNTER_BITS as f64 * DFF_ENERGY * SAMPLING_DUTY;

    let nand2_area = gatelib::CellKind::Nand2.params().area;
    let nand2_energy = gatelib::CellKind::Nand2.params().switch_energy;
    let controller_area = CONTROLLER_NAND2_EQUIV * nand2_area;
    let controller_energy = CONTROLLER_NAND2_EQUIV * nand2_energy * COMB_ACTIVITY * SAMPLING_DUTY;

    let added_area = razor_area + counter_area + controller_area;
    let added_energy = razor_energy + counter_energy + controller_energy;

    OverheadReport {
        core_area,
        core_energy_per_cycle: core_energy,
        razor_area,
        counter_area,
        controller_area,
        added_energy_per_cycle: added_energy,
        area_fraction: added_area / core_area,
        power_fraction: added_energy / core_energy,
    }
}

/// Convenience wrapper: builds the three default stage netlists at `width`
/// and estimates the overhead over them — what `repro sec-6-3` reports.
///
/// # Errors
///
/// Propagates netlist construction failures as [`crate::OptError::Timing`].
pub fn estimate_overhead_defaults(width: usize) -> Result<OverheadReport, crate::OptError> {
    let mut stages = Vec::new();
    for kind in circuits::StageKind::ALL {
        let stage = circuits::build_stage(kind, width).map_err(timing::TimingError::from)?;
        stages.push(stage.netlist().clone());
    }
    let refs: Vec<&Netlist> = stages.iter().collect();
    Ok(estimate_overhead(&refs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuits::{build_stage, StageKind};

    fn stage_netlists(width: usize) -> Vec<Netlist> {
        StageKind::ALL
            .iter()
            .map(|&k| build_stage(k, width).expect("build").netlist().clone())
            .collect()
    }

    #[test]
    fn overhead_in_paper_ballpark() {
        let stages = stage_netlists(16);
        let refs: Vec<&Netlist> = stages.iter().collect();
        let report = estimate_overhead(&refs);
        // Paper: 2.7% area, 3.41% power. We assert the single-digit band
        // rather than the exact figures (different library, different core).
        assert!(
            report.area_pct() > 0.5 && report.area_pct() < 8.0,
            "area overhead {}%",
            report.area_pct()
        );
        assert!(
            report.power_pct() > 0.5 && report.power_pct() < 10.0,
            "power overhead {}%",
            report.power_pct()
        );
    }

    #[test]
    fn power_overhead_exceeds_area_overhead() {
        // The paper found power (3.41%) > area (2.7%): Razor's shadow
        // latches clock every cycle, so they cost proportionally more in
        // power than in area.
        let stages = stage_netlists(16);
        let refs: Vec<&Netlist> = stages.iter().collect();
        let report = estimate_overhead(&refs);
        assert!(
            report.power_fraction > report.area_fraction,
            "power {} vs area {}",
            report.power_fraction,
            report.area_fraction
        );
    }

    #[test]
    fn report_components_sum() {
        let stages = stage_netlists(8);
        let refs: Vec<&Netlist> = stages.iter().collect();
        let r = estimate_overhead(&refs);
        let total = r.razor_area + r.counter_area + r.controller_area;
        assert!((r.area_fraction - total / r.core_area).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_stage_list_panics() {
        let _ = estimate_overhead(&[]);
    }
}
