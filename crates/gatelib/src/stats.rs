//! Netlist statistics: cell counts, area and switching energy.
//!
//! These feed the Sec 6.3 overhead analysis: SynTS's added hardware (Razor
//! shadow latches, sampling counters, the per-core controller) is sized in
//! the same normalized cell units as the pipe-stage netlists, so the
//! power/area overhead ratios are library-consistent.

use std::collections::BTreeMap;

use crate::cell::CellKind;
use crate::netlist::Netlist;

/// Static structural statistics of a netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistStats {
    /// Instance count per cell kind.
    pub cell_counts: BTreeMap<CellKind, usize>,
    /// Total number of cell instances.
    pub total_cells: usize,
    /// Total area in normalized units (INV = 1.0).
    pub total_area: f64,
    /// Sum of per-cell switching energies — an upper bound on the energy of
    /// a cycle in which every cell toggles once (at 1.0 V).
    pub max_switch_energy: f64,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs (≈ pipeline-register bits the stage needs).
    pub outputs: usize,
}

impl NetlistStats {
    /// Computes statistics for `netlist`.
    #[must_use]
    pub fn of(netlist: &Netlist) -> NetlistStats {
        let mut cell_counts: BTreeMap<CellKind, usize> = BTreeMap::new();
        let mut total_area = 0.0;
        let mut max_switch_energy = 0.0;
        for cell in netlist.cells() {
            *cell_counts.entry(cell.kind()).or_insert(0) += 1;
            let p = cell.kind().params();
            total_area += p.area;
            max_switch_energy += p.switch_energy;
        }
        NetlistStats {
            cell_counts,
            total_cells: netlist.cell_count(),
            total_area,
            max_switch_energy,
            inputs: netlist.primary_inputs().len(),
            outputs: netlist.primary_outputs().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;

    fn tiny() -> Netlist {
        let mut b = NetlistBuilder::new("tiny");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.cell(CellKind::Nand2, &[a, c]).expect("ok");
        let y = b.cell(CellKind::Inv, &[x]).expect("ok");
        b.output(y, "y");
        b.finish().expect("valid")
    }

    #[test]
    fn counts_and_area() {
        let s = NetlistStats::of(&tiny());
        assert_eq!(s.total_cells, 2);
        assert_eq!(s.cell_counts[&CellKind::Nand2], 1);
        assert_eq!(s.cell_counts[&CellKind::Inv], 1);
        let expected_area = CellKind::Nand2.params().area + CellKind::Inv.params().area;
        assert!((s.total_area - expected_area).abs() < 1e-12);
        assert_eq!(s.inputs, 2);
        assert_eq!(s.outputs, 1);
    }
}
