//! Static timing analysis: worst-case arrival times and the critical path.
//!
//! STA answers "how slow could this stage possibly be" — the delay the
//! *nominal* clock period `t_nom(V)` must cover (Sec 4.1 of the paper).
//! Dynamic sensitized delays from [`crate::TimingSim`] are provably bounded
//! by the STA arrival times (checked by property tests), which is exactly
//! why timing speculation has room to play: most vectors sensitize paths
//! far shorter than the critical one.

use crate::error::NetlistError;
use crate::netlist::{CellId, NetId, Netlist};
use crate::voltage::Voltage;

/// The worst-case (topological) critical path of a netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// End-to-end delay of the path at the analysis voltage.
    pub delay: f64,
    /// Cells along the path, input side first.
    pub cells: Vec<CellId>,
    /// The primary output where the path terminates.
    pub endpoint: NetId,
}

/// Result of static timing analysis at a fixed voltage.
///
/// ```
/// use gatelib::{CellKind, NetlistBuilder, StaticTiming, Voltage};
/// # fn main() -> Result<(), gatelib::NetlistError> {
/// let mut b = NetlistBuilder::new("chain");
/// let a = b.input("a");
/// let x = b.cell(CellKind::Inv, &[a])?;
/// let y = b.cell(CellKind::Inv, &[x])?;
/// b.output(y, "y");
/// let n = b.finish()?;
/// let sta = StaticTiming::analyze(&n, Voltage::NOMINAL)?;
/// assert_eq!(sta.critical_path().cells.len(), 2);
/// assert!((sta.critical_path().delay - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StaticTiming {
    arrival: Vec<f64>,
    critical: CriticalPath,
    voltage: Voltage,
}

impl StaticTiming {
    /// Runs STA on `netlist` at supply voltage `voltage`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NoOutputs`] if the netlist declares no
    /// primary outputs (nothing to time).
    pub fn analyze(netlist: &Netlist, voltage: Voltage) -> Result<StaticTiming, NetlistError> {
        StaticTiming::analyze_impl(netlist, voltage, None)
    }

    /// Runs STA with per-cell delay factors (a process-variation or aging
    /// die instance from [`crate::variation`]).
    ///
    /// # Errors
    ///
    /// As [`StaticTiming::analyze`], plus
    /// [`NetlistError::FactorCountMismatch`] if `factors` does not cover
    /// exactly the netlist's cells.
    pub fn analyze_with_factors(
        netlist: &Netlist,
        voltage: Voltage,
        factors: &crate::variation::DelayFactors,
    ) -> Result<StaticTiming, NetlistError> {
        StaticTiming::analyze_impl(netlist, voltage, Some(factors))
    }

    fn analyze_impl(
        netlist: &Netlist,
        voltage: Voltage,
        factors: Option<&crate::variation::DelayFactors>,
    ) -> Result<StaticTiming, NetlistError> {
        let delay = netlist.cell_delays(voltage, factors)?;
        netlist.check_invariants()?;
        let mut arrival = vec![0.0f64; netlist.net_count()];
        // `from[net]` = cell producing the worst arrival at that net.
        let mut from: Vec<Option<CellId>> = vec![None; netlist.net_count()];
        for (idx, cell) in netlist.cells().iter().enumerate() {
            let cid = CellId(u32::try_from(idx).expect("netlist size checked at build"));
            let worst_in = cell
                .inputs()
                .iter()
                .map(|n| arrival[n.index()])
                .fold(0.0f64, f64::max);
            arrival[cell.output().index()] = worst_in + delay[idx];
            from[cell.output().index()] = Some(cid);
        }
        // Critical endpoint = worst primary output.
        let (&endpoint, _) = netlist
            .primary_outputs()
            .iter()
            .map(|n| (n, arrival[n.index()]))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("delays are finite"))
            .expect("outputs checked non-empty");
        // Back-track the path.
        let mut cells = Vec::new();
        let mut net = endpoint;
        while let Some(cid) = from[net.index()] {
            cells.push(cid);
            let cell = netlist.cell(cid).expect("id from analysis");
            // Follow the worst input.
            let next = cell
                .inputs()
                .iter()
                .max_by(|a, b| {
                    arrival[a.index()]
                        .partial_cmp(&arrival[b.index()])
                        .expect("delays are finite")
                })
                .copied();
            match next {
                Some(n) => net = n,
                None => break, // tie cell: path starts here
            }
        }
        cells.reverse();
        let critical = CriticalPath {
            delay: arrival[endpoint.index()],
            cells,
            endpoint,
        };
        Ok(StaticTiming {
            arrival,
            critical,
            voltage,
        })
    }

    /// Worst-case arrival time at `net` (0 for primary inputs).
    #[must_use]
    pub fn arrival(&self, net: NetId) -> f64 {
        self.arrival[net.index()]
    }

    /// The topological critical path.
    #[must_use]
    pub fn critical_path(&self) -> &CriticalPath {
        &self.critical
    }

    /// The voltage this analysis was performed at.
    #[must_use]
    pub fn voltage(&self) -> Voltage {
        self.voltage
    }

    /// The nominal clock period for this stage at the analysis voltage:
    /// the critical-path delay (the paper's `t_nom(V)`, guard-band-free
    /// "point of first failure" definition).
    #[must_use]
    pub fn nominal_period(&self) -> f64 {
        self.critical.delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use crate::netlist::NetlistBuilder;

    fn adder_chain(n: usize) -> Netlist {
        // Ripple of MAJ3 carries: worst path grows linearly.
        let mut b = NetlistBuilder::new("ripple");
        let mut carry = b.input("cin");
        for i in 0..n {
            let a = b.input(format!("a{i}"));
            let x = b.input(format!("b{i}"));
            let s = b.cell(CellKind::Xor3, &[a, x, carry]).expect("ok");
            carry = b.cell(CellKind::Maj3, &[a, x, carry]).expect("ok");
            b.output(s, format!("s{i}"));
        }
        b.output(carry, "cout");
        b.finish().expect("valid")
    }

    #[test]
    fn critical_path_grows_with_chain_length() {
        let short = StaticTiming::analyze(&adder_chain(2), Voltage::NOMINAL).expect("sta");
        let long = StaticTiming::analyze(&adder_chain(8), Voltage::NOMINAL).expect("sta");
        assert!(long.nominal_period() > short.nominal_period());
    }

    #[test]
    fn voltage_scaling_scales_period_per_table_5_1() {
        let n = adder_chain(4);
        let at_nominal = StaticTiming::analyze(&n, Voltage::NOMINAL).expect("sta");
        let low_v = Voltage::new(0.8).expect("in range");
        let at_low = StaticTiming::analyze(&n, low_v).expect("sta");
        let ratio = at_low.nominal_period() / at_nominal.nominal_period();
        assert!(
            (ratio - 1.39).abs() < 1e-9,
            "0.8 V multiplier should be 1.39, got {ratio}"
        );
    }

    #[test]
    fn critical_path_endpoint_is_a_primary_output() {
        let n = adder_chain(4);
        let sta = StaticTiming::analyze(&n, Voltage::NOMINAL).expect("sta");
        assert!(n.primary_outputs().contains(&sta.critical_path().endpoint));
    }

    #[test]
    fn path_cells_are_connected() {
        let n = adder_chain(5);
        let sta = StaticTiming::analyze(&n, Voltage::NOMINAL).expect("sta");
        let path = &sta.critical_path().cells;
        assert!(!path.is_empty());
        // Each consecutive pair must be driver -> consumer.
        for w in path.windows(2) {
            let out = n.cell(w[0]).expect("cell").output();
            let consumer = n.cell(w[1]).expect("cell");
            assert!(consumer.inputs().contains(&out), "path cells not connected");
        }
    }

    #[test]
    fn arrival_zero_at_inputs() {
        let n = adder_chain(3);
        let sta = StaticTiming::analyze(&n, Voltage::NOMINAL).expect("sta");
        for &pi in n.primary_inputs() {
            assert_eq!(sta.arrival(pi), 0.0);
        }
    }
}
