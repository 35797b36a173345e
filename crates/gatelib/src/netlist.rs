//! Structural netlist graph and its builder.
//!
//! A [`Netlist`] is a DAG of library cells. The [`NetlistBuilder`] API makes
//! combinational loops unrepresentable: a cell can only consume nets that
//! already exist, so creation order is a topological order and every fanout
//! edge points forward. This invariant is what lets the dynamic timing
//! simulator ([`crate::TimingSim`]) process dirty cells in plain id order.

use crate::cell::CellKind;
use crate::error::NetlistError;

/// Identifier of a net (wire) in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// The raw index of this net.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a cell instance in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub(crate) u32);

impl CellId {
    /// The raw index of this cell.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A cell instance: a library gate with bound input nets and one output net.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    kind: CellKind,
    inputs: Vec<NetId>,
    output: NetId,
}

impl Cell {
    /// The library gate implementing this instance.
    #[must_use]
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// Input nets, in pin order.
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The net driven by this cell.
    #[must_use]
    pub fn output(&self) -> NetId {
        self.output
    }
}

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Driver {
    PrimaryInput,
    Cell(CellId),
}

/// An immutable combinational netlist over the [`CellKind`] library.
///
/// Construct with [`NetlistBuilder`]; query with the accessors here; analyze
/// with [`crate::StaticTiming`]; simulate with [`crate::TimingSim`].
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    name: String,
    cells: Vec<Cell>,
    drivers: Vec<Driver>,
    primary_inputs: Vec<NetId>,
    primary_outputs: Vec<NetId>,
    output_names: Vec<String>,
    input_names: Vec<String>,
    /// Fanout lists: `fanout[net] = cells consuming that net`, ascending ids.
    fanout: Vec<Vec<CellId>>,
    /// Per-cell propagation delay at Vdd = 1.0 V (intrinsic + load term).
    cell_delay_v1: Vec<f64>,
}

impl Netlist {
    /// Human-readable design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nets (primary inputs + cell outputs).
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.drivers.len()
    }

    /// Number of cell instances.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// All cells, in topological (creation) order.
    #[must_use]
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Looks up a cell by id.
    #[must_use]
    pub fn cell(&self, id: CellId) -> Option<&Cell> {
        self.cells.get(id.index())
    }

    /// Primary input nets, in declaration order.
    #[must_use]
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.primary_inputs
    }

    /// Primary output nets, in declaration order.
    #[must_use]
    pub fn primary_outputs(&self) -> &[NetId] {
        &self.primary_outputs
    }

    /// Name of the `i`-th primary input.
    #[must_use]
    pub fn input_name(&self, i: usize) -> Option<&str> {
        self.input_names.get(i).map(String::as_str)
    }

    /// Name of the `i`-th primary output.
    #[must_use]
    pub fn output_name(&self, i: usize) -> Option<&str> {
        self.output_names.get(i).map(String::as_str)
    }

    /// Cells consuming `net` (ascending cell id).
    ///
    /// Returns an empty slice for unknown nets.
    #[must_use]
    pub fn fanout_of(&self, net: NetId) -> &[CellId] {
        self.fanout
            .get(net.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The cell driving `net`, or `None` if `net` is a primary input or
    /// unknown.
    #[must_use]
    pub fn driver_of(&self, net: NetId) -> Option<CellId> {
        match self.drivers.get(net.index()) {
            Some(Driver::Cell(c)) => Some(*c),
            _ => None,
        }
    }

    /// Per-cell propagation delay at 1.0 V: intrinsic delay plus the load
    /// term for each fanout beyond the first.
    #[must_use]
    pub fn cell_delay_v1(&self, id: CellId) -> f64 {
        self.cell_delay_v1[id.index()]
    }

    /// All per-cell nominal delays at 1.0 V, cell id order — the library
    /// data callers fingerprint (e.g. the characterization cache key).
    #[must_use]
    pub fn cell_delays_v1(&self) -> &[f64] {
        &self.cell_delay_v1
    }

    /// Verifies the structural invariants a hand-built or deserialized
    /// netlist must satisfy: cell arities match their kinds, every
    /// referenced net exists, and every cell consumes only nets created
    /// before its own output — the topological-order property the
    /// simulator and STA rely on (its violation would be a combinational
    /// loop or a forward reference).
    ///
    /// Netlists from [`NetlistBuilder`] satisfy this by construction; call
    /// it after deserializing from untrusted data.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::ArityMismatch`] / [`NetlistError::UnknownNet`] for
    ///   malformed cells;
    /// * [`NetlistError::CombinationalLoop`] if a cell reads a net that is
    ///   not yet defined at its position;
    /// * [`NetlistError::NoOutputs`] if no primary output is declared.
    pub fn check_invariants(&self) -> Result<(), NetlistError> {
        if self.primary_outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }
        for &po in &self.primary_outputs {
            if po.index() >= self.drivers.len() {
                return Err(NetlistError::UnknownNet(po.0));
            }
        }
        for cell in &self.cells {
            if cell.inputs.len() != cell.kind.arity() {
                return Err(NetlistError::ArityMismatch {
                    kind: cell.kind.name(),
                    expected: cell.kind.arity(),
                    got: cell.inputs.len(),
                });
            }
            let out = cell.output.index();
            if out >= self.drivers.len() {
                return Err(NetlistError::UnknownNet(cell.output.0));
            }
            for &n in &cell.inputs {
                if n.index() >= self.drivers.len() {
                    return Err(NetlistError::UnknownNet(n.0));
                }
                // Inputs must precede the output in net-creation order;
                // equality or inversion means a loop / forward reference.
                if n.index() >= out {
                    return Err(NetlistError::CombinationalLoop);
                }
            }
        }
        Ok(())
    }

    /// Functionally evaluates the netlist for one input vector (no timing).
    ///
    /// This is the reference semantics used by equivalence tests; the timing
    /// simulator must agree with it cycle for cycle.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] if `inputs` does not have
    /// one value per primary input.
    pub fn evaluate(&self, inputs: &[bool]) -> Result<Vec<bool>, NetlistError> {
        if inputs.len() != self.primary_inputs.len() {
            return Err(NetlistError::InputWidthMismatch {
                expected: self.primary_inputs.len(),
                got: inputs.len(),
            });
        }
        let mut values = vec![false; self.net_count()];
        for (net, &v) in self.primary_inputs.iter().zip(inputs) {
            values[net.index()] = v;
        }
        let mut pin_buf: Vec<bool> = Vec::with_capacity(3);
        for cell in &self.cells {
            pin_buf.clear();
            pin_buf.extend(cell.inputs.iter().map(|n| values[n.index()]));
            values[cell.output.index()] = cell.kind.eval(&pin_buf);
        }
        Ok(self
            .primary_outputs
            .iter()
            .map(|n| values[n.index()])
            .collect())
    }
}

/// Incremental constructor for [`Netlist`].
///
/// The builder hands out [`NetId`]s; cells may only reference ids already
/// returned, which statically rules out combinational loops.
///
/// ```
/// use gatelib::{CellKind, NetlistBuilder};
/// # fn main() -> Result<(), gatelib::NetlistError> {
/// let mut b = NetlistBuilder::new("half_adder");
/// let a = b.input("a");
/// let c = b.input("b");
/// let sum = b.cell(CellKind::Xor2, &[a, c])?;
/// let carry = b.cell(CellKind::And2, &[a, c])?;
/// b.output(sum, "sum");
/// b.output(carry, "carry");
/// let n = b.finish()?;
/// assert_eq!(n.evaluate(&[true, true])?, vec![false, true]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    cells: Vec<Cell>,
    drivers: Vec<Driver>,
    primary_inputs: Vec<NetId>,
    primary_outputs: Vec<NetId>,
    output_names: Vec<String>,
    input_names: Vec<String>,
}

impl NetlistBuilder {
    /// Starts a new design with the given name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> NetlistBuilder {
        NetlistBuilder {
            name: name.into(),
            cells: Vec::new(),
            drivers: Vec::new(),
            primary_inputs: Vec::new(),
            primary_outputs: Vec::new(),
            output_names: Vec::new(),
            input_names: Vec::new(),
        }
    }

    fn new_net(&mut self, driver: Driver) -> NetId {
        let id = NetId(u32::try_from(self.drivers.len()).expect("netlist too large"));
        self.drivers.push(driver);
        id
    }

    /// Declares a primary input and returns its net.
    pub fn input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.new_net(Driver::PrimaryInput);
        self.primary_inputs.push(id);
        self.input_names.push(name.into());
        id
    }

    /// Declares a bus of `width` primary inputs named `name[0..width]`,
    /// least-significant bit first.
    pub fn input_bus(&mut self, name: &str, width: usize) -> Vec<NetId> {
        (0..width)
            .map(|i| self.input(format!("{name}[{i}]")))
            .collect()
    }

    /// Instantiates a cell and returns its output net.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::ArityMismatch`] if `inputs` has the wrong length.
    /// * [`NetlistError::UnknownNet`] if an input id was not issued by this
    ///   builder.
    pub fn cell(&mut self, kind: CellKind, inputs: &[NetId]) -> Result<NetId, NetlistError> {
        if inputs.len() != kind.arity() {
            return Err(NetlistError::ArityMismatch {
                kind: kind.name(),
                expected: kind.arity(),
                got: inputs.len(),
            });
        }
        for &n in inputs {
            if n.index() >= self.drivers.len() {
                return Err(NetlistError::UnknownNet(n.0));
            }
        }
        let cell_id = CellId(u32::try_from(self.cells.len()).expect("netlist too large"));
        let out = self.new_net(Driver::Cell(cell_id));
        self.cells.push(Cell {
            kind,
            inputs: inputs.to_vec(),
            output: out,
        });
        Ok(out)
    }

    /// Convenience: a constant-0 net (tie-low cell).
    ///
    /// # Errors
    ///
    /// Never fails in practice; shares the signature of [`Self::cell`].
    pub fn const0(&mut self) -> Result<NetId, NetlistError> {
        self.cell(CellKind::Tie0, &[])
    }

    /// Convenience: a constant-1 net (tie-high cell).
    ///
    /// # Errors
    ///
    /// Never fails in practice; shares the signature of [`Self::cell`].
    pub fn const1(&mut self) -> Result<NetId, NetlistError> {
        self.cell(CellKind::Tie1, &[])
    }

    /// Marks `net` as a primary output.
    pub fn output(&mut self, net: NetId, name: impl Into<String>) {
        self.primary_outputs.push(net);
        self.output_names.push(name.into());
    }

    /// Marks a whole bus as primary outputs named `name[0..]`, LSB first.
    pub fn output_bus(&mut self, nets: &[NetId], name: &str) {
        for (i, &n) in nets.iter().enumerate() {
            self.output(n, format!("{name}[{i}]"));
        }
    }

    /// Number of cells instantiated so far.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Validates and freezes the design.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::NoOutputs`] if no primary output was declared.
    /// * [`NetlistError::UnknownNet`] if an output id is invalid (cannot
    ///   happen through this API but checked for defense in depth).
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        if self.primary_outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }
        for &n in &self.primary_outputs {
            if n.index() >= self.drivers.len() {
                return Err(NetlistError::UnknownNet(n.0));
            }
        }
        // Fanout lists; ascending cell id is automatic (cells iterate in order).
        let mut fanout: Vec<Vec<CellId>> = vec![Vec::new(); self.drivers.len()];
        for (idx, cell) in self.cells.iter().enumerate() {
            for &n in &cell.inputs {
                let cid = CellId(u32::try_from(idx).expect("checked at cell creation"));
                // A cell may use the same net on two pins; record once per pin
                // (the load model counts pins, not nets).
                fanout[n.index()].push(cid);
            }
        }
        // Per-cell delay at 1.0 V: intrinsic + load * (fanout_pins - 1).
        let cell_delay_v1 = self
            .cells
            .iter()
            .map(|c| {
                let p = c.kind.params();
                let pins = fanout[c.output.index()].len();
                p.intrinsic_delay + p.load_delay * (pins.saturating_sub(1)) as f64
            })
            .collect();
        Ok(Netlist {
            name: self.name,
            cells: self.cells,
            drivers: self.drivers,
            primary_inputs: self.primary_inputs,
            primary_outputs: self.primary_outputs,
            output_names: self.output_names,
            input_names: self.input_names,
            fanout,
            cell_delay_v1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder() -> Netlist {
        let mut b = NetlistBuilder::new("fa");
        let a = b.input("a");
        let c = b.input("b");
        let cin = b.input("cin");
        let s = b.cell(CellKind::Xor3, &[a, c, cin]).expect("arity ok");
        let co = b.cell(CellKind::Maj3, &[a, c, cin]).expect("arity ok");
        b.output(s, "s");
        b.output(co, "co");
        b.finish().expect("valid netlist")
    }

    #[test]
    fn full_adder_truth_table() {
        let n = full_adder();
        for bits in 0u8..8 {
            let a = bits & 1 != 0;
            let b = bits & 2 != 0;
            let cin = bits & 4 != 0;
            let out = n.evaluate(&[a, b, cin]).expect("width ok");
            let expect_sum = a ^ b ^ cin;
            // Textbook majority form, kept as written in logic texts.
            #[allow(clippy::nonminimal_bool)]
            let expect_carry = (a && b) || (b && cin) || (a && cin);
            assert_eq!(out, vec![expect_sum, expect_carry], "inputs {bits:03b}");
        }
    }

    #[test]
    fn arity_is_enforced() {
        let mut b = NetlistBuilder::new("bad");
        let a = b.input("a");
        let err = b.cell(CellKind::Nand2, &[a]).expect_err("wrong arity");
        assert!(matches!(err, NetlistError::ArityMismatch { .. }));
    }

    #[test]
    fn unknown_net_rejected() {
        let mut b = NetlistBuilder::new("bad");
        let a = b.input("a");
        let bogus = NetId(42);
        let err = b.cell(CellKind::And2, &[a, bogus]).expect_err("bogus id");
        assert_eq!(err, NetlistError::UnknownNet(42));
    }

    #[test]
    fn outputs_required() {
        let mut b = NetlistBuilder::new("empty");
        let _ = b.input("a");
        assert_eq!(b.finish().expect_err("no outputs"), NetlistError::NoOutputs);
    }

    #[test]
    fn evaluate_checks_width() {
        let n = full_adder();
        assert!(matches!(
            n.evaluate(&[true]).expect_err("short vector"),
            NetlistError::InputWidthMismatch {
                expected: 3,
                got: 1
            }
        ));
    }

    #[test]
    fn fanout_and_driver_queries() {
        let n = full_adder();
        let a = n.primary_inputs()[0];
        // `a` feeds both the XOR3 and the MAJ3.
        assert_eq!(n.fanout_of(a).len(), 2);
        assert_eq!(n.driver_of(a), None);
        let s = n.primary_outputs()[0];
        assert_eq!(n.driver_of(s), Some(CellId(0)));
    }

    #[test]
    fn load_increases_delay() {
        // One inverter driving 1 load vs. driving 3 loads.
        let mut b = NetlistBuilder::new("load");
        let a = b.input("a");
        let inv = b.cell(CellKind::Inv, &[a]).expect("ok");
        let x1 = b.cell(CellKind::Buf, &[inv]).expect("ok");
        let x2 = b.cell(CellKind::Buf, &[inv]).expect("ok");
        let x3 = b.cell(CellKind::Buf, &[inv]).expect("ok");
        b.output(x1, "o1");
        b.output(x2, "o2");
        b.output(x3, "o3");
        let n = b.finish().expect("valid");
        let inv_delay = n.cell_delay_v1(CellId(0));
        let expected = 1.0 + 0.30 * 2.0; // intrinsic + 2 extra fanout pins
        assert!((inv_delay - expected).abs() < 1e-12);
    }

    #[test]
    fn constants_evaluate() {
        let mut b = NetlistBuilder::new("ties");
        let zero = b.const0().expect("ok");
        let one = b.const1().expect("ok");
        let x = b.cell(CellKind::Or2, &[zero, one]).expect("ok");
        b.output(x, "x");
        let n = b.finish().expect("valid");
        assert_eq!(n.evaluate(&[]).expect("no inputs"), vec![true]);
    }

    #[test]
    fn bus_helpers_are_lsb_first() {
        let mut b = NetlistBuilder::new("bus");
        let xs = b.input_bus("x", 4);
        assert_eq!(xs.len(), 4);
        b.output_bus(&xs, "y");
        let n = b.finish().expect("valid");
        assert_eq!(n.input_name(0), Some("x[0]"));
        assert_eq!(n.output_name(3), Some("y[3]"));
        assert_eq!(
            n.evaluate(&[true, false, false, true]).expect("ok"),
            vec![true, false, false, true]
        );
    }

    #[test]
    fn same_net_on_two_pins_counts_two_loads() {
        let mut b = NetlistBuilder::new("dup");
        let a = b.input("a");
        let x = b.cell(CellKind::Inv, &[a]).expect("ok");
        let y = b.cell(CellKind::And2, &[x, x]).expect("ok");
        b.output(y, "y");
        let n = b.finish().expect("valid");
        // The inverter output drives two pins of the AND.
        assert_eq!(
            n.fanout_of(n.cell(CellId(0)).expect("cell").output()).len(),
            2
        );
    }
}
