//! Event-driven dynamic timing simulation.
//!
//! [`TimingSim`] replays cycle-by-cycle input vectors against a netlist and
//! reports, for every vector, the **sensitized path delay**: the time at
//! which the last primary output settles, under the single-transition
//! (glitch-free) delay model the paper's cross-layer flow uses. A timing
//! error occurs at clock period `t_clk` exactly when this delay exceeds
//! `t_clk` — the event a Razor flip-flop would catch.
//!
//! The simulator is incremental: only cells downstream of changed nets are
//! re-evaluated. Because [`crate::NetlistBuilder`] guarantees that cell ids
//! are a topological order, processing dirty cells in ascending id order
//! evaluates every cell at most once per cycle with all inputs settled.
//!
//! The inner loop is allocation-free: net values live in a bit-packed word
//! array, the dirty set is a reused bitset consumed in ascending cell-id
//! order, and [`TimingSim::step`] returns only the delay. Callers that
//! check logic read the outputs afterwards with [`TimingSim::outputs`] or
//! [`TimingSim::output_word`].

use crate::error::NetlistError;
use crate::netlist::Netlist;
use crate::voltage::Voltage;

/// Event-driven timing simulator bound to one netlist and voltage.
///
/// The first [`TimingSim::step`] establishes the electrical state and
/// reports zero delay; every subsequent call reports the sensitized delay of
/// the transition from the previous vector — matching how the paper derives
/// per-instruction delays from consecutive pipeline input vectors.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug, Clone)]
pub struct TimingSim {
    netlist: Netlist,
    /// Per-cell propagation delay at the simulation voltage.
    delay: Vec<f64>,
    /// Per-net logic value, bit-packed (net `i` → word `i / 64`, bit
    /// `i % 64`).
    values: Vec<u64>,
    /// Per-net arrival time, meaningful when `net_stamp[net] == cycle`.
    arrival: Vec<f64>,
    /// Cycle at which the net last toggled.
    net_stamp: Vec<u64>,
    /// Reusable dirty set: cell is dirty this cycle iff
    /// `cell_stamp[cell] == cycle`. Stamping makes clearing free (no
    /// per-cycle reset) and marking idempotent without a read-modify-write.
    cell_stamp: Vec<u64>,
    /// First and last dirty cell id of the current cycle (scan window).
    dirty_lo: usize,
    dirty_hi: usize,
    cycle: u64,
    initialized: bool,
}

impl TimingSim {
    /// Creates a simulator for `netlist` at supply voltage `voltage`.
    ///
    /// The netlist is cloned so the simulator is self-contained and `Send`.
    ///
    /// # Errors
    ///
    /// Returns any [`NetlistError`] from
    /// [`Netlist::check_invariants`] — in particular
    /// [`NetlistError::NoOutputs`] when there is nothing to time.
    pub fn new(netlist: &Netlist, voltage: Voltage) -> Result<TimingSim, NetlistError> {
        let scale = voltage.delay_scale();
        let delay = netlist.cell_delays_v1().iter().map(|d| d * scale).collect();
        TimingSim::with_delays(netlist, delay)
    }

    /// Creates a simulator whose per-cell delays carry the multiplicative
    /// factors of a specific die instance (process variation and/or aging
    /// from [`crate::variation`]).
    ///
    /// # Errors
    ///
    /// As [`TimingSim::new`], plus [`NetlistError::FactorCountMismatch`]
    /// if `factors` does not cover exactly the netlist's cells.
    pub fn with_factors(
        netlist: &Netlist,
        voltage: Voltage,
        factors: &crate::variation::DelayFactors,
    ) -> Result<TimingSim, NetlistError> {
        if factors.len() != netlist.cell_count() {
            return Err(NetlistError::FactorCountMismatch {
                expected: netlist.cell_count(),
                got: factors.len(),
            });
        }
        let scale = voltage.delay_scale();
        let delay = netlist
            .cell_delays_v1()
            .iter()
            .zip(factors.as_slice())
            .map(|(d, f)| d * scale * f)
            .collect();
        TimingSim::with_delays(netlist, delay)
    }

    fn with_delays(netlist: &Netlist, delay: Vec<f64>) -> Result<TimingSim, NetlistError> {
        netlist.check_invariants()?;
        Ok(TimingSim {
            delay,
            values: vec![0; netlist.net_count().div_ceil(64).max(1)],
            arrival: vec![0.0; netlist.net_count()],
            net_stamp: vec![0; netlist.net_count()],
            cell_stamp: vec![0; netlist.cell_count()],
            dirty_lo: 0,
            dirty_hi: 0,
            cycle: 0,
            initialized: false,
            netlist: netlist.clone(),
        })
    }

    #[inline]
    fn value(&self, net: usize) -> bool {
        (self.values[net >> 6] >> (net & 63)) & 1 == 1
    }

    #[inline]
    fn flip_value(&mut self, net: usize) {
        self.values[net >> 6] ^= 1 << (net & 63);
    }

    /// Current primary output values, in declaration order.
    #[must_use]
    pub fn outputs(&self) -> Vec<bool> {
        self.netlist
            .primary_outputs()
            .iter()
            .map(|n| self.value(n.index()))
            .collect()
    }

    /// Packs up to 64 primary outputs into a word, output 0 in bit 0 —
    /// the allocation-free form of [`TimingSim::outputs`].
    #[must_use]
    pub fn output_word(&self) -> u64 {
        self.netlist
            .primary_outputs()
            .iter()
            .take(64)
            .enumerate()
            .fold(0u64, |acc, (i, n)| {
                acc | u64::from(self.value(n.index())) << i
            })
    }

    /// Applies one input vector and returns the transition's sensitized
    /// path delay: when the last primary output settled, in normalized
    /// delay units at the simulation voltage, or `0.0` if no output
    /// toggled (the vector cannot cause a timing error).
    ///
    /// The first call initializes state and reports `0.0`. No call
    /// allocates.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] if `inputs` does not
    /// supply one value per primary input.
    pub fn step(&mut self, inputs: &[bool]) -> Result<f64, NetlistError> {
        let n_pi = self.netlist.primary_inputs().len();
        if inputs.len() != n_pi {
            return Err(NetlistError::InputWidthMismatch {
                expected: n_pi,
                got: inputs.len(),
            });
        }
        if !self.initialized {
            self.initialize(inputs);
            return Ok(0.0);
        }

        self.cycle += 1;
        let cycle = self.cycle;
        self.dirty_lo = usize::MAX;
        self.dirty_hi = 0;

        // Stage 1: primary input transitions.
        for i in 0..n_pi {
            let pi = self.netlist.primary_inputs()[i].index();
            if self.value(pi) != inputs[i] {
                self.flip_value(pi);
                self.arrival[pi] = 0.0;
                self.net_stamp[pi] = cycle;
                self.mark_fanout(pi, cycle);
            }
        }

        // Stage 2: sweep dirty cells in id order — cell ids are a
        // topological order, so by the time a cell is visited all its
        // drivers have settled, and newly dirtied cells always lie ahead.
        if self.dirty_lo != usize::MAX {
            let mut pins: [bool; 3] = [false; 3];
            let mut idx = self.dirty_lo;
            // `dirty_hi` can grow while the sweep runs (fanout marking);
            // re-read it every iteration.
            while idx <= self.dirty_hi {
                if self.cell_stamp[idx] == cycle {
                    let cell = &self.netlist.cells()[idx];
                    let n_in = cell.inputs().len();
                    for (slot, n) in pins.iter_mut().zip(cell.inputs()) {
                        *slot = self.value(n.index());
                    }
                    let new_val = cell.kind().eval(&pins[..n_in]);
                    let out = cell.output().index();
                    if new_val != self.value(out) {
                        // Arrival = gate delay + latest *changed* input.
                        let worst_in = cell
                            .inputs()
                            .iter()
                            .filter(|n| self.net_stamp[n.index()] == cycle)
                            .map(|n| self.arrival[n.index()])
                            .fold(0.0f64, f64::max);
                        self.flip_value(out);
                        self.arrival[out] = worst_in + self.delay[idx];
                        self.net_stamp[out] = cycle;
                        self.mark_fanout(out, cycle);
                    }
                }
                idx += 1;
            }
        }

        // Stage 3: delay = latest-settling changed primary output.
        Ok(self
            .netlist
            .primary_outputs()
            .iter()
            .filter(|n| self.net_stamp[n.index()] == cycle)
            .map(|n| self.arrival[n.index()])
            .fold(0.0f64, f64::max))
    }

    #[inline]
    fn mark_fanout(&mut self, net: usize, cycle: u64) {
        for &cid in self.netlist.fanout_of(crate::netlist::NetId(net as u32)) {
            let idx = cid.index();
            if self.cell_stamp[idx] != cycle {
                self.cell_stamp[idx] = cycle;
                self.dirty_lo = self.dirty_lo.min(idx);
                self.dirty_hi = self.dirty_hi.max(idx);
            }
        }
    }

    fn initialize(&mut self, inputs: &[bool]) {
        for i in 0..inputs.len() {
            let pi = self.netlist.primary_inputs()[i].index();
            if self.value(pi) != inputs[i] {
                self.flip_value(pi);
            }
        }
        let mut pins: [bool; 3] = [false; 3];
        for idx in 0..self.netlist.cell_count() {
            let cell = &self.netlist.cells()[idx];
            let n_in = cell.inputs().len();
            for (slot, n) in pins.iter_mut().zip(cell.inputs()) {
                *slot = self.value(n.index());
            }
            let v = cell.kind().eval(&pins[..n_in]);
            let out = cell.output().index();
            if self.value(out) != v {
                self.flip_value(out);
            }
        }
        self.initialized = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use crate::netlist::NetlistBuilder;
    use crate::sta::StaticTiming;

    fn ripple_adder(bits: usize) -> Netlist {
        let mut b = NetlistBuilder::new("rca");
        let a = b.input_bus("a", bits);
        let x = b.input_bus("b", bits);
        let mut carry = b.const0().expect("ok");
        let mut sums = Vec::new();
        for i in 0..bits {
            let s = b.cell(CellKind::Xor3, &[a[i], x[i], carry]).expect("ok");
            carry = b.cell(CellKind::Maj3, &[a[i], x[i], carry]).expect("ok");
            sums.push(s);
        }
        b.output_bus(&sums, "s");
        b.output(carry, "cout");
        b.finish().expect("valid")
    }

    fn adder_inputs(bits: usize, a: u64, b: u64) -> Vec<bool> {
        let mut v = Vec::with_capacity(bits * 2);
        for i in 0..bits {
            v.push((a >> i) & 1 == 1);
        }
        for i in 0..bits {
            v.push((b >> i) & 1 == 1);
        }
        v
    }

    #[test]
    fn first_step_and_a_repeated_vector_report_zero_delay() {
        let n = ripple_adder(4);
        let mut sim = TimingSim::new(&n, Voltage::NOMINAL).expect("sim");
        assert_eq!(sim.step(&adder_inputs(4, 5, 9)).expect("step"), 0.0);
        assert_eq!(sim.output_word() & 0xF, (5 + 9) & 0xF);
        sim.step(&adder_inputs(4, 3, 4)).expect("step");
        let before = sim.outputs();
        // Re-applying the same vector toggles nothing: no delay.
        assert_eq!(sim.step(&adder_inputs(4, 3, 4)).expect("step"), 0.0);
        assert_eq!(sim.outputs(), before);
    }

    #[test]
    fn functional_agreement_with_reference_eval() {
        let n = ripple_adder(6);
        let mut sim = TimingSim::new(&n, Voltage::NOMINAL).expect("sim");
        let mut state: u64 = 0x2F;
        for step in 0..200u64 {
            // Cheap LCG for deterministic pseudo-random vectors.
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = state & 0x3F;
            let b = (state >> 6) & 0x3F;
            let inputs = adder_inputs(6, a, b);
            sim.step(&inputs).expect("step");
            let reference = n.evaluate(&inputs).expect("eval");
            assert_eq!(sim.outputs(), reference, "divergence at step {step}");
            let sum = (a + b) & 0x7F;
            assert_eq!(sim.output_word() & 0x7F, sum, "bad sum at step {step}");
        }
    }

    #[test]
    fn long_carry_is_slower_than_short_carry() {
        let n = ripple_adder(8);
        let mut sim = TimingSim::new(&n, Voltage::NOMINAL).expect("sim");
        sim.step(&adder_inputs(8, 0, 0)).expect("init");
        // 0xFF + 1 ripples the carry through all 8 positions.
        let long = sim.step(&adder_inputs(8, 0xFF, 1)).expect("step");
        sim.step(&adder_inputs(8, 0, 0)).expect("reset");
        // 1 + 1 only disturbs the low bits.
        let short = sim.step(&adder_inputs(8, 1, 1)).expect("step");
        assert!(
            long > short * 2.0,
            "carry ripple must dominate: long={long}, short={short}"
        );
    }

    #[test]
    fn dynamic_delay_bounded_by_sta() {
        let n = ripple_adder(8);
        let sta = StaticTiming::analyze(&n, Voltage::NOMINAL).expect("sta");
        let bound = sta.nominal_period() + 1e-9;
        let mut sim = TimingSim::new(&n, Voltage::NOMINAL).expect("sim");
        let mut state: u64 = 7;
        for _ in 0..500 {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            let delay = sim
                .step(&adder_inputs(8, state & 0xFF, (state >> 8) & 0xFF))
                .expect("step");
            assert!(delay <= bound, "dynamic {delay} exceeds STA {bound}");
        }
    }

    #[test]
    fn voltage_scales_dynamic_delay() {
        let n = ripple_adder(8);
        let worst = adder_inputs(8, 0xFF, 1);
        let zero = adder_inputs(8, 0, 0);

        let mut hi = TimingSim::new(&n, Voltage::NOMINAL).expect("sim");
        hi.step(&zero).expect("init");
        let d_hi = hi.step(&worst).expect("step");

        let mut lo = TimingSim::new(&n, Voltage::new(0.72).expect("ok")).expect("sim");
        lo.step(&zero).expect("init");
        let d_lo = lo.step(&worst).expect("step");

        let ratio = d_lo / d_hi;
        assert!(
            (ratio - 1.63).abs() < 1e-9,
            "0.72 V multiplier, got {ratio}"
        );
    }

    #[test]
    fn width_mismatch_rejected() {
        let n = ripple_adder(4);
        let mut sim = TimingSim::new(&n, Voltage::NOMINAL).expect("sim");
        assert!(matches!(
            sim.step(&[true, false]).expect_err("short"),
            NetlistError::InputWidthMismatch { .. }
        ));
    }
}
