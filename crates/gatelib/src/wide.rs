//! 64-lane bit-parallel dynamic timing simulation.
//!
//! [`crate::TimingSim`] bit-packs 64 *nets* per machine word; this module
//! rotates that layout 90°: [`WideTimingSim`] keeps one `u64` **per net**,
//! whose 64 bits are 64 *independent* trace vectors ("lanes") marching
//! through the circuit together. Logic evaluation becomes one bitwise
//! [`CellKind::eval_word`] per visited cell instead of 64 scalar evals, and
//! all the event-driven bookkeeping — dirty-set maintenance, fanout
//! marking, topological cell visits, pin gathering — is paid once per cell
//! instead of once per cell *per lane*. Only the floating-point arrival
//! arithmetic remains per-lane: each toggled cell reads its inputs'
//! toggle masks once, and each input that toggled then folds its arrival
//! into only the lanes in which it and the output both toggled.
//!
//! A batch whose delays nobody reads — the seed vector that sets up the
//! state a recorded transition starts from — can be applied with
//! [`WideTimingSim::settle`] instead of [`WideTimingSim::step`]: one full
//! logic sweep, with no arrival arithmetic at all and nothing added to the
//! lanes' toggle and energy totals.
//!
//! Lanes are perfectly isolated: under the settled single-transition delay
//! model the circuit state after a vector is a pure function of that
//! vector, so lane `l` of a [`WideTimingSim`] is **bit-identical** — same
//! delays, same toggle counts, same switching energy, same outputs — to a
//! scalar [`crate::TimingSim`] stepped through lane `l`'s vector sequence
//! alone (property-tested in `tests/bitparallel_sim.rs`). A lane that
//! re-applies its previous vector toggles nothing and costs nothing, which
//! is how callers idle lanes in ragged final batches of fewer than 64
//! vectors.
//!
//! The simulator borrows its netlist (no clone per construction): it is a
//! short-lived engine the characterization pipeline instantiates per
//! delay-trace batch, not a long-lived state machine.

use crate::error::NetlistError;
use crate::netlist::{NetId, Netlist};
use crate::voltage::Voltage;

/// Number of independent trace vectors one [`WideTimingSim`] advances per
/// step — the machine word width.
pub const LANES: usize = 64;

/// Outcome of applying one 64-lane input batch to a [`WideTimingSim`]:
/// per-lane sensitized delays and toggle counts, exactly what
/// [`crate::Step`] reports for one lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WideStep {
    /// Per-lane sensitized path delay (see [`crate::Transition::delay`]).
    pub delays: [f64; LANES],
    /// Per-lane count of nets that toggled during this transition.
    pub toggles: [u32; LANES],
}

/// Event-driven timing simulator evaluating 64 independent trace vectors
/// per machine word. See the [module docs](self) for the layout and the
/// lane-isolation guarantee.
#[derive(Debug)]
pub struct WideTimingSim<'n> {
    netlist: &'n Netlist,
    voltage: Voltage,
    /// Per-cell propagation delay at the simulation voltage.
    delay: Vec<f64>,
    /// Per-net lane values: bit `l` of `values[net]` is net's value in
    /// lane `l`.
    values: Vec<u64>,
    /// Per-(net, lane) arrival time, lane-minor (`net * 64 + lane`);
    /// meaningful when `net_stamp[net] == cycle` and the lane's bit is set
    /// in `changed[net]`.
    arrival: Vec<f64>,
    /// Lanes in which the net toggled this cycle (valid when
    /// `net_stamp[net] == cycle`).
    changed: Vec<u64>,
    /// Cycle at which the net last toggled in any lane.
    net_stamp: Vec<u64>,
    /// Reusable dirty set, stamped like [`crate::TimingSim`]'s.
    cell_stamp: Vec<u64>,
    dirty_lo: usize,
    dirty_hi: usize,
    cycle: u64,
    initialized: bool,
    total_toggles: [u64; LANES],
    total_switch_energy: [f64; LANES],
}

impl<'n> WideTimingSim<'n> {
    /// Creates a 64-lane simulator for `netlist` at supply voltage
    /// `voltage`.
    ///
    /// # Errors
    ///
    /// Returns any [`NetlistError`] from [`Netlist::check_invariants`].
    pub fn new(netlist: &'n Netlist, voltage: Voltage) -> Result<WideTimingSim<'n>, NetlistError> {
        let scale = voltage.delay_scale();
        let delay = netlist.cell_delays_v1().iter().map(|d| d * scale).collect();
        WideTimingSim::with_delays(netlist, voltage, delay)
    }

    /// Creates a simulator whose per-cell delays carry the multiplicative
    /// factors of a specific die instance — the 64-lane analogue of
    /// [`crate::TimingSim::with_factors`].
    ///
    /// # Errors
    ///
    /// As [`WideTimingSim::new`], plus
    /// [`NetlistError::FactorCountMismatch`] if `factors` does not cover
    /// exactly the netlist's cells.
    pub fn with_factors(
        netlist: &'n Netlist,
        voltage: Voltage,
        factors: &crate::variation::DelayFactors,
    ) -> Result<WideTimingSim<'n>, NetlistError> {
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
        WideTimingSim::with_delays(netlist, voltage, delay)
    }

    fn with_delays(
        netlist: &'n Netlist,
        voltage: Voltage,
        delay: Vec<f64>,
    ) -> Result<WideTimingSim<'n>, NetlistError> {
        netlist.check_invariants()?;
        Ok(WideTimingSim {
            voltage,
            delay,
            values: vec![0; netlist.net_count()],
            arrival: vec![0.0; netlist.net_count() * LANES],
            changed: vec![0; netlist.net_count()],
            net_stamp: vec![0; netlist.net_count()],
            cell_stamp: vec![0; netlist.cell_count()],
            dirty_lo: 0,
            dirty_hi: 0,
            cycle: 0,
            initialized: false,
            total_toggles: [0; LANES],
            total_switch_energy: [0.0; LANES],
            netlist,
        })
    }

    /// The netlist being simulated.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Current supply voltage.
    #[must_use]
    pub fn voltage(&self) -> Voltage {
        self.voltage
    }

    /// Cumulative net toggles of one lane over its [`Self::step`]s since
    /// construction ([`Self::settle`] adds nothing).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= LANES`.
    #[must_use]
    pub fn total_toggles(&self, lane: usize) -> u64 {
        check_lane(lane);
        self.total_toggles[lane]
    }

    /// Cumulative normalized switching energy of one lane over its
    /// [`Self::step`]s since construction ([`Self::settle`] adds nothing).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= LANES`.
    #[must_use]
    pub fn total_switch_energy(&self, lane: usize) -> f64 {
        check_lane(lane);
        self.total_switch_energy[lane]
    }

    #[inline]
    fn lane_bit(&self, net: usize, lane: usize) -> bool {
        (self.values[net] >> lane) & 1 == 1
    }

    /// One lane's current primary output values, in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= LANES`.
    #[must_use]
    pub fn outputs_lane(&self, lane: usize) -> Vec<bool> {
        check_lane(lane);
        self.netlist
            .primary_outputs()
            .iter()
            .map(|n| self.lane_bit(n.index(), lane))
            .collect()
    }

    /// Packs up to 64 primary outputs of one lane into a word, output 0 in
    /// bit 0 — the per-lane form of [`crate::TimingSim::output_word`].
    ///
    /// # Panics
    ///
    /// Panics if `lane >= LANES`.
    #[must_use]
    pub fn output_word(&self, lane: usize) -> u64 {
        check_lane(lane);
        self.netlist
            .primary_outputs()
            .iter()
            .take(64)
            .enumerate()
            .fold(0u64, |acc, (i, n)| {
                acc | u64::from(self.lane_bit(n.index(), lane)) << i
            })
    }

    /// Applies one input batch for its logic values only: every lane's
    /// nets settle to the values `inputs` (laid out as for [`Self::step`])
    /// drive, exactly as after a `step` of the same batch, but no delay is
    /// computed. It adds nothing to the per-lane toggle and energy totals
    /// ([`Self::total_toggles`], [`Self::total_switch_energy`]).
    ///
    /// The delay [`Self::step`] reports for a transition depends only on
    /// the vector it starts from and the one it applies, so a batch whose
    /// delays would be thrown away can settle instead, and the next `step`
    /// reports exactly what it would have after stepping that batch.
    /// Settling costs one full logic sweep, like the first `step`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] if `inputs` does not
    /// supply one word per primary input.
    pub fn settle(&mut self, inputs: &[u64]) -> Result<(), NetlistError> {
        self.check_width(inputs)?;
        self.settle_words(inputs);
        Ok(())
    }

    /// Applies one input batch: `inputs[i]` carries primary input `i`'s
    /// value for all 64 lanes (bit `l` = lane `l`). The first call
    /// initializes every lane's electrical state (as [`Self::settle`]
    /// does) and reports zero delay and zero toggles, like
    /// [`crate::TimingSim::step`]'s first call.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] if `inputs` does not
    /// supply one word per primary input.
    pub fn step(&mut self, inputs: &[u64]) -> Result<WideStep, NetlistError> {
        self.check_width(inputs)?;
        if !self.initialized {
            self.settle_words(inputs);
            return Ok(WideStep {
                delays: [0.0; LANES],
                toggles: [0; LANES],
            });
        }
        let n_pi = inputs.len();

        self.cycle += 1;
        let cycle = self.cycle;
        let energy_scale = self.voltage.energy_scale();
        let mut toggles = [0u32; LANES];
        self.dirty_lo = usize::MAX;
        self.dirty_hi = 0;

        // Stage 1: primary input transitions, per lane.
        for i in 0..n_pi {
            let pi = self.netlist.primary_inputs()[i].index();
            let diff = self.values[pi] ^ inputs[i];
            if diff != 0 {
                self.values[pi] = inputs[i];
                self.changed[pi] = diff;
                self.net_stamp[pi] = cycle;
                for lane in lanes_of(diff) {
                    self.arrival[pi * LANES + lane] = 0.0;
                    toggles[lane] += 1;
                }
                self.mark_fanout(pi, cycle);
            }
        }

        // Stage 2: sweep dirty cells in id order (a topological order).
        // A cell is dirty when any lane of any input toggled; its output
        // can only toggle in lanes where an input toggled, so the bitwise
        // diff below is exact per lane.
        if self.dirty_lo != usize::MAX {
            let mut pins: [u64; 3] = [0; 3];
            let mut idx = self.dirty_lo;
            while idx <= self.dirty_hi {
                if self.cell_stamp[idx] == cycle {
                    let cell = &self.netlist.cells()[idx];
                    let n_in = cell.inputs().len();
                    for (slot, n) in pins.iter_mut().zip(cell.inputs()) {
                        *slot = self.values[n.index()];
                    }
                    let new_word = cell.kind().eval_word(&pins[..n_in]);
                    let out = cell.output().index();
                    let diff = new_word ^ self.values[out];
                    if diff != 0 {
                        let switch_energy = cell.kind().params().switch_energy * energy_scale;
                        let cell_delay = self.delay[idx];
                        // The inputs that toggled this cycle in a lane where
                        // the output toggles too, as (offset of the input's
                        // lane arrivals, those lanes): read once per cell.
                        let mut sources: [(usize, u64); 3] = [(0, 0); 3];
                        let mut n_sources = 0;
                        for n in cell.inputs() {
                            let net = n.index();
                            let mask = if self.net_stamp[net] == cycle {
                                self.changed[net] & diff
                            } else {
                                0
                            };
                            if mask != 0 {
                                sources[n_sources] = (net * LANES, mask);
                                n_sources += 1;
                            }
                        }
                        self.values[out] = new_word;
                        self.changed[out] = diff;
                        self.net_stamp[out] = cycle;
                        // Arrival = gate delay + latest *changed* input of
                        // the lane, folded from 0.0 in input order like the
                        // scalar sweep, each input visiting only its lanes.
                        let out_base = out * LANES;
                        for lane in lanes_of(diff) {
                            self.arrival[out_base + lane] = 0.0;
                        }
                        for &(base, mask) in &sources[..n_sources] {
                            for lane in lanes_of(mask) {
                                let arrival = self.arrival[base + lane];
                                let worst_in = &mut self.arrival[out_base + lane];
                                *worst_in = worst_in.max(arrival);
                            }
                        }
                        for lane in lanes_of(diff) {
                            self.arrival[out_base + lane] += cell_delay;
                            toggles[lane] += 1;
                            self.total_switch_energy[lane] += switch_energy;
                        }
                        self.mark_fanout(out, cycle);
                    }
                }
                idx += 1;
            }
        }
        for lane in 0..LANES {
            self.total_toggles[lane] += u64::from(toggles[lane]);
        }

        // Stage 3: per lane, delay = latest-settling changed primary
        // output (same fold order as the scalar sweep).
        let mut delays = [0.0f64; LANES];
        for n in self.netlist.primary_outputs() {
            let net = n.index();
            if self.net_stamp[net] != cycle {
                continue;
            }
            for lane in lanes_of(self.changed[net]) {
                delays[lane] = delays[lane].max(self.arrival[net * LANES + lane]);
            }
        }

        Ok(WideStep { delays, toggles })
    }

    #[inline]
    fn mark_fanout(&mut self, net: usize, cycle: u64) {
        for &cid in self.netlist.fanout_of(NetId(net as u32)) {
            let idx = cid.index();
            if self.cell_stamp[idx] != cycle {
                self.cell_stamp[idx] = cycle;
                self.dirty_lo = self.dirty_lo.min(idx);
                self.dirty_hi = self.dirty_hi.max(idx);
            }
        }
    }

    fn check_width(&self, inputs: &[u64]) -> Result<(), NetlistError> {
        let n_pi = self.netlist.primary_inputs().len();
        if inputs.len() == n_pi {
            Ok(())
        } else {
            Err(NetlistError::InputWidthMismatch {
                expected: n_pi,
                got: inputs.len(),
            })
        }
    }

    /// Drives the primary inputs and re-evaluates every cell in id (a
    /// topological) order: values only, no arrivals, stamps or totals.
    fn settle_words(&mut self, inputs: &[u64]) {
        for (pi, &word) in self.netlist.primary_inputs().iter().zip(inputs) {
            self.values[pi.index()] = word;
        }
        let mut pins: [u64; 3] = [0; 3];
        for idx in 0..self.netlist.cell_count() {
            let cell = &self.netlist.cells()[idx];
            let n_in = cell.inputs().len();
            for (slot, n) in pins.iter_mut().zip(cell.inputs()) {
                *slot = self.values[n.index()];
            }
            self.values[cell.output().index()] = cell.kind().eval_word(&pins[..n_in]);
        }
        self.initialized = true;
    }
}

/// The lanes whose bits are set in `mask`, lowest first.
#[inline]
fn lanes_of(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// Rejects a lane index past the word, which a shift would otherwise
/// silently wrap to a low lane.
#[track_caller]
fn check_lane(lane: usize) {
    assert!(
        lane < LANES,
        "lane {lane} is out of range: a WideTimingSim has {LANES} lanes"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use crate::netlist::NetlistBuilder;
    use crate::sim::TimingSim;

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

    /// Deterministic per-lane vector streams: lane `l`, step `t`.
    fn lane_vector(n_pi: usize, lane: usize, t: usize) -> Vec<bool> {
        let mut state = (lane as u64 + 1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(t as u64);
        (0..n_pi)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 63 == 1
            })
            .collect()
    }

    #[test]
    fn every_lane_matches_an_independent_scalar_sim() {
        let n = ripple_adder(5);
        let n_pi = n.primary_inputs().len();
        let mut wide = WideTimingSim::new(&n, Voltage::NOMINAL).expect("wide");
        let mut scalars: Vec<TimingSim> = (0..LANES)
            .map(|_| TimingSim::new(&n, Voltage::NOMINAL).expect("scalar"))
            .collect();
        for t in 0..40 {
            let mut words = vec![0u64; n_pi];
            let mut lane_inputs = Vec::new();
            for lane in 0..LANES {
                let v = lane_vector(n_pi, lane, t);
                for (i, &bit) in v.iter().enumerate() {
                    if bit {
                        words[i] |= 1 << lane;
                    }
                }
                lane_inputs.push(v);
            }
            let ws = wide.step(&words).expect("wide step");
            for (lane, inputs) in lane_inputs.iter().enumerate() {
                let ss = scalars[lane].step(inputs).expect("scalar step");
                assert_eq!(
                    ws.delays[lane].to_bits(),
                    ss.delay.to_bits(),
                    "delay, lane {lane} step {t}"
                );
                assert_eq!(
                    ws.toggles[lane], ss.toggles,
                    "toggles, lane {lane} step {t}"
                );
                assert_eq!(
                    wide.output_word(lane),
                    scalars[lane].output_word(),
                    "outputs, lane {lane} step {t}"
                );
            }
        }
        for lane in 0..LANES {
            assert_eq!(wide.total_toggles(lane), scalars[lane].total_toggles());
            assert_eq!(
                wide.total_switch_energy(lane).to_bits(),
                scalars[lane].total_switch_energy().to_bits(),
                "energy, lane {lane}"
            );
        }
    }

    #[test]
    fn idle_lane_repeating_its_vector_costs_nothing() {
        let n = ripple_adder(4);
        let n_pi = n.primary_inputs().len();
        let mut wide = WideTimingSim::new(&n, Voltage::NOMINAL).expect("wide");
        // Lane 0 active, lane 1 idle after initialization.
        let v0 = lane_vector(n_pi, 0, 0);
        let v1 = lane_vector(n_pi, 1, 0);
        let pack = |a: &[bool], b: &[bool]| -> Vec<u64> {
            a.iter()
                .zip(b)
                .map(|(&x, &y)| u64::from(x) | (u64::from(y) << 1))
                .collect()
        };
        wide.step(&pack(&v0, &v1)).expect("init");
        for t in 1..10 {
            let ws = wide
                .step(&pack(&lane_vector(n_pi, 0, t), &v1))
                .expect("step");
            assert_eq!(ws.delays[1], 0.0, "idle lane has no delay");
            assert_eq!(ws.toggles[1], 0, "idle lane toggles nothing");
        }
        assert_eq!(wide.total_toggles(1), 0);
        assert_eq!(wide.total_switch_energy(1), 0.0);
    }

    #[test]
    fn width_mismatch_rejected() {
        let n = ripple_adder(4);
        let mut wide = WideTimingSim::new(&n, Voltage::NOMINAL).expect("wide");
        assert!(matches!(
            wide.step(&[0u64, 1]).expect_err("short"),
            NetlistError::InputWidthMismatch { .. }
        ));
    }

    #[test]
    fn settle_width_mismatch_rejected() {
        let n = ripple_adder(4);
        let mut wide = WideTimingSim::new(&n, Voltage::NOMINAL).expect("wide");
        assert!(matches!(
            wide.settle(&[0u64, 1]).expect_err("short"),
            NetlistError::InputWidthMismatch { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "lane 64 is out of range")]
    fn output_word_rejects_lane_past_the_word() {
        let n = ripple_adder(4);
        let _ = WideTimingSim::new(&n, Voltage::NOMINAL)
            .expect("wide")
            .output_word(LANES);
    }

    #[test]
    #[should_panic(expected = "lane 64 is out of range")]
    fn outputs_lane_rejects_lane_past_the_word() {
        let n = ripple_adder(4);
        let _ = WideTimingSim::new(&n, Voltage::NOMINAL)
            .expect("wide")
            .outputs_lane(LANES);
    }

    #[test]
    #[should_panic(expected = "lane 64 is out of range")]
    fn total_toggles_rejects_lane_past_the_word() {
        let n = ripple_adder(4);
        let _ = WideTimingSim::new(&n, Voltage::NOMINAL)
            .expect("wide")
            .total_toggles(LANES);
    }

    #[test]
    #[should_panic(expected = "lane 64 is out of range")]
    fn total_switch_energy_rejects_lane_past_the_word() {
        let n = ripple_adder(4);
        let _ = WideTimingSim::new(&n, Voltage::NOMINAL)
            .expect("wide")
            .total_switch_energy(LANES);
    }

    #[test]
    fn die_factors_match_scalar_with_factors() {
        let n = ripple_adder(4);
        let n_pi = n.primary_inputs().len();
        let aging = crate::variation::AgingModel::nbti_ptm22();
        let f = aging.factors(n.cell_count(), 5.0, None).expect("factors");
        let mut wide = WideTimingSim::with_factors(&n, Voltage::NOMINAL, &f).expect("wide");
        let mut scalar = TimingSim::with_factors(&n, Voltage::NOMINAL, &f).expect("scalar");
        for t in 0..20 {
            let v = lane_vector(n_pi, 7, t);
            let words: Vec<u64> = v.iter().map(|&b| u64::from(b)).collect();
            let ws = wide.step(&words).expect("wide");
            let ss = scalar.step(&v).expect("scalar");
            assert_eq!(ws.delays[0].to_bits(), ss.delay.to_bits(), "step {t}");
        }
    }
}
