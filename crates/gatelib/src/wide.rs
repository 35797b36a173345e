//! 64-lane bit-parallel dynamic timing simulation.
//!
//! [`crate::TimingSim`] bit-packs 64 *nets* per machine word; this module
//! rotates that layout 90°: [`WideTimingSim`] keeps one `u64` **per net**,
//! whose 64 bits are 64 *independent* trace vectors ("lanes") marching
//! through the circuit together. Logic evaluation becomes one bitwise
//! [`CellKind::eval_word`](crate::CellKind::eval_word) per cell instead of
//! 64 scalar evals.
//!
//! A step is one levelized sweep, not an event-driven one: every cell in
//! id (a topological) order, every net's value and toggle mask rewritten.
//! Across 64 lanes little is quiet: averaged over each of the paper's six
//! figure pairs, 39–100% of the cells have an input that toggles in some
//! lane of a timed step, and a cell that toggles does so in 8.5–20 of its
//! 64 lanes. A dirty set would mark nearly every cell, and per-lane bit
//! loops over sparse toggle masks would cost most of the step. Instead a
//! toggled cell folds the whole 64-lane arrival row of each toggled
//! input with a `max` and masks only its own store. That is exact
//! because of one invariant: a net's arrival row holds +0.0 in every lane
//! in which the net did not toggle. Every arrival is non-negative and
//! never NaN (cell delays and die factors are positive), so folding a
//! +0.0 lane changes nothing.
//!
//! A batch whose delays nobody reads — the seed vector that sets up the
//! state a recorded transition starts from — can be applied with
//! [`WideTimingSim::settle`] instead of [`WideTimingSim::step`]: the same
//! sweep, with no arrival arithmetic at all.
//!
//! Lanes are perfectly isolated: under the settled single-transition delay
//! model the circuit state after a vector is a pure function of that
//! vector, so lane `l` of a [`WideTimingSim`] is **bit-identical** — same
//! delays, same outputs — to a scalar [`crate::TimingSim`] stepped through
//! lane `l`'s vector sequence alone (property-tested in
//! `tests/bitparallel_sim.rs`). A lane that re-applies its previous vector
//! toggles nothing and reports zero delay, which is how callers idle lanes
//! in ragged final batches of fewer than 64 vectors.
//!
//! The simulator borrows its netlist (no clone per construction): it is a
//! short-lived engine the characterization pipeline instantiates per
//! delay-trace batch, not a long-lived state machine.

use crate::error::NetlistError;
use crate::netlist::Netlist;
use crate::voltage::Voltage;

/// Number of independent trace vectors one [`WideTimingSim`] advances per
/// step — the machine word width.
pub const LANES: usize = 64;

/// `NIBBLE_KEEP[n][j]` keeps all bits of a lane's `f64` when bit `j` of the
/// nibble `n` is set and none otherwise: four lanes of a toggle mask at a
/// time, as masks a plain `and` applies. Shifting each lane's bit out of
/// the mask instead takes a per-lane variable shift, which does not
/// vectorize on the baseline x86-64 target.
const NIBBLE_KEEP: [[u64; 4]; 16] = {
    let mut table = [[0u64; 4]; 16];
    let mut n = 0;
    while n < 16 {
        let mut j = 0;
        while j < 4 {
            table[n][j] = 0u64.wrapping_sub(((n >> j) & 1) as u64);
            j += 1;
        }
        n += 1;
    }
    table
};

/// Levelized timing simulator evaluating 64 independent trace vectors per
/// machine word: one `u64` per net, one bit per lane. Lane `l` is
/// bit-identical to a scalar [`crate::TimingSim`] stepped through lane
/// `l`'s vectors alone.
#[derive(Debug)]
pub struct WideTimingSim<'n> {
    netlist: &'n Netlist,
    /// Per-cell propagation delay at the simulation voltage.
    delay: Vec<f64>,
    /// Per-net lane values: bit `l` of `values[net]` is net's value in
    /// lane `l`.
    values: Vec<u64>,
    /// Per-net lanes that toggled in the last sweep. Every sweep rewrites
    /// every net's word before any cell reads it.
    changed: Vec<u64>,
    /// Per-net arrival row, one time per lane. After a step, a net whose
    /// `changed` word is nonzero holds its arrival in each toggled lane
    /// and +0.0 in every other lane; the rows of nets that did not toggle
    /// are stale and never read. Primary-input rows are never written, so
    /// they stay +0.0: a toggled input arrives at time zero.
    arrival: Vec<[f64; LANES]>,
    initialized: bool,
}

impl<'n> WideTimingSim<'n> {
    /// Creates a 64-lane simulator for `netlist` at supply voltage
    /// `voltage`.
    ///
    /// # Errors
    ///
    /// Returns any [`NetlistError`] from [`Netlist::check_invariants`].
    pub fn new(netlist: &'n Netlist, voltage: Voltage) -> Result<WideTimingSim<'n>, NetlistError> {
        WideTimingSim::with_delays(netlist, netlist.cell_delays(voltage, None)?)
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
        WideTimingSim::with_delays(netlist, netlist.cell_delays(voltage, Some(factors))?)
    }

    fn with_delays(
        netlist: &'n Netlist,
        delay: Vec<f64>,
    ) -> Result<WideTimingSim<'n>, NetlistError> {
        netlist.check_invariants()?;
        Ok(WideTimingSim {
            delay,
            values: vec![0; netlist.net_count()],
            changed: vec![0; netlist.net_count()],
            arrival: vec![[0.0; LANES]; netlist.net_count()],
            initialized: false,
            netlist,
        })
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
                acc | ((self.values[n.index()] >> lane) & 1) << i
            })
    }

    /// Applies one input batch for its logic values only: every lane's
    /// nets settle to the values `inputs` (laid out as for [`Self::step`])
    /// drive, exactly as after a `step` of the same batch, but no delay is
    /// computed.
    ///
    /// The delay [`Self::step`] reports for a transition depends only on
    /// the vector it starts from and the one it applies, so a batch whose
    /// delays would be thrown away can settle instead, and the next `step`
    /// reports exactly what it would have after stepping that batch.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] if `inputs` does not
    /// supply one word per primary input.
    pub fn settle(&mut self, inputs: &[u64]) -> Result<(), NetlistError> {
        self.check_width(inputs)?;
        self.sweep(inputs, false);
        Ok(())
    }

    /// Applies one input batch and returns each lane's sensitized path
    /// delay, exactly what [`crate::TimingSim::step`] returns for that
    /// lane's vector: `inputs[i]` carries primary input `i`'s value for
    /// all 64 lanes (bit `l` = lane `l`). The first call initializes every
    /// lane's electrical state (as [`Self::settle`] does) and reports zero
    /// delay in every lane.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] if `inputs` does not
    /// supply one word per primary input.
    pub fn step(&mut self, inputs: &[u64]) -> Result<[f64; LANES], NetlistError> {
        self.check_width(inputs)?;
        let mut delays = [0.0f64; LANES];
        if !self.initialized {
            self.sweep(inputs, false);
            return Ok(delays);
        }
        self.sweep(inputs, true);
        // Per lane, delay = latest-settling toggled primary output; a
        // toggled output's quiet lanes read +0.0.
        for n in self.netlist.primary_outputs() {
            if self.changed[n.index()] != 0 {
                for (delay, &arrival) in delays.iter_mut().zip(&self.arrival[n.index()]) {
                    *delay = later(*delay, arrival);
                }
            }
        }
        Ok(delays)
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
    /// topological) order, rewriting every net's value and toggle mask. A
    /// `timed` sweep also writes the arrival row of every net that
    /// toggled: the gate delay plus the latest toggled input, in the
    /// lanes where the output toggled, and +0.0 in the rest.
    fn sweep(&mut self, inputs: &[u64], timed: bool) {
        for (pi, &word) in self.netlist.primary_inputs().iter().zip(inputs) {
            let pi = pi.index();
            self.changed[pi] = self.values[pi] ^ word;
            self.values[pi] = word;
        }
        let mut pins: [u64; 3] = [0; 3];
        for (cell, &cell_delay) in self.netlist.cells().iter().zip(&self.delay) {
            let n_in = cell.inputs().len();
            for (slot, n) in pins.iter_mut().zip(cell.inputs()) {
                *slot = self.values[n.index()];
            }
            let new_word = cell.kind().eval_word(&pins[..n_in]);
            let out = cell.output().index();
            let diff = new_word ^ self.values[out];
            self.values[out] = new_word;
            self.changed[out] = diff;
            if !timed || diff == 0 {
                continue;
            }
            // An input that toggled in no lane holds a stale row; every
            // other input's row is +0.0 wherever it did not toggle, so
            // folding all 64 lanes of it is exact.
            let mut worst_in = [0.0f64; LANES];
            for n in cell.inputs() {
                if self.changed[n.index()] != 0 {
                    for (worst, &arrival) in worst_in.iter_mut().zip(&self.arrival[n.index()]) {
                        *worst = later(*worst, arrival);
                    }
                }
            }
            let row = self.arrival[out].chunks_exact_mut(4);
            for (k, (dst, worst)) in row.zip(worst_in.chunks_exact(4)).enumerate() {
                let keep = &NIBBLE_KEEP[(diff >> (4 * k)) as usize & 0xF];
                for ((dst, &worst), &keep) in dst.iter_mut().zip(worst).zip(keep) {
                    *dst = f64::from_bits((worst + cell_delay).to_bits() & keep);
                }
            }
        }
        self.initialized = true;
    }
}

/// Transposes up to 64 lanes' packed input vectors into the per-input
/// lane words [`WideTimingSim::step`] and [`WideTimingSim::settle`] take.
///
/// `packed` holds the lanes' vectors back to back, `words_per_lane` words
/// each, in which input `k` is bit `k % 64` of word `k / 64` (the layout
/// of `circuits::PipeStage::encode_packed`). Afterwards bit `l` of
/// `inputs[k]` is lane `l`'s input `k`; lanes past
/// `packed.len() / words_per_lane` read as zero. Each word column is one
/// 64×64 bit-matrix transpose: six rounds of masked block swaps instead
/// of 64 × `inputs.len()` single-bit inserts.
///
/// # Panics
///
/// Panics if `packed` holds more than 64 lanes, or if `inputs` is longer
/// than `64 * words_per_lane`.
pub fn transpose_lanes(packed: &[u64], words_per_lane: usize, inputs: &mut [u64]) {
    if inputs.is_empty() {
        return;
    }
    assert!(
        inputs.len() <= LANES * words_per_lane,
        "{} inputs do not fit {words_per_lane} word(s) per lane",
        inputs.len()
    );
    let lanes = packed.len() / words_per_lane;
    assert!(lanes <= LANES, "{lanes} lanes exceed the {LANES}-lane word");
    let mut block = [0u64; LANES];
    for (w, out) in inputs.chunks_mut(LANES).enumerate() {
        for (l, row) in block.iter_mut().enumerate() {
            *row = if l < lanes {
                packed[l * words_per_lane + w]
            } else {
                0
            };
        }
        transpose64(&mut block);
        out.copy_from_slice(&block[..out.len()]);
    }
}

/// Transposes a 64×64 bit matrix in place: afterwards bit `c` of row `r`
/// is what bit `r` of row `c` was. Round `j` swaps, in every 2j×2j block,
/// the j×j block right of the diagonal with the one below it; `mask`
/// selects the low j bits of every 2j-bit group.
fn transpose64(rows: &mut [u64; LANES]) {
    let mut j = 32;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < LANES {
            let t = ((rows[k] >> j) ^ rows[k + j]) & mask;
            rows[k] ^= t << j;
            rows[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// The later of two arrival times. Arrivals are never NaN, so this is
/// `f64::max` without its NaN handling, one `maxpd` per lane pair.
#[inline]
fn later(a: f64, b: f64) -> f64 {
    if b > a {
        b
    } else {
        a
    }
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
            let delays = wide.step(&words).expect("wide step");
            for (lane, inputs) in lane_inputs.iter().enumerate() {
                let delay = scalars[lane].step(inputs).expect("scalar step");
                assert_eq!(
                    delays[lane].to_bits(),
                    delay.to_bits(),
                    "delay, lane {lane} step {t}"
                );
                assert_eq!(
                    wide.output_word(lane),
                    scalars[lane].output_word(),
                    "outputs, lane {lane} step {t}"
                );
            }
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
        let idle_outputs = wide.output_word(1);
        for t in 1..10 {
            let delays = wide
                .step(&pack(&lane_vector(n_pi, 0, t), &v1))
                .expect("step");
            assert_eq!(delays[1], 0.0, "idle lane has no delay");
            assert_eq!(wide.output_word(1), idle_outputs, "idle lane holds");
        }
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
            let delays = wide.step(&words).expect("wide");
            let delay = scalar.step(&v).expect("scalar");
            assert_eq!(delays[0].to_bits(), delay.to_bits(), "step {t}");
        }
    }
}
