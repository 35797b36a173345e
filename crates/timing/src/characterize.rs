//! The cross-layer characterization pipeline (paper Fig 5.8):
//! operand trace → stage input vectors → dynamic timing simulation →
//! sensitized delay trace → error-probability curve.

use circuits::{build_stage, AluEvent, PipeStage, StageKind};
use gatelib::variation::DelayFactors;
use gatelib::{StaticTiming, TimingSim, Voltage, WideTimingSim, LANES};

use crate::err_curve::ErrorCurve;
use crate::error::TimingError;
use crate::trace::DelayTrace;

/// Characterizes one pipe stage: owns the stage netlist and its STA-derived
/// nominal period, and replays event streams through the timing simulator.
///
/// See the [crate-level example](crate) for usage.
pub struct StageCharacterizer {
    stage: Box<dyn PipeStage>,
    tnom_v1: f64,
    /// Per-cell delay factors of the die instance being characterized
    /// (`None` = the nominal, variation-free die).
    die: Option<DelayFactors>,
}

/// How a die instance's clock budget is derived when characterizing under
/// process variation or aging ([`StageCharacterizer::from_stage_on_die`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DieTiming {
    /// Speed binning: the die is clocked at its *own* point of first
    /// failure (factored STA). Normalized delays stay ≤ 1 and `err(1) = 0`.
    Binned,
    /// The design's nominal clock is kept regardless of the die: a slow or
    /// aged die can then sensitize paths *longer* than the period, so
    /// `err(r)` may be nonzero even at `r = 1` — the "aging consumed the
    /// guard band" regime the paper's introduction motivates.
    DesignNominal,
}

impl StageCharacterizer {
    /// Builds the given stage at the given datapath width and runs STA on it.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction/analysis failures as
    /// [`TimingError::Netlist`].
    ///
    /// # Panics
    ///
    /// Panics on invalid widths (see [`circuits::build_stage`]).
    pub fn new(kind: StageKind, width: usize) -> Result<StageCharacterizer, TimingError> {
        StageCharacterizer::from_stage(build_stage(kind, width)?)
    }

    /// Wraps an already-built stage.
    ///
    /// # Errors
    ///
    /// Propagates STA failures as [`TimingError::Netlist`].
    pub fn from_stage(stage: Box<dyn PipeStage>) -> Result<StageCharacterizer, TimingError> {
        let sta = StaticTiming::analyze(stage.netlist(), Voltage::NOMINAL)?;
        Ok(StageCharacterizer {
            tnom_v1: sta.nominal_period(),
            stage,
            die: None,
        })
    }

    /// Wraps a stage instantiated on a specific die (process-variation
    /// and/or aging [`DelayFactors`] from [`gatelib::variation`]), with the
    /// clock budget chosen by `timing`.
    ///
    /// # Errors
    ///
    /// Propagates STA failures and factor/cell-count mismatches as
    /// [`TimingError::Netlist`].
    pub fn from_stage_on_die(
        stage: Box<dyn PipeStage>,
        factors: DelayFactors,
        timing: DieTiming,
    ) -> Result<StageCharacterizer, TimingError> {
        let tnom_v1 = match timing {
            DieTiming::Binned => {
                StaticTiming::analyze_with_factors(stage.netlist(), Voltage::NOMINAL, &factors)?
                    .nominal_period()
            }
            DieTiming::DesignNominal => {
                StaticTiming::analyze(stage.netlist(), Voltage::NOMINAL)?.nominal_period()
            }
        };
        Ok(StageCharacterizer {
            tnom_v1,
            stage,
            die: Some(factors),
        })
    }

    /// The stage under characterization.
    #[must_use]
    pub fn stage(&self) -> &dyn PipeStage {
        self.stage.as_ref()
    }

    /// The stage's nominal clock period at 1.0 V (STA critical path).
    #[must_use]
    pub fn tnom_v1(&self) -> f64 {
        self.tnom_v1
    }

    /// The stage's nominal clock period at an arbitrary voltage
    /// (`t_nom(V)`, Sec 4.1).
    #[must_use]
    pub fn tnom(&self, voltage: Voltage) -> f64 {
        self.tnom_v1 * voltage.delay_scale()
    }

    /// Replays `events` through the stage and records the sensitized delay
    /// of every instruction whose operands reach the stage.
    ///
    /// Which events those are is the stage's [`PipeStage::accepts`] map:
    /// decode and the SimpleALU operand bus see every instruction, while
    /// the operand-isolated multiplier sees only multiplies — mirroring how
    /// the paper extracts per-stage input vectors from Gem5.
    ///
    /// The first accepted event initializes the circuit state and is not
    /// recorded (it has no predecessor vector).
    ///
    /// # Errors
    ///
    /// Returns [`TimingError::EmptyTrace`] if fewer than two events reach
    /// the stage.
    pub fn delay_trace(&self, events: &[AluEvent]) -> Result<DelayTrace, TimingError> {
        self.delay_trace_sampled(events, usize::MAX)
    }

    /// Like [`Self::delay_trace`], but caps the number of *recorded*
    /// instructions at `max_samples` by striding uniformly through the
    /// events — the cheap path for long workload intervals.
    ///
    /// # Errors
    ///
    /// Returns [`TimingError::EmptyTrace`] if fewer than two events reach
    /// the stage.
    pub fn delay_trace_sampled(
        &self,
        events: &[AluEvent],
        max_samples: usize,
    ) -> Result<DelayTrace, TimingError> {
        let mut delays = Vec::new();
        self.delay_trace_into(events, max_samples, &mut delays)?;
        DelayTrace::new(delays, self.tnom_v1)
    }

    /// The batched characterization entry point: replays `events` through
    /// a 64-lane bit-parallel simulator ([`gatelib::WideTimingSim`]) and
    /// writes the sensitized delay of every recorded instruction into
    /// `delays` (cleared first, so a caller characterizing many intervals
    /// can recycle one buffer).
    ///
    /// The recorded delay of instruction `k` depends only on the settled
    /// circuit state left by instruction `k-1` — a pure function of that
    /// one vector — so the record list can be cut into up to 64 contiguous
    /// chunks, each chunk seeded with its predecessor vector and replayed
    /// in its own lane. One bitwise gate sweep then advances all chunks at
    /// once, and the result is **bit-identical** to the sequential replay
    /// (kept as [`Self::delay_trace_into_scalar`] and property-tested
    /// against it in `tests/bitparallel_sim.rs`), at roughly the cost of
    /// one lane.
    ///
    /// A seed vector only has to set that state, so a batch in which every
    /// lane with work is seeding is applied with
    /// [`WideTimingSim::settle`] (logic values only) rather than a timed
    /// step. With a stride above 1 that is every other batch, each seed
    /// jumping to an unrelated event; with stride 1 it is only the first.
    ///
    /// [`Self::delay_trace_sampled`] is this plus a [`DelayTrace`]
    /// wrapper; the recorded delays are bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`TimingError::EmptyTrace`] if fewer than two events reach
    /// the stage.
    pub fn delay_trace_into(
        &self,
        events: &[AluEvent],
        max_samples: usize,
        delays: &mut Vec<f64>,
    ) -> Result<(), TimingError> {
        delays.clear();
        let accepted: Vec<&AluEvent> = events.iter().filter(|e| self.stage.accepts(e.op)).collect();
        let m = accepted.len();
        if m < 2 {
            return Err(TimingError::EmptyTrace);
        }
        // Same sampling contract as the scalar path (see
        // `delay_trace_into_scalar` for why the stride is forced odd).
        let wanted = max_samples.max(1);
        let stride = ((m / wanted.saturating_add(1)).max(1)) | 1;
        // Record j is the transition into accepted event `j*stride + 1`
        // (stride > 1: disjoint seeded pairs; stride == 1: a chained walk).
        let records = if stride == 1 {
            (m - 1).min(wanted)
        } else {
            ((m - 2) / stride + 1).min(wanted)
        };

        // Per-lane schedule: (accepted-event index, record slot). NO_SLOT
        // marks seed steps whose delay is discarded. Records are split
        // into contiguous near-equal chunks so every lane replays an
        // independent slice of the trace.
        const NO_SLOT: usize = usize::MAX;
        let lanes = records.min(LANES);
        let mut ops: Vec<Vec<(usize, usize)>> = Vec::with_capacity(lanes);
        let base = records / lanes;
        let extra = records % lanes;
        let mut next = 0usize;
        for l in 0..lanes {
            let len = base + usize::from(l < extra);
            let (start, end) = (next, next + len);
            next = end;
            let mut lane_ops = Vec::new();
            if stride == 1 {
                lane_ops.push((start, NO_SLOT));
                for r in start..end {
                    lane_ops.push((r + 1, r));
                }
            } else {
                for j in start..end {
                    lane_ops.push((j * stride, NO_SLOT));
                    lane_ops.push((j * stride + 1, j));
                }
            }
            ops.push(lane_ops);
        }

        let mut sim = match &self.die {
            Some(f) => WideTimingSim::with_factors(self.stage.netlist(), Voltage::NOMINAL, f)?,
            None => WideTimingSim::new(self.stage.netlist(), Voltage::NOMINAL)?,
        };
        let n_pi = self.stage.netlist().primary_inputs().len();
        let mut words = vec![0u64; n_pi];
        let mut buf: Vec<bool> = Vec::new();
        delays.resize(records, 0.0);
        let depth = ops.iter().map(Vec::len).max().unwrap_or(0);
        for t in 0..depth {
            for (lane, lane_ops) in ops.iter().enumerate() {
                // Lanes past the end of their schedule keep their previous
                // vector: re-applying it toggles nothing and records
                // nothing, so ragged chunks cost no extra sweeps.
                let Some(&(ev, _)) = lane_ops.get(t) else {
                    continue;
                };
                self.stage.encode_into(accepted[ev], &mut buf);
                let mask = !(1u64 << lane);
                for (w, &bit) in words.iter_mut().zip(&buf) {
                    *w = (*w & mask) | (u64::from(bit) << lane);
                }
            }
            let seeding = ops
                .iter()
                .all(|lane_ops| lane_ops.get(t).is_none_or(|&(_, slot)| slot == NO_SLOT));
            if seeding {
                sim.settle(&words)?;
                continue;
            }
            let step = sim.step(&words)?;
            for (lane, lane_ops) in ops.iter().enumerate() {
                if let Some(&(_, slot)) = lane_ops.get(t) {
                    if slot != NO_SLOT {
                        delays[slot] = step.delays[lane];
                    }
                }
            }
        }
        if delays.is_empty() {
            return Err(TimingError::EmptyTrace);
        }
        Ok(())
    }

    /// The sequential reference for [`Self::delay_trace_into`]: one scalar
    /// [`TimingSim`] streamed through the accepted events — no
    /// intermediate event collection, no per-vector allocation (the input
    /// vector and the simulator's net state are reused buffers). The wide
    /// path must match this bit for bit; it exists as the executable
    /// specification and for one-off callers timing a handful of vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TimingError::EmptyTrace`] if fewer than two events reach
    /// the stage.
    pub fn delay_trace_into_scalar(
        &self,
        events: &[AluEvent],
        max_samples: usize,
        delays: &mut Vec<f64>,
    ) -> Result<(), TimingError> {
        delays.clear();
        let accepted_len = events.iter().filter(|e| self.stage.accepts(e.op)).count();
        if accepted_len < 2 {
            return Err(TimingError::EmptyTrace);
        }
        // Striding keeps consecutive pairs (the delay of instruction k
        // depends on the state left by instruction k-1), so we subsample
        // windows of 2 rather than isolated events. The stride is forced
        // odd so that instruction streams with period-2 structure (e.g.
        // mul/mulhi pairs over the same operands) don't alias: an even
        // stride would sample only one phase of such a stream.
        let wanted = max_samples.max(1);
        let stride = ((accepted_len / wanted.saturating_add(1)).max(1)) | 1;
        let mut sim = match &self.die {
            Some(f) => TimingSim::with_factors(self.stage.netlist(), Voltage::NOMINAL, f)?,
            None => TimingSim::new(self.stage.netlist(), Voltage::NOMINAL)?,
        };
        delays.reserve(accepted_len.saturating_sub(1).min(wanted));
        let mut buf: Vec<bool> = Vec::new();
        let mut accepted = events.iter().filter(|e| self.stage.accepts(e.op));
        if stride == 1 {
            let first = accepted.next().expect("accepted_len >= 2");
            self.stage.encode_into(first, &mut buf);
            sim.step(&buf)?;
            for ev in accepted {
                self.stage.encode_into(ev, &mut buf);
                let t = sim.step(&buf)?;
                delays.push(t.delay);
                if delays.len() >= wanted {
                    break;
                }
            }
        } else {
            // Positions k ≡ 0 (mod stride) seed the circuit state; the
            // following event is the one whose transition is recorded.
            // stride is odd and > 1, so sampled pairs never overlap.
            for (k, ev) in accepted.enumerate() {
                if delays.len() >= wanted {
                    break;
                }
                match k % stride {
                    0 if k + 1 < accepted_len => {
                        self.stage.encode_into(ev, &mut buf);
                        sim.step(&buf)?;
                    }
                    1 => {
                        self.stage.encode_into(ev, &mut buf);
                        let t = sim.step(&buf)?;
                        delays.push(t.delay);
                    }
                    _ => {}
                }
            }
        }
        if delays.is_empty() {
            return Err(TimingError::EmptyTrace);
        }
        Ok(())
    }

    /// One-shot characterization: events → error-probability curve.
    ///
    /// # Errors
    ///
    /// See [`Self::delay_trace`].
    pub fn error_curve(&self, events: &[AluEvent]) -> Result<ErrorCurve, TimingError> {
        Ok(ErrorCurve::from_trace(&self.delay_trace(events)?))
    }

    /// Capped-cost characterization; see [`Self::delay_trace_sampled`].
    ///
    /// # Errors
    ///
    /// See [`Self::delay_trace`].
    pub fn error_curve_sampled(
        &self,
        events: &[AluEvent],
        max_samples: usize,
    ) -> Result<ErrorCurve, TimingError> {
        Ok(ErrorCurve::from_trace(
            &self.delay_trace_sampled(events, max_samples)?,
        ))
    }
}

impl std::fmt::Debug for StageCharacterizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageCharacterizer")
            .field("stage", &self.stage.name())
            .field("tnom_v1", &self.tnom_v1)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::err_curve::ErrorModel;
    use circuits::AluOp;

    fn lcg_events(seed: u64, n: usize, mask: u64) -> Vec<AluEvent> {
        let ops = [AluOp::Add, AluOp::Sub, AluOp::Xor, AluOp::And, AluOp::Shl];
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let op = ops[(state >> 61) as usize % ops.len()];
                AluEvent::new(op, state & mask, (state >> 13) & mask)
            })
            .collect()
    }

    #[test]
    fn delay_trace_is_bounded_by_tnom() {
        let c = StageCharacterizer::new(StageKind::SimpleAlu, 8).expect("build");
        let trace = c.delay_trace(&lcg_events(42, 300, 0xFF)).expect("trace");
        assert!(trace.max_normalized() <= 1.0 + 1e-9);
        assert!(trace.mean_normalized() > 0.0);
    }

    #[test]
    fn error_curve_zero_at_nominal_clock() {
        let c = StageCharacterizer::new(StageKind::SimpleAlu, 8).expect("build");
        let curve = c.error_curve(&lcg_events(7, 300, 0xFF)).expect("curve");
        assert_eq!(curve.err(1.0), 0.0);
        // Monotone in r.
        assert!(curve.err(0.4) >= curve.err(0.8));
    }

    #[test]
    fn unit_die_matches_nominal_characterization() {
        let events = lcg_events(11, 200, 0xFF);
        let plain = StageCharacterizer::new(StageKind::SimpleAlu, 8).expect("build");
        let stage = circuits::build_stage(StageKind::SimpleAlu, 8).expect("build");
        let unit = DelayFactors::unit(stage.netlist().cell_count());
        let on_die =
            StageCharacterizer::from_stage_on_die(stage, unit, DieTiming::Binned).expect("build");
        let a = plain.delay_trace(&events).expect("trace");
        let b = on_die.delay_trace(&events).expect("trace");
        assert_eq!(a.delays(), b.delays());
        assert!((a.tnom_v1() - b.tnom_v1()).abs() < 1e-12);
    }

    #[test]
    fn binned_die_keeps_err_zero_at_nominal() {
        // On its own (factored) clock, even a slow die never errs at r = 1.
        let events = lcg_events(13, 300, 0xFF);
        let stage = circuits::build_stage(StageKind::SimpleAlu, 8).expect("build");
        let aging = gatelib::variation::AgingModel::nbti_ptm22();
        let f = aging
            .factors(stage.netlist().cell_count(), 10.0, None)
            .expect("ok");
        let c = StageCharacterizer::from_stage_on_die(stage, f, DieTiming::Binned).expect("build");
        let curve = c.error_curve(&events).expect("curve");
        assert_eq!(curve.err(1.0), 0.0);
    }

    #[test]
    fn design_nominal_aged_die_errs_more() {
        // Same aged die, but clocked at the fresh design period: every
        // normalized delay grows by the aging factor, so err at moderate r
        // can only go up — and may be nonzero even at r = 1.
        let events = lcg_events(13, 300, 0xFF);
        let fresh = StageCharacterizer::new(StageKind::SimpleAlu, 8).expect("build");
        let fresh_curve = fresh.error_curve(&events).expect("curve");
        let stage = circuits::build_stage(StageKind::SimpleAlu, 8).expect("build");
        let aging = gatelib::variation::AgingModel::nbti_ptm22();
        let f = aging
            .factors(stage.netlist().cell_count(), 10.0, None)
            .expect("ok");
        let aged = StageCharacterizer::from_stage_on_die(stage, f, DieTiming::DesignNominal)
            .expect("build");
        let aged_curve = aged.error_curve(&events).expect("curve");
        for r in [0.7, 0.8, 0.9, 1.0] {
            assert!(
                aged_curve.err(r) >= fresh_curve.err(r),
                "aged err({r}) {} < fresh {}",
                aged_curve.err(r),
                fresh_curve.err(r)
            );
        }
        // Every sensitized path grew by exactly the uniform aging factor.
        let fresh_trace = fresh.delay_trace(&events).expect("trace");
        let aged_trace = aged.delay_trace(&events).expect("trace");
        let growth = 1.0 + aging.degradation(10.0);
        assert!(
            (aged_trace.max_normalized() - growth * fresh_trace.max_normalized()).abs()
                < 1e-9 * growth,
            "uniform aging scales the worst sensitized path"
        );
    }

    #[test]
    fn complex_stage_is_operand_isolated() {
        // Only multiplies open the multiplier's input latches; a stream of
        // adds leaves nothing to time.
        let c = StageCharacterizer::new(StageKind::ComplexAlu, 8).expect("build");
        let adds: Vec<AluEvent> = (0..50)
            .map(|i| AluEvent::new(AluOp::Add, i * 7 % 251, i * 13 % 249))
            .collect();
        assert_eq!(
            c.delay_trace(&adds).expect_err("isolated"),
            TimingError::EmptyTrace
        );
    }

    #[test]
    fn single_event_is_rejected() {
        let c = StageCharacterizer::new(StageKind::SimpleAlu, 8).expect("build");
        let one = [AluEvent::new(AluOp::Add, 1, 2)];
        assert_eq!(
            c.delay_trace(&one).expect_err("too short"),
            TimingError::EmptyTrace
        );
    }

    #[test]
    fn sampled_trace_caps_cost() {
        let c = StageCharacterizer::new(StageKind::SimpleAlu, 8).expect("build");
        let events = lcg_events(3, 1000, 0xFF);
        let t = c.delay_trace_sampled(&events, 50).expect("trace");
        assert!(t.len() <= 50);
        // The subsampled curve should approximate the full curve.
        let full = ErrorCurve::from_trace(&c.delay_trace(&events).expect("trace"));
        let sub = ErrorCurve::from_trace(&t);
        let gap = crate::err_curve::max_abs_gap(&full, &sub, &[0.5, 0.6, 0.7, 0.8, 0.9]);
        assert!(
            gap < 0.25,
            "subsample should roughly track full curve, gap {gap}"
        );
    }

    /// The wide (64-lane) and scalar trace paths must agree bit for bit —
    /// across chained (stride == 1) and seeded-pair (stride > 1) sampling,
    /// ragged chunk boundaries, and die-factored delays. The workspace
    /// proptest in `tests/bitparallel_sim.rs` explores this space
    /// randomly; these fixed shapes pin the corners.
    #[test]
    fn wide_trace_is_bit_identical_to_scalar() {
        let c = StageCharacterizer::new(StageKind::SimpleAlu, 8).expect("build");
        let events = lcg_events(17, 900, 0xFF);
        let mut wide = Vec::new();
        let mut scalar = Vec::new();
        // max_samples spans: <64 records (ragged), exactly 64, chained
        // full trace, and strided subsampling.
        for max_samples in [1, 3, 63, 64, 65, 50, 200, usize::MAX] {
            c.delay_trace_into(&events, max_samples, &mut wide)
                .expect("wide");
            c.delay_trace_into_scalar(&events, max_samples, &mut scalar)
                .expect("scalar");
            let wide_bits: Vec<u64> = wide.iter().map(|d| d.to_bits()).collect();
            let scalar_bits: Vec<u64> = scalar.iter().map(|d| d.to_bits()).collect();
            assert_eq!(wide_bits, scalar_bits, "max_samples = {max_samples}");
        }
    }

    #[test]
    fn wide_trace_matches_scalar_on_die() {
        let stage = circuits::build_stage(StageKind::SimpleAlu, 8).expect("build");
        let aging = gatelib::variation::AgingModel::nbti_ptm22();
        let f = aging
            .factors(stage.netlist().cell_count(), 7.0, None)
            .expect("ok");
        let c = StageCharacterizer::from_stage_on_die(stage, f, DieTiming::Binned).expect("build");
        let events = lcg_events(23, 400, 0xFF);
        let mut wide = Vec::new();
        let mut scalar = Vec::new();
        c.delay_trace_into(&events, usize::MAX, &mut wide)
            .expect("wide");
        c.delay_trace_into_scalar(&events, usize::MAX, &mut scalar)
            .expect("scalar");
        assert_eq!(
            wide.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            scalar.iter().map(|d| d.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn tnom_scales_with_voltage() {
        let c = StageCharacterizer::new(StageKind::Decode, 8).expect("build");
        let v = Voltage::new(0.72).expect("ok");
        assert!((c.tnom(v) / c.tnom_v1() - 1.63).abs() < 1e-9);
    }

    #[test]
    fn different_data_gives_different_curves() {
        // Narrow operands vs. wide operands: the carry chains differ, so the
        // curves must differ — the seed of the paper's heterogeneity claim.
        let c = StageCharacterizer::new(StageKind::SimpleAlu, 16).expect("build");
        let narrow = c.error_curve(&lcg_events(11, 400, 0x1F)).expect("curve");
        let wide = c.error_curve(&lcg_events(11, 400, 0xFFFF)).expect("curve");
        let gap = crate::err_curve::max_abs_gap(&narrow, &wide, &[0.5, 0.6, 0.7, 0.8]);
        assert!(gap > 0.02, "operand width must shape the curve, gap {gap}");
    }
}
