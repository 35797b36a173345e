//! Bit-identity of the 64-lane bit-parallel gate sim against the scalar
//! simulator — the contract that lets the characterization pipeline run
//! 64 trace vectors per machine word without perturbing a single golden
//! fixture.
//!
//! These layers are pinned:
//!
//! * [`gatelib::WideTimingSim`] lane-for-lane against 64 independent
//!   [`gatelib::TimingSim`] runs — delay bits and output words, including
//!   *ragged* batches that drive fewer than 64 lanes and leave the rest
//!   idle;
//! * the same on seeded random netlists, plain and on a varied or aged
//!   die: every cell kind, one net on two pins of a cell, a primary
//!   input and a tie net among the outputs, nets that drive nothing, and
//!   batches that settle, move a ragged number of lanes, or repeat every
//!   lane's vector (all-zero delays, and no stale arrival read by the
//!   next step);
//! * [`gatelib::WideTimingSim::settle`] interleaved with `step` against
//!   scalar runs that always step: a settle leaves the logic state a step
//!   would, so the next step's delays do not change;
//! * [`timing::StageCharacterizer::delay_trace_into`] (the lane-batched
//!   entry point) against `delay_trace_into_scalar` (the sequential
//!   reference) across random event streams, stage kinds and sampling
//!   caps — covering both the chained stride-1 walk and the strided
//!   seeded-pair regime;
//! * each stage's packed encoder against its documented input layout,
//!   built bit by bit, at every width the stage accepts, and the
//!   `Vec<bool>` encodings derived from it;
//! * [`gatelib::transpose_lanes`] against the per-bit loop it replaces,
//!   on random lane sets of 1 to 64 lanes and 1 to 3 words per lane.

use proptest::prelude::*;
use synts::circuits::{build_stage, AluEvent, AluOp, DecodeStage, StageKind};
use synts::gatelib::variation::{AgingModel, DelayFactors, VariationModel};
use synts::gatelib::{
    transpose_lanes, CellKind, NetId, Netlist, NetlistBuilder, TimingSim, Voltage, WideTimingSim,
    LANES,
};
use synts::timing::StageCharacterizer;

/// Deterministic pseudo-random bit stream (the tests' only entropy
/// source beyond the proptest case seed).
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    fn next_bool(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    /// A draw in `0..n` from the high bits, whose period is long.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() >> 32) as usize % n
    }
}

fn stage_for(choice: usize) -> StageKind {
    [
        StageKind::SimpleAlu,
        StageKind::Decode,
        StageKind::ComplexAlu,
    ][choice % 3]
}

/// A seeded random DAG that holds shapes the stage netlists never build:
/// every [`CellKind`] (ties and 3-input kinds included), pins drawn from
/// any earlier net (so a cell can read one net on two pins, and does at
/// least twice), a primary input and a tie net among the primary outputs,
/// and nets that drive nothing.
fn random_netlist(rng: &mut Lcg, n_inputs: usize, n_cells: usize) -> Netlist {
    let mut b = NetlistBuilder::new("random");
    let mut nets: Vec<NetId> = b.input_bus("x", n_inputs);
    let pick = |rng: &mut Lcg, nets: &[NetId]| nets[rng.below(nets.len())];
    for k in 0..n_cells {
        let kind = CellKind::ALL[if k < CellKind::ALL.len() {
            k
        } else {
            rng.below(CellKind::ALL.len())
        }];
        let pins: Vec<NetId> = (0..kind.arity()).map(|_| pick(rng, &nets)).collect();
        nets.push(b.cell(kind, &pins).expect("pins exist"));
    }
    let (n, m) = (pick(rng, &nets), pick(rng, &nets));
    nets.push(b.cell(CellKind::Xor2, &[n, n]).expect("pins exist"));
    nets.push(b.cell(CellKind::Maj3, &[n, m, n]).expect("pins exist"));
    let tie = b.const1().expect("tie");
    b.output(nets[0], "pi");
    b.output(tie, "tie");
    for (i, &net) in nets[n_inputs..].iter().enumerate() {
        if rng.below(3) == 0 {
            b.output(net, format!("y{i}"));
        }
    }
    b.output(*nets.last().expect("cells built"), "last");
    // Read by nothing and driving no output.
    let (n, m) = (pick(rng, &nets), pick(rng, &nets));
    b.cell(CellKind::Nand2, &[n, m]).expect("pins exist");
    b.finish().expect("outputs declared")
}

/// A stage's input vector for `ev`, built bit by bit from the layout its
/// module documents: the reference the packed encoders are held to.
fn documented_layout(kind: StageKind, width: usize, ev: &AluEvent) -> Vec<bool> {
    let bits = |x: u64, n: usize| (0..n).map(move |i| (x >> i) & 1 == 1);
    match kind {
        // [op[3], a[W], b[W]]; complex ops fall back to Add's opcode.
        StageKind::SimpleAlu => {
            let op = if ev.op.is_complex() { 0 } else { ev.op.index() };
            bits(op as u64, 3)
                .chain(bits(ev.a, width))
                .chain(bits(ev.b, width))
                .collect()
        }
        // [hi_sel, a[W], b[W]].
        StageKind::ComplexAlu => std::iter::once(ev.op == AluOp::MulHi)
            .chain(bits(ev.a, width))
            .chain(bits(ev.b, width))
            .collect(),
        // The 32-bit instruction word.
        StageKind::Decode => bits(u64::from(DecodeStage::instruction_word(ev)), 32).collect(),
    }
}

/// Each stage has one encoder, the packed one: at every width the stage
/// accepts it matches the documented layout bit for bit, leaves the
/// bits past the last input clear, and the `Vec<bool>` forms the scalar
/// simulator takes agree with it.
#[test]
fn packed_encoders_match_the_documented_layouts_at_every_width() {
    let widths = [
        (StageKind::SimpleAlu, vec![4, 8, 16, 32, 64]),
        (StageKind::ComplexAlu, (4..=32).collect()),
        (StageKind::Decode, vec![16]),
    ];
    let mut rng = Lcg(0x5EED_0FE7_C0DE);
    for (kind, widths) in widths {
        for width in widths {
            let stage = build_stage(kind, width).expect("stage");
            let n_pi = stage.netlist().primary_inputs().len();
            let mut words = vec![u64::MAX; stage.packed_words()];
            let mut buf = Vec::new();
            for _ in 0..48 {
                let op = AluOp::ALL[(rng.next_u64() >> 60) as usize % AluOp::ALL.len()];
                let ev = AluEvent::new(op, rng.next_u64(), rng.next_u64());
                let expect = documented_layout(kind, width, &ev);
                assert_eq!(expect.len(), n_pi, "{kind} at width {width}");
                stage.encode_packed(&ev, &mut words);
                let unpacked: Vec<bool> = (0..64 * words.len())
                    .map(|k| words[k / 64] >> (k % 64) & 1 == 1)
                    .collect();
                assert_eq!(
                    &unpacked[..n_pi],
                    expect.as_slice(),
                    "{kind}/{width} {ev:?}"
                );
                assert!(
                    unpacked[n_pi..].iter().all(|&b| !b),
                    "{kind}/{width}: bits past the last input must be clear"
                );
                assert_eq!(stage.encode(&ev), expect, "{kind}/{width} encode");
                stage.encode_into(&ev, &mut buf);
                assert_eq!(buf, expect, "{kind}/{width} encode_into");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On random netlists ([`random_netlist`]), plain and on an aged or
    /// varied die, every lane of one wide sim equals its own scalar sim
    /// through a random mix of batches: steps in which a ragged number of
    /// lanes move, settles, and repeats of every lane's last vector, which
    /// report +0.0 in every lane and leave no stale arrival for the next
    /// step to read.
    #[test]
    fn wide_sim_matches_scalar_sims_on_random_netlists(
        n_inputs in 1usize..9,
        n_cells in CellKind::ALL.len()..140,
        die in 0usize..3,
        batches in 2usize..40,
        seed in any::<u64>(),
    ) {
        let mut rng = Lcg(seed);
        let netlist = random_netlist(&mut rng, n_inputs, n_cells);
        let voltage = Voltage::new([1.0, 0.8, 0.7][die]).expect("characterized voltage");
        let factors: Option<DelayFactors> = match die {
            0 => None,
            1 => Some(VariationModel::ptm22_typical().sample(netlist.cell_count(), seed)),
            _ => Some(
                AgingModel::nbti_ptm22()
                    .factors(netlist.cell_count(), 7.0, None)
                    .expect("aging factors"),
            ),
        };
        let (mut wide, mut scalars) = match &factors {
            None => (
                WideTimingSim::new(&netlist, voltage).expect("wide"),
                vec![TimingSim::new(&netlist, voltage).expect("scalar"); LANES],
            ),
            Some(f) => (
                WideTimingSim::with_factors(&netlist, voltage, f).expect("wide"),
                vec![TimingSim::with_factors(&netlist, voltage, f).expect("scalar"); LANES],
            ),
        };
        let mut vectors = vec![vec![false; n_inputs]; LANES];
        let mut words = vec![0u64; n_inputs];
        for t in 0..batches {
            // 0: settle, 1: repeat every lane's vector, else: step with
            // lanes 0..moving on new vectors and the rest repeating.
            let kind = rng.below(5);
            let moving = if kind == 1 { 0 } else { 1 + rng.below(LANES) };
            for (lane, vector) in vectors.iter_mut().enumerate().take(moving) {
                for (i, bit) in vector.iter_mut().enumerate() {
                    *bit = rng.next_bool();
                    words[i] = (words[i] & !(1u64 << lane)) | (u64::from(*bit) << lane);
                }
            }
            let expected: Vec<f64> = scalars
                .iter_mut()
                .zip(&vectors)
                .map(|(scalar, vector)| scalar.step(vector).expect("scalar"))
                .collect();
            if kind == 0 {
                wide.settle(&words).expect("settle");
            } else {
                let delays = wide.step(&words).expect("wide");
                for (lane, exp) in expected.iter().enumerate() {
                    prop_assert_eq!(
                        delays[lane].to_bits(),
                        exp.to_bits(),
                        "delay diverges: lane {} batch {}", lane, t
                    );
                }
                if kind == 1 {
                    prop_assert!(delays.iter().all(|d| d.to_bits() == 0), "repeat batch {}", t);
                }
            }
            for (lane, scalar) in scalars.iter().enumerate() {
                prop_assert_eq!(
                    wide.output_word(lane),
                    scalar.output_word(),
                    "outputs diverge: lane {} batch {}", lane, t
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every active lane of one wide sim equals its own scalar sim,
    /// transition for transition; idle lanes (ragged batches < 64) report
    /// zero delay.
    #[test]
    fn wide_sim_matches_independent_scalar_sims(
        stage_choice in 0usize..3,
        width_choice in 0usize..2,
        active in 1usize..65,
        steps in 2usize..30,
        seed in any::<u64>(),
    ) {
        let width = [4, 8][width_choice];
        let stage = build_stage(stage_for(stage_choice), width).expect("stage");
        let netlist = stage.netlist();
        let n_pi = netlist.primary_inputs().len();
        let mut wide = WideTimingSim::new(netlist, Voltage::NOMINAL).expect("wide");
        let mut scalars: Vec<TimingSim> = (0..active)
            .map(|_| TimingSim::new(netlist, Voltage::NOMINAL).expect("scalar"))
            .collect();
        let mut rngs: Vec<Lcg> = (0..active)
            .map(|lane| Lcg(seed ^ (lane as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        let mut words = vec![0u64; n_pi];
        let mut vector = vec![false; n_pi];
        // What every idle lane settles to: the outputs of the all-zero
        // vector.
        let idle_outputs = {
            let mut zero = TimingSim::new(netlist, Voltage::NOMINAL).expect("scalar");
            zero.step(&vector).expect("scalar");
            zero.output_word()
        };
        for t in 0..steps {
            // Idle lanes (active..64) keep their initial all-zero vector:
            // they never toggle.
            let mut expected = Vec::with_capacity(active);
            for lane in 0..active {
                for (i, slot) in vector.iter_mut().enumerate() {
                    *slot = rngs[lane].next_bool();
                    let mask = !(1u64 << lane);
                    words[i] = (words[i] & mask) | (u64::from(*slot) << lane);
                }
                expected.push(scalars[lane].step(&vector).expect("scalar"));
            }
            // One wide step advances all lanes at once.
            let delays = wide.step(&words).expect("wide");
            for (lane, exp) in expected.iter().enumerate() {
                prop_assert_eq!(
                    delays[lane].to_bits(),
                    exp.to_bits(),
                    "delay diverges: lane {} step {}", lane, t
                );
                prop_assert_eq!(
                    wide.output_word(lane),
                    scalars[lane].output_word(),
                    "outputs diverge: lane {} step {}", lane, t
                );
            }
            for lane in active..LANES {
                prop_assert_eq!(delays[lane].to_bits(), 0f64.to_bits(), "idle lane {}", lane);
                prop_assert_eq!(wide.output_word(lane), idle_outputs, "idle lane {}", lane);
            }
        }
    }

    /// Per-step delays, lane for lane: the wide step's result array
    /// equals the scalar step results exactly.
    #[test]
    fn wide_step_results_match_scalar_step_results(
        stage_choice in 0usize..2,
        active in 1usize..65,
        steps in 2usize..20,
        seed in any::<u64>(),
    ) {
        let stage = build_stage(stage_for(stage_choice), 8).expect("stage");
        let netlist = stage.netlist();
        let n_pi = netlist.primary_inputs().len();
        let mut wide = WideTimingSim::new(netlist, Voltage::NOMINAL).expect("wide");
        let mut scalars: Vec<TimingSim> = (0..active)
            .map(|_| TimingSim::new(netlist, Voltage::NOMINAL).expect("scalar"))
            .collect();
        let mut rngs: Vec<Lcg> = (0..active)
            .map(|lane| Lcg(seed.wrapping_add(lane as u64).wrapping_mul(0x2545F4914F6CDD1D)))
            .collect();
        let mut words = vec![0u64; n_pi];
        let mut lane_vectors: Vec<Vec<bool>> = vec![vec![false; n_pi]; active];
        for t in 0..steps {
            for (lane, vector) in lane_vectors.iter_mut().enumerate() {
                for (i, slot) in vector.iter_mut().enumerate() {
                    *slot = rngs[lane].next_bool();
                    let mask = !(1u64 << lane);
                    words[i] = (words[i] & mask) | (u64::from(*slot) << lane);
                }
            }
            let delays = wide.step(&words).expect("wide");
            for (lane, vector) in lane_vectors.iter().enumerate() {
                let delay = scalars[lane].step(vector).expect("scalar");
                prop_assert_eq!(
                    delays[lane].to_bits(),
                    delay.to_bits(),
                    "delay diverges: lane {} step {}", lane, t
                );
            }
        }
    }

    /// A random mix of settle and step batches on one wide sim tracks
    /// per-lane scalar sims that step every batch: after a settle each
    /// active lane's outputs match, and after a step its delay and outputs
    /// do.
    #[test]
    fn settle_leaves_the_state_a_step_would(
        stage_choice in 0usize..3,
        active in 1usize..65,
        steps in 2usize..30,
        settles in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let stage = build_stage(stage_for(stage_choice), 8).expect("stage");
        let netlist = stage.netlist();
        let n_pi = netlist.primary_inputs().len();
        let mut wide = WideTimingSim::new(netlist, Voltage::NOMINAL).expect("wide");
        let mut scalars: Vec<TimingSim> = (0..active)
            .map(|_| TimingSim::new(netlist, Voltage::NOMINAL).expect("scalar"))
            .collect();
        let mut rngs: Vec<Lcg> = (0..active)
            .map(|lane| Lcg(seed ^ (lane as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)))
            .collect();
        let mut words = vec![0u64; n_pi];
        let mut vector = vec![false; n_pi];
        for t in 0..steps {
            let mut expected = Vec::with_capacity(active);
            for lane in 0..active {
                for (i, slot) in vector.iter_mut().enumerate() {
                    *slot = rngs[lane].next_bool();
                    let mask = !(1u64 << lane);
                    words[i] = (words[i] & mask) | (u64::from(*slot) << lane);
                }
                expected.push(scalars[lane].step(&vector).expect("scalar"));
            }
            if (settles >> t) & 1 == 1 {
                wide.settle(&words).expect("settle");
                for (lane, scalar) in scalars.iter().enumerate() {
                    prop_assert_eq!(
                        wide.output_word(lane),
                        scalar.output_word(),
                        "outputs diverge after a settle: lane {} batch {}", lane, t
                    );
                }
                continue;
            }
            let delays = wide.step(&words).expect("wide");
            for (lane, exp) in expected.iter().enumerate() {
                prop_assert_eq!(
                    delays[lane].to_bits(),
                    exp.to_bits(),
                    "delay diverges: lane {} batch {}", lane, t
                );
                prop_assert_eq!(
                    wide.output_word(lane),
                    scalars[lane].output_word(),
                    "outputs diverge: lane {} batch {}", lane, t
                );
            }
        }
    }

    /// The 64×64 block transpose equals the per-bit loop it replaced, for
    /// any lane count (ragged batches read as zero lanes) and any input
    /// count that fits the words per lane.
    #[test]
    fn transpose_matches_the_per_bit_loop(
        lanes in 1usize..65,
        words_per_lane in 1usize..4,
        spare in 0usize..64,
        seed in any::<u64>(),
    ) {
        let n_inputs = 64 * words_per_lane - spare;
        let mut rng = Lcg(seed);
        let packed: Vec<u64> = (0..lanes * words_per_lane).map(|_| rng.next_u64()).collect();
        let mut fast = vec![rng.next_u64(); n_inputs];
        transpose_lanes(&packed, words_per_lane, &mut fast);
        let mut slow = vec![0u64; n_inputs];
        for lane in 0..lanes {
            for (k, word) in slow.iter_mut().enumerate() {
                let bit = packed[lane * words_per_lane + k / 64] >> (k % 64) & 1;
                *word |= bit << lane;
            }
        }
        prop_assert_eq!(fast, slow);
    }

    /// The lane-batched characterization entry point is bit-identical to
    /// the sequential reference across random event streams and sampling
    /// caps — including caps that leave a final ragged batch of fewer
    /// than 64 records, and caps that force strided subsampling.
    #[test]
    fn lane_batched_delay_trace_matches_scalar_reference(
        stage_choice in 0usize..3,
        n_events in 10usize..600,
        max_samples in 1usize..700,
        seed in any::<u64>(),
    ) {
        let mut rng = Lcg(seed | 1);
        let events: Vec<AluEvent> = (0..n_events)
            .map(|_| {
                let r = rng.next_u64();
                AluEvent::new(
                    AluOp::ALL[(r >> 58) as usize % AluOp::ALL.len()],
                    r & 0xFF,
                    (r >> 13) & 0xFF,
                )
            })
            .collect();
        let charac = StageCharacterizer::new(stage_for(stage_choice), 8).expect("build");
        let mut wide = Vec::new();
        let mut scalar = Vec::new();
        let wide_result = charac.delay_trace_into(&events, max_samples, &mut wide);
        let scalar_result = charac.delay_trace_into_scalar(&events, max_samples, &mut scalar);
        match (wide_result, scalar_result) {
            (Ok(()), Ok(())) => {
                let wide_bits: Vec<u64> = wide.iter().map(|d| d.to_bits()).collect();
                let scalar_bits: Vec<u64> = scalar.iter().map(|d| d.to_bits()).collect();
                prop_assert_eq!(wide_bits, scalar_bits);
            }
            (Err(w), Err(s)) => prop_assert_eq!(w.to_string(), s.to_string()),
            (w, s) => prop_assert!(false, "paths disagree on success: {:?} vs {:?}", w, s),
        }
    }
}
