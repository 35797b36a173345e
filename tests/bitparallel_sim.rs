//! Bit-identity of the 64-lane bit-parallel gate sim against the scalar
//! simulator — the contract that lets the characterization pipeline run
//! 64 trace vectors per machine word without perturbing a single golden
//! fixture.
//!
//! Two layers are pinned:
//!
//! * [`gatelib::WideTimingSim`] lane-for-lane against 64 independent
//!   [`gatelib::TimingSim`] runs — delays, toggle counts, outputs and
//!   cumulative energy, including *ragged* batches that drive fewer than
//!   64 lanes and leave the rest idle;
//! * [`gatelib::WideTimingSim::settle`] interleaved with `step` against
//!   scalar runs that always step: a settle leaves the logic state a step
//!   would, so the next step's delays do not change, and it adds nothing
//!   to the toggle and energy totals;
//! * [`timing::StageCharacterizer::delay_trace_into`] (the lane-batched
//!   entry point) against `delay_trace_into_scalar` (the sequential
//!   reference) across random event streams, stage kinds and sampling
//!   caps — covering both the chained stride-1 walk and the strided
//!   seeded-pair regime.

use proptest::prelude::*;
use synts::circuits::{build_stage, AluEvent, AluOp, StageKind};
use synts::gatelib::{TimingSim, Voltage, WideTimingSim, LANES};
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
}

fn stage_for(choice: usize) -> StageKind {
    [
        StageKind::SimpleAlu,
        StageKind::Decode,
        StageKind::ComplexAlu,
    ][choice % 3]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every active lane of one wide sim equals its own scalar sim,
    /// transition for transition; idle lanes (ragged batches < 64) toggle
    /// nothing and cost nothing.
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
        for t in 0..steps {
            // Idle lanes (active..64) keep their initial all-zero vector:
            // never toggled, never counted.
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
            let ws = wide.step(&words).expect("wide");
            for (lane, exp) in expected.iter().enumerate() {
                prop_assert_eq!(
                    ws.delays[lane].to_bits(),
                    exp.delay.to_bits(),
                    "delay diverges: lane {} step {}", lane, t
                );
                prop_assert_eq!(
                    ws.toggles[lane],
                    exp.toggles,
                    "toggles diverge: lane {} step {}", lane, t
                );
                prop_assert_eq!(
                    wide.output_word(lane),
                    scalars[lane].output_word(),
                    "outputs diverge: lane {} step {}", lane, t
                );
            }
            for lane in active..LANES {
                prop_assert_eq!(ws.toggles[lane], 0, "idle lane {} toggled", lane);
                prop_assert_eq!(ws.delays[lane].to_bits(), 0f64.to_bits());
            }
        }
        for (lane, scalar) in scalars.iter().enumerate() {
            prop_assert_eq!(
                wide.total_toggles(lane),
                scalar.total_toggles(),
                "toggle totals diverge: lane {}", lane
            );
            prop_assert_eq!(
                wide.total_switch_energy(lane).to_bits(),
                scalar.total_switch_energy().to_bits(),
                "energy totals diverge: lane {}", lane
            );
        }
        for lane in active..LANES {
            prop_assert_eq!(wide.total_toggles(lane), 0);
        }
    }

    /// Per-step delays and toggles, lane for lane: the wide step's result
    /// arrays equal the scalar step results exactly.
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
            let ws = wide.step(&words).expect("wide");
            for (lane, vector) in lane_vectors.iter().enumerate() {
                let ss = scalars[lane].step(vector).expect("scalar");
                prop_assert_eq!(
                    ws.delays[lane].to_bits(),
                    ss.delay.to_bits(),
                    "delay diverges: lane {} step {}", lane, t
                );
                prop_assert_eq!(
                    ws.toggles[lane],
                    ss.toggles,
                    "toggles diverge: lane {} step {}", lane, t
                );
            }
        }
    }

    /// A random mix of settle and step batches on one wide sim tracks
    /// per-lane scalar sims that step every batch: after a settle each
    /// active lane's outputs match, after a step its delay, toggles and
    /// outputs do, and only the step batches count toward the totals.
    #[test]
    fn settle_leaves_the_state_a_step_would_and_counts_nothing(
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
        let mut step_toggles = vec![0u64; active];
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
                let toggles: Vec<u64> = (0..LANES).map(|l| wide.total_toggles(l)).collect();
                let energy: Vec<u64> =
                    (0..LANES).map(|l| wide.total_switch_energy(l).to_bits()).collect();
                wide.settle(&words).expect("settle");
                for (lane, scalar) in scalars.iter().enumerate() {
                    prop_assert_eq!(
                        wide.output_word(lane),
                        scalar.output_word(),
                        "outputs diverge after a settle: lane {} batch {}", lane, t
                    );
                }
                prop_assert_eq!(
                    (0..LANES).map(|l| wide.total_toggles(l)).collect::<Vec<_>>(),
                    toggles,
                    "a settle counted toggles at batch {}", t
                );
                prop_assert_eq!(
                    (0..LANES)
                        .map(|l| wide.total_switch_energy(l).to_bits())
                        .collect::<Vec<_>>(),
                    energy,
                    "a settle counted energy at batch {}", t
                );
                continue;
            }
            let ws = wide.step(&words).expect("wide");
            for (lane, exp) in expected.iter().enumerate() {
                prop_assert_eq!(
                    ws.delays[lane].to_bits(),
                    exp.delay.to_bits(),
                    "delay diverges: lane {} batch {}", lane, t
                );
                prop_assert_eq!(
                    ws.toggles[lane],
                    exp.toggles,
                    "toggles diverge: lane {} batch {}", lane, t
                );
                prop_assert_eq!(
                    wide.output_word(lane),
                    scalars[lane].output_word(),
                    "outputs diverge: lane {} batch {}", lane, t
                );
                step_toggles[lane] += u64::from(exp.toggles);
            }
        }
        for (lane, &total) in step_toggles.iter().enumerate() {
            prop_assert_eq!(
                wide.total_toggles(lane),
                total,
                "toggle total is not the step batches' sum: lane {}", lane
            );
        }
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
