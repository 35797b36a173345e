//! Property-based tests for the gatelib invariants that the rest of the
//! SynTS stack relies on:
//!
//! 1. The timing simulator agrees with the functional reference evaluation
//!    on every vector of every circuit (logic correctness).
//! 2. Every dynamic sensitized delay is bounded by the STA critical path
//!    (timing speculation's safety envelope: at r = 1 no errors exist).
//! 3. Delay scales with voltage exactly per Table 5.1.

use gatelib::{CellKind, Netlist, NetlistBuilder, StaticTiming, TimingSim, Voltage};
use proptest::prelude::*;

/// Builds a random combinational DAG from a recipe of (kind index, input
/// selectors). Selectors index into the list of nets created so far, so the
/// construction is well-formed by design.
fn random_netlist(n_inputs: usize, recipe: &[(u8, u16, u16, u16)]) -> Netlist {
    let kinds = [
        CellKind::Inv,
        CellKind::Buf,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Nand3,
        CellKind::Nor3,
        CellKind::Mux2,
        CellKind::Maj3,
        CellKind::Xor3,
        CellKind::Aoi21,
        CellKind::Oai21,
    ];
    let mut b = NetlistBuilder::new("random");
    let mut nets: Vec<_> = (0..n_inputs).map(|i| b.input(format!("i{i}"))).collect();
    for &(k, s0, s1, s2) in recipe {
        let kind = kinds[k as usize % kinds.len()];
        let pick = |s: u16, nets: &[gatelib::NetId]| nets[s as usize % nets.len()];
        let sel = [pick(s0, &nets), pick(s1, &nets), pick(s2, &nets)];
        let out = b
            .cell(kind, &sel[..kind.arity()])
            .expect("arity satisfied by construction");
        nets.push(out);
    }
    // Expose the last few nets as outputs so deep logic is observable.
    let n_out = nets.len().min(8);
    for (i, &n) in nets[nets.len() - n_out..].iter().enumerate() {
        b.output(n, format!("o{i}"));
    }
    b.finish().expect("valid by construction")
}

fn recipe_strategy() -> impl Strategy<Value = Vec<(u8, u16, u16, u16)>> {
    prop::collection::vec(
        (any::<u8>(), any::<u16>(), any::<u16>(), any::<u16>()),
        1..60,
    )
}

fn vectors_strategy(n_inputs: usize) -> impl Strategy<Value = Vec<Vec<bool>>> {
    prop::collection::vec(prop::collection::vec(any::<bool>(), n_inputs), 2..20)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sim_agrees_with_functional_eval(
        recipe in recipe_strategy(),
        vectors in vectors_strategy(5),
    ) {
        let n = random_netlist(5, &recipe);
        let mut sim = TimingSim::new(&n, Voltage::NOMINAL).expect("outputs exist");
        for v in &vectors {
            sim.step(v).expect("width matches");
            let reference = n.evaluate(v).expect("width matches");
            prop_assert_eq!(sim.outputs(), reference);
        }
    }

    #[test]
    fn dynamic_delay_never_exceeds_sta(
        recipe in recipe_strategy(),
        vectors in vectors_strategy(5),
    ) {
        let n = random_netlist(5, &recipe);
        let sta = StaticTiming::analyze(&n, Voltage::NOMINAL).expect("outputs exist");
        let bound = sta.nominal_period() + 1e-9;
        let mut sim = TimingSim::new(&n, Voltage::NOMINAL).expect("outputs exist");
        for v in &vectors {
            let delay = sim.step(v).expect("width matches");
            prop_assert!(
                delay <= bound,
                "sensitized delay {} exceeds STA bound {}", delay, bound
            );
        }
    }

    #[test]
    fn delay_scales_linearly_with_voltage_factor(
        recipe in recipe_strategy(),
        vectors in vectors_strategy(4),
    ) {
        let n = random_netlist(4, &recipe);
        let v_lo = Voltage::new(0.68).expect("in range");
        let mut hi = TimingSim::new(&n, Voltage::NOMINAL).expect("ok");
        let mut lo = TimingSim::new(&n, v_lo).expect("ok");
        for v in &vectors {
            let d_hi = hi.step(v).expect("ok");
            let d_lo = lo.step(v).expect("ok");
            // Table 5.1: 0.68 V multiplies every delay by 2.21.
            prop_assert!((d_lo - d_hi * 2.21).abs() < 1e-6);
        }
    }

    #[test]
    fn two_simulators_report_bit_identical_delays_and_outputs(
        recipe in recipe_strategy(),
        vectors in vectors_strategy(5),
    ) {
        // Determinism: two identical simulators see identical histories.
        let n = random_netlist(5, &recipe);
        let mut a = TimingSim::new(&n, Voltage::NOMINAL).expect("ok");
        let mut b = TimingSim::new(&n, Voltage::NOMINAL).expect("ok");
        for v in &vectors {
            let da = a.step(v).expect("ok");
            let db = b.step(v).expect("ok");
            prop_assert_eq!(da.to_bits(), db.to_bits());
            prop_assert_eq!(a.outputs(), b.outputs());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn factored_dynamic_delay_never_exceeds_factored_sta(
        recipe in recipe_strategy(),
        vectors in vectors_strategy(5),
        seed in any::<u64>(),
    ) {
        // Invariant 2 survives process variation: on any sampled die, the
        // factored STA still bounds every dynamic sensitized delay.
        let n = random_netlist(5, &recipe);
        let model = gatelib::variation::VariationModel::ptm22_typical();
        let die = model.sample(n.cell_count(), seed);
        let sta = StaticTiming::analyze_with_factors(&n, Voltage::NOMINAL, &die)
            .expect("outputs exist");
        let bound = sta.nominal_period() + 1e-9;
        let mut sim = TimingSim::with_factors(&n, Voltage::NOMINAL, &die)
            .expect("outputs exist");
        for v in &vectors {
            let delay = sim.step(v).expect("width matches");
            prop_assert!(
                delay <= bound,
                "sensitized delay {} exceeds factored STA bound {}", delay, bound
            );
        }
    }

    #[test]
    fn factored_sta_within_factor_range_of_nominal(
        recipe in recipe_strategy(),
        seed in any::<u64>(),
    ) {
        // Scaling every cell by at most f_max cannot stretch the critical
        // path beyond f_max× (and likewise f_min below).
        let n = random_netlist(5, &recipe);
        let model = gatelib::variation::VariationModel::ptm22_typical();
        let die = model.sample(n.cell_count(), seed);
        let (f_min, f_max) = die.range();
        let base = StaticTiming::analyze(&n, Voltage::NOMINAL)
            .expect("ok").nominal_period();
        let var = StaticTiming::analyze_with_factors(&n, Voltage::NOMINAL, &die)
            .expect("ok").nominal_period();
        prop_assert!(var <= base * f_max * (1.0 + 1e-12));
        prop_assert!(var >= base * f_min * (1.0 - 1e-12));
    }

    #[test]
    fn variation_does_not_change_logic(
        recipe in recipe_strategy(),
        vectors in vectors_strategy(5),
        seed in any::<u64>(),
    ) {
        // Variation perturbs delay only; functional outputs are identical.
        let n = random_netlist(5, &recipe);
        let model = gatelib::variation::VariationModel::ptm22_typical();
        let die = model.sample(n.cell_count(), seed);
        let mut sim = TimingSim::with_factors(&n, Voltage::NOMINAL, &die).expect("ok");
        for v in &vectors {
            sim.step(v).expect("width matches");
            let reference = n.evaluate(v).expect("width matches");
            prop_assert_eq!(sim.outputs(), reference);
        }
    }

    #[test]
    fn aging_only_slows_the_critical_path(
        recipe in recipe_strategy(),
        years in 0.0f64..20.0,
    ) {
        let n = random_netlist(5, &recipe);
        let aging = gatelib::variation::AgingModel::nbti_ptm22();
        let fresh = StaticTiming::analyze(&n, Voltage::NOMINAL)
            .expect("ok").nominal_period();
        let factors = aging.factors(n.cell_count(), years, None).expect("ok");
        let aged = StaticTiming::analyze_with_factors(&n, Voltage::NOMINAL, &factors)
            .expect("ok").nominal_period();
        prop_assert!(aged >= fresh * (1.0 - 1e-12), "aging never speeds up");
        let expect = fresh * (1.0 + aging.degradation(years));
        prop_assert!((aged - expect).abs() <= 1e-9 * expect.max(1.0),
            "uniform aging scales the whole path: {} vs {}", aged, expect);
    }
}
