//! Property-based certification of the extension modules: the leakage
//! and power-cap generalizations keep their solvers exact, the thrifty
//! barrier model obeys its defining inequalities, and the `N_i`
//! predictors stay inside the envelope of their observations.

use proptest::prelude::*;
use synts::core_api::criticality::{NiPredictor, PredictorKind};
use synts::core_api::leakage::synts_exhaustive_leakage;
use synts::core_api::power_cap::synts_exhaustive_power_capped;
use synts::prelude::*;
use synts::timing::VoltageTable;

#[derive(Debug, Clone)]
struct Instance {
    cfg: SystemConfig,
    profiles: Vec<ThreadProfile<ErrorCurve>>,
    theta: f64,
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    let thread = (
        0.2f64..0.8,          // delay band low
        0.05f64..0.3,         // band width
        1_000.0f64..50_000.0, // N
        1.0f64..2.5,          // CPI
    );
    (
        prop::collection::vec(thread, 2..4),
        2usize..4,     // voltage levels
        2usize..4,     // TSR levels
        0.0f64..100.0, // theta scale
    )
        .prop_map(|(threads, q, s, theta_raw)| {
            let volts: Vec<f64> = (0..q).map(|j| 1.0 - 0.08 * j as f64).collect();
            let mut cfg = SystemConfig::paper_default(25.0);
            cfg.voltages = VoltageTable::from_volts(volts).expect("in range");
            cfg.tsr_levels = (0..s)
                .map(|k| 0.6 + 0.4 * k as f64 / (s - 1) as f64)
                .collect();
            let profiles = threads
                .into_iter()
                .map(|(lo, w, n, cpi)| {
                    let delays: Vec<f64> = (0..64)
                        .map(|i| (lo + w * i as f64 / 64.0).min(1.0))
                        .collect();
                    ThreadProfile::new(
                        n,
                        cpi,
                        ErrorCurve::from_normalized_delays(delays).expect("non-empty"),
                    )
                })
                .collect();
            Instance {
                cfg,
                profiles,
                theta: theta_raw,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn leakage_poly_matches_exhaustive(
        inst in instance_strategy(),
        frac in 0.0f64..0.8,
        idle in 0.0f64..1.0,
    ) {
        let mut leak = LeakageModel::fraction_of_dynamic(&inst.cfg, frac).expect("valid");
        leak.idle_scale = idle;
        let poly = synts_poly_leakage(&inst.cfg, &inst.profiles, inst.theta, &leak)
            .expect("poly");
        let ex = synts_exhaustive_leakage(&inst.cfg, &inst.profiles, inst.theta, &leak)
            .expect("exhaustive");
        let cp = weighted_cost_with_leakage(&inst.cfg, &inst.profiles, &poly, &leak, inst.theta);
        let ce = weighted_cost_with_leakage(&inst.cfg, &inst.profiles, &ex, &leak, inst.theta);
        prop_assert!(
            (cp - ce).abs() <= 1e-9 * ce.abs().max(1.0),
            "leakage poly {cp} vs exhaustive {ce}"
        );
    }

    #[test]
    fn leakage_energy_dominates_dynamic_only(
        inst in instance_strategy(),
        frac in 0.01f64..0.8,
    ) {
        // Adding leakage can only add energy, never time, at fixed points.
        let leak = LeakageModel::fraction_of_dynamic(&inst.cfg, frac).expect("valid");
        let a = synts_poly(&inst.cfg, &inst.profiles, inst.theta).expect("poly");
        let base = evaluate(&inst.cfg, &inst.profiles, &a);
        let ext = evaluate_with_leakage(&inst.cfg, &inst.profiles, &a, &leak);
        prop_assert!(ext.energy > base.energy);
        prop_assert!((ext.time - base.time).abs() <= 1e-12 * base.time.max(1.0));
    }

    #[test]
    fn power_cap_poly_matches_exhaustive(
        inst in instance_strategy(),
        cap_scale in 0.4f64..4.0,
    ) {
        // Cap relative to the nominal assignment's average power.
        let nom = nominal(&inst.cfg, &inst.profiles).expect("nominal");
        let ed = evaluate(&inst.cfg, &inst.profiles, &nom);
        let cap = cap_scale * ed.energy / ed.time;
        let poly = synts_poly_power_capped(&inst.cfg, &inst.profiles, cap);
        let ex = synts_exhaustive_power_capped(&inst.cfg, &inst.profiles, cap);
        match (poly, ex) {
            (Ok(p), Ok(e)) => {
                prop_assert!(
                    (p.time - e.time).abs() <= 1e-9 * e.time.max(1.0),
                    "cap {cap}: poly {} vs exhaustive {}", p.time, e.time
                );
                prop_assert!(p.avg_power <= cap * (1.0 + 1e-9));
            }
            (Err(OptError::Infeasible), Err(OptError::Infeasible)) => {}
            (p, e) => prop_assert!(false, "solvers disagree: {p:?} vs {e:?}"),
        }
    }

    #[test]
    fn power_cap_monotone_in_cap(
        inst in instance_strategy(),
    ) {
        let nom = nominal(&inst.cfg, &inst.profiles).expect("nominal");
        let ed = evaluate(&inst.cfg, &inst.profiles, &nom);
        let p_nom = ed.energy / ed.time;
        let mut prev = f64::INFINITY;
        for scale in [0.5, 1.0, 2.0, 4.0] {
            if let Ok(sol) = synts_poly_power_capped(&inst.cfg, &inst.profiles, p_nom * scale) {
                prop_assert!(sol.time <= prev * (1.0 + 1e-12));
                prev = sol.time;
            }
        }
    }

    #[test]
    fn thrifty_saves_versus_sleepless_whenever_threads_idle(
        inst in instance_strategy(),
        frac in 0.05f64..0.6,
        retention in 0.0f64..0.9,
    ) {
        let leak = LeakageModel::fraction_of_dynamic(&inst.cfg, frac).expect("valid");
        let thrifty = ThriftyConfig { sleep_retention: retention, wake_cycles: 0.0 };
        let out = thrifty_barrier(&inst.cfg, &inst.profiles, &leak, &thrifty).expect("ok");
        let sleepless = evaluate_with_leakage(&inst.cfg, &inst.profiles, &out.assignment, &leak);
        if out.sleep_time > 0.0 {
            prop_assert!(out.total.energy <= sleepless.energy * (1.0 + 1e-12));
        } else {
            prop_assert!((out.total.energy - sleepless.energy).abs()
                <= 1e-9 * sleepless.energy.max(1.0));
        }
        prop_assert!((out.total.time - sleepless.time).abs() <= 1e-12 * sleepless.time.max(1.0));
    }

    #[test]
    fn predictors_stay_inside_observation_envelope(
        observations in prop::collection::vec(10.0f64..1_000_000.0, 1..30),
        alpha in 0.05f64..1.0,
        window in 1usize..8,
    ) {
        // Every predictor is a convex combination of past observations.
        let kinds = [
            PredictorKind::LastValue,
            PredictorKind::Ewma(alpha),
            PredictorKind::WindowMean(window),
        ];
        for kind in kinds {
            let mut p = NiPredictor::new(1, kind).expect("valid");
            for &n in &observations {
                p.observe(&[n]).expect("valid obs");
            }
            let est = p.predict().expect("observed")[0];
            let lo = observations.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = observations.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(
                est >= lo * (1.0 - 1e-12) && est <= hi * (1.0 + 1e-12),
                "{kind:?} escaped envelope: {est} not in [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn leakage_objective_never_beaten_by_random_assignments(
        inst in instance_strategy(),
        frac in 0.0f64..0.6,
        seed in any::<u64>(),
    ) {
        let leak = LeakageModel::fraction_of_dynamic(&inst.cfg, frac).expect("valid");
        let opt = synts_poly_leakage(&inst.cfg, &inst.profiles, inst.theta, &leak)
            .expect("poly");
        let c_opt =
            weighted_cost_with_leakage(&inst.cfg, &inst.profiles, &opt, &leak, inst.theta);
        let mut state = seed | 1;
        for _ in 0..20 {
            let points = (0..inst.profiles.len())
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    OperatingPoint {
                        voltage_idx: (state >> 33) as usize % inst.cfg.q(),
                        tsr_idx: (state >> 49) as usize % inst.cfg.s(),
                    }
                })
                .collect();
            let a = Assignment { points };
            let c = weighted_cost_with_leakage(&inst.cfg, &inst.profiles, &a, &leak, inst.theta);
            prop_assert!(c >= c_opt - 1e-9 * c_opt.abs().max(1.0));
        }
    }
}

/// Deterministic end-to-end check: a die aged by the gatelib aging model
/// pushes every thread's error curve up, and SynTS responds by choosing
/// equal-or-more-conservative TSR levels.
#[test]
fn aging_makes_synts_more_conservative() {
    use synts::circuits::{AluEvent, AluOp, PipeStage, SimpleAlu};
    use synts::gatelib::variation::AgingModel;
    use synts::gatelib::{StaticTiming, TimingSim, Voltage};

    let alu = SimpleAlu::new(8).expect("build");
    // A modest operand stream with mixed carry lengths.
    let mut events = Vec::new();
    let mut state = 0x1357_9bdfu64;
    for _ in 0..400 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        events.push(AluEvent::new(AluOp::Add, state & 0xFF, (state >> 8) & 0xFF));
    }
    let run = |factors: Option<&synts::gatelib::variation::DelayFactors>| -> Vec<f64> {
        let tnom = match factors {
            Some(f) => StaticTiming::analyze_with_factors(alu.netlist(), Voltage::NOMINAL, f)
                .expect("sta")
                .nominal_period(),
            None => StaticTiming::analyze(alu.netlist(), Voltage::NOMINAL)
                .expect("sta")
                .nominal_period(),
        };
        let mut sim = match factors {
            Some(f) => TimingSim::with_factors(alu.netlist(), Voltage::NOMINAL, f).expect("sim"),
            None => TimingSim::new(alu.netlist(), Voltage::NOMINAL).expect("sim"),
        };
        events
            .iter()
            .map(|ev| sim.step(&alu.encode(ev)).expect("ok") / tnom)
            .collect()
    };
    let fresh: Vec<f64> = run(None);
    // Age the die 10 years but keep the clock budget of the fresh die:
    // normalize aged delays by the FRESH nominal period, which is exactly
    // the "aging eats the guard band" scenario.
    let aging = AgingModel::nbti_ptm22();
    let factors = aging
        .factors(alu.netlist().cell_count(), 10.0, None)
        .expect("ok");
    let fresh_tnom = StaticTiming::analyze(alu.netlist(), Voltage::NOMINAL)
        .expect("sta")
        .nominal_period();
    let mut sim = TimingSim::with_factors(alu.netlist(), Voltage::NOMINAL, &factors).expect("sim");
    let aged: Vec<f64> = events
        .iter()
        .map(|ev| (sim.step(&alu.encode(ev)).expect("ok") / fresh_tnom).min(1.0))
        .collect();

    let cfg = SystemConfig::paper_default(fresh_tnom);
    let curve = |d: &[f64]| ErrorCurve::from_normalized_delays(d.to_vec()).expect("ok");
    let fresh_profiles = vec![ThreadProfile::new(10_000.0, 1.0, curve(&fresh))];
    let aged_profiles = vec![ThreadProfile::new(10_000.0, 1.0, curve(&aged))];
    let theta = 1.0;
    let a_fresh = synts_poly(&cfg, &fresh_profiles, theta).expect("ok");
    let a_aged = synts_poly(&cfg, &aged_profiles, theta).expect("ok");
    // The aged die errs more at every r, so the chosen TSR must not be
    // more aggressive (lower) than the fresh die's at the same voltage
    // trade-off.
    assert!(
        a_aged.points[0].tsr_idx >= a_fresh.points[0].tsr_idx,
        "aged die must not speculate harder: {:?} vs {:?}",
        a_aged.points[0],
        a_fresh.points[0]
    );
}

/// Failure injection: the solvers refuse malformed inputs loudly rather
/// than returning garbage.
#[test]
fn extension_apis_reject_malformed_inputs() {
    let cfg = SystemConfig::paper_default(10.0);
    let curve = ErrorCurve::from_normalized_delays(vec![0.5; 8]).expect("ok");
    let profiles = vec![ThreadProfile::new(100.0, 1.0, curve)];

    // Leakage: broken model.
    let mut bad_leak = LeakageModel::none();
    bad_leak.idle_scale = f64::NAN;
    assert!(synts_poly_leakage(&cfg, &profiles, 1.0, &bad_leak).is_err());

    // Power cap: zero/NaN caps.
    assert!(synts_poly_power_capped(&cfg, &profiles, 0.0).is_err());
    assert!(synts_poly_power_capped(&cfg, &profiles, f64::INFINITY).is_err());

    // Thrifty: malformed retention.
    let bad_thrifty = ThriftyConfig {
        sleep_retention: 2.0,
        wake_cycles: 0.0,
    };
    assert!(thrifty_barrier(&cfg, &profiles, &LeakageModel::none(), &bad_thrifty).is_err());

    // Predictor: bad shapes propagate.
    let mut p = NiPredictor::new(2, PredictorKind::LastValue).expect("ok");
    assert!(p.observe(&[1.0, 2.0, 3.0]).is_err());
}
