//! End-to-end integration: workload kernels → gate-level characterization →
//! optimization → evaluation, plus the model-vs-simulator agreement that
//! justifies optimizing the closed form.

use synts::archsim::{simulate_barrier, CoreSetting, RazorCore};
use synts::core_api::solver::Poly;
use synts::prelude::*;

#[test]
fn full_pipeline_synts_wins_the_weighted_objective() {
    let harness = HarnessConfig::quick();
    let data =
        characterize(Benchmark::Cholesky, StageKind::SimpleAlu, &harness).expect("characterizes");
    let cfg = data.system_config();
    for iv in &data.intervals {
        let profiles = iv.profiles();
        let theta = theta_equal_weight(&cfg, &profiles).expect("theta");
        let synts = synts_poly(&cfg, &profiles, theta).expect("solves");
        let c_synts = weighted_cost(&cfg, &profiles, &synts, theta);
        for a in [
            nominal(&cfg, &profiles).expect("nominal"),
            no_ts(&cfg, &profiles, theta).expect("no-ts"),
            per_core_ts(&cfg, &profiles, theta).expect("per-core"),
        ] {
            let c = weighted_cost(&cfg, &profiles, &a, theta);
            assert!(
                c_synts <= c * (1.0 + 1e-9),
                "SynTS must win Eq 4.4: {c_synts} vs {c}"
            );
        }
    }
}

#[test]
fn analytic_model_matches_cycle_level_simulation() {
    // Eq 4.1-4.3 and the instruction-by-instruction Razor simulator must
    // agree exactly when the error curve comes from the same trace.
    let harness = HarnessConfig::quick();
    let data = characterize(Benchmark::Fmm, StageKind::SimpleAlu, &harness).expect("characterizes");
    let cfg = data.system_config();
    let iv = &data.intervals[0];

    // Build profiles over the trace population (so N matches the sim).
    let traces: Vec<&[f64]> = iv
        .threads
        .iter()
        .map(|t| t.normalized_delays.as_slice())
        .collect();
    let profiles = iv.trace_profiles();
    let assignment = synts_poly(&cfg, &profiles, 1.0).expect("solves");

    let predicted = evaluate(&cfg, &profiles, &assignment);
    let settings: Vec<CoreSetting> = assignment
        .points
        .iter()
        .map(|p| CoreSetting {
            voltage: cfg.voltages.levels()[p.voltage_idx],
            tsr: cfg.tsr_levels[p.tsr_idx],
        })
        .collect();
    let cpi: Vec<f64> = iv.threads.iter().map(|t| t.cpi_base).collect();
    let sim = simulate_barrier(
        data.tnom_v1,
        &settings,
        &traces,
        &cpi,
        cfg.alpha,
        RazorCore {
            c_penalty: cfg.c_penalty as u64,
        },
    );
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-12);
    assert!(
        rel(sim.texec, predicted.time) < 1e-9,
        "time: sim {} vs model {}",
        sim.texec,
        predicted.time
    );
    assert!(
        rel(sim.energy, predicted.energy) < 1e-9,
        "energy: sim {} vs model {}",
        sim.energy,
        predicted.energy
    );
}

#[test]
fn online_controller_close_to_oracle_on_stationary_workload() {
    // Ocean's stencil intervals are stationary, so the sampling prefix is
    // representative and the online controller should land near the oracle.
    let harness = HarnessConfig::quick();
    let data =
        characterize(Benchmark::Ocean, StageKind::SimpleAlu, &harness).expect("characterizes");
    let cfg = data.system_config();
    let iv = &data.intervals[0];
    let longest = iv
        .threads
        .iter()
        .map(|t| t.normalized_delays.len())
        .max()
        .unwrap_or(0);
    let plan = SamplingPlan::paper_default(longest, cfg.s());
    let online = run_interval(&cfg, &iv.threads, 1.0, plan, &Poly, None).expect("online");
    let (_, offline) = Poly
        .solve_evaluated(&cfg, &iv.trace_profiles(), 1.0)
        .expect("offline");
    let ratio = online.total.edp() / offline.edp();
    assert!(
        (0.9..1.8).contains(&ratio),
        "online/offline EDP ratio {ratio}"
    );
}

#[test]
fn homogeneous_benchmark_gives_synts_no_edge_over_per_core() {
    // Ocean is the paper's homogeneous control: SynTS and per-core TS
    // should land within a whisker of each other.
    let harness = HarnessConfig::quick();
    let data =
        characterize(Benchmark::Ocean, StageKind::SimpleAlu, &harness).expect("characterizes");
    let cfg = data.system_config();
    let iv = &data.intervals[0];
    let profiles = iv.profiles();
    let theta = theta_equal_weight(&cfg, &profiles).expect("theta");
    let synts = weighted_cost(
        &cfg,
        &profiles,
        &synts_poly(&cfg, &profiles, theta).expect("solves"),
        theta,
    );
    let percore = weighted_cost(
        &cfg,
        &profiles,
        &per_core_ts(&cfg, &profiles, theta).expect("solves"),
        theta,
    );
    let gap = (percore - synts) / synts;
    assert!(
        gap < 0.08,
        "homogeneous workload should leave little joint headroom, gap {gap}"
    );
}

#[test]
fn heterogeneous_benchmark_gives_synts_a_real_edge() {
    let harness = HarnessConfig::quick();
    let data =
        characterize(Benchmark::LuContig, StageKind::SimpleAlu, &harness).expect("characterizes");
    let cfg = data.system_config();
    let mut best_gap = 0.0f64;
    for iv in &data.intervals {
        let profiles = iv.profiles();
        let theta = theta_equal_weight(&cfg, &profiles).expect("theta");
        let synts = weighted_cost(
            &cfg,
            &profiles,
            &synts_poly(&cfg, &profiles, theta).expect("solves"),
            theta,
        );
        let percore = weighted_cost(
            &cfg,
            &profiles,
            &per_core_ts(&cfg, &profiles, theta).expect("solves"),
            theta,
        );
        best_gap = best_gap.max((percore - synts) / synts);
    }
    assert!(
        best_gap > 0.01,
        "heterogeneous workload should reward joint optimization, gap {best_gap}"
    );
}

#[test]
fn leakage_model_matches_cycle_level_simulation() {
    // The leakage-extended closed form (synts_core::leakage) and the
    // cycle-level simulator with static power must agree exactly when the
    // error curve comes from the same trace — the same certification
    // analytic_model_matches_cycle_level_simulation gives Eq 4.1–4.3.
    use synts::archsim::{simulate_barrier_with_leakage, SleepPolicy};

    let harness = HarnessConfig::quick();
    let data = characterize(Benchmark::Fmm, StageKind::SimpleAlu, &harness).expect("characterizes");
    let cfg = data.system_config();
    let iv = &data.intervals[0];
    let traces: Vec<&[f64]> = iv
        .threads
        .iter()
        .map(|t| t.normalized_delays.as_slice())
        .collect();
    let profiles = iv.trace_profiles();
    let leak = LeakageModel::fraction_of_dynamic(&cfg, 0.3).expect("valid");
    let assignment = synts_poly_leakage(&cfg, &profiles, 1.0, &leak).expect("solves");
    let predicted = evaluate_with_leakage(&cfg, &profiles, &assignment, &leak);
    let settings: Vec<CoreSetting> = assignment
        .points
        .iter()
        .map(|p| CoreSetting {
            voltage: cfg.voltages.levels()[p.voltage_idx],
            tsr: cfg.tsr_levels[p.tsr_idx],
        })
        .collect();
    let cpi: Vec<f64> = iv.threads.iter().map(|t| t.cpi_base).collect();
    let sim = simulate_barrier_with_leakage(
        data.tnom_v1,
        &settings,
        &traces,
        &cpi,
        cfg.alpha,
        RazorCore {
            c_penalty: cfg.c_penalty as u64,
        },
        leak.p_leak_nominal,
        leak.voltage_exponent,
        SleepPolicy {
            idle_retention: leak.idle_scale,
            wake_cycles: 0.0,
        },
    );
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-12);
    assert!(
        rel(sim.texec, predicted.time) < 1e-9,
        "time: sim {} vs model {}",
        sim.texec,
        predicted.time
    );
    assert!(
        rel(sim.energy, predicted.energy) < 1e-9,
        "energy: sim {} vs model {}",
        sim.energy,
        predicted.energy
    );
}

#[test]
fn thrifty_model_matches_cycle_level_simulation() {
    // core::thrifty's closed form against the cycle-level sleep policy.
    use synts::archsim::{simulate_barrier_with_leakage, SleepPolicy};

    let harness = HarnessConfig::quick();
    let data =
        characterize(Benchmark::Radix, StageKind::SimpleAlu, &harness).expect("characterizes");
    let cfg = data.system_config();
    let iv = &data.intervals[0];
    let traces: Vec<&[f64]> = iv
        .threads
        .iter()
        .map(|t| t.normalized_delays.as_slice())
        .collect();
    let profiles = iv.trace_profiles();
    let leak = LeakageModel::fraction_of_dynamic(&cfg, 0.3).expect("valid");
    let thrifty = ThriftyConfig::classic();
    let model = thrifty_barrier(&cfg, &profiles, &leak, &thrifty).expect("evaluates");
    let settings: Vec<CoreSetting> = model
        .assignment
        .points
        .iter()
        .map(|p| CoreSetting {
            voltage: cfg.voltages.levels()[p.voltage_idx],
            tsr: cfg.tsr_levels[p.tsr_idx],
        })
        .collect();
    let cpi: Vec<f64> = iv.threads.iter().map(|t| t.cpi_base).collect();
    let sim = simulate_barrier_with_leakage(
        data.tnom_v1,
        &settings,
        &traces,
        &cpi,
        cfg.alpha,
        RazorCore {
            c_penalty: cfg.c_penalty as u64,
        },
        leak.p_leak_nominal,
        leak.voltage_exponent,
        SleepPolicy {
            idle_retention: thrifty.sleep_retention,
            wake_cycles: thrifty.wake_cycles,
        },
    );
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-12);
    assert!(
        rel(sim.texec, model.total.time) < 1e-9,
        "time: sim {} vs model {}",
        sim.texec,
        model.total.time
    );
    assert!(
        rel(sim.energy, model.total.energy) < 1e-9,
        "energy: sim {} vs model {}",
        sim.energy,
        model.total.energy
    );
}
