//! The online SynTS controller in action (paper Sec 4.3).
//!
//! Runs the sampling phase on a characterized interval's delays, shows
//! the estimated vs actual error curves, and quantifies the energy/time
//! the online scheme gives up relative to the offline oracle — first for
//! one interval in detail, then for the whole benchmark, with the
//! intervals fanned out across the `SYNTS_THREADS` pool by
//! `ThreadPool::try_map`.
//!
//! Run with: `cargo run --release --example online_controller`

use synts::core_api::solver::Poly;
use synts::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let harness = HarnessConfig::quick();
    let data = characterize(Benchmark::Fmm, StageKind::SimpleAlu, &harness)?;
    let cfg = data.system_config();
    let iv = &data.intervals[0];
    let longest = iv
        .threads
        .iter()
        .map(|t| t.normalized_delays.len())
        .max()
        .unwrap_or(0);
    let plan = SamplingPlan::paper_default(longest, cfg.s());
    println!(
        "sampling plan: {} instructions per thread at {} ({} per TSR level)\n",
        plan.n_samp,
        plan.v_samp,
        plan.n_samp / cfg.s()
    );

    // Estimated vs actual error curves per thread.
    println!("estimated ~err(r) vs actual err(r):");
    for (t, thread) in iv.threads.iter().enumerate() {
        let est = estimate_curve(&cfg, &thread.normalized_delays, plan)?;
        print!("  T{t}:");
        for &r in &cfg.tsr_levels {
            print!(" r={r:.2}: {:.3}/{:.3}", est.err(r), thread.curve.err(r));
        }
        println!();
    }

    // Run the interval online and compare with the offline oracle:
    // SynTS-Poly on the exact curves of the same delays.
    let theta = 1.0;
    let online = run_interval(&cfg, &iv.threads, theta, plan, &Poly, None)?;
    let (oracle_assignment, offline) = Poly.solve_evaluated(&cfg, &iv.trace_profiles(), theta)?;
    println!("\nchosen operating points (online | oracle):");
    for t in 0..iv.threads.len() {
        let op = online.assignment.points[t];
        let or = oracle_assignment.points[t];
        println!(
            "  T{t}: {:.2}V/r{:.2}  |  {:.2}V/r{:.2}",
            cfg.voltages.levels()[op.voltage_idx].volts(),
            cfg.tsr_levels[op.tsr_idx],
            cfg.voltages.levels()[or.voltage_idx].volts(),
            cfg.tsr_levels[or.tsr_idx],
        );
    }
    println!(
        "\nsampling overhead: {:.1}% of interval time, {:.1}% of energy",
        100.0 * online.sampling.time / online.total.time,
        100.0 * online.sampling.energy / online.total.energy
    );
    println!(
        "online EDP / offline EDP = {:.3} (the cost of not knowing the future)",
        online.total.edp() / offline.edp()
    );

    // The whole benchmark at once: intervals are independent (each thread
    // re-samples at its barrier), so they fan out across the pool, with
    // the solver looked up by key. Outcomes are index-ordered and
    // identical to a sequential per-interval loop.
    let pool = ThreadPool::from_env();
    let registry = SolverRegistry::<SampledCurve>::with_defaults();
    let solver = registry.get("synts_poly")?;
    let outcomes = pool.try_map(&data.intervals, |_, iv| {
        run_interval(&cfg, &iv.threads, theta, plan, &*solver, None)
    })?;
    let mut total = EnergyDelay::new(0.0, 0.0);
    let mut sampling = EnergyDelay::new(0.0, 0.0);
    for out in &outcomes {
        total.energy += out.total.energy;
        total.time += out.total.time;
        sampling.energy += out.sampling.energy;
        sampling.time += out.sampling.time;
    }
    println!(
        "\nall intervals: {} interval(s) on {} worker(s) -> total energy {:.1}, time {:.1} \
         (sampling overhead {:.1}% of energy)",
        outcomes.len(),
        pool.workers(),
        total.energy,
        total.time,
        100.0 * sampling.energy / total.energy
    );
    Ok(())
}
