//! What one workload process measures, and the names it reports them
//! under. The metric names are the benchmark's public vocabulary: they
//! match `BENCHMARK.json` and later changes cite them.

use std::path::PathBuf;
use std::time::Instant;

use synts_core::scenario::Json;
use synts_core::Report;

use crate::inputs::Workload;
use crate::spans::Tracer;
use crate::sys;

/// How long a workload process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Repeated set-up, then whole cycles until the time is up.
    Timed,
    /// One set-up, then exactly one cycle: the same ops on every run,
    /// so traced and untraced processes can be compared op by op.
    Fixed,
}

/// Everything a workload process needs to know.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub mode: Mode,
    pub traced: bool,
    /// This process's fresh temp root (cache and journal dirs).
    pub root: PathBuf,
    /// Self-test: flip one byte of this op's output before checking it.
    pub plant: Option<usize>,
    /// When the process started: the first set-up is timed from here.
    pub started: Instant,
}

impl Ctx {
    /// Set-up repetitions this process runs: a timed run reports their
    /// median as `setup_s`.
    pub fn setup_reps(&self) -> usize {
        match self.mode {
            Mode::Timed => 5,
            Mode::Fixed => 1,
        }
    }

    /// Whether another cycle should start, `start` being when the timed
    /// phase began.
    pub fn wants_another_cycle(&self, start: Instant) -> bool {
        self.mode == Mode::Timed && start.elapsed().as_secs_f64() < self.seconds
    }

    /// The output an op is checked with: its real bytes, or, for the
    /// planted op of a self-test, the bytes with one byte flipped.
    pub fn observed(&self, op: usize, bytes: &str) -> Vec<u8> {
        let mut out = bytes.as_bytes().to_vec();
        if self.plant == Some(op) {
            if let Some(b) = out.get_mut(bytes.len() / 2) {
                *b ^= 0x01;
            }
        }
        out
    }
}

/// The per-layer metrics of a traced run, as per-op means unless the
/// name says otherwise. Layers a workload bypasses read 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    pub trace_build_s: f64,
    pub events_per_op: f64,
    pub stage_build_s: f64,
    pub gate_sim_s: f64,
    pub vectors_per_op: f64,
    pub vectors_per_cpu_s: f64,
    pub parallel_efficiency: f64,
    pub cache_key_s: f64,
    pub cache_load_s: f64,
    pub cache_store_s: f64,
    pub cache_entry_bytes: f64,
    pub cache_hit_ratio: f64,
    pub cache_lookups_per_op: f64,
    pub synts_poly_s: f64,
    pub synts_milp_s: f64,
    pub synts_exhaustive_s: f64,
    pub baselines_s: f64,
    pub theta_points_per_op: f64,
    pub run_on_self_s: f64,
    pub report_bytes: f64,
    pub submit_s: f64,
    pub queue_wait_s: f64,
    pub plan_s: f64,
    pub run_s: f64,
    pub fetch_s: f64,
    pub journal_bytes_per_job: f64,
    pub shard_retries: f64,
    pub polls_per_job: f64,
    pub unattributed_frac: f64,
}

impl Layers {
    /// `(name, value, unit)` for every per-layer metric but
    /// `trace.overhead_frac`, which needs the untraced process too.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("workloads.trace_build_s", self.trace_build_s, "s"),
            ("workloads.events_per_op", self.events_per_op, "count"),
            ("circuits.stage_build_s", self.stage_build_s, "s"),
            ("timing.gate_sim_s", self.gate_sim_s, "s"),
            ("timing.vectors_per_op", self.vectors_per_op, "count"),
            ("timing.vectors_per_cpu_s", self.vectors_per_cpu_s, "1/s"),
            (
                "core.parallel.efficiency",
                self.parallel_efficiency,
                "ratio",
            ),
            ("core.cache.key_s", self.cache_key_s, "s"),
            ("core.cache.load_s", self.cache_load_s, "s"),
            ("core.cache.store_s", self.cache_store_s, "s"),
            ("core.cache.entry_bytes", self.cache_entry_bytes, "bytes"),
            ("core.cache.hit_ratio", self.cache_hit_ratio, "ratio"),
            (
                "core.cache.lookups_per_op",
                self.cache_lookups_per_op,
                "count",
            ),
            ("core.solver.synts_poly_s", self.synts_poly_s, "s"),
            ("core.solver.synts_milp_s", self.synts_milp_s, "s"),
            (
                "core.solver.synts_exhaustive_s",
                self.synts_exhaustive_s,
                "s",
            ),
            ("core.solver.baselines_s", self.baselines_s, "s"),
            (
                "core.solver.theta_points_per_op",
                self.theta_points_per_op,
                "count",
            ),
            ("core.scenario.run_on_self_s", self.run_on_self_s, "s"),
            ("core.scenario.report_bytes", self.report_bytes, "bytes"),
            ("serve.http.submit_s", self.submit_s, "s"),
            ("serve.queue.wait_s", self.queue_wait_s, "s"),
            ("serve.plan_s", self.plan_s, "s"),
            ("serve.run_s", self.run_s, "s"),
            ("serve.http.fetch_s", self.fetch_s, "s"),
            (
                "serve.journal.bytes_per_job",
                self.journal_bytes_per_job,
                "bytes",
            ),
            ("serve.shard_retries", self.shard_retries, "count"),
            ("serve.polls_per_job", self.polls_per_job, "count"),
            ("unattributed_frac", self.unattributed_frac, "ratio"),
        ]
    }
}

/// What one workload process measured.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: usize,
    pub failed: usize,
    /// Wall time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Latency of every timed op, in op order.
    pub latencies_s: Vec<f64>,
    /// Each op's index in the workload's cycle, in op order.
    pub keys: Vec<usize>,
    /// Wall time of each whole cycle of the timed phase.
    pub cycle_s: Vec<f64>,
    /// Peak resident set of each window of the timed phase (a figs
    /// cycle, or the jobs claimed between two serve-jobs cycle starts).
    pub peak_rss_mb: Vec<f64>,
    /// SynTS-Poly normalized energy×delay at the equal-weight θ,
    /// geometric mean over one cycle's ops in cycle order.
    pub edp_ratio: f64,
    /// Digest of each op's report bytes, in op order.
    pub digests: Vec<String>,
    /// Per-layer metrics and spans (traced runs only).
    pub layers: Option<Layers>,
    pub trace: Option<Tracer>,
    /// Cross-checks of the spans against the program's own counters.
    pub cross_checks: Vec<(String, f64)>,
}

impl RunResult {
    /// Counts one op: `ok` is whether every check on its output passed.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The wire form a workload process prints as its last line.
    pub fn to_json(&self) -> Json {
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::num(x)).collect());
        let mut out = Json::obj()
            .field("attempted", Json::num(self.attempted as f64))
            .field("failed", Json::num(self.failed as f64))
            .field("setup_s", nums(&self.setup_s))
            .field("latencies_s", nums(&self.latencies_s))
            .field(
                "keys",
                Json::Arr(self.keys.iter().map(|&k| Json::num(k as f64)).collect()),
            )
            .field("cycle_s", nums(&self.cycle_s))
            .field("edp_ratio", Json::num(self.edp_ratio))
            .field("peak_rss_mb", nums(&self.peak_rss_mb))
            .field(
                "digests",
                Json::Arr(self.digests.iter().map(Json::str).collect()),
            );
        if let Some(layers) = &self.layers {
            let mut obj = Json::obj();
            for (name, value, _) in layers.rows() {
                obj = obj.field(name, Json::num(value));
            }
            out = out.field("layers", obj);
        }
        let mut checks = Json::obj();
        for (name, value) in &self.cross_checks {
            checks = checks.field(name, Json::num(*value));
        }
        out.field("cross_checks", checks).field(
            "spans",
            self.trace.as_ref().map_or(Json::Null, Tracer::to_json),
        )
    }
}

/// SynTS-Poly energy×delay normalized to nominal, at the θ-grid point
/// nearest (in log space) the report's equal-weight θ.
pub fn poly_edp_at_center(report: &Report) -> Option<f64> {
    let center = report.theta_center;
    let j = (0..report.theta_grid.len()).min_by(|&a, &b| {
        let d = |t: f64| (t / center).ln().abs();
        d(report.theta_grid[a]).total_cmp(&d(report.theta_grid[b]))
    })?;
    let norm = report.dataset("synts_poly")?.records.get(j)?.normalized?;
    Some(norm.edp())
}

/// The geometric mean of per-op ratios, or 0 when any op lacked one.
pub fn edp_geomean(per_op: &[Option<f64>]) -> f64 {
    per_op
        .iter()
        .copied()
        .collect::<Option<Vec<f64>>>()
        .map_or(0.0, |v| sys::geomean(&v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &Json) -> Vec<String> {
        list.as_arr()
            .expect("a list of metrics")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("a name")
                    .to_string()
            })
            .collect()
    }

    /// Later changes cite metrics by name, so the names printed here,
    /// `BENCHMARK.json` and the interaction map must agree.
    #[test]
    fn per_layer_names_match_benchmark_json_and_the_interaction_map() {
        let mut printed: Vec<String> = Layers::default()
            .rows()
            .iter()
            .map(|(name, _, _)| name.to_string())
            .collect();
        printed.push("trace.overhead_frac".to_string());

        let bench =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(names(bench.get("per_layer").expect("per_layer")), printed);

        let map = Json::parse(include_str!("../interactions.json")).expect("the map parses");
        let Some(Json::Obj(mapped)) = map.get("per_layer") else {
            panic!("the map has a per_layer object");
        };
        let mapped: Vec<String> = mapped.iter().map(|(name, _)| name.clone()).collect();
        assert_eq!(mapped, printed);
    }
}
