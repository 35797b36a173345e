//! The characterization fast path, held to its determinism contract:
//!
//! * a [`BenchmarkData`] served from the on-disk cache is **bit-identical**
//!   to a freshly simulated one (delays, curves, CPI, instruction counts);
//! * a parallel corpus build at 1/2/8 workers equals the sequential one;
//! * a truncated entry, or one with any single byte flipped (header or
//!   body), silently recomputes instead of being served;
//! * the trace generators still produce their pinned traces (cache keys
//!   name a trace by its recipe, so a generator change must bump
//!   `workloads::GENERATOR_VERSION`);
//! * the scheduler's two recording passes (count, then keep only the
//!   sampled events, each handing its barrier intervals on as it leaves
//!   them) characterize bit-identically to the oracle
//!   `characterize_workload_on` over `Benchmark::run`'s full trace, for
//!   every benchmark, stage, width and sampling cap, one stage or many
//!   and one benchmark or several per call, at 1, 2, 3 and 8 workers;
//! * the zero-alloc batched `delay_trace_into` entry point reproduces
//!   `delay_trace_sampled` exactly, including across buffer reuse;
//! * `guard_band` is worker-count-invariant.

use std::path::PathBuf;

use proptest::prelude::*;
use synts::core_api::characterize_pairs;
use synts::core_api::experiments::characterize_workload_on;
use synts::prelude::*;
use synts_bench::corpus::Corpus;

const BENCHES: [Benchmark; 3] = [Benchmark::Radix, Benchmark::Cholesky, Benchmark::Fmm];

fn tmp_cache(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("synts-cache-proptest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Bitwise equality of two characterizations — stricter than `==` on
/// floats (NaN-proof, and distinguishes -0.0).
fn assert_bit_identical(a: &BenchmarkData, b: &BenchmarkData) {
    assert_eq!(a.benchmark, b.benchmark);
    assert_eq!(a.stage, b.stage);
    assert_eq!(a.tnom_v1.to_bits(), b.tnom_v1.to_bits(), "tnom drifted");
    assert_eq!(a.intervals.len(), b.intervals.len());
    for (ia, ib) in a.intervals.iter().zip(&b.intervals) {
        assert_eq!(ia.threads.len(), ib.threads.len());
        for (ta, tb) in ia.threads.iter().zip(&ib.threads) {
            assert_eq!(ta.curve, tb.curve, "error curve drifted");
            let da: Vec<u64> = ta.normalized_delays.iter().map(|d| d.to_bits()).collect();
            let db: Vec<u64> = tb.normalized_delays.iter().map(|d| d.to_bits()).collect();
            assert_eq!(da, db, "delay trace drifted");
            assert_eq!(ta.instructions.to_bits(), tb.instructions.to_bits());
            assert_eq!(ta.cpi_base.to_bits(), tb.cpi_base.to_bits());
        }
    }
}

/// The quick harness at another datapath width and sampling cap.
fn harness(width: usize, max_samples: usize) -> HarnessConfig {
    let mut cfg = HarnessConfig::quick();
    cfg.workload.width = width;
    cfg.max_samples = max_samples;
    cfg
}

/// One `characterize_pairs` call over `pairs` (uncached, so every pair
/// takes the two recording passes) equals the oracle, pair by pair:
/// `characterize_workload_on` over the full trace. The call runs at 1, 2,
/// 3 and 8 workers: one runs the tasks inline in order, and the others
/// interleave the recording runs' per-interval hand-offs with the units
/// differently.
fn assert_pipeline_matches_the_oracle(pairs: &[(Benchmark, StageKind)], cfg: &HarnessConfig) {
    let mut traces = std::collections::BTreeMap::new();
    let oracle: Vec<BenchmarkData> = pairs
        .iter()
        .map(|&(bench, stage)| {
            let trace = traces
                .entry(bench)
                .or_insert_with(|| bench.run(&cfg.workload));
            let charac =
                synts::timing::StageCharacterizer::new(stage, cfg.workload.width).expect("stage");
            characterize_workload_on(&charac, trace, cfg, ThreadPool::sequential()).expect("oracle")
        })
        .collect();
    for workers in [1, 2, 3, 8] {
        let sampled =
            characterize_pairs(pairs, cfg, &CharCache::disabled(), ThreadPool::new(workers))
                .expect("two passes");
        assert_eq!(sampled.len(), pairs.len());
        for (oracle, data) in oracle.iter().zip(&sampled) {
            assert_bit_identical(oracle, data);
        }
    }
}

/// [`assert_pipeline_matches_the_oracle`] over `stages` of one benchmark.
fn assert_two_passes_match_the_oracle(bench: Benchmark, stages: &[StageKind], cfg: &HarnessConfig) {
    let pairs: Vec<(Benchmark, StageKind)> = stages.iter().map(|&s| (bench, s)).collect();
    assert_pipeline_matches_the_oracle(&pairs, cfg);
}

/// Every benchmark (radix's dropped intervals and the linear-algebra
/// kernels' `event_count` branch included), all three stages in one call,
/// each width and each fixed sampling cap at least once: stride 1 with
/// one record, short chains, the quick default and no cap.
#[test]
fn two_passes_equal_the_oracle_on_every_benchmark() {
    for (k, bench) in Benchmark::ALL.into_iter().enumerate() {
        let width = [8, 16, 32][k % 3];
        let max_samples = [1, 2, 3, 400, usize::MAX][k % 5];
        assert_two_passes_match_the_oracle(bench, &StageKind::ALL, &harness(width, max_samples));
    }
}

/// Several benchmarks in one call, so one benchmark's recording runs
/// overlap another's units: fmm, radix (which records more intervals than
/// it hands on) and cholesky, on stages with different accepted-op sets.
#[test]
fn two_passes_equal_the_oracle_with_several_benchmarks_per_call() {
    let pairs = [
        (Benchmark::Fmm, StageKind::ComplexAlu),
        (Benchmark::Radix, StageKind::SimpleAlu),
        (Benchmark::Cholesky, StageKind::Decode),
        (Benchmark::Fmm, StageKind::SimpleAlu),
        (Benchmark::Cholesky, StageKind::ComplexAlu),
    ];
    assert_pipeline_matches_the_oracle(&pairs, &HarnessConfig::quick());
}

/// A paper-quality spot check: two stages with different accepted-op
/// sets in one call.
#[test]
fn two_passes_equal_the_oracle_at_paper_quality() {
    assert_two_passes_match_the_oracle(
        Benchmark::Cholesky,
        &[StageKind::ComplexAlu, StageKind::Decode],
        &HarnessConfig::paper_default(),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random benchmarks, stage subsets, widths and sampling caps. The
    /// caps around m/2, with m the accepted count of interval 0's thread
    /// 0, straddle that thread's boundary between stride 1 and stride 3.
    #[test]
    fn two_passes_equal_the_oracle(
        bench_idx in 0..Benchmark::ALL.len(),
        stage_mask in 1u8..8,
        width_idx in 0usize..3,
        cap_choice in 0usize..9,
    ) {
        let bench = Benchmark::ALL[bench_idx];
        let stages: Vec<StageKind> = StageKind::ALL
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| stage_mask >> i & 1 == 1)
            .map(|(_, s)| s)
            .collect();
        let mut cfg = harness([8, 16, 32][width_idx], 400);
        let ops = synts::circuits::build_stage(stages[0], cfg.workload.width)
            .expect("stage")
            .accepted_ops();
        let trace = bench.run(&cfg.workload);
        let half = trace.intervals.first().map_or(0, |iv| iv.thread(0).tally().of(ops) as usize) / 2;
        cfg.max_samples = [
            1, 2, 3,
            half.saturating_sub(2), half.saturating_sub(1), half, half + 1,
            400, usize::MAX,
        ][cap_choice];
        assert_two_passes_match_the_oracle(bench, &stages, &cfg);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Cache round-trip: fresh characterization, cold (store) pass and
    /// warm (load) pass are all bit-identical, for every stage.
    #[test]
    fn cached_equals_fresh_bit_for_bit(bench_idx in 0..BENCHES.len()) {
        let bench = BENCHES[bench_idx];
        let cfg = HarnessConfig::quick();
        let dir = tmp_cache(&format!("roundtrip-{bench}"));
        let cache = CharCache::at_dir(&dir);
        for stage in StageKind::ALL {
            let charac = synts::timing::StageCharacterizer::new(stage, cfg.workload.width)
                .expect("stage");
            let fresh = synts::core_api::experiments::characterize_workload_on(
                &charac, &bench.run(&cfg.workload), &cfg, ThreadPool::sequential(),
            )
            .expect("fresh");
            let cold = characterize_cached(bench, stage, &cfg, &cache, ThreadPool::new(2))
                .expect("cold");
            let warm = characterize_cached(bench, stage, &cfg, &cache, ThreadPool::new(2))
                .expect("warm");
            assert_bit_identical(&fresh, &cold);
            assert_bit_identical(&fresh, &warm);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The parallel corpus build is bit-identical to the sequential one
    /// at any worker count, cache off (pure fan-out determinism).
    #[test]
    fn parallel_corpus_equals_sequential(bench_idx in 0..BENCHES.len()) {
        let bench = BENCHES[bench_idx];
        let benchmarks = [bench];
        let cache = CharCache::disabled();
        let reference = Corpus::build_subset_with(
            Quality::Quick, &benchmarks, &StageKind::ALL, &cache, ThreadPool::sequential(),
        )
        .expect("sequential corpus");
        for workers in [2usize, 8] {
            let pooled = Corpus::build_subset_with(
                Quality::Quick, &benchmarks, &StageKind::ALL, &cache, ThreadPool::new(workers),
            )
            .expect("pooled corpus");
            prop_assert_eq!(pooled.iter().count(), reference.iter().count());
            for ((ka, da), (kb, db)) in reference.iter().zip(pooled.iter()) {
                prop_assert_eq!(ka, kb, "corpus key order drifted at {} workers", workers);
                assert_bit_identical(da, db);
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any byte-level damage to a cache entry reads as a miss: the
    /// characterization recomputes bit-identically instead of erroring
    /// or serving a wrong value. One byte is damaged at a generated
    /// offset, in the header (magic, key, checksum lines) half the time
    /// and anywhere in the entry otherwise.
    #[test]
    fn damaged_cache_entries_recompute(
        cut in 1..64usize,
        in_header in 0..2u32,
        at in 0.0..1.0f64,
        mask in 1..256u32,
    ) {
        let cfg = HarnessConfig::quick();
        let dir = tmp_cache(&format!("damage-{cut}"));
        let cache = CharCache::at_dir(&dir);
        let pool = ThreadPool::sequential();
        let run = || characterize_cached(Benchmark::Radix, StageKind::Decode, &cfg, &cache, pool);
        let cold = run().expect("cold");
        let entry = std::fs::read_dir(&dir)
            .expect("cache dir")
            .filter_map(Result::ok)
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|e| e == "char"))
            .expect("one entry");
        let full = std::fs::read(&entry).expect("entry bytes");
        // Truncate at a generated fraction of the file.
        let keep = full.len() * cut / 64;
        std::fs::write(&entry, &full[..keep]).expect("truncate");
        let before = cache.stats();
        let truncated = run().expect("truncated entry must recompute");
        prop_assert_eq!(cache.stats().since(before).misses, 1);
        assert_bit_identical(&cold, &truncated);
        // The miss rewrote the entry: flip one of its bytes.
        let mut bytes = std::fs::read(&entry).expect("entry bytes");
        prop_assert_eq!(&bytes, &full);
        let header = bytes
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .nth(2)
            .map_or(bytes.len(), |(i, _)| i + 1);
        let span = if in_header == 1 { header } else { bytes.len() };
        let offset = ((at * span as f64) as usize).min(span - 1);
        // A digit becomes another digit (damage no parser can see); any
        // other byte is XORed with the mask.
        bytes[offset] = if bytes[offset].is_ascii_digit() {
            b'0' + (bytes[offset] - b'0' + 1 + (mask % 9) as u8) % 10
        } else {
            bytes[offset] ^ mask as u8
        };
        std::fs::write(&entry, &bytes).expect("corrupt");
        let before = cache.stats();
        let corrupted = run().expect("corrupted entry must recompute");
        let delta = cache.stats().since(before);
        prop_assert_eq!(
            (delta.hits, delta.misses),
            (0, 1),
            "a flip at byte {} of {} was served",
            offset,
            bytes.len()
        );
        assert_bit_identical(&cold, &corrupted);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Cache slots are named by a trace's recipe, not by hashing the trace,
/// so every generator must keep producing exactly the trace it did when
/// `workloads::GENERATOR_VERSION` was last bumped. This pins a
/// fingerprint of each benchmark's quick-config trace.
#[test]
fn trace_generators_match_their_pinned_fingerprints() {
    const PINNED: [(Benchmark, u64); 10] = [
        (Benchmark::Fmm, 0x9c5e_352c_acee_8ffd),
        (Benchmark::Radix, 0x97bf_ca9f_1db6_1f1a),
        (Benchmark::LuContig, 0xba90_063e_b9b0_3eed),
        (Benchmark::LuNcontig, 0x18cd_8d7b_c863_66a6),
        (Benchmark::Fft, 0x7ee2_980b_5a44_36f4),
        (Benchmark::WaterSp, 0xcdff_5887_f8ae_5c56),
        (Benchmark::Barnes, 0x3fa8_475d_4b6c_1d48),
        (Benchmark::Raytrace, 0xe1c3_86f4_67f8_a49d),
        (Benchmark::Cholesky, 0x1550_369f_d36f_dbd2),
        (Benchmark::Ocean, 0x41b1_63af_332c_58b8),
    ];
    assert_eq!(PINNED.map(|(b, _)| b), Benchmark::ALL);
    let workload = HarnessConfig::quick().workload;
    let got: Vec<(Benchmark, u64)> = PINNED
        .iter()
        .map(|&(b, _)| (b, trace_fingerprint(&b.run(&workload))))
        .collect();
    assert_eq!(
        got,
        PINNED.to_vec(),
        "a trace generator changed its output: bump `workloads::GENERATOR_VERSION` and re-pin"
    );
}

/// 64-bit FNV-1a over every event, memory reference and branch count of
/// every thread in every interval.
fn trace_fingerprint(trace: &synts::workloads::WorkloadTrace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut write = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    write(trace.intervals.len() as u64);
    for interval in &trace.intervals {
        write(interval.threads() as u64);
        for work in interval {
            write(work.events.len() as u64);
            for ev in &work.events {
                write(ev.op.index() as u64);
                write(ev.a);
                write(ev.b);
            }
            write(work.mem_refs.len() as u64);
            for m in &work.mem_refs {
                write(m.addr);
                write(u64::from(m.is_store));
            }
            write(work.branches);
        }
    }
    h
}

/// The streaming batch entry point reproduces `delay_trace_sampled`
/// exactly — including when one output buffer is recycled across stages
/// and sample caps.
#[test]
fn delay_trace_into_matches_sampled_with_reused_buffer() {
    use synts::timing::StageCharacterizer;
    let cfg = HarnessConfig::quick();
    let trace = Benchmark::Radix.run(&cfg.workload);
    let mut buf = Vec::new();
    for stage in [StageKind::Decode, StageKind::SimpleAlu] {
        let charac = StageCharacterizer::new(stage, cfg.workload.width).expect("builds");
        for max_samples in [7usize, 50, 400, usize::MAX] {
            for work in trace.intervals[0].iter() {
                let reference = charac
                    .delay_trace_sampled(&work.events, max_samples)
                    .expect("trace");
                charac
                    .delay_trace_into(&work.events, max_samples, &mut buf)
                    .expect("batched");
                let a: Vec<u64> = reference.delays().iter().map(|d| d.to_bits()).collect();
                let b: Vec<u64> = buf.iter().map(|d| d.to_bits()).collect();
                assert_eq!(a, b, "{stage:?} max_samples={max_samples}");
            }
        }
    }
}

/// The Monte Carlo guard-band fan-out is a max-reduction: bit-identical
/// at any worker count.
#[test]
fn guard_band_is_worker_count_invariant() {
    use synts::gatelib::variation::{guard_band_with_workers, VariationModel};
    use synts::gatelib::Voltage;
    let stage = synts::circuits::build_stage(StageKind::SimpleAlu, 8).expect("stage");
    let netlist = stage.netlist();
    let model = VariationModel::ptm22_typical();
    let reference =
        guard_band_with_workers(netlist, Voltage::NOMINAL, &model, 24, 7, 1).expect("sequential");
    for workers in [2usize, 3, 8, 64] {
        let pooled = guard_band_with_workers(netlist, Voltage::NOMINAL, &model, 24, 7, workers)
            .expect("pooled");
        assert_eq!(
            reference.to_bits(),
            pooled.to_bits(),
            "guard band drifted at {workers} workers"
        );
    }
}
