//! Shared characterization tier: request coalescing and the remote
//! read-through path.
//!
//! Every assertion reads the counters of the test's own cache handles
//! ([`CharCache::stats`]), so the tests run concurrently; each uses its
//! own (benchmark, stage) key so coalescing stays within one test.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, Mutex, PoisonError};
use std::time::Duration;

use circuits::StageKind;
use synts_core::cache::{
    characterize_cached, characterize_pairs, CharCache, RemoteCacheTier, RemoteFetch,
};
use synts_core::experiments::{characterize, BenchmarkData, HarnessConfig};
use synts_core::{FaultPlan, ThreadPool};
use synts_serve::{Service, ServiceConfig, Shutdown};
use workloads::Benchmark;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("synts-coalesce-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An in-memory stand-in for the coordinator's cache endpoints: entries
/// live in a map, every probe is counted, and `fetch` can be slowed to
/// hold the coalescing window open deterministically.
#[derive(Debug, Default)]
struct MapTier {
    entries: Mutex<std::collections::BTreeMap<String, String>>,
    fetches: Mutex<u64>,
    publishes: Mutex<u64>,
    fetch_delay: Option<Duration>,
}

impl MapTier {
    fn fetches(&self) -> u64 {
        *self.fetches.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn publishes(&self) -> u64 {
        *self
            .publishes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl RemoteCacheTier for MapTier {
    fn fetch(&self, name: &str) -> RemoteFetch {
        *self.fetches.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        if let Some(delay) = self.fetch_delay {
            std::thread::sleep(delay);
        }
        match self
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
        {
            Some(text) => RemoteFetch::Hit(text.clone()),
            None => RemoteFetch::Compute,
        }
    }

    fn publish(&self, name: &str, entry: &str) -> bool {
        *self
            .publishes
            .lock()
            .unwrap_or_else(PoisonError::into_inner) += 1;
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), entry.to_string());
        true
    }
}

/// N threads cold-miss the same key at once: exactly ONE
/// characterization runs (one miss), every other thread coalesces onto
/// it and then reads the stored entry as a hit.
#[test]
fn concurrent_cold_misses_coalesce_to_one_characterization() {
    const THREADS: usize = 4;
    let dir = tmp_dir("herd");
    // The slow remote probe runs inside the leader's admission, holding
    // the in-flight window open long enough that the barrier-released
    // followers reliably coalesce instead of racing past it.
    let tier = Arc::new(MapTier {
        fetch_delay: Some(Duration::from_millis(300)),
        ..MapTier::default()
    });
    let cache = CharCache::at_dir(&dir).with_remote(Some(tier.clone() as Arc<dyn RemoteCacheTier>));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let cache = cache.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let cfg = HarnessConfig::quick();
                barrier.wait();
                characterize_cached(
                    Benchmark::Fmm,
                    StageKind::Decode,
                    &cfg,
                    &cache,
                    ThreadPool::sequential(),
                )
                .expect("characterization")
            })
        })
        .collect();
    for h in handles {
        h.join().expect("thread");
    }
    let delta = cache.stats();
    assert_eq!(
        delta.misses, 1,
        "exactly one characterization may run: {delta:?}"
    );
    assert_eq!(
        delta.hits,
        (THREADS - 1) as u64,
        "every follower reads the leader's entry: {delta:?}"
    );
    assert!(
        delta.coalesced >= (THREADS - 1) as u64,
        "followers must have waited on the in-flight leader: {delta:?}"
    );
    assert_eq!(tier.fetches(), 1, "only the leader consults the tier");
    assert_eq!(tier.publishes(), 1, "the leader publishes its result");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two threads run the scheduler over the same two pairs in opposite
/// orders. Each takes the key of its first pair, finds the other's first
/// key held and defers that pair, computes and stores its own, releases
/// its key and only then waits for the other's. Both return (no deadlock)
/// with identical data, and each key is characterized once.
#[test]
fn overlapping_multi_pair_calls_coalesce_without_deadlock() {
    let dir = tmp_dir("multi-key");
    // The slow remote probe holds each leader's key open until the other
    // thread has probed it.
    let tier = Arc::new(MapTier {
        fetch_delay: Some(Duration::from_millis(300)),
        ..MapTier::default()
    });
    let cache = CharCache::at_dir(&dir).with_remote(Some(tier as Arc<dyn RemoteCacheTier>));
    let pairs = [
        (Benchmark::Barnes, StageKind::SimpleAlu),
        (Benchmark::WaterSp, StageKind::SimpleAlu),
    ];
    let barrier = Arc::new(Barrier::new(2));
    let (tx, rx) = std::sync::mpsc::channel();
    let handles: Vec<_> = [pairs, [pairs[1], pairs[0]]]
        .into_iter()
        .map(|order| {
            let (cache, barrier, tx) = (cache.clone(), Arc::clone(&barrier), tx.clone());
            std::thread::spawn(move || {
                let cfg = HarnessConfig::quick();
                barrier.wait();
                let data = characterize_pairs(&order, &cfg, &cache, ThreadPool::sequential());
                let _ = tx.send((order, data.expect("characterization")));
            })
        })
        .collect();
    let results: Vec<_> = (0..2)
        .map(|_| {
            rx.recv_timeout(Duration::from_secs(120))
                .expect("both calls return: overlapping keys must not deadlock")
        })
        .collect();
    for h in handles {
        h.join().expect("thread");
    }
    let data_of = |k: usize, pair: (Benchmark, StageKind)| {
        let (order, data) = &results[k];
        &data[order.iter().position(|&p| p == pair).expect("pair")]
    };
    for pair in pairs {
        let (a, b) = (data_of(0, pair), data_of(1, pair));
        assert_eq!(
            (a.benchmark, a.stage),
            pair,
            "results come back in pair order"
        );
        assert_same(a, b);
    }
    let stats = cache.stats();
    assert_eq!(
        (stats.misses, stats.hits, stats.coalesced),
        (2, 2, 2),
        "each key is computed once and read once by the other call: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every cache writer lands its entry through a temp file and a rename.
/// With a directory squatting on the entry's path the rename fails, and
/// the writer must remove its temp file rather than leave it behind.
#[test]
fn failed_cache_writes_leave_no_temp_file() {
    let cfg = HarnessConfig::quick();
    let (benchmark, stage) = (Benchmark::LuContig, StageKind::Decode);
    let circuit = circuits::build_stage(stage, cfg.workload.width).expect("stage");
    let tier = Arc::new(MapTier::default());
    let remote = || Some(tier.clone() as Arc<dyn RemoteCacheTier>);
    let dir_seed = tmp_dir("squat-seed");
    let seed = CharCache::at_dir(&dir_seed).with_remote(remote());
    let data = characterize_cached(benchmark, stage, &cfg, &seed, ThreadPool::sequential())
        .expect("seed characterization");
    let name = seed
        .recipe_entry(benchmark, stage, &cfg, circuit.netlist())
        .token()
        .expect("enabled");
    let text = tier.entries.lock().unwrap_or_else(PoisonError::into_inner)[&name].clone();
    let squatted = |tag: &str| {
        let dir = tmp_dir(tag);
        std::fs::create_dir_all(dir.join(&name)).expect("squat on the entry path");
        dir
    };
    let temp_files = |dir: &Path| -> Vec<String> {
        std::fs::read_dir(dir)
            .expect("cache dir")
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|file| file.contains(".tmp"))
            .collect()
    };
    let mut left = Vec::new();

    // A store of freshly computed data.
    let dir_store = squatted("squat-store");
    let store = CharCache::at_dir(&dir_store);
    store
        .recipe_entry(benchmark, stage, &cfg, circuit.netlist())
        .store(&data);
    assert_eq!(store.stats().write_errors, 1, "the store failed");
    left.push(("CacheEntry::store", temp_files(&dir_store)));

    // The local copy of a remote hit.
    let dir_copy = squatted("squat-copy");
    let copy = CharCache::at_dir(&dir_copy).with_remote(remote());
    let served = copy
        .recipe_entry(benchmark, stage, &cfg, circuit.netlist())
        .load()
        .expect("the tier serves the entry");
    assert_same(&data, &served);
    assert_eq!(
        (copy.stats().remote_hits, copy.stats().write_errors),
        (1, 1)
    );
    left.push(("remote-hit copy", temp_files(&dir_copy)));

    // The coordinator's PUT of a published entry.
    let dir_put = squatted("squat-put");
    let service = Service::start(ServiceConfig {
        cache: CharCache::at_dir(&dir_put),
        ..ServiceConfig::default()
    });
    let put = service.cache_publish(&name, &text);
    service.shutdown(Shutdown::Now);
    assert!(put.is_err(), "a PUT onto a directory fails: {put:?}");
    left.push(("Service::cache_publish", temp_files(&dir_put)));

    assert!(
        left.iter().all(|(_, files)| files.is_empty()),
        "temp files left behind: {left:?}"
    );
    for dir in [dir_seed, dir_store, dir_copy, dir_put] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The read-through path: a second node (cold local dir, same tier)
/// resolves the key remotely — counted as a remote hit, not a miss —
/// and the fetched entry is written locally so the next probe is a
/// plain local hit.
#[test]
fn remote_tier_turns_cold_local_misses_into_remote_hits() {
    let tier = Arc::new(MapTier::default());
    let cfg = HarnessConfig::quick();

    // Node A characterizes and publishes.
    let dir_a = tmp_dir("node-a");
    let cache_a =
        CharCache::at_dir(&dir_a).with_remote(Some(tier.clone() as Arc<dyn RemoteCacheTier>));
    let data_a = characterize_cached(
        Benchmark::Radix,
        StageKind::Decode,
        &cfg,
        &cache_a,
        ThreadPool::sequential(),
    )
    .expect("node A characterizes");
    assert_eq!(cache_a.stats().misses, 1);
    assert_eq!(tier.publishes(), 1, "A must publish to the shared tier");

    // Node B, cold local dir: remote hit, zero characterizations.
    let dir_b = tmp_dir("node-b");
    let cache_b =
        CharCache::at_dir(&dir_b).with_remote(Some(tier.clone() as Arc<dyn RemoteCacheTier>));
    let data_b = characterize_cached(
        Benchmark::Radix,
        StageKind::Decode,
        &cfg,
        &cache_b,
        ThreadPool::sequential(),
    )
    .expect("node B reads through");
    let delta = cache_b.stats();
    assert_eq!(delta.remote_hits, 1, "B resolves remotely: {delta:?}");
    assert_eq!(delta.misses, 0, "B must not recompute: {delta:?}");
    assert_eq!(
        data_a.tnom_v1.to_bits(),
        data_b.tnom_v1.to_bits(),
        "both nodes see identical data"
    );

    // B's local copy landed: the next probe never leaves the node.
    let fetches_before = tier.fetches();
    let before = cache_b.stats();
    characterize_cached(
        Benchmark::Radix,
        StageKind::Decode,
        &cfg,
        &cache_b,
        ThreadPool::sequential(),
    )
    .expect("node B warm");
    let delta = cache_b.stats().since(before);
    assert_eq!(delta.hits, 1, "warm probe is a local hit: {delta:?}");
    assert_eq!(tier.fetches(), fetches_before, "no remote round trip");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// `cache.remote` faults sever the tier deterministically: the lookup
/// degrades to a local recompute (correct data, no remote counters) and
/// the publish is dropped.
#[test]
fn remote_faults_degrade_to_local_computation() {
    let tier = Arc::new(MapTier::default());
    // Seed the tier via an unfaulted node so a hit WOULD be available.
    let cfg = HarnessConfig::quick();
    let dir_seed = tmp_dir("fault-seed");
    let cache_seed =
        CharCache::at_dir(&dir_seed).with_remote(Some(tier.clone() as Arc<dyn RemoteCacheTier>));
    characterize_cached(
        Benchmark::Fft,
        StageKind::Decode,
        &cfg,
        &cache_seed,
        ThreadPool::sequential(),
    )
    .expect("seed characterization");
    assert_eq!(tier.publishes(), 1);

    // A fully severed node: every remote consult is faulted away.
    let plan = Arc::new(FaultPlan::parse("seed=3;cache.remote=1/1").expect("plan"));
    let dir_cut = tmp_dir("fault-cut");
    let cache_cut = CharCache::at_dir(&dir_cut)
        .with_faults(Some(Arc::clone(&plan)))
        .with_remote(Some(tier.clone() as Arc<dyn RemoteCacheTier>));
    let fetches_before = tier.fetches();
    characterize_cached(
        Benchmark::Fft,
        StageKind::Decode,
        &cfg,
        &cache_cut,
        ThreadPool::sequential(),
    )
    .expect("severed node still computes");
    let delta = cache_cut.stats();
    assert_eq!(delta.misses, 1, "severed node recomputes: {delta:?}");
    assert_eq!(delta.remote_hits, 0, "no remote traffic: {delta:?}");
    assert_eq!(
        tier.fetches(),
        fetches_before,
        "fetch never reached the tier"
    );
    assert_eq!(tier.publishes(), 1, "publish was dropped too");
    assert!(
        plan.fired_counts()
            .get("cache.remote")
            .copied()
            .unwrap_or(0)
            >= 2,
        "both the fetch and the publish consults must have fired"
    );
    let _ = std::fs::remove_dir_all(&dir_seed);
    let _ = std::fs::remove_dir_all(&dir_cut);
}

/// A tier that serves an entry with one byte flipped — a torn transfer or
/// a damaged coordinator disk — is a local miss: the node recomputes the
/// right data instead of trusting the payload, and counts no remote hit.
#[test]
fn a_corrupt_remote_payload_reads_as_a_local_miss() {
    let tier = Arc::new(MapTier::default());
    let cfg = HarnessConfig::quick();
    let dir_seed = tmp_dir("flip-seed");
    let seed_cache =
        CharCache::at_dir(&dir_seed).with_remote(Some(tier.clone() as Arc<dyn RemoteCacheTier>));
    let run = |cache: &CharCache| {
        characterize_cached(
            Benchmark::Cholesky,
            StageKind::Decode,
            &cfg,
            cache,
            ThreadPool::sequential(),
        )
        .expect("characterization")
    };
    run(&seed_cache);
    {
        let mut entries = tier.entries.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(entries.len(), 1, "the seed node published one entry");
        for text in entries.values_mut() {
            // Flip one digit in the middle of the body.
            let mut bytes = std::mem::take(text).into_bytes();
            let at = bytes.len() / 2;
            bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
            *text = String::from_utf8(bytes).expect("ascii");
        }
    }
    let fetches_before = tier.fetches();
    let dir = tmp_dir("flip-node");
    let cache = CharCache::at_dir(&dir).with_remote(Some(tier.clone() as Arc<dyn RemoteCacheTier>));
    let data = run(&cache);
    let stats = cache.stats();
    assert_eq!(
        stats.remote_hits, 0,
        "the damaged payload was served: {stats:?}"
    );
    assert_eq!(stats.misses, 1, "the node recomputes: {stats:?}");
    assert_eq!(
        tier.fetches(),
        fetches_before + 1,
        "the node asked the tier"
    );
    assert_same(
        &data,
        &characterize(Benchmark::Cholesky, StageKind::Decode, &cfg).expect("fresh"),
    );
    let _ = std::fs::remove_dir_all(&dir_seed);
    let _ = std::fs::remove_dir_all(&dir);
}

fn assert_same(a: &BenchmarkData, b: &BenchmarkData) {
    assert_eq!((a.benchmark, a.stage), (b.benchmark, b.stage));
    assert_eq!(a.tnom_v1.to_bits(), b.tnom_v1.to_bits());
    let bits = |d: &BenchmarkData| -> Vec<Vec<u64>> {
        d.intervals
            .iter()
            .flat_map(|iv| &iv.threads)
            .map(|t| {
                let mut v: Vec<u64> = t.normalized_delays.iter().map(|x| x.to_bits()).collect();
                v.extend([t.instructions.to_bits(), t.cpi_base.to_bits()]);
                v
            })
            .collect()
    };
    assert_eq!(bits(a), bits(b), "characterizations differ");
}
