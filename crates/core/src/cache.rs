//! Persistent, recipe-keyed characterization cache.
//!
//! Gate-level characterization (Fig 5.8's trace → delay-trace →
//! error-curve pipeline) dominates the wall-clock of every end-to-end run,
//! yet its output is a pure function of the workload *recipe* (benchmark,
//! [`WorkloadConfig`] and [`workloads::GENERATOR_VERSION`]), the stage,
//! the harness knobs and the cell library. This module memoizes that
//! function on disk so the cost is paid **once per machine**, not once
//! per process:
//!
//! * entries are keyed on the recipe, never on trace contents, so a hit
//!   neither generates nor hashes a workload trace. The file name is a
//!   64-bit FNV-1a hash of the format magic and the key line, so a
//!   change to any input simply misses and recomputes;
//! * an entry is ASCII: a magic line carrying the format version, the key
//!   line, a checksum line over the body, then the body, with every `f64`
//!   written as its 16 hex-digit bit pattern. A cached [`BenchmarkData`]
//!   is therefore **bit-identical** to a freshly computed one, and golden
//!   fixtures cannot tell the difference;
//! * the header is verified before the body is parsed: a wrong magic, a
//!   key that differs structurally (a hash collision) or a body that
//!   fails its checksum reads as a miss, so a damaged local file or a
//!   corrupt remote payload recomputes instead of being served;
//! * writes go through a temp file + rename ([`write_via_temp`]), and any
//!   I/O failure only costs a recompute (never an error);
//! * every [`CharCache`] counts its own lookups ([`CharCache::stats`],
//!   shared by its clones); [`CacheStats::snapshot`] is the process total
//!   over every handle.
//!
//! The store lives at [`CACHE_DIR_ENV`] (`SYNTS_CACHE_DIR`), defaulting
//! to `target/synts-cache/`. Disable it with [`CharCache::disabled`] (the
//! `synts-cli --no-cache` flag).

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

use circuits::{OpSet, PipeStage, StageKind};
use workloads::{
    Benchmark, Keep, SampleMismatch, Tally, ThreadSample, WorkloadConfig, WorkloadTrace,
};

use crate::error::OptError;
use crate::experiments::{
    characterize_sample, BenchmarkData, HarnessConfig, IntervalData, ThreadData,
};
use crate::faults::{site, FaultPlan};
use crate::parallel::ThreadPool;
use crate::phase::{time_phase, time_phase_except, Phase};
use timing::{ErrorCurve, Sampling, StageCharacterizer, TimingError};

/// Environment variable naming the on-disk cache directory.
pub const CACHE_DIR_ENV: &str = "SYNTS_CACHE_DIR";

/// Default cache directory, relative to the working directory.
pub const CACHE_DIR_DEFAULT: &str = "target/synts-cache";

/// First line of every entry. It is hashed into every entry name too, so
/// bumping its version when the entry format or the characterization
/// pipeline changes in a result-affecting way means old entries are
/// never opened again.
const MAGIC: &str = "synts-characterization v2";

/// Suffix of every entry file name (`<16 lowercase hex digits>.char`).
const ENTRY_SUFFIX: &str = ".char";

/// One countable cache event; indexes [`Counters`].
#[derive(Debug, Clone, Copy)]
enum Count {
    Hit,
    Miss,
    WriteError,
    RemoteHit,
    Coalesced,
}

/// Lookup counters of one [`CharCache`] handle (or of the process).
#[derive(Debug, Default)]
struct Counters([AtomicU64; 5]);

/// Every handle's counts, summed.
static PROCESS: Counters = Counters([const { AtomicU64::new(0) }; 5]);

impl Counters {
    /// Counts `event` on this handle and in the process total.
    fn count(&self, event: Count) {
        for counters in [self, &PROCESS] {
            counters.0[event as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> CacheStats {
        let [hits, misses, write_errors, remote_hits, coalesced] =
            self.0.each_ref().map(|c| c.load(Ordering::Relaxed));
        CacheStats {
            hits,
            misses,
            write_errors,
            remote_hits,
            coalesced,
        }
    }
}

/// Cache hit/miss counters (monotonic snapshots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Characterizations served from local disk.
    pub hits: u64,
    /// Characterizations recomputed (and stored).
    pub misses: u64,
    /// Store attempts that failed to land (mkdir/write/rename errors,
    /// including injected ones). The run is unaffected — the entry just
    /// stays cold — but silent drops would mask a broken cache volume.
    pub write_errors: u64,
    /// Characterizations served by the remote tier after a local miss
    /// (the entry is then replicated locally).
    pub remote_hits: u64,
    /// Lookups that found another thread characterizing the same key
    /// and, instead of recomputing, waited for it and probed again.
    pub coalesced: u64,
}

impl CacheStats {
    /// The process-wide counters as of now, summed over every
    /// [`CharCache`] handle. Use [`CharCache::stats`] to see one cache.
    #[must_use]
    pub fn snapshot() -> CacheStats {
        PROCESS.snapshot()
    }

    /// Hits (local + remote) + misses.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.remote_hits + self.misses
    }

    /// The counters accumulated since an earlier snapshot.
    #[must_use]
    pub fn since(&self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            write_errors: self.write_errors.saturating_sub(earlier.write_errors),
            remote_hits: self.remote_hits.saturating_sub(earlier.remote_hits),
            coalesced: self.coalesced.saturating_sub(earlier.coalesced),
        }
    }
}

/// Outcome of probing a remote characterization tier.
#[derive(Debug)]
pub enum RemoteFetch {
    /// The tier holds the entry: the full entry text, in the on-disk
    /// format. It is verified (magic, key, body checksum) before use, so
    /// a lying or damaged tier degrades to a miss.
    Hit(String),
    /// The tier does not hold the entry (or is down, or told this caller
    /// it holds the characterization claim): compute locally.
    Compute,
}

/// A shared characterization tier behind the local directory — in the
/// fleet, the coordinator's `GET/PUT /v1/cache/<name>` endpoints. Entries
/// are immutable and named by their key, so replication is trivially
/// coherent: any byte-for-byte copy is as good as the original.
///
/// Implementations must be cheap to call on the miss path and must never
/// panic; a flaky tier should return [`RemoteFetch::Compute`] / `false`
/// rather than block indefinitely.
pub trait RemoteCacheTier: Send + Sync + std::fmt::Debug {
    /// Looks up an entry by file name (see [`valid_entry_name`]).
    fn fetch(&self, name: &str) -> RemoteFetch;
    /// Publishes a freshly computed entry. Returns `false` when the
    /// publish was dropped (counted as a write error; the run proceeds).
    fn publish(&self, name: &str, entry: &str) -> bool;
}

/// Whether `name` is a well-formed entry name, `<16 lowercase hex
/// digits>.char`: the only names the cache writes, and the only ones the
/// fleet's cache routes accept (anything else is rejected before it can
/// touch the filesystem).
#[must_use]
pub fn valid_entry_name(name: &str) -> bool {
    name.strip_suffix(ENTRY_SUFFIX)
        .is_some_and(|stem| stem.len() == 16 && stem.bytes().all(is_lower_hex))
}

fn is_lower_hex(b: u8) -> bool {
    b.is_ascii_digit() || (b'a'..=b'f').contains(&b)
}

/// Configuration of the on-disk characterization cache.
#[derive(Debug, Clone)]
pub struct CharCache {
    enabled: bool,
    dir: PathBuf,
    faults: Option<Arc<FaultPlan>>,
    remote: Option<Arc<dyn RemoteCacheTier>>,
    /// This handle's lookup counters, shared by its clones.
    counters: Arc<Counters>,
}

impl PartialEq for CharCache {
    fn eq(&self, other: &Self) -> bool {
        // The remote tier compares by identity: two caches pointing at
        // the same tier instance are the same cache; tiers have no
        // value semantics of their own. Counters are observations, not
        // configuration.
        self.enabled == other.enabled
            && self.dir == other.dir
            && self.faults == other.faults
            && match (&self.remote, &other.remote) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
    }
}

impl Eq for CharCache {}

impl CharCache {
    fn new(enabled: bool, dir: PathBuf) -> CharCache {
        CharCache {
            enabled,
            dir,
            faults: None,
            remote: None,
            counters: Arc::default(),
        }
    }

    /// The environment-resolved cache: enabled, rooted at
    /// [`CACHE_DIR_ENV`] or [`CACHE_DIR_DEFAULT`].
    #[must_use]
    pub fn from_env() -> CharCache {
        // synts-lint: allow(env-read) — SYNTS_CACHE_DIR only moves where cache files live, never what they contain
        let dir = std::env::var(CACHE_DIR_ENV)
            .ok()
            .filter(|s| !s.trim().is_empty())
            .map_or_else(|| PathBuf::from(CACHE_DIR_DEFAULT), PathBuf::from);
        CharCache::new(true, dir)
    }

    /// An enabled cache rooted at an explicit directory.
    #[must_use]
    pub fn at_dir(dir: impl Into<PathBuf>) -> CharCache {
        CharCache::new(true, dir.into())
    }

    /// A cache that never reads or writes disk — every characterization
    /// recomputes (and the hit/miss counters are untouched).
    #[must_use]
    pub fn disabled() -> CharCache {
        CharCache::new(false, PathBuf::new())
    }

    /// Whether lookups touch disk at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The store's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// This cache's own counters: every lookup made through this handle
    /// or any of its clones (fault- or tier-armed clones included).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.counters.snapshot()
    }

    /// Arms (or disarms, with `None`) deterministic fault injection on
    /// this cache's read/write/rename paths. The plan is shared, so fired
    /// counts aggregate across clones handed to worker threads.
    #[must_use]
    pub fn with_faults(mut self, faults: Option<Arc<FaultPlan>>) -> CharCache {
        self.faults = faults;
        self
    }

    /// The armed fault plan, if any.
    #[must_use]
    pub fn faults(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// Attaches (or detaches, with `None`) a remote tier consulted after
    /// a local miss and published to after a local store. The local
    /// directory stays authoritative for this process; the tier only
    /// spares recomputation across machines.
    #[must_use]
    pub fn with_remote(mut self, remote: Option<Arc<dyn RemoteCacheTier>>) -> CharCache {
        self.remote = remote;
        self
    }

    /// The attached remote tier, if any.
    #[must_use]
    pub fn remote(&self) -> Option<&Arc<dyn RemoteCacheTier>> {
        self.remote.as_ref()
    }

    /// Resolves the cache slot for characterizing `benchmark`'s workload
    /// on `stage` — the key and on-disk path are fixed here;
    /// [`CacheEntry::load`] and [`CacheEntry::store`] then move data
    /// through it. [`characterize_pairs`] resolves every pair's slot
    /// here; callers that drive the split phases themselves, like the
    /// benchmark's traced op, resolve the same slot. No trace is needed:
    /// the slot is named by the recipe.
    #[must_use]
    pub fn recipe_entry(
        &self,
        benchmark: Benchmark,
        stage: StageKind,
        cfg: &HarnessConfig,
        netlist: &gatelib::Netlist,
    ) -> CacheEntry {
        let slot = self.enabled.then(|| {
            time_phase(Phase::CacheLookup, || {
                let key = CacheKey::new(benchmark, stage, cfg, netlist);
                let name = key.entry_name();
                Slot {
                    path: self.dir.join(&name),
                    name,
                    key,
                }
            })
        });
        CacheEntry {
            slot,
            faults: self.faults.clone(),
            remote: self.remote.clone(),
            counters: Arc::clone(&self.counters),
        }
    }

    /// [`CharCache::recipe_entry`] for a caller that already holds the
    /// workload trace.
    ///
    /// Slots are named by the trace's recipe, not its contents, so the
    /// caller guarantees `*trace == trace.benchmark.run(&cfg.workload)`
    /// (debug builds check it). The slot is then the very one
    /// [`characterize_cached`] fills for `trace.benchmark`.
    #[must_use]
    pub fn entry(
        &self,
        trace: &WorkloadTrace,
        stage: StageKind,
        cfg: &HarnessConfig,
        netlist: &gatelib::Netlist,
    ) -> CacheEntry {
        debug_assert!(
            *trace == trace.benchmark.run(&cfg.workload),
            "CharCache::entry: the trace is not what its recipe generates"
        );
        self.recipe_entry(trace.benchmark, stage, cfg, netlist)
    }
}

/// One resolved characterization-cache slot (see
/// [`CharCache::recipe_entry`]).
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// `None` for a disabled cache, which never touches disk or the
    /// hit/miss counters.
    slot: Option<Slot>,
    /// Fault plan inherited from the owning [`CharCache`].
    faults: Option<Arc<FaultPlan>>,
    /// Remote tier inherited from the owning [`CharCache`].
    remote: Option<Arc<dyn RemoteCacheTier>>,
    /// Counters of the owning [`CharCache`].
    counters: Arc<Counters>,
}

/// Where one key lives.
#[derive(Debug, Clone)]
struct Slot {
    path: PathBuf,
    /// The entry's file name: its coalescing, fault-plan and remote-tier
    /// identity.
    name: String,
    key: CacheKey,
}

impl CacheEntry {
    /// The entry's identity token: its file name under
    /// [`CharCache::dir`], and the coalescing and remote-tier key. `None`
    /// for a disabled cache.
    #[must_use]
    pub fn token(&self) -> Option<String> {
        self.slot.as_ref().map(|slot| slot.name.clone())
    }

    fn faulted(&self, site: &str, name: &str) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|plan| plan.should(site, name))
    }

    /// Probes the slot: a verified local entry counts a hit; on a local
    /// miss the remote tier (if any) is consulted, and a verified remote
    /// entry counts a `remote_hit` and is replicated into the local
    /// directory. Anything else (absent, damaged, key-mismatched, or a
    /// disabled cache) is a miss. The disabled cache skips the counters.
    #[must_use]
    pub fn load(&self) -> Option<BenchmarkData> {
        let slot = self.slot.as_ref()?;
        // An injected read fault turns this probe into a miss — the exact
        // behaviour of a damaged entry on disk.
        if !self.faulted(site::CACHE_READ, &slot.name) {
            if let Some(data) = self.load_local(slot) {
                return Some(data);
            }
            // An injected cache.remote fault models an unreachable tier:
            // the lookup degrades to an ordinary local miss.
            if let Some(remote) = self
                .remote
                .as_ref()
                .filter(|_| !self.faulted(site::CACHE_REMOTE, &slot.name))
            {
                if let RemoteFetch::Hit(text) = remote.fetch(&slot.name) {
                    if let Some(data) =
                        time_phase(Phase::CacheLookup, || decode_entry(&text, &slot.key))
                    {
                        self.counters.count(Count::RemoteHit);
                        // Replicate locally (best-effort) so the next
                        // probe on this machine is a plain local hit.
                        if write_via_temp(&slot.path, &text).is_err() {
                            self.counters.count(Count::WriteError);
                        }
                        return Some(data);
                    }
                }
            }
        }
        self.counters.count(Count::Miss);
        None
    }

    /// Reads and verifies the local entry, counting a hit when it serves.
    fn load_local(&self, slot: &Slot) -> Option<BenchmarkData> {
        let data = time_phase(Phase::CacheLookup, || {
            let text = std::fs::read_to_string(&slot.path).ok()?;
            decode_entry(&text, &slot.key)
        })?;
        self.counters.count(Count::Hit);
        Some(data)
    }

    /// The local half of [`CacheEntry::load`] for a caller that falls
    /// back to `load` on `None`: a verified local entry counts a hit, and
    /// anything else counts nothing. A fault-armed entry always returns
    /// `None`, so fault decisions are drawn by `load` alone.
    fn probe_local(&self) -> Option<BenchmarkData> {
        let slot = self.slot.as_ref().filter(|_| self.faults.is_none())?;
        self.load_local(slot)
    }

    /// Persists freshly computed data into the slot (best-effort, like
    /// every cache write: I/O failure only costs a future recompute) and
    /// publishes it to the remote tier, if one is attached.
    pub fn store(&self, data: &BenchmarkData) {
        let Some(slot) = &self.slot else {
            return;
        };
        time_phase(Phase::CacheStore, || {
            let text = encode_entry(&slot.key, data);
            if !self.store_local(slot, &text) {
                self.counters.count(Count::WriteError);
            }
            if let Some(remote) = &self.remote {
                if !self.faulted(site::CACHE_REMOTE, &slot.name)
                    && !remote.publish(&slot.name, &text)
                {
                    self.counters.count(Count::WriteError);
                }
            }
        });
    }

    /// Lands a freshly encoded entry; `false` when it did not (a
    /// read-only or full disk must never fail the run, and injected
    /// `cache.write` / `cache.rename` faults drop the matching step).
    fn store_local(&self, slot: &Slot, text: &str) -> bool {
        !self.faulted(site::CACHE_WRITE, &slot.name)
            && write_then_rename_if(&slot.path, text, || {
                !self.faulted(site::CACHE_RENAME, &slot.name)
            })
            .is_ok()
    }
}

impl Default for CharCache {
    fn default() -> CharCache {
        CharCache::from_env()
    }
}

/// 64-bit FNV-1a — tiny, stable across platforms and Rust versions
/// (unlike `DefaultHasher`), and collisions are additionally guarded by
/// storing and comparing the full key in every entry.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// One FNV-1a step on a whole word. For a fixed state it is a
    /// bijection of `x`, and for a fixed `x` a bijection of the state.
    fn mix(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn write_u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.mix(u64::from(b));
        }
    }

    fn write_f64(&mut self, x: f64) {
        self.write_u64(x.to_bits());
    }

    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        for b in s.as_bytes() {
            self.mix(u64::from(*b));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Checksum of an entry body: FNV-1a over its length, then its 8-byte
/// little-endian words, then the tail bytes. Every step is a bijection of
/// the running state, so damage confined to one word (a flipped bit, a
/// wrong digit) always changes the sum.
fn checksum(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.mix(bytes.len() as u64);
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    for word in words {
        h.mix(word.iter().rev().fold(0, |acc, &b| acc << 8 | u64::from(b)));
    }
    for &b in tail {
        h.mix(u64::from(b));
    }
    h.finish()
}

/// Fingerprint of everything the characterized circuit contributes: the
/// full netlist structure (cell kinds, connectivity, primary I/O order)
/// plus per-cell nominal delays and switch energies. A cell-library
/// retune *or* a stage rewiring changes this and invalidates exactly
/// the affected entries.
fn library_fingerprint(netlist: &gatelib::Netlist) -> u64 {
    let mut h = Fnv::new();
    h.write_str(gatelib::CELL_LIBRARY_NAME);
    h.write_u64(netlist.cell_count() as u64);
    h.write_u64(netlist.net_count() as u64);
    h.write_u64(netlist.primary_inputs().len() as u64);
    for pi in netlist.primary_inputs() {
        h.write_u64(pi.index() as u64);
    }
    h.write_u64(netlist.primary_outputs().len() as u64);
    for po in netlist.primary_outputs() {
        h.write_u64(po.index() as u64);
    }
    for (cell, &delay) in netlist.cells().iter().zip(netlist.cell_delays_v1()) {
        h.write_u64(cell.kind() as u64);
        h.write_u64(cell.inputs().len() as u64);
        for n in cell.inputs() {
            h.write_u64(n.index() as u64);
        }
        h.write_u64(cell.output().index() as u64);
        h.write_f64(delay);
        h.write_f64(cell.kind().params().switch_energy);
    }
    h.finish()
}

/// Names of the numeric key fields, in key-line order.
const KEY_FIELDS: [&str; 15] = [
    "generator",
    "threads",
    "scale",
    "intervals",
    "width",
    "seed",
    "max_samples",
    "cache_sets",
    "cache_ways",
    "cache_line_bytes",
    "miss_penalty",
    "mul_extra",
    "taken_rate_bits",
    "redirect_penalty",
    "library",
];

/// Everything one characterization is a function of: the workload recipe
/// (benchmark, every [`workloads::WorkloadConfig`] field and the
/// generator version), the stage, the harness knobs and the cell-library
/// fingerprint. Integers are held exactly, the one float knob as its
/// bits, so equal keys mean equal characterizations.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CacheKey {
    benchmark: Benchmark,
    stage: StageKind,
    values: [u64; KEY_FIELDS.len()],
}

impl CacheKey {
    fn new(
        benchmark: Benchmark,
        stage: StageKind,
        cfg: &HarnessConfig,
        netlist: &gatelib::Netlist,
    ) -> CacheKey {
        let (w, cpi) = (&cfg.workload, &cfg.cpi_model);
        CacheKey {
            benchmark,
            stage,
            values: [
                u64::from(workloads::GENERATOR_VERSION),
                w.threads as u64,
                w.scale as u64,
                w.intervals as u64,
                w.width as u64,
                w.seed,
                cfg.max_samples as u64,
                cpi.cache.sets as u64,
                cpi.cache.ways as u64,
                cpi.cache.line_bytes as u64,
                cpi.cache.miss_penalty,
                cpi.mul_extra,
                cpi.taken_rate.to_bits(),
                cpi.redirect_penalty,
                library_fingerprint(netlist),
            ],
        }
    }

    /// The key line: `benchmark=<name> stage=<name>`, then
    /// `<field>=<lowercase hex>` per numeric field. Every key has exactly
    /// one spelling, and [`CacheKey::parse`] accepts only that one.
    fn line(&self) -> String {
        let mut line = format!(
            "benchmark={} stage={}",
            self.benchmark.name(),
            self.stage.name()
        );
        for (name, value) in KEY_FIELDS.iter().zip(self.values) {
            line.push_str(&format!(" {name}={value:x}"));
        }
        line
    }

    fn parse(line: &str) -> Option<CacheKey> {
        let mut fields = line.split(' ').map(|field| field.split_once('='));
        let mut value = |name: &str| match fields.next() {
            Some(Some((n, v))) if n == name => Some(v),
            _ => None,
        };
        let benchmark =
            value("benchmark").and_then(|v| Benchmark::ALL.into_iter().find(|b| b.name() == v))?;
        let stage =
            value("stage").and_then(|v| StageKind::ALL.into_iter().find(|s| s.name() == v))?;
        let mut values = [0; KEY_FIELDS.len()];
        for (slot, name) in values.iter_mut().zip(KEY_FIELDS) {
            *slot = value(name).and_then(parse_hex)?;
        }
        fields.next().is_none().then_some(CacheKey {
            benchmark,
            stage,
            values,
        })
    }

    /// The entry's file name: a hash of the magic line and the key line.
    fn entry_name(&self) -> String {
        let mut h = Fnv::new();
        h.write_str(MAGIC);
        h.write_str(&self.line());
        format!("{:016x}{ENTRY_SUFFIX}", h.finish())
    }
}

/// Parses what `{:x}` writes: lowercase hex digits without leading zeros.
fn parse_hex(digits: &str) -> Option<u64> {
    let canonical = (digits == "0" || !digits.starts_with('0')) && digits.bytes().all(is_lower_hex);
    canonical
        .then(|| u64::from_str_radix(digits, 16).ok())
        .flatten()
}

/// Appends `x` as exactly 16 lowercase hex digits, a byte (two digits)
/// at a time.
fn push_hex16(out: &mut String, x: u64) {
    const PAIRS: [[u8; 2]; 256] = {
        let digits = b"0123456789abcdef";
        let mut pairs = [[0; 2]; 256];
        let mut byte = 0;
        while byte < 256 {
            pairs[byte] = [digits[byte >> 4], digits[byte & 0xf]];
            byte += 1;
        }
        pairs
    };
    let mut hex = [0; 16];
    for (pair, byte) in hex.chunks_exact_mut(2).zip(x.to_be_bytes()) {
        pair.copy_from_slice(&PAIRS[usize::from(byte)]);
    }
    out.push_str(std::str::from_utf8(&hex).expect("hex digits are ASCII"));
}

/// Reads exactly 16 lowercase hex digits.
fn hex16(digits: &[u8]) -> Option<u64> {
    if digits.len() != 16 {
        return None;
    }
    digits.iter().try_fold(0, |acc: u64, &b| {
        let digit = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            _ => return None,
        };
        Some(acc << 4 | u64::from(digit))
    })
}

/// Serializes one entry: the magic line, the key line, the body checksum
/// (16 hex digits), then the body:
///
/// ```text
/// <tnom_v1> <intervals>                    once
/// <threads>                                per interval
/// <instructions> <cpi_base> <delays>       per thread, then one line of
/// <normalized delays, 16 digits each>      its delays without separators
/// ```
///
/// Floats are their bit patterns as 16 hex digits, counts are `{:x}`.
/// Error curves are *not* stored: they are rebuilt from the normalized
/// delays on load ([`ErrorCurve::from_normalized_delays`] sorts the same
/// multiset [`ErrorCurve::from_trace`] sorts), which keeps the entry
/// small and the round-trip exact. Benchmark and stage come from the key.
fn encode_entry(key: &CacheKey, data: &BenchmarkData) -> String {
    use std::fmt::Write as _;
    let delays: usize = data
        .intervals
        .iter()
        .flat_map(|iv| &iv.threads)
        .map(|t| t.normalized_delays.len() + 3)
        .sum();
    // One buffer: the header with the checksum's digits reserved, then
    // the body, then the checksum of the body written over the reserve.
    let mut text = format!("{MAGIC}\n{}\n", key.line());
    let sum_at = text.len();
    text.reserve(17 + 16 * delays + 64);
    push_hex16(&mut text, 0);
    text.push('\n');
    let body_at = text.len();
    push_hex16(&mut text, data.tnom_v1.to_bits());
    let _ = writeln!(text, " {:x}", data.intervals.len());
    for iv in &data.intervals {
        let _ = writeln!(text, "{:x}", iv.threads.len());
        for t in &iv.threads {
            push_hex16(&mut text, t.instructions.to_bits());
            text.push(' ');
            push_hex16(&mut text, t.cpi_base.to_bits());
            let _ = writeln!(text, " {:x}", t.normalized_delays.len());
            for d in &t.normalized_delays {
                push_hex16(&mut text, d.to_bits());
            }
            text.push('\n');
        }
    }
    let mut sum = String::with_capacity(16);
    push_hex16(&mut sum, checksum(&text.as_bytes()[body_at..]));
    text.replace_range(sum_at..sum_at + 16, &sum);
    text
}

/// Verifies and parses one entry text (local file or remote payload).
/// The magic, then the key (compared structurally), then the body
/// checksum are each checked before anything after them is read, so
/// version drift, hash collisions, torn writes, flipped bytes and lying
/// remote tiers all read as a miss without parsing a damaged body.
fn decode_entry(text: &str, key: &CacheKey) -> Option<BenchmarkData> {
    let mut parts = text.splitn(4, '\n');
    if parts.next()? != MAGIC || CacheKey::parse(parts.next()?)? != *key {
        return None;
    }
    let sum = hex16(parts.next()?.as_bytes())?;
    let body = parts.next()?;
    if checksum(body.as_bytes()) != sum {
        return None;
    }
    let mut lines = body.split('\n');
    let (tnom, n_intervals) = lines.next()?.split_once(' ')?;
    let tnom_v1 = f64::from_bits(hex16(tnom.as_bytes())?);
    if tnom_v1.is_nan() || tnom_v1 <= 0.0 {
        return None;
    }
    let mut intervals = Vec::new();
    for _ in 0..parse_hex(n_intervals)? {
        let mut threads = Vec::new();
        for _ in 0..parse_hex(lines.next()?)? {
            let mut head = lines.next()?.split(' ');
            let mut float = || hex16(head.next()?.as_bytes()).map(f64::from_bits);
            let (instructions, cpi_base) = (float()?, float()?);
            let n = parse_hex(head.next()?)?;
            let run = lines.next()?.as_bytes();
            if head.next().is_some() || run.len() as u64 != n.checked_mul(16)? {
                return None;
            }
            // `n` is checked against the run's length, so the delays are
            // allocated once at their exact size.
            let mut normalized_delays = Vec::with_capacity(run.len() / 16);
            for d in run.chunks_exact(16) {
                normalized_delays.push(hex16(d).map(f64::from_bits).filter(|x| x.is_finite())?);
            }
            // Mirror `experiments::thread_data`: a stage-idle thread
            // carries an empty trace and the zero-delay activity curve.
            let curve = if normalized_delays.is_empty() {
                ErrorCurve::from_normalized_delays(vec![0.0])
            } else {
                ErrorCurve::from_normalized_delays(normalized_delays.clone())
            }
            .ok()?;
            threads.push(ThreadData {
                curve,
                normalized_delays,
                instructions,
                cpi_base,
            });
        }
        intervals.push(IntervalData { threads });
    }
    // The body ends with its last line's newline, and nothing follows.
    (lines.next() == Some("") && lines.next().is_none()).then_some(BenchmarkData {
        benchmark: key.benchmark,
        stage: key.stage,
        tnom_v1,
        intervals,
    })
}

/// Writes a cache entry file the way every cache writer does: into a
/// temp file beside `path`, then renamed over it, so a reader sees the
/// old file or the new one and never a torn one. Concurrent writers of
/// one entry race benignly, since entries are immutable. The temp name
/// carries the pid and a process-wide counter, so two threads never
/// share one, and the temp file is removed on any failure. Cache writes
/// are best-effort, so unlike the service journal's nothing is synced.
///
/// # Errors
///
/// The first I/O error (creating the directory, writing or renaming).
pub fn write_via_temp(path: &Path, text: &str) -> std::io::Result<()> {
    write_then_rename_if(path, text, || true)
}

/// [`write_via_temp`], asking `rename` between the write and the rename:
/// `false` fails the write there (the injected `cache.rename` fault).
fn write_then_rename_if(
    path: &Path,
    text: &str,
    rename: impl FnOnce() -> bool,
) -> std::io::Result<()> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().ok_or(std::io::ErrorKind::InvalidInput)?;
    std::fs::create_dir_all(dir)?;
    let unique = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{unique}", std::process::id()));
    let landed = std::fs::write(&tmp, text).and_then(|()| {
        if rename() {
            std::fs::rename(&tmp, path)
        } else {
            Err(std::io::Error::other("cache.rename fault injected"))
        }
    });
    if landed.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    landed
}

/// The process-wide per-key in-flight table behind cache coalescing:
/// concurrent misses on the same entry wait for one characterization
/// instead of running N identical gate simulations. Keys are entry file
/// names — the same identity the disk and remote tiers use.
struct Coalescer {
    inflight: Mutex<BTreeSet<String>>,
    cv: Condvar,
}

static COALESCER: OnceLock<Coalescer> = OnceLock::new();

fn coalescer() -> &'static Coalescer {
    COALESCER.get_or_init(|| Coalescer {
        inflight: Mutex::new(BTreeSet::new()),
        cv: Condvar::new(),
    })
}

/// Ownership of one in-flight key; dropping it (normally or by unwind)
/// releases the key and wakes every waiter.
struct CoalesceGuard {
    token: String,
}

impl Drop for CoalesceGuard {
    fn drop(&mut self) {
        let c = coalescer();
        let mut inflight = c.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        inflight.remove(&self.token);
        c.cv.notify_all();
    }
}

/// Takes `token`'s key without blocking: `None` while another thread (or
/// another pair of the same call) holds it.
fn claim(token: &str) -> Option<CoalesceGuard> {
    let mut inflight = coalescer()
        .inflight
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    inflight.insert(token.to_string()).then(|| CoalesceGuard {
        token: token.to_string(),
    })
}

/// Blocks until no thread holds `token`'s key.
fn wait_released(token: &str) {
    let c = coalescer();
    let inflight = c.inflight.lock().unwrap_or_else(PoisonError::into_inner);
    drop(
        c.cv.wait_while(inflight, |inflight| inflight.contains(token))
            .unwrap_or_else(PoisonError::into_inner),
    );
}

/// What probing one pair's slot found.
enum Probe {
    /// A verified entry, local or remote.
    Hit(BenchmarkData),
    /// Another thread holds the key: wait for it, then probe again.
    Held(String),
    /// A miss to compute and store, holding the key until then (no key
    /// with a disabled cache).
    Miss(CacheEntry, Option<CoalesceGuard>),
}

/// Probes one slot without blocking on another thread. A verified local
/// entry is a hit even while another thread holds the key: an entry never
/// changes once it is renamed into place. Otherwise the key is taken if
/// free, and the leader probes again with [`CacheEntry::load`] (local,
/// then the remote tier) before it computes.
fn probe(entry: CacheEntry) -> Probe {
    if let Some(data) = entry.probe_local() {
        return Probe::Hit(data);
    }
    let guard = match entry.token() {
        Some(token) => match claim(&token) {
            Some(guard) => Some(guard),
            None => {
                entry.counters.count(Count::Coalesced);
                return Probe::Held(token);
            }
        },
        None => None,
    };
    match entry.load() {
        Some(data) => Probe::Hit(data),
        None => Probe::Miss(entry, guard),
    }
}

/// Characterizes every (benchmark, stage) pair through the cache and
/// returns the data in pair order: the one characterization scheduler.
/// [`characterize_cached`] is its one-pair call, the corpus build one call
/// over all its pairs, and an uncached run passes [`CharCache::disabled`],
/// which takes the same path with no slot (no probe, key, store or count).
///
/// Each distinct stage is built once; its netlist names the keys. One
/// pass over the pairs, on `pool`, probes every slot. The slot is named by
/// the recipe, so a hit builds no workload trace and runs no STA or gate
/// simulation. Hits never wait, while a miss takes its key without
/// blocking; if another thread holds the key, the pair is deferred (counted
/// in [`CacheStats::coalesced`]). The misses are then characterized on one
/// pool pass and stored, each releasing its key as it lands. Only then,
/// holding no key, does the call wait for the keys of its deferred pairs
/// and probe them again. So two calls over overlapping pairs, in any
/// order, cannot deadlock, and each key is computed once.
///
/// A miss never materializes its benchmark's full trace. Each benchmark
/// with a miss runs its kernel twice, and both runs hand each barrier
/// interval on as the kernel leaves it. The counting run
/// ([`workloads::Benchmark::count`]) tallies every (interval, thread)'s
/// ops by kind. The sampling run ([`workloads::Benchmark::sample`])
/// follows it: as its kernel enters an interval, it plans that interval
/// from the counted tallies, keeping the memory references and, for each
/// distinct accepted-op set among the call's stages of that benchmark,
/// only the events the one sampling rule ([`Sampling`]) times for that
/// set's count. A thread's stride depends only on its own (interval,
/// thread) count, so interval i can be planned while the counting run is
/// still in interval i + 1. Stages that accept the same ops (SimpleALU and
/// Decode) share one kept list. Each interval's sampled tallies are
/// checked against its counted ones as they arrive; a run of another
/// shape is an [`OptError::Workload`]. A unit times its list with
/// [`StageCharacterizer::delay_trace_kept`], the loop the oracle
/// [`crate::experiments::characterize_workload_on`] reaches through
/// [`StageCharacterizer::delay_trace_into`], so the two agree bit for bit
/// (property-tested in `tests/characterization_cache.rs`).
///
/// The misses run on one pool pass: each benchmark's counting and
/// sampling tasks, then the *unit* tasks, one (pair, interval, thread)
/// gate simulation each, rather than one task per pair, for two reasons:
///
/// 1. **quantization**: 9 multi-second pairs on 4 workers run as
///    ⌈9/4⌉ = 3 sequential rounds, capping the speed-up at 2.6× before any
///    other loss; the quick 3-benchmark corpus has 108 units;
/// 2. **pipelining**: the units of interval i start as soon as the
///    sampling run hands interval i on, while the kernels still record
///    the intervals after it, so a one-pair call keeps every worker busy
///    instead of waiting for two whole kernel runs. STA runs once per
///    stage with a miss, not once per pair.
///
/// A task waits only on tasks before it (the sampling run on the counting
/// run, a unit on the sampling run), and the pool claims tasks in order,
/// so the pass cannot deadlock at any worker count; one worker runs them
/// inline in order. A recording task that errs or panics first hands
/// every interval it did not reach on as absent, so no waiter outlives
/// it, and its error is returned or its panic resumed. Units are ordered
/// interval-major, thread-middle, pair-minor, so the first claims cover
/// every pair. Results are collected in task order, so the output is
/// bit-identical to a sequential run at any worker count, cache warm,
/// cold or disabled.
///
/// # Errors
///
/// Propagates characterization failures, the lowest-task failure at any
/// worker count; cache I/O failures are swallowed (they only cost a
/// recompute).
pub fn characterize_pairs(
    pairs: &[(Benchmark, StageKind)],
    cfg: &HarnessConfig,
    cache: &CharCache,
    pool: ThreadPool,
) -> Result<Vec<BenchmarkData>, OptError> {
    let mut done: Vec<Option<BenchmarkData>> = vec![None; pairs.len()];
    let mut todo: Vec<usize> = (0..pairs.len()).collect();
    while !todo.is_empty() {
        let mut built = BTreeMap::new();
        for &p in &todo {
            let stage = pairs[p].1;
            if let Entry::Vacant(slot) = built.entry(stage) {
                let circuit = time_phase(Phase::StageBuild, || {
                    circuits::build_stage(stage, cfg.workload.width)
                })
                .map_err(TimingError::from)?;
                slot.insert(circuit);
            }
        }
        let probes = pool.map(&todo, |_, &p| {
            let (benchmark, stage) = pairs[p];
            probe(cache.recipe_entry(benchmark, stage, cfg, built[&stage].netlist()))
        });
        let (mut misses, mut held) = (Vec::new(), Vec::new());
        for (&p, probe) in todo.iter().zip(probes) {
            match probe {
                Probe::Hit(data) => done[p] = Some(data),
                Probe::Held(token) => held.push((p, token)),
                Probe::Miss(entry, guard) => misses.push((p, entry, guard)),
            }
        }
        let computed = characterize_misses(
            &misses.iter().map(|&(p, ..)| pairs[p]).collect::<Vec<_>>(),
            built,
            cfg,
            pool,
        )?;
        for ((p, entry, _key), data) in misses.into_iter().zip(computed) {
            entry.store(&data);
            done[p] = Some(data);
        }
        for (_, token) in &held {
            wait_released(token);
        }
        todo = held.into_iter().map(|(p, _)| p).collect();
    }
    Ok(done
        .into_iter()
        .map(|data| data.expect("every pair is a hit or computed once its key is free"))
        .collect())
}

/// Characterizes `pairs` on one pool pass: each benchmark's counting and
/// sampling tasks, then the (pair × interval × thread) unit tasks (see
/// [`characterize_pairs`]). `built` holds the circuit of every stage
/// probed; STA runs only on those of `pairs`.
fn characterize_misses(
    pairs: &[(Benchmark, StageKind)],
    built: BTreeMap<StageKind, Box<dyn PipeStage>>,
    cfg: &HarnessConfig,
    pool: ThreadPool,
) -> Result<Vec<BenchmarkData>, OptError> {
    let mut characs = BTreeMap::new();
    for (stage, circuit) in built {
        if pairs.iter().any(|&(_, s)| s == stage) {
            let charac = time_phase(Phase::StageBuild, || {
                StageCharacterizer::from_stage(circuit)
            })?;
            characs.insert(stage, charac);
        }
    }
    let handed_on = cfg.workload.intervals.max(1);
    let mut recordings: Vec<Recording> = Vec::new();
    let recording_of: Vec<usize> = pairs
        .iter()
        .map(|&(benchmark, stage)| {
            let r = match recordings.iter().position(|r| r.benchmark == benchmark) {
                Some(r) => r,
                None => {
                    recordings.push(Recording::new(benchmark, handed_on));
                    recordings.len() - 1
                }
            };
            let ops = characs[&stage].stage().accepted_ops();
            if !recordings[r].sets.contains(&ops) {
                recordings[r].sets.push(ops);
            }
            r
        })
        .collect();
    // The unit list comes from the configured shape; a run of another
    // shape (radix with no intervals configured hands one on) finishes
    // its remaining threads during assembly.
    let (n_iv, n_th, n_pairs) = (cfg.workload.intervals, cfg.workload.threads, pairs.len());
    let tasks: Vec<Task> = (0..recordings.len())
        .flat_map(|r| [Task::Count(r), Task::Sample(r)])
        .chain((0..n_iv).flat_map(|i| {
            (0..n_th).flat_map(move |t| (0..n_pairs).map(move |p| Task::Unit(p, i, t)))
        }))
        .collect();
    let mut computed: Vec<Option<ThreadData>> = pool.try_map(&tasks, |_, &task| match task {
        Task::Count(r) => {
            recordings[r].count(&cfg.workload);
            Ok(None)
        }
        Task::Sample(r) => {
            recordings[r].sample(&cfg.workload, cfg.max_samples)?;
            Ok(None)
        }
        Task::Unit(p, i, t) => {
            let samples = recordings[recording_of[p]].sampled.wait(i)?;
            let Some(sample) = samples.and_then(|samples| samples.get(t)) else {
                return Ok(None);
            };
            time_phase(Phase::GateSim, || {
                characterize_sample(&characs[&pairs[p].1], sample, cfg).map(Some)
            })
        }
    })?;
    let units = &mut computed[2 * recordings.len()..];
    let mut out = Vec::with_capacity(n_pairs);
    for (p, &(benchmark, stage)) in pairs.iter().enumerate() {
        let charac = &characs[&stage];
        let sampled = &recordings[recording_of[p]].sampled;
        let mut intervals = Vec::new();
        while let Some(samples) = sampled.wait(intervals.len())? {
            let i = intervals.len();
            let mut threads = Vec::with_capacity(samples.len());
            for (t, sample) in samples.iter().enumerate() {
                let unit = (i < n_iv && t < n_th)
                    .then(|| units[(i * n_th + t) * n_pairs + p].take())
                    .flatten();
                threads.push(match unit {
                    Some(thread) => thread,
                    None => {
                        time_phase(Phase::GateSim, || characterize_sample(charac, sample, cfg))?
                    }
                });
            }
            intervals.push(IntervalData { threads });
        }
        out.push(BenchmarkData {
            benchmark,
            stage,
            tnom_v1: charac.tnom_v1(),
            intervals,
        });
    }
    Ok(out)
}

/// One task of [`characterize_misses`]'s pool pass, in task order: the
/// recording tasks of every benchmark, then the units, interval-major,
/// thread-middle, pair-minor. A task waits only on tasks before it.
#[derive(Debug, Clone, Copy)]
enum Task {
    /// The counting run of recording `r`.
    Count(usize),
    /// The sampling run of recording `r`.
    Sample(usize),
    /// The gate simulation of (pair, interval, thread).
    Unit(usize, usize, usize),
}

/// The two kernel runs of one benchmark with a miss, and the hand-offs
/// through which each passes its barrier intervals on as the kernel
/// leaves them: the counting run to the sampling run, the sampling run
/// to the units.
struct Recording {
    benchmark: Benchmark,
    /// The distinct accepted-op sets of the call's stages of this
    /// benchmark: stages that accept the same ops (SimpleALU and Decode)
    /// share one kept list.
    sets: Vec<OpSet>,
    counted: HandOff<Vec<Tally>>,
    sampled: HandOff<Vec<ThreadSample>>,
}

impl Recording {
    fn new(benchmark: Benchmark, handed_on: usize) -> Recording {
        Recording {
            benchmark,
            sets: Vec::new(),
            counted: HandOff::new(handed_on),
            sampled: HandOff::new(handed_on),
        }
    }

    /// The counting task: tallies each (interval, thread)'s ops by kind,
    /// handing each interval's tallies on as the kernel leaves it.
    fn count(&self, workload: &WorkloadConfig) {
        self.counted.record(|| {
            time_phase(Phase::TraceBuild, || {
                self.benchmark
                    .count(workload, |i, tallies| self.counted.hand_on(i, Ok(tallies)));
            });
        });
    }

    /// The sampling task. As the kernel enters an interval it waits,
    /// charged to no phase, for the counting run to hand that interval
    /// on, and plans from its tallies: per thread and accepted-op set in
    /// `sets`, the events [`Sampling`] times for that set's count. As the
    /// kernel leaves the interval, the tallies it saw are checked against
    /// the counted ones and the samples are handed on to the units.
    ///
    /// # Errors
    ///
    /// [`SampleMismatch`] if this run sees another number of intervals or
    /// threads, or another tally, than the counting run: from that
    /// interval on, every unit waiting on this run gets the error too.
    fn sample(&self, workload: &WorkloadConfig, max_samples: usize) -> Result<(), SampleMismatch> {
        let mismatch = SampleMismatch {
            benchmark: self.benchmark,
        };
        self.sampled.record(|| {
            let (mut failed, mut handed) = (false, 0);
            time_phase_except(Phase::TraceBuild, |untimed| {
                self.benchmark.sample(
                    workload,
                    |i| match untimed.run(|| self.counted.wait(i)) {
                        Ok(Some(tallies)) => tallies
                            .iter()
                            .map(|tally| keeps(tally, &self.sets, max_samples))
                            .collect(),
                        _ => Vec::new(),
                    },
                    |i, samples| {
                        handed = i + 1;
                        let same = matches!(self.counted.wait(i), Ok(Some(counted))
                            if counted.len() == samples.len()
                                && counted.iter().zip(&samples).all(|(c, s)| c == s.tally()));
                        failed |= !same;
                        let interval = if failed {
                            Err(mismatch.clone())
                        } else {
                            Ok(samples)
                        };
                        self.sampled.hand_on(i, interval);
                    },
                );
            });
            // The counting run must not have handed on more intervals.
            failed |= matches!(self.counted.wait(handed), Ok(Some(_)));
            if failed {
                Err(mismatch)
            } else {
                Ok(())
            }
        })
    }
}

/// What the sampling run keeps of a thread with `tally`: one [`Keep`] per
/// accepted-op set, by the one sampling rule ([`Sampling`]).
fn keeps(tally: &Tally, sets: &[OpSet], max_samples: usize) -> Vec<Keep> {
    sets.iter()
        .map(|&ops| {
            let sampling = Sampling::new(tally.of(ops) as usize, max_samples);
            Keep {
                ops,
                stride: sampling.stride(),
                count: sampling.kept(),
            }
        })
        .collect()
}

/// A recording task's hand-off to the tasks after it: one slot per
/// barrier interval the run may hand on, set once, as the kernel leaves
/// the interval. `Some` is the interval, `None` a run that ended without
/// it, an error a run that saw other events than the run it was planned
/// from.
struct HandOff<T> {
    slots: Vec<OnceLock<Result<Option<T>, SampleMismatch>>>,
}

impl<T> HandOff<T> {
    fn new(intervals: usize) -> HandOff<T> {
        HandOff {
            slots: (0..intervals).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Blocks until the recording task has handed interval `i` on or
    /// ended without it (`None`, also for an interval past the slots).
    fn wait(&self, i: usize) -> Result<Option<&T>, SampleMismatch> {
        match self.slots.get(i) {
            Some(slot) => match slot.wait() {
                Ok(interval) => Ok(interval.as_ref()),
                Err(mismatch) => Err(mismatch.clone()),
            },
            None => Ok(None),
        }
    }

    fn hand_on(&self, i: usize, interval: Result<T, SampleMismatch>) {
        if let Some(slot) = self.slots.get(i) {
            let _ = slot.set(interval.map(Some));
        }
    }

    /// Runs the recording task `record`, then sets every slot it left
    /// unset to `None`: when it returns, errs or unwinds, so no waiter
    /// outlives it. A panic is then resumed by the pool, after every
    /// other task has returned.
    fn record<R>(&self, record: impl FnOnce() -> R) -> R {
        struct Ended<'a, T>(&'a HandOff<T>);
        impl<T> Drop for Ended<'_, T> {
            fn drop(&mut self) {
                for slot in &self.0.slots {
                    let _ = slot.set(Ok(None));
                }
            }
        }
        let _ended = Ended(self);
        record()
    }
}

/// Runs and characterizes a benchmark on one stage through the cache:
/// [`characterize_pairs`] for one pair. A hit builds the stage netlist
/// (for the key's library fingerprint) and reads the entry; a miss runs
/// the workload, characterizes it on `pool` and persists the result.
///
/// # Errors
///
/// Propagates characterization failures; cache I/O failures are
/// swallowed (they only cost a recompute).
pub fn characterize_cached(
    benchmark: Benchmark,
    stage: StageKind,
    cfg: &HarnessConfig,
    cache: &CharCache,
    pool: ThreadPool,
) -> Result<BenchmarkData, OptError> {
    let mut data = characterize_pairs(&[(benchmark, stage)], cfg, cache, pool)?;
    Ok(data.pop().expect("one pair in, one characterization out"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::characterize;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("synts-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn netlist_for(stage: StageKind, width: usize) -> gatelib::Netlist {
        circuits::build_stage(stage, width)
            .expect("stage")
            .netlist()
            .clone()
    }

    fn assert_same(a: &BenchmarkData, b: &BenchmarkData) {
        assert_eq!(a.benchmark, b.benchmark);
        assert_eq!(a.stage, b.stage);
        assert_eq!(a.tnom_v1.to_bits(), b.tnom_v1.to_bits());
        assert_eq!(a.intervals.len(), b.intervals.len());
        for (ia, ib) in a.intervals.iter().zip(&b.intervals) {
            assert_eq!(ia.threads.len(), ib.threads.len());
            for (ta, tb) in ia.threads.iter().zip(&ib.threads) {
                assert_eq!(ta.curve, tb.curve);
                let da: Vec<u64> = ta.normalized_delays.iter().map(|d| d.to_bits()).collect();
                let db: Vec<u64> = tb.normalized_delays.iter().map(|d| d.to_bits()).collect();
                assert_eq!(da, db);
                assert_eq!(ta.instructions.to_bits(), tb.instructions.to_bits());
                assert_eq!(ta.cpi_base.to_bits(), tb.cpi_base.to_bits());
            }
        }
    }

    #[test]
    fn entry_text_round_trips_bit_identically() {
        let cfg = HarnessConfig::quick();
        let fresh = characterize(Benchmark::Radix, StageKind::SimpleAlu, &cfg).expect("ok");
        let netlist = netlist_for(StageKind::SimpleAlu, cfg.workload.width);
        let key = CacheKey::new(Benchmark::Radix, StageKind::SimpleAlu, &cfg, &netlist);
        assert_eq!(CacheKey::parse(&key.line()), Some(key.clone()));
        let text = encode_entry(&key, &fresh);
        assert!(text.is_ascii());
        assert_same(&fresh, &decode_entry(&text, &key).expect("decodes"));
        // The same body under another key never decodes.
        let other = CacheKey::new(Benchmark::Fmm, StageKind::SimpleAlu, &cfg, &netlist);
        assert!(decode_entry(&text, &other).is_none());
    }

    #[test]
    fn key_lines_accept_only_their_canonical_spelling() {
        let cfg = HarnessConfig::quick();
        let netlist = netlist_for(StageKind::Decode, cfg.workload.width);
        let line = CacheKey::new(Benchmark::LuNcontig, StageKind::Decode, &cfg, &netlist).line();
        for (from, to) in [
            ("benchmark=lu-ncontig", "benchmark=LU-ncontig"),
            ("stage=decode", "stage=Decode"),
            ("seed=c0ffee", "seed=C0FFEE"),
            ("seed=c0ffee", "seed=0c0ffee"),
            ("threads=4", "threads=+4"),
            (" scale=", "  scale="),
        ] {
            assert!(line.contains(from), "{line} lacks {from}");
            let spelled = line.replacen(from, to, 1);
            assert_eq!(CacheKey::parse(&spelled), None, "{spelled}");
        }
        assert_eq!(CacheKey::parse(&format!("{line} extra=1")), None);
        assert!(valid_entry_name("00112233aabbccdd.char"));
        for bad in [
            "00112233AABBCCDD.char",
            "00112233aabbccdd.json",
            "0011.char",
            "../x.char",
        ] {
            assert!(!valid_entry_name(bad), "{bad}");
        }
    }

    #[test]
    fn cold_then_warm_yields_identical_data_and_counts() {
        let dir = tmp_dir("warm");
        let cache = CharCache::at_dir(&dir);
        let cfg = HarnessConfig::quick();
        let run = || {
            characterize_cached(
                Benchmark::Fmm,
                StageKind::Decode,
                &cfg,
                &cache,
                ThreadPool::sequential(),
            )
        };
        let cold = run().expect("cold");
        assert_eq!(cache.stats().misses, 1, "cold run misses");
        assert_eq!(cache.stats().hits, 0);
        let warm = run().expect("warm");
        assert_eq!(cache.stats().hits, 1, "warm run hits");
        assert_eq!(cache.stats().misses, 1);
        assert_same(&cold, &warm);
        // The trace-holding form resolves the very slot that was filled.
        let trace = Benchmark::Fmm.run(&cfg.workload);
        let netlist = netlist_for(StageKind::Decode, cfg.workload.width);
        let entry = cache.entry(&trace, StageKind::Decode, &cfg, &netlist);
        let name = entry.token().expect("enabled");
        assert!(valid_entry_name(&name));
        assert!(dir.join(&name).is_file());
        assert_same(&cold, &entry.load().expect("hit"));
        assert_eq!(cache.stats().hits, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_or_truncated_entries_recompute() {
        let dir = tmp_dir("corrupt");
        let cache = CharCache::at_dir(&dir);
        let cfg = HarnessConfig::quick();
        let run = || {
            characterize_cached(
                Benchmark::Radix,
                StageKind::Decode,
                &cfg,
                &cache,
                ThreadPool::sequential(),
            )
        };
        let cold = run().expect("cold");
        let entry = std::fs::read_dir(&dir)
            .expect("dir")
            .next()
            .expect("one entry")
            .expect("entry")
            .path();
        let full = std::fs::read_to_string(&entry).expect("read");
        let mut cases = vec![
            String::new(),
            "{".to_string(),
            "not an entry at all".to_string(),
            MAGIC.to_string(),
            full[..full.len() / 2].to_string(),
            format!("{full}0"),
        ];
        // A body whose checksum was recomputed but whose counts lie.
        let (header, body) = full.split_at(full.find("\n").expect("magic line") + 1);
        let (key_line, rest) = body.split_at(body.find("\n").expect("key line") + 1);
        let lying_body = rest[17..].replacen(" 3\n", " 2\n", 1);
        let mut lying = format!("{header}{key_line}");
        push_hex16(&mut lying, checksum(lying_body.as_bytes()));
        lying.push('\n');
        lying.push_str(&lying_body);
        cases.push(lying);
        for (i, garbage) in cases.iter().enumerate() {
            std::fs::write(&entry, garbage).expect("write");
            let before = cache.stats();
            let again = run().unwrap_or_else(|e| panic!("case {i} must recompute, got {e}"));
            assert_eq!(cache.stats().since(before).misses, 1, "case {i} must miss");
            assert_same(&cold, &again);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_separates_configs_and_disabled_cache_touches_nothing() {
        let cfg = HarnessConfig::quick();
        let decode = netlist_for(StageKind::Decode, cfg.workload.width);
        let alu = netlist_for(StageKind::SimpleAlu, cfg.workload.width);
        let key =
            |c: &HarnessConfig| CacheKey::new(Benchmark::Radix, StageKind::Decode, c, &decode);
        let base = key(&cfg);
        let mut variants = vec![
            (
                "benchmark",
                CacheKey::new(Benchmark::Fmm, StageKind::Decode, &cfg, &decode),
            ),
            (
                "stage",
                CacheKey::new(Benchmark::Radix, StageKind::SimpleAlu, &cfg, &decode),
            ),
            (
                "library",
                CacheKey::new(Benchmark::Radix, StageKind::Decode, &cfg, &alu),
            ),
        ];
        type Knob = (&'static str, fn(&mut HarnessConfig));
        let knobs: [Knob; 13] = [
            ("threads", |c| c.workload.threads += 1),
            ("scale", |c| c.workload.scale += 1),
            ("intervals", |c| c.workload.intervals += 1),
            ("width", |c| c.workload.width += 1),
            ("seed", |c| c.workload.seed += 1),
            ("max_samples", |c| c.max_samples += 1),
            ("sets", |c| c.cpi_model.cache.sets *= 2),
            ("ways", |c| c.cpi_model.cache.ways += 1),
            ("line_bytes", |c| c.cpi_model.cache.line_bytes *= 2),
            ("miss_penalty", |c| c.cpi_model.cache.miss_penalty += 1),
            ("mul_extra", |c| c.cpi_model.mul_extra += 1),
            ("taken_rate", |c| {
                c.cpi_model.taken_rate = c.cpi_model.taken_rate.next_up()
            }),
            ("redirect_penalty", |c| c.cpi_model.redirect_penalty += 1),
        ];
        for (field, turn) in knobs {
            let mut other = cfg.clone();
            turn(&mut other);
            variants.push((field, key(&other)));
        }
        let mut names = std::collections::BTreeSet::from([base.entry_name()]);
        for (field, variant) in &variants {
            assert_ne!(&base, variant, "{field} is part of the key");
            assert!(
                names.insert(variant.entry_name()),
                "{field} moves the entry name"
            );
            assert_eq!(CacheKey::parse(&variant.line()).as_ref(), Some(variant));
        }
        // Seeds are held exactly: 2^53 and 2^53 + 1 are the same f64 but
        // two different workloads.
        let seed = |seed: u64| {
            let mut other = cfg.clone();
            other.workload.seed = seed;
            key(&other)
        };
        let (a, b) = (seed(1 << 53), seed((1 << 53) + 1));
        assert_ne!(a, b);
        assert_ne!(a.entry_name(), b.entry_name());
        assert_ne!(seed(u64::MAX), seed(u64::MAX - 1));

        let disabled = CharCache::disabled();
        let _ = characterize_cached(
            Benchmark::Radix,
            StageKind::Decode,
            &cfg,
            &disabled,
            ThreadPool::sequential(),
        )
        .expect("ok");
        assert_eq!(disabled.stats().lookups(), 0, "disabled cache never counts");
        let probe = disabled.recipe_entry(Benchmark::Radix, StageKind::Decode, &cfg, &decode);
        assert_eq!(probe.token(), None);
    }

    #[test]
    fn handles_count_their_own_lookups_and_the_process_counts_all() {
        let (dir_a, dir_b) = (tmp_dir("handle-a"), tmp_dir("handle-b"));
        let a = CharCache::at_dir(&dir_a);
        let a_clone = a.clone().with_faults(None);
        let b = CharCache::at_dir(&dir_b);
        let cfg = HarnessConfig::quick();
        let before = CacheStats::snapshot();
        for cache in [&a, &a_clone, &b] {
            characterize_cached(
                Benchmark::Fft,
                StageKind::SimpleAlu,
                &cfg,
                cache,
                ThreadPool::sequential(),
            )
            .expect("ok");
        }
        assert_eq!(
            (a.stats().misses, a.stats().hits),
            (1, 1),
            "clones share counters"
        );
        assert_eq!((b.stats().misses, b.stats().hits), (1, 0));
        let process = CacheStats::snapshot().since(before);
        assert!(
            process.lookups() >= 3,
            "the process total counts every handle"
        );
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn a_hit_does_not_wait_while_another_thread_holds_the_key() {
        let dir = tmp_dir("hit-no-wait");
        let cache = CharCache::at_dir(&dir);
        let cfg = HarnessConfig::quick();
        let cold = characterize_cached(
            Benchmark::Ocean,
            StageKind::Decode,
            &cfg,
            &cache,
            ThreadPool::sequential(),
        )
        .expect("cold");
        let netlist = netlist_for(StageKind::Decode, cfg.workload.width);
        let token = cache
            .recipe_entry(Benchmark::Ocean, StageKind::Decode, &cfg, &netlist)
            .token()
            .expect("enabled");
        // Hold the key as an in-flight characterization would.
        let guard = claim(&token).expect("nothing else holds the key");
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = cache.clone();
        let cfg_reader = cfg.clone();
        let handle = std::thread::spawn(move || {
            let data = characterize_cached(
                Benchmark::Ocean,
                StageKind::Decode,
                &cfg_reader,
                &reader,
                ThreadPool::sequential(),
            );
            let _ = tx.send(data);
        });
        let warm = rx.recv_timeout(std::time::Duration::from_secs(20));
        drop(guard);
        handle.join().expect("reader");
        assert_same(
            &cold,
            &warm
                .expect("the hit returned while the key was held")
                .expect("ok"),
        );
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits, stats.coalesced), (1, 1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Runs a recording's two tasks, then a waiter on each of its sampled
    /// slots per thread, on one pool pass of `workers` in a thread of its
    /// own. Returns what the pass returned, or the message it panicked
    /// with; fails if the pass does not return, i.e. a waiter was
    /// stranded.
    fn pass_with_waiters(
        workers: usize,
        rec: Recording,
        count: impl Fn(&Recording) + Send + Sync + 'static,
        sample: impl Fn(&Recording) -> Result<(), SampleMismatch> + Send + Sync + 'static,
    ) -> Result<Result<(), OptError>, String> {
        let (tx, rx) = std::sync::mpsc::channel();
        let pass = std::thread::spawn(move || {
            let slots = rec.sampled.slots.len();
            let tasks: Vec<usize> = (0..2 + 4 * slots).collect();
            let pass = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ThreadPool::new(workers).try_map(&tasks, |_, &k| match k {
                    0 => {
                        count(&rec);
                        Ok(())
                    }
                    1 => Ok(sample(&rec)?),
                    k => Ok(rec.sampled.wait((k - 2) % slots).map(drop)?),
                })
            }));
            let _ = tx.send(pass.map(|r| r.map(drop)).map_err(|panic| {
                panic
                    .downcast_ref::<&str>()
                    .map(ToString::to_string)
                    .unwrap_or_default()
            }));
        });
        let returned = rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("every waiter returns: a failed recording must not strand one");
        pass.join().expect("the pass's panic was caught");
        returned
    }

    /// A recording task that hands interval 0 on, then panics.
    fn panic_after_one<T>(hand_off: &HandOff<T>, first: T, message: &'static str) {
        hand_off.record(|| {
            hand_off.hand_on(0, Ok(first));
            std::panic::panic_any(message);
        });
    }

    #[test]
    fn a_recording_that_sees_other_events_fails_the_call_and_strands_no_waiter() {
        let cfg = WorkloadConfig::small(2);
        let other = |change: fn(&mut WorkloadConfig)| {
            let mut other = cfg.clone();
            change(&mut other);
            other
        };
        // (counting run, sampling run): other tallies from interval 0 on;
        // a counting run that ends partway through the sampling run; a
        // sampling run that ends partway through the counting run.
        let cases = [
            (other(|c| c.seed ^= 1), cfg.clone()),
            (other(|c| c.intervals = 2), cfg.clone()),
            (cfg.clone(), other(|c| c.intervals = 2)),
        ];
        for workers in [1, 2, 8] {
            for (counting, sampling) in cases.clone() {
                let err = pass_with_waiters(
                    workers,
                    Recording::new(Benchmark::Fmm, cfg.intervals),
                    move |rec| rec.count(&counting),
                    move |rec| rec.sample(&sampling, 8),
                )
                .expect("no panic")
                .expect_err("the runs saw other events");
                assert_eq!(
                    err.to_string(),
                    "workload layer: fmm: the sampling run counted other events than the \
                     counting run",
                    "{workers} workers"
                );
            }
        }
    }

    #[test]
    fn a_recording_that_panics_resumes_its_panic_and_strands_no_waiter() {
        let cfg = WorkloadConfig::small(2);
        for workers in [1, 2, 8] {
            let sampling = cfg.clone();
            let panicked = pass_with_waiters(
                workers,
                Recording::new(Benchmark::Fmm, cfg.intervals),
                |rec| panic_after_one(&rec.counted, vec![Tally::default(); 2], "counting panicked"),
                move |rec| rec.sample(&sampling, 8),
            );
            assert_eq!(
                panicked,
                Err("counting panicked".to_string()),
                "{workers} workers"
            );
            let counting = cfg.clone();
            let panicked = pass_with_waiters(
                workers,
                Recording::new(Benchmark::Fmm, cfg.intervals),
                move |rec| rec.count(&counting),
                |rec| {
                    panic_after_one(&rec.sampled, Vec::new(), "sampling panicked");
                    Ok(())
                },
            );
            assert_eq!(
                panicked,
                Err("sampling panicked".to_string()),
                "{workers} workers"
            );
        }
    }
}
