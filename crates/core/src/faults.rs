//! Deterministic fault injection for chaos testing the service stack.
//!
//! A [`FaultPlan`] is parsed from a compact textual grammar (the
//! `SYNTS_FAULTS` environment variable, a `--faults` flag, or the
//! `faults` field of a [`crate::ScenarioSpec`]) and threaded — always as
//! an `Option` — through the characterization cache, the scenario-service
//! executor, and the HTTP server/client. When no plan is armed every
//! injection point is a no-op, so the production paths carry the hooks at
//! zero behavioural cost.
//!
//! Determinism is the whole point: whether a given site fires for a given
//! operation is a pure function of `(seed, site, identity token)` — an
//! FNV-1a hash folded through a splitmix finalizer — with **no wall-clock
//! reads and no RNG** in the decision path. Two runs of the same spec with
//! the same plan inject byte-identical fault sequences, which is what lets
//! the chaos suite assert that recovery produces byte-identical reports.
//!
//! # Grammar
//!
//! Semicolon-separated `key=value` clauses:
//!
//! ```text
//! seed=42;cache.write=1/4;exec.panic=~#a0;net.refuse=2/5
//! ```
//!
//! * `seed=<u64>` — hash seed (defaults to 0).
//! * `<site>=<N>/<D>` — rate rule: fires for the deterministic `N/D`
//!   fraction of identity tokens at `<site>`. `<N>` alone means `N/1`
//!   (so `1` fires always, `0` never).
//! * `<site>=~<substr>` — match rule: fires whenever the identity token
//!   contains `<substr>`.
//!
//! Identity tokens are stable names for the operation being attempted:
//! the cache entry file name for `cache.*` sites, `"<shard-spec-name>#a<attempt>"`
//! for `exec.*` sites (so `~#a0` fails only first attempts and the retry
//! path is exercised deterministically), and `"<METHOD> <path>#a<attempt>"`
//! / `"#r<n>"` (server request counter) for `net.*` sites.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::error::OptError;
use crate::scenario::Json;

/// Environment variable holding a fault plan armed for the whole process.
pub const FAULTS_ENV: &str = "SYNTS_FAULTS";

/// Injection-site names accepted by the plan grammar.
pub mod site {
    /// Cache entry load: a hit is deterministically turned into a miss.
    pub const CACHE_READ: &str = "cache.read";
    /// Cache entry store: the write is dropped before the tmp file lands.
    pub const CACHE_WRITE: &str = "cache.write";
    /// Cache entry publish: the tmp file is written but the rename fails.
    pub const CACHE_RENAME: &str = "cache.rename";
    /// Executor: the shard worker panics (contained by `catch_unwind`).
    pub const EXEC_PANIC: &str = "exec.panic";
    /// Executor: the shard sleeps briefly before running (latency fault).
    pub const EXEC_SLOW: &str = "exec.slow";
    /// Executor: the whole process aborts — the real kill for recovery tests.
    pub const EXEC_KILL: &str = "exec.kill";
    /// Client: the connection attempt is refused before any bytes move.
    pub const NET_REFUSE: &str = "net.refuse";
    /// Server: the response head is torn mid-write and the socket dropped.
    pub const NET_TORN: &str = "net.torn";
    /// Server: the response body is cut mid-stream and the socket dropped.
    pub const NET_DISCONNECT: &str = "net.disconnect";
    /// A due lease renewal is silently dropped, so the lease runs down
    /// and the shard is reassigned: a remote executor's heartbeat (token
    /// `<lease>#h<beat>@<executor>`), or a tick's renewal of an
    /// in-process executor's lease (token `<shard-spec-name>#a<attempt>`,
    /// the same as the `exec.*` sites).
    pub const FLEET_HEARTBEAT: &str = "fleet.heartbeat";
    /// Coordinator: a granted dispatch is lost in flight — the lease is
    /// charged an attempt and the shard goes back on the queue.
    pub const FLEET_DISPATCH: &str = "fleet.dispatch";
    /// Cache: the remote characterization tier is unreachable; the lookup
    /// degrades to a local miss (and the publish is dropped).
    pub const CACHE_REMOTE: &str = "cache.remote";
}

/// Every site name, in the order the fault report renders them.
pub const ALL_SITES: [&str; 12] = [
    site::CACHE_READ,
    site::CACHE_WRITE,
    site::CACHE_RENAME,
    site::EXEC_PANIC,
    site::EXEC_SLOW,
    site::EXEC_KILL,
    site::NET_REFUSE,
    site::NET_TORN,
    site::NET_DISCONNECT,
    site::FLEET_HEARTBEAT,
    site::FLEET_DISPATCH,
    site::CACHE_REMOTE,
];

/// How a single rule decides whether to fire for an identity token.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Trigger {
    /// Fire for the deterministic `num/den` fraction of tokens.
    Rate { num: u64, den: u64 },
    /// Fire when the token contains the substring.
    Match(String),
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct FaultRule {
    site: String,
    trigger: Trigger,
}

/// A parsed, armed fault plan. Decisions are pure; the only interior
/// state is the fired-count ledger backing [`FaultPlan::report`].
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    source: String,
    rules: Vec<FaultRule>,
    fired: Mutex<BTreeMap<String, u64>>,
}

impl PartialEq for FaultPlan {
    fn eq(&self, other: &Self) -> bool {
        // Identity is the decision function (seed + rules); the fired
        // ledger is observability, not behaviour.
        self.seed == other.seed && self.rules == other.rules
    }
}

impl Eq for FaultPlan {}

impl FaultPlan {
    /// Parses the plan grammar. An empty (or all-whitespace) source yields
    /// an inert plan with no rules.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::Spec`] on an unknown site name or a malformed
    /// clause/rate/seed.
    pub fn parse(src: &str) -> Result<Self, OptError> {
        let mut seed = 0u64;
        let mut rules = Vec::new();
        for clause in src.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let Some((key, value)) = clause.split_once('=') else {
                return Err(OptError::Spec(format!(
                    "fault plan: clause {clause:?} is not key=value"
                )));
            };
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                seed = value.parse().map_err(|_| {
                    OptError::Spec(format!("fault plan: seed {value:?} is not a u64"))
                })?;
                continue;
            }
            if !ALL_SITES.contains(&key) {
                return Err(OptError::Spec(format!(
                    "fault plan: unknown site {key:?} (expected one of {})",
                    ALL_SITES.join(", ")
                )));
            }
            let trigger = if let Some(substr) = value.strip_prefix('~') {
                if substr.is_empty() {
                    return Err(OptError::Spec(format!(
                        "fault plan: empty match pattern for {key}"
                    )));
                }
                Trigger::Match(substr.to_string())
            } else {
                let (num, den) = match value.split_once('/') {
                    Some((n, d)) => (n.trim(), d.trim()),
                    None => (value, "1"),
                };
                let num: u64 = num.parse().map_err(|_| {
                    OptError::Spec(format!("fault plan: bad rate numerator in {clause:?}"))
                })?;
                let den: u64 = den.parse().map_err(|_| {
                    OptError::Spec(format!("fault plan: bad rate denominator in {clause:?}"))
                })?;
                if den == 0 {
                    return Err(OptError::Spec(format!(
                        "fault plan: zero rate denominator in {clause:?}"
                    )));
                }
                Trigger::Rate { num, den }
            };
            rules.push(FaultRule {
                site: key.to_string(),
                trigger,
            });
        }
        Ok(Self {
            seed,
            source: src.trim().to_string(),
            rules,
            fired: Mutex::new(BTreeMap::new()),
        })
    }

    /// Reads [`FAULTS_ENV`] and parses it. `Ok(None)` when unset or empty.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultPlan::parse`] errors so a typo in the variable is
    /// loud instead of silently disarming the plan.
    pub fn from_env() -> Result<Option<Self>, OptError> {
        // synts-lint: allow(env-read) — SYNTS_FAULTS only arms the chaos
        // harness; an unarmed run never consults it in a decision path.
        match std::env::var(FAULTS_ENV) {
            Ok(src) if !src.trim().is_empty() => Self::parse(&src).map(Some),
            _ => Ok(None),
        }
    }

    /// The hash seed the plan was parsed with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan text this was parsed from (for logs and reports).
    #[must_use]
    pub fn source(&self) -> &str {
        &self.source
    }

    /// True when at least one rule is armed.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        !self.rules.is_empty()
    }

    /// Deterministic decision: should `site` fail the operation named by
    /// `token`? Fires (and records) at most once per call even when
    /// several rules match.
    #[must_use]
    pub fn should(&self, site: &str, token: &str) -> bool {
        let hit = self.rules.iter().any(|rule| {
            rule.site == site
                && match &rule.trigger {
                    Trigger::Rate { num, den } => decision(self.seed, site, token) % den < *num,
                    Trigger::Match(substr) => token.contains(substr.as_str()),
                }
        });
        if hit {
            let mut fired = self
                .fired
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            *fired.entry(site.to_string()).or_insert(0) += 1;
        }
        hit
    }

    /// Panics — inside the caller's `catch_unwind` containment — when the
    /// [`site::EXEC_PANIC`] site fires for `token`.
    pub fn maybe_panic(&self, token: &str) {
        if self.should(site::EXEC_PANIC, token) {
            panic!("fault injected: {} at {token}", site::EXEC_PANIC);
        }
    }

    /// Sleeps briefly when the [`site::EXEC_SLOW`] site fires for `token`.
    /// The delay is fixed, not measured, so no clock enters any decision.
    pub fn maybe_slow(&self, token: &str) {
        if self.should(site::EXEC_SLOW, token) {
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
    }

    /// Aborts the whole process when the [`site::EXEC_KILL`] site fires —
    /// the genuine mid-job kill the recovery test needs (no destructors,
    /// no unwinding, exactly like `kill -9`).
    pub fn maybe_kill(&self, token: &str) {
        if self.should(site::EXEC_KILL, token) {
            eprintln!("fault injected: {} at {token}; aborting", site::EXEC_KILL);
            std::process::abort();
        }
    }

    /// How many times each site has fired so far, in site-name order.
    #[must_use]
    pub fn fired_counts(&self) -> BTreeMap<String, u64> {
        self.fired
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Canonical-JSON fault report: the plan source, seed, and per-site
    /// fired counts (every known site listed, zeros included, so reports
    /// from different runs are directly comparable).
    #[must_use]
    pub fn report(&self) -> Json {
        let fired = self.fired_counts();
        let mut counts = Json::obj();
        for s in ALL_SITES {
            let n = fired.get(s).copied().unwrap_or(0);
            counts = counts.field(s, Json::num(n as f64));
        }
        Json::obj()
            .field("plan", Json::str(self.source.as_str()))
            .field("seed", Json::num(self.seed as f64))
            .field("fired", counts)
    }
}

/// Pure decision hash: FNV-1a over `(seed, site, token)` finalized with
/// splitmix64 so low-entropy tokens still spread across the rate space.
fn decision(seed: u64, site: &str, token: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    let mut step = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    };
    step(&seed.to_le_bytes());
    step(site.as_bytes());
    step(&[0xff]);
    step(token.as_bytes());
    let mut x = hash;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::parse("").unwrap();
        assert!(!plan.is_armed());
        assert!(!plan.should(site::CACHE_WRITE, "anything"));
        assert_eq!(plan.fired_counts().len(), 0);
    }

    #[test]
    fn parse_rejects_unknown_sites_and_bad_rates() {
        assert!(FaultPlan::parse("cache.explode=1/2").is_err());
        assert!(FaultPlan::parse("cache.write=1/0").is_err());
        assert!(FaultPlan::parse("cache.write").is_err());
        assert!(FaultPlan::parse("seed=notanumber").is_err());
        assert!(FaultPlan::parse("exec.panic=~").is_err());
    }

    #[test]
    fn match_rules_fire_on_substring() {
        let plan = FaultPlan::parse("exec.panic=~#a0").unwrap();
        assert!(plan.should(site::EXEC_PANIC, "fig@shard1#a0"));
        assert!(!plan.should(site::EXEC_PANIC, "fig@shard1#a1"));
        assert!(!plan.should(site::CACHE_WRITE, "fig@shard1#a0"));
        assert_eq!(plan.fired_counts().get(site::EXEC_PANIC), Some(&1));
    }

    #[test]
    fn rate_rules_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::parse("seed=1;cache.write=1/2").unwrap();
        let b = FaultPlan::parse("seed=1;cache.write=1/2").unwrap();
        let c = FaultPlan::parse("seed=2;cache.write=1/2").unwrap();
        let tokens: Vec<String> = (0..64).map(|i| format!("entry-{i}.json")).collect();
        let fire = |p: &FaultPlan| -> Vec<bool> {
            tokens
                .iter()
                .map(|t| p.should(site::CACHE_WRITE, t))
                .collect()
        };
        let fa = fire(&a);
        assert_eq!(fa, fire(&b), "same seed must agree");
        assert_ne!(fa, fire(&c), "different seed should differ somewhere");
        let hits = fa.iter().filter(|&&x| x).count();
        assert!(hits > 8 && hits < 56, "1/2 rate wildly off: {hits}/64");
    }

    #[test]
    fn rate_edges_always_and_never() {
        let always = FaultPlan::parse("net.refuse=1").unwrap();
        let never = FaultPlan::parse("net.refuse=0/5").unwrap();
        for t in ["GET /healthz#a0", "POST /v1/jobs#a2"] {
            assert!(always.should(site::NET_REFUSE, t));
            assert!(!never.should(site::NET_REFUSE, t));
        }
    }

    #[test]
    fn report_lists_every_site_with_zeroes() {
        let plan = FaultPlan::parse("seed=9;exec.slow=~x").unwrap();
        assert!(plan.should(site::EXEC_SLOW, "x1"));
        let report = plan.report();
        let fired = report.get("fired").unwrap();
        for s in ALL_SITES {
            assert!(fired.get(s).is_some(), "missing {s}");
        }
        assert_eq!(report.get("seed").and_then(Json::as_usize), Some(9));
    }

    #[test]
    fn plans_with_same_rules_compare_equal() {
        let a = FaultPlan::parse("seed=3;cache.read=~t").unwrap();
        let b = FaultPlan::parse("seed=3;cache.read=~t").unwrap();
        assert!(a.should(site::CACHE_READ, "entry-t"));
        // Fired ledgers differ; identity does not.
        assert_eq!(a, b);
    }
}
