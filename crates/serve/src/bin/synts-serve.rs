//! `synts-serve` — run the SynTS scenario service.
//!
//! ```text
//! synts-serve [--addr 127.0.0.1:7070] [--workers N] [--max-shards N]
//!             [--max-attempts N] [--cache-dir DIR | --no-cache]
//!             [--journal-dir DIR] [--faults PLAN]
//!             [--local-shards on|off] [--lease-ticks N] [--tick-ms MS]
//! synts-serve --executor --coordinator HOST:PORT [--name NAME]
//!             [--poll-ms MS] [--cache-dir DIR | --no-cache] [--faults PLAN]
//! ```
//!
//! Coordinator mode binds the HTTP front end, prints the resolved
//! address, and serves until `POST /v1/shutdown` (or Ctrl-C, which
//! skips the drain). Executor mode registers with a coordinator and
//! pulls shard work over HTTP until 50 polls in a row go unanswered
//! (its coordinator is gone), then exits 1.
//!
//! With `--journal-dir` the service journals every job durably to
//! `DIR/journal.log` and, on startup, replays (and compacts) that file:
//! finished jobs serve their journaled reports, interrupted jobs resume
//! from their completed shards.
//! `--faults` (or the `SYNTS_FAULTS` environment variable) arms the
//! deterministic fault-injection harness — see `synts_core::faults`.
//!
//! Fleet leases live in logical ticks: `--lease-ticks` sets how many a
//! lease survives without renewal, and the reaper thread advances one
//! tick every `--tick-ms` milliseconds (0 disables it — tests tick via
//! `POST /v1/fleet/tick` instead). `--local-shards off` reserves shard
//! tasks for fleet executors (falling back to local execution, with a
//! warning, while none are live).
#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use synts_core::{CharCache, FaultPlan};
use synts_serve::{
    run_executor, ExecutorConfig, Journal, Server, Service, ServiceConfig, Shutdown,
};

#[derive(Debug)]
struct Args {
    addr: String,
    workers: usize,
    max_shards: usize,
    max_attempts: u32,
    cache: CharCache,
    journal_dir: Option<String>,
    faults: Option<String>,
    executor: bool,
    coordinator: Option<String>,
    name: Option<String>,
    poll_ms: u64,
    local_shards: bool,
    lease_ticks: u64,
    tick_ms: u64,
}

const USAGE: &str = "usage: synts-serve [--addr HOST:PORT] [--workers N] [--max-shards N] \
[--max-attempts N] [--cache-dir DIR | --no-cache] [--journal-dir DIR] [--faults PLAN] \
[--local-shards on|off] [--lease-ticks N] [--tick-ms MS]
       synts-serve --executor --coordinator HOST:PORT [--name NAME] [--poll-ms MS] \
[--cache-dir DIR | --no-cache] [--faults PLAN]

Serves the SynTS scenario API (POST /v1/jobs[?key=..], GET /v1/jobs/<id>[/report],
GET /v1/healthz, GET /v1/stats, POST /v1/shutdown). Defaults: --addr
127.0.0.1:7070, --workers 2, --max-shards 4, --max-attempts 2, cache per
SYNTS_CACHE_DIR (target/synts-cache). --journal-dir enables the durable
job journal (replayed on startup); --faults arms deterministic fault
injection (grammar: 'seed=N;site=NUM/DEN;site=~substr', overriding the
SYNTS_FAULTS environment variable).

Fleet: --executor turns this process into a remote executor for the
coordinator at --coordinator (required), polling every --poll-ms (200).
On the coordinator, --local-shards off reserves shards for executors
(local fallback while none are live), --lease-ticks (5) bounds how many
logical ticks a lease survives without renewal, and --tick-ms (500)
paces the reaper thread that advances the lease clock (0 disables it).";

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7070".to_string(),
        workers: 2,
        max_shards: 4,
        max_attempts: 2,
        cache: CharCache::from_env(),
        journal_dir: None,
        faults: None,
        executor: false,
        coordinator: None,
        name: None,
        poll_ms: 200,
        local_shards: true,
        lease_ticks: 5,
        tick_ms: 500,
    };
    let mut it = argv;
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} expects {what}; see --help"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("HOST:PORT")?,
            "--workers" => {
                args.workers = value("a thread count")?
                    .parse()
                    .map_err(|_| "--workers expects an integer >= 1".to_string())?;
            }
            "--max-shards" => {
                args.max_shards = value("a shard count")?
                    .parse()
                    .map_err(|_| "--max-shards expects an integer >= 1".to_string())?;
            }
            "--max-attempts" => {
                args.max_attempts = value("an attempt count")?
                    .parse()
                    .map_err(|_| "--max-attempts expects an integer >= 1".to_string())?;
            }
            "--cache-dir" => args.cache = CharCache::at_dir(value("a directory")?),
            "--no-cache" => args.cache = CharCache::disabled(),
            "--journal-dir" => args.journal_dir = Some(value("a directory")?),
            "--faults" => args.faults = Some(value("a fault plan")?),
            "--executor" => args.executor = true,
            "--coordinator" => args.coordinator = Some(value("HOST:PORT")?),
            "--name" => args.name = Some(value("an executor name")?),
            "--poll-ms" => {
                args.poll_ms = value("milliseconds")?
                    .parse()
                    .map_err(|_| "--poll-ms expects an integer >= 1".to_string())?;
                if args.poll_ms == 0 {
                    return Err("--poll-ms expects an integer >= 1".to_string());
                }
            }
            "--local-shards" => {
                args.local_shards = match value("on|off")?.as_str() {
                    "on" => true,
                    "off" => false,
                    _ => return Err("--local-shards expects 'on' or 'off'".to_string()),
                };
            }
            "--lease-ticks" => {
                args.lease_ticks = value("a tick count")?
                    .parse()
                    .map_err(|_| "--lease-ticks expects an integer >= 1".to_string())?;
                if args.lease_ticks == 0 {
                    return Err("--lease-ticks expects an integer >= 1".to_string());
                }
            }
            "--tick-ms" => {
                args.tick_ms = value("milliseconds (0 disables the reaper)")?
                    .parse()
                    .map_err(|_| "--tick-ms expects an integer >= 0".to_string())?;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag '{other}'; see --help")),
        }
    }
    if args.executor && args.coordinator.is_none() {
        return Err("--executor requires --coordinator HOST:PORT; see --help".to_string());
    }
    if !args.executor && args.coordinator.is_some() {
        return Err("--coordinator only makes sense with --executor; see --help".to_string());
    }
    Ok(args)
}

/// Resolves the armed fault plan: the `--faults` flag wins, otherwise
/// the `SYNTS_FAULTS` environment variable, otherwise unarmed.
fn resolve_faults(flag: Option<&str>) -> Result<Option<Arc<FaultPlan>>, String> {
    let plan = match flag {
        Some(src) => FaultPlan::parse(src).map(Some),
        None => FaultPlan::from_env(),
    };
    plan.map(|p| p.filter(FaultPlan::is_armed).map(Arc::new))
        .map_err(|e| format!("synts-serve: invalid fault plan: {e}"))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let faults = match resolve_faults(args.faults.as_deref()) {
        Ok(faults) => faults,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.executor {
        let coordinator = args
            .coordinator
            .clone()
            .expect("parse_args enforces --coordinator with --executor");
        let name = args
            .name
            .clone()
            .unwrap_or_else(|| format!("executor-{}", std::process::id()));
        if let Some(plan) = &faults {
            println!("synts-serve: fault injection armed: {}", plan.source());
        }
        println!("synts-serve: executor {name} joining fleet at {coordinator}");
        let gone = run_executor(&ExecutorConfig {
            coordinator,
            name,
            cache: args.cache,
            faults,
            poll: Duration::from_millis(args.poll_ms),
        });
        eprintln!("synts-serve: executor: {gone}");
        return ExitCode::FAILURE;
    }
    let journal = match args.journal_dir.as_deref().map(Journal::open).transpose() {
        Ok(journal) => journal,
        Err(e) => {
            eprintln!(
                "synts-serve: cannot open journal dir {}: {e}",
                args.journal_dir.as_deref().unwrap_or_default()
            );
            return ExitCode::FAILURE;
        }
    };
    if let Some(plan) = &faults {
        println!("synts-serve: fault injection armed: {}", plan.source());
    }
    let service = Arc::new(Service::start(ServiceConfig {
        workers: args.workers,
        max_shards: args.max_shards,
        max_attempts: args.max_attempts,
        cache: args.cache,
        journal,
        faults,
        local_shards: args.local_shards,
        lease_ticks: args.lease_ticks,
    }));
    if args.tick_ms > 0 {
        // The reaper: the only place wall-clock meets the lease clock.
        // Every lease/expiry *decision* happens inside fleet_tick, in
        // logical ticks, so tests that tick explicitly are exact.
        let reaper = Arc::clone(&service);
        let interval = Duration::from_millis(args.tick_ms);
        std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            let _ = reaper.fleet_tick();
        });
    }
    let mut server = match Server::bind(&args.addr, service) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("synts-serve: cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "synts-serve: listening on {} ({} worker(s), up to {} shard(s)/job{})",
        server.addr(),
        args.workers,
        args.max_shards,
        if args.local_shards {
            ""
        } else {
            ", fleet shards"
        }
    );
    let mode = server.wait_shutdown();
    println!(
        "synts-serve: shutting down ({})",
        match mode {
            Shutdown::Drain => "draining queued jobs",
            Shutdown::Now => "finishing in-flight shards only",
        }
    );
    server.shutdown(mode);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(words.iter().map(|w| (*w).to_string()))
    }

    #[test]
    fn defaults_and_new_flags_parse() {
        let args = parse(&[]).expect("defaults");
        assert_eq!(args.addr, "127.0.0.1:7070");
        assert!(args.journal_dir.is_none());
        assert!(args.faults.is_none());

        let args = parse(&[
            "--journal-dir",
            "target/j",
            "--faults",
            "seed=7;exec.panic=~#a0",
        ])
        .expect("new flags");
        assert_eq!(args.journal_dir.as_deref(), Some("target/j"));
        assert_eq!(args.faults.as_deref(), Some("seed=7;exec.panic=~#a0"));
    }

    #[test]
    fn flag_errors_are_one_clear_line() {
        let err = parse(&["--journal-dir"]).expect_err("missing value");
        assert!(err.contains("--journal-dir expects"), "{err}");
        let err = parse(&["--bogus"]).expect_err("unknown flag");
        assert!(err.contains("unknown flag '--bogus'"), "{err}");
    }

    #[test]
    fn bad_fault_plan_is_rejected_with_the_parse_error() {
        let err = resolve_faults(Some("seed=7;nope.site=1/2")).expect_err("bad site");
        assert!(err.starts_with("synts-serve: invalid fault plan:"), "{err}");
        let armed = resolve_faults(Some("seed=1;cache.write=1/2")).expect("valid plan");
        assert!(armed.is_some());
        let inert = resolve_faults(Some("")).expect("empty plan is inert");
        assert!(inert.is_none());
    }

    #[test]
    fn bind_failure_is_a_clear_error_not_a_panic() {
        // Occupy a port, then confirm a second bind to it fails with an
        // ordinary error (main() turns this into the one-line message).
        let holder = std::net::TcpListener::bind("127.0.0.1:0").expect("bind probe port");
        let addr = holder.local_addr().expect("probe addr").to_string();
        let service = Arc::new(Service::start(ServiceConfig {
            workers: 1,
            cache: CharCache::disabled(),
            ..ServiceConfig::default()
        }));
        let err = Server::bind(&addr, Arc::clone(&service)).expect_err("port is taken");
        let line = format!("synts-serve: cannot bind {addr}: {err}");
        assert!(line.contains(&addr), "{line}");
        assert!(!line.contains('\n'), "error must be one line: {line}");
        service.shutdown(Shutdown::Now);
    }

    #[test]
    fn bad_addr_is_a_clear_error() {
        let service = Arc::new(Service::start(ServiceConfig {
            workers: 1,
            cache: CharCache::disabled(),
            ..ServiceConfig::default()
        }));
        let err = Server::bind("not-an-addr", Arc::clone(&service)).expect_err("unparseable addr");
        assert!(!err.to_string().is_empty());
        service.shutdown(Shutdown::Now);
    }
}
