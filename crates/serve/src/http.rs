//! A minimal, dependency-free HTTP/1.1 front end for the scenario
//! [`Service`].
//!
//! Scope is deliberately narrow — this is a lab fleet endpoint, not a
//! general web server: one request per connection (`Connection: close`),
//! thread-per-connection, bounded header/body sizes, read timeouts, and
//! canonical-JSON bodies throughout (the same [`Json`] renderer the
//! golden fixtures pin, so a fetched report is byte-identical to
//! `synts-cli run` output).
//!
//! Routes:
//!
//! | method & path                  | reply                                        |
//! |--------------------------------|----------------------------------------------|
//! | `POST /v1/jobs[?key=<token>]`  | 202 + job status (body: a `ScenarioSpec`; `key` makes the submit idempotent — a retried POST returns the existing job) |
//! | `GET /v1/jobs`                 | 200 + all job statuses, submission order     |
//! | `GET /v1/jobs/<id>`            | 200 + job status                             |
//! | `GET /v1/jobs/<id>/report`     | 200 + merged report (`?format=csv` for CSV); 202 while pending; 410 if failed/cancelled |
//! | `DELETE /v1/jobs/<id>`         | 200 + job status (cancels a live job)        |
//! | `GET /v1/healthz`              | readiness probe: 200 while serving, 503 once the journal stops accepting writes (body carries queue depth, live executors, lease count, degraded flag) |
//! | `GET /v1/stats`                | 200 + service counters                       |
//! | `POST /v1/shutdown`            | 200, then winds the server down (`{"mode": "drain"\|"now"}`) |
//! | `POST /v1/fleet/register`      | 200 + assigned executor id and lease ticks (body: `{"name": ..}`) |
//! | `POST /v1/fleet/poll`          | 200 + a leased shard dispatch, or idle; 404 if the registration lapsed |
//! | `POST /v1/fleet/heartbeat`     | 200 renews the registration (and the named lease); 404 if lapsed |
//! | `POST /v1/fleet/complete`      | 200 lands a shard result; 409 if the lease expired (shard reassigned) |
//! | `POST /v1/fleet/tick`          | 200, advances the logical lease clock one tick |
//! | `GET /v1/cache/<key>[?claim=who]` | shared characterization tier: 200 + entry, 404 miss (`claim` granted on miss), 409 while another executor computes the key |
//! | `PUT /v1/cache/<key>`          | 200, publishes an entry into the shared tier |
//!
//! Malformed requests (bad request line, oversized headers/bodies,
//! invalid JSON, unknown routes) get 4xx JSON errors; a connection that
//! stalls past the [`ServerConfig::read_deadline`] gets a 408; nothing a
//! client sends can panic the server ([`std::panic::catch_unwind`]
//! backstops every connection thread). A body nested deeper than 64
//! levels of arrays and objects is invalid JSON too (400): [`Json::parse`]
//! refuses it before recursing further, since a stack overflow aborts the
//! process and no `catch_unwind` can catch it.
//!
//! Every route but `/v1/shutdown` needs only the [`Service`], so the
//! fleet's in-process transport ([`crate::fleet::Transport::InProcess`])
//! calls the same router without a socket.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use synts_core::faults::{site, FaultPlan};
use synts_core::scenario::{Json, ScenarioSpec};

use crate::client::HttpReply;
use crate::queue::{JobStatus, ReportOutcome, Service, Shutdown};

/// Longest accepted request head (request line + headers), bytes.
const MAX_HEAD: usize = 16 * 1024;
/// Largest accepted request body, bytes. Sized for fleet completions —
/// an executor POSTs a whole shard report, which dwarfs any spec.
const MAX_BODY: usize = 8 * 1024 * 1024;
/// Per-connection socket read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Tunables of one [`Server`] instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Total budget for reading one request (line, headers and body).
    /// A connection that stalls past it — slow-loris, torn body — gets
    /// a 408 and is closed; it can never pin a handler thread.
    pub read_deadline: Duration,
    /// Deterministic fault plan for the `net.*` server sites (torn
    /// writes, mid-body disconnects). `None` serves faithfully.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            read_deadline: IO_TIMEOUT,
            faults: None,
        }
    }
}

struct Inner {
    service: Arc<Service>,
    cfg: ServerConfig,
    /// Requests handled so far — the identity token for server-side
    /// fault decisions (`#r<n>`).
    requests: AtomicU64,
    stopping: AtomicBool,
    requested: Mutex<Option<Shutdown>>,
    cv: Condvar,
}

/// The running HTTP front end. Owns the accept loop; the wrapped
/// [`Service`] does the actual work.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts accepting connections against `service`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str, service: Arc<Service>) -> std::io::Result<Server> {
        Server::bind_with(addr, service, ServerConfig::default())
    }

    /// [`Server::bind`] with explicit tunables (read deadline, faults).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_with(
        addr: &str,
        service: Arc<Service>,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let inner = Arc::new(Inner {
            service,
            cfg,
            requests: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
            requested: Mutex::new(None),
            cv: Condvar::new(),
        });
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::spawn(move || accept_loop(&listener, &accept_inner));
        Ok(Server {
            inner,
            addr: local,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a `POST /v1/shutdown` arrives (or [`Server::stop`]
    /// is called from another thread) and returns the requested mode.
    #[must_use]
    pub fn wait_shutdown(&self) -> Shutdown {
        // The guarded value is a plain Option<Shutdown>; a poisoned
        // guard is still consistent, so recover instead of propagating.
        let mut requested = self
            .inner
            .requested
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(mode) = *requested {
                return mode;
            }
            requested = self
                .inner
                .cv
                .wait(requested)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Requests shutdown from in-process (same effect as the endpoint).
    pub fn stop(&self, mode: Shutdown) {
        self.inner.request_stop(mode);
    }

    /// Stops accepting connections, winds the service down per `mode`
    /// (drain first, then the workers are joined), and joins the accept
    /// loop. Idempotent.
    pub fn shutdown(&mut self, mode: Shutdown) {
        self.inner.request_stop(mode);
        // Unblock `accept` with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        self.inner.service.shutdown(mode);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown(Shutdown::Now);
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Inner {
    fn request_stop(&self, mode: Shutdown) {
        self.stopping.store(true, Ordering::SeqCst);
        let mut requested = self
            .requested
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *requested = match (*requested, mode) {
            (Some(Shutdown::Now), _) | (_, Shutdown::Now) => Some(Shutdown::Now),
            _ => Some(Shutdown::Drain),
        };
        drop(requested);
        self.cv.notify_all();
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if inner.stopping.load(Ordering::SeqCst) {
                    return;
                }
                // A persistent accept failure (EMFILE once
                // thread-per-connection exhausts fds) must not busy-spin
                // a core; back off and retry — the condition clears when
                // connections finish.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if inner.stopping.load(Ordering::SeqCst) {
            return;
        }
        let conn_inner = Arc::clone(inner);
        std::thread::spawn(move || {
            // A panic in a handler must kill only this connection.
            let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
                handle_connection(stream, &conn_inner);
            }));
        });
    }
}

struct Request {
    method: String,
    /// The path, then `?` and the query string if there is one.
    target: String,
    body: String,
}

impl Request {
    fn path(&self) -> &str {
        self.target.split_once('?').map_or(&self.target, |(p, _)| p)
    }

    fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }
}

enum ReadError {
    Malformed(&'static str),
    TooLarge(&'static str),
    Timeout,
    Io,
}

/// Tracks the per-connection read budget. The clock is read only to
/// *bound* how long a client may take, never to shape a result.
struct ReadBudget {
    started: Instant,
    deadline: Duration,
}

impl ReadBudget {
    fn new(deadline: Duration) -> ReadBudget {
        // synts-lint: allow(wall-clock) — read-deadline enforcement: the clock bounds client I/O, results never depend on it
        let started = Instant::now();
        ReadBudget { started, deadline }
    }

    /// Time left before the 408, `None` once exhausted.
    fn remaining(&self) -> Option<Duration> {
        self.deadline.checked_sub(self.started.elapsed())
    }

    /// Classifies a failed read: past the deadline it was the stall
    /// (408); otherwise a genuine transport error (drop silently).
    fn classify(&self) -> ReadError {
        if self.remaining().is_none() {
            ReadError::Timeout
        } else {
            ReadError::Io
        }
    }

    /// Arms the socket timeout with what's left of the budget so a
    /// stalled peer wakes the read at the deadline, not 10 s later.
    fn arm(&self, reader: &BufReader<TcpStream>) -> Result<(), ReadError> {
        let Some(remaining) = self.remaining() else {
            return Err(ReadError::Timeout);
        };
        reader
            .get_ref()
            .set_read_timeout(Some(remaining))
            .map_err(|_| ReadError::Io)
    }
}

fn handle_connection(stream: TcpStream, inner: &Inner) {
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let budget = ReadBudget::new(inner.cfg.read_deadline);
    let request_n = inner.requests.fetch_add(1, Ordering::SeqCst);
    let response = match read_request(&mut reader, &budget) {
        Ok(req) if req.method == "POST" && req.path() == "/v1/shutdown" => {
            shutdown_route(&req, inner)
        }
        Ok(req) => route(&req, &inner.service),
        Err(ReadError::Malformed(what)) => error_response(400, what),
        Err(ReadError::TooLarge(what)) => error_response(413, what),
        Err(ReadError::Timeout) => error_response(408, "request read deadline exceeded"),
        Err(ReadError::Io) => return,
    };
    write_response(
        stream,
        &response,
        inner.cfg.faults.as_deref(),
        &format!("#r{request_n}"),
    );
}

/// Reads one head line through a [`Read::take`] capped at the remaining
/// head budget, so a peer streaming an endless line (no newline) can
/// never grow the buffer past [`MAX_HEAD`] — the size check must fire
/// *during* the read, not after a complete line lands.
fn read_head_line(
    reader: &mut BufReader<TcpStream>,
    budget: &ReadBudget,
    remaining: &mut usize,
) -> Result<String, ReadError> {
    budget.arm(reader)?;
    let mut line = String::new();
    // +1 so a line that exactly fills the budget keeps its newline and
    // an over-budget one is detectable by length.
    (&mut *reader)
        .take(*remaining as u64 + 1)
        .read_line(&mut line)
        .map_err(|_| budget.classify())?;
    if line.len() > *remaining {
        return Err(ReadError::TooLarge("request head exceeds 16 KiB"));
    }
    *remaining -= line.len();
    Ok(line)
}

fn read_request(
    reader: &mut BufReader<TcpStream>,
    budget: &ReadBudget,
) -> Result<Request, ReadError> {
    let mut head_remaining = MAX_HEAD;
    let line = read_head_line(reader, budget, &mut head_remaining)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or(ReadError::Malformed("empty request line"))?
        .to_string();
    let target = parts
        .next()
        .ok_or(ReadError::Malformed("request line names no path"))?;
    let version = parts
        .next()
        .ok_or(ReadError::Malformed("request line names no HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed("unsupported HTTP version"));
    }

    let mut content_length = 0usize;
    loop {
        let header = read_head_line(reader, budget, &mut head_remaining)?;
        let trimmed = header.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ReadError::Malformed("unparseable Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(ReadError::TooLarge("request body exceeds 8 MiB"));
    }
    let mut body = vec![0u8; content_length];
    budget.arm(reader)?;
    reader
        .read_exact(&mut body)
        .map_err(|_| budget.classify())?;
    let body = String::from_utf8(body).map_err(|_| ReadError::Malformed("body is not UTF-8"))?;
    Ok(Request {
        method,
        target: target.to_string(),
        body,
    })
}

struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
}

fn json_response(status: u16, body: &Json) -> Response {
    Response {
        status,
        content_type: "application/json",
        body: body.render_pretty(),
    }
}

fn error_response(status: u16, message: &str) -> Response {
    json_response(status, &Json::obj().field("error", Json::str(message)))
}

/// Answers one request without a socket: the in-process transport's
/// path to the router, with the same request and reply bodies a socket
/// carries.
pub(crate) fn respond(service: &Service, method: &str, target: &str, body: &str) -> HttpReply {
    let req = Request {
        method: method.to_string(),
        target: target.to_string(),
        body: body.to_string(),
    };
    let Response { status, body, .. } = route(&req, service);
    HttpReply { status, body }
}

/// Every route that needs only the [`Service`]; `POST /v1/shutdown`
/// needs the [`Server`] and is answered by [`handle_connection`].
fn route(req: &Request, service: &Service) -> Response {
    let segments: Vec<&str> = req.path().split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["v1", "healthz"]) => {
            // A real readiness probe: 503 once the journal stops
            // accepting writes (a 200 with a sick body would keep
            // load balancers routing jobs into a black hole).
            let health = service.health();
            json_response(if health.ok { 200 } else { 503 }, &health.to_json())
        }
        ("GET", ["v1", "stats"]) => json_response(200, &service.stats().to_json()),
        ("POST", ["v1", "fleet", "register"]) => match Json::parse(&req.body) {
            Ok(json) => {
                let name = json
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("executor");
                let r = service.fleet_register(name);
                json_response(
                    200,
                    &Json::obj()
                        .field("executor", Json::str(&r.executor))
                        .field("lease_ticks", Json::num(r.lease_ticks as f64)),
                )
            }
            Err(e) => error_response(400, &e.to_string()),
        },
        ("POST", ["v1", "fleet", "poll"]) => fleet_poll_route(req, service),
        ("POST", ["v1", "fleet", "heartbeat"]) => match Json::parse(&req.body) {
            Ok(json) => {
                let Some(executor) = json.get("executor").and_then(Json::as_str) else {
                    return error_response(400, "heartbeat names no executor");
                };
                let lease = json.get("lease").and_then(Json::as_str);
                match service.fleet_heartbeat(executor, lease) {
                    crate::fleet::HeartbeatOutcome::Renewed { lease_held } => {
                        let mut body = Json::obj().field("ok", Json::Bool(true));
                        if let Some(held) = lease_held {
                            body = body.field("lease_held", Json::Bool(held));
                        }
                        json_response(200, &body)
                    }
                    crate::fleet::HeartbeatOutcome::UnknownExecutor => {
                        error_response(404, &format!("unknown executor: {executor}"))
                    }
                }
            }
            Err(e) => error_response(400, &e.to_string()),
        },
        ("POST", ["v1", "fleet", "complete"]) => fleet_complete_route(req, service),
        ("POST", ["v1", "fleet", "tick"]) => {
            let t = service.fleet_tick();
            json_response(
                200,
                &Json::obj()
                    .field("now", Json::num(t.now as f64))
                    .field("expired", Json::num(t.expired as f64)),
            )
        }
        ("GET", ["v1", "cache", name]) => cache_fetch_route(req, service, name),
        ("PUT", ["v1", "cache", name]) => {
            if !crate::fleet::valid_entry_name(name) {
                return error_response(400, "cache entry names are <16 hex>.char");
            }
            match service.cache_publish(name, &req.body) {
                Ok(()) => json_response(200, &Json::obj().field("ok", Json::Bool(true))),
                Err(e) => error_response(500, &e),
            }
        }
        ("POST", ["v1", "jobs"]) => match ScenarioSpec::from_json_str(&req.body) {
            Ok(spec) => {
                // `?key=<token>` makes the submit idempotent: a client
                // retrying a dropped 202 gets the same job back. 202
                // either way, so retries cannot tell a replay apart.
                let key = query_value(req.query(), "key");
                match service.submit_keyed(spec, key) {
                    Ok(status) => json_response(202, &status.to_json()),
                    Err(e) => error_response(400, &e.to_string()),
                }
            }
            Err(e) => error_response(400, &e.to_string()),
        },
        ("GET", ["v1", "jobs"]) => {
            let listed: Vec<Json> = service.jobs().iter().map(JobStatus::to_json).collect();
            json_response(200, &Json::obj().field("jobs", Json::arr(listed)))
        }
        ("GET", ["v1", "jobs", id]) => match service.status(id) {
            Some(status) => json_response(200, &status.to_json()),
            None => error_response(404, &format!("no such job: {id}")),
        },
        ("DELETE", ["v1", "jobs", id]) => match service.cancel(id) {
            Some(status) => json_response(200, &status.to_json()),
            None => error_response(404, &format!("no such job: {id}")),
        },
        ("GET", ["v1", "jobs", id, "report"]) => report_route(req, service, id),
        (_, ["v1", ..]) => error_response(404, &format!("no route: {} {}", req.method, req.path())),
        _ => error_response(404, "unknown path (the API lives under /v1/)"),
    }
}

fn shutdown_route(req: &Request, inner: &Inner) -> Response {
    let mode = match Json::parse(&req.body) {
        Ok(json) => match json.get("mode").and_then(Json::as_str) {
            Some("now") => Shutdown::Now,
            _ => Shutdown::Drain,
        },
        Err(_) if req.body.trim().is_empty() => Shutdown::Drain,
        Err(e) => return error_response(400, &e.to_string()),
    };
    inner.request_stop(mode);
    json_response(
        200,
        &Json::obj().field(
            "stopping",
            Json::str(match mode {
                Shutdown::Drain => "drain",
                Shutdown::Now => "now",
            }),
        ),
    )
}

fn fleet_poll_route(req: &Request, service: &Service) -> Response {
    let json = match Json::parse(&req.body) {
        Ok(json) => json,
        Err(e) => return error_response(400, &e.to_string()),
    };
    let Some(executor) = json.get("executor").and_then(Json::as_str) else {
        return error_response(400, "poll names no executor");
    };
    match service.fleet_poll(executor) {
        crate::fleet::PollOutcome::Dispatch(d) => json_response(
            200,
            &Json::obj()
                .field("work", Json::Bool(true))
                .field("lease", Json::str(&d.lease))
                .field("job", Json::str(&d.job))
                .field("shard", Json::num(d.shard as f64))
                .field("attempt", Json::num(f64::from(d.attempt)))
                .field("spec", d.spec.to_json()),
        ),
        crate::fleet::PollOutcome::Idle => {
            json_response(200, &Json::obj().field("work", Json::Bool(false)))
        }
        crate::fleet::PollOutcome::UnknownExecutor => {
            error_response(404, &format!("unknown executor: {executor}"))
        }
    }
}

fn fleet_complete_route(req: &Request, service: &Service) -> Response {
    let json = match Json::parse(&req.body) {
        Ok(json) => json,
        Err(e) => return error_response(400, &e.to_string()),
    };
    let (Some(executor), Some(lease)) = (
        json.get("executor").and_then(Json::as_str),
        json.get("lease").and_then(Json::as_str),
    ) else {
        return error_response(400, "complete names no executor/lease");
    };
    let result = if let Some(msg) = json.get("error").and_then(Json::as_str) {
        Err(msg.to_string())
    } else if let Some(report_json) = json.get("report") {
        match synts_core::scenario::Report::from_json(report_json) {
            Ok(report) => Ok(report),
            Err(e) => return error_response(400, &format!("unparseable report: {e}")),
        }
    } else {
        return error_response(400, "complete carries neither report nor error");
    };
    match service.fleet_complete(executor, lease, result) {
        crate::fleet::CompleteOutcome::Accepted => {
            json_response(200, &Json::obj().field("accepted", Json::Bool(true)))
        }
        crate::fleet::CompleteOutcome::Rejected(why) => error_response(409, &why),
    }
}

fn cache_fetch_route(req: &Request, service: &Service, name: &str) -> Response {
    if !crate::fleet::valid_entry_name(name) {
        return error_response(400, "cache entry names are <16 hex>.char");
    }
    let claimant = query_value(req.query(), "claim");
    match service.cache_fetch(name, claimant) {
        crate::fleet::CacheFetchOutcome::Hit(text) => Response {
            status: 200,
            content_type: "text/plain",
            body: text,
        },
        crate::fleet::CacheFetchOutcome::MissClaimGranted => json_response(
            404,
            &Json::obj()
                .field("cache", Json::str("miss"))
                .field("claim", Json::str("granted")),
        ),
        crate::fleet::CacheFetchOutcome::MissClaimHeld => json_response(
            409,
            &Json::obj()
                .field("cache", Json::str("miss"))
                .field("claim", Json::str("held")),
        ),
        crate::fleet::CacheFetchOutcome::Miss => json_response(
            404,
            &Json::obj()
                .field("cache", Json::str("miss"))
                .field("claim", Json::str("none")),
        ),
        crate::fleet::CacheFetchOutcome::Disabled => {
            error_response(404, "this coordinator serves no cache tier")
        }
    }
}

fn report_route(req: &Request, service: &Service, id: &str) -> Response {
    let csv = req
        .query()
        .is_some_and(|q| q.split('&').any(|kv| kv == "format=csv"));
    match service.report(id) {
        ReportOutcome::Unknown => error_response(404, &format!("no such job: {id}")),
        ReportOutcome::Pending(status) => json_response(202, &status.to_json()),
        ReportOutcome::Unavailable(status) => json_response(410, &status.to_json()),
        ReportOutcome::Ready(report) => {
            if csv {
                let (header, rows) = report.to_csv();
                let mut body = header.join(",");
                body.push('\n');
                for row in rows {
                    body.push_str(&row.join(","));
                    body.push('\n');
                }
                Response {
                    status: 200,
                    content_type: "text/csv",
                    body,
                }
            } else {
                Response {
                    status: 200,
                    content_type: "application/json",
                    body: report.to_json_string(),
                }
            }
        }
    }
}

/// Extracts a value from a `k=v&k2=v2` query string (no percent
/// decoding — keys are restricted to plain tokens by convention).
fn query_value<'q>(query: Option<&'q str>, name: &str) -> Option<&'q str> {
    query?
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == name)
        .map(|(_, v)| v)
        .filter(|v| !v.is_empty())
}

fn write_response(
    mut stream: TcpStream,
    response: &Response,
    faults: Option<&FaultPlan>,
    token: &str,
) {
    let reason = match response.status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        409 => "Conflict",
        410 => "Gone",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        reason,
        response.content_type,
        response.body.len()
    );
    if let Some(plan) = faults {
        if plan.should(site::NET_TORN, token) {
            // Torn write: half the head, then drop the socket — the
            // client sees an unparseable reply and must retry.
            if let Some(part) = head.as_bytes().get(..head.len() / 2) {
                let _ = stream.write_all(part);
            }
            return;
        }
        if plan.should(site::NET_DISCONNECT, token) {
            // Mid-body disconnect: full head, half the body, drop.
            let _ = stream.write_all(head.as_bytes());
            if let Some(part) = response.body.as_bytes().get(..response.body.len() / 2) {
                let _ = stream.write_all(part);
            }
            return;
        }
    }
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(response.body.as_bytes());
    let _ = stream.flush();
}
