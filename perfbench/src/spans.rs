//! The traced run's instrument: spans around the public calls the
//! benchmark makes into each layer. Spans stay in memory and are
//! written out when the run ends; nothing here runs in an untraced run.

use std::collections::BTreeMap;
use std::time::Instant;

use synts_core::scenario::Json;

/// One timed region: `{name, op id, parent, start, end}`, times in
/// nanoseconds since the run's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub op: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// A span recorder owned by one thread. Ids are indices into this
/// recorder; [`Tracer::absorb`] merges recorders that share an origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records an already-measured region (used for the service states
    /// the poller observes, and for re-timed calls).
    pub fn record(
        &mut self,
        name: impl Into<String>,
        op: usize,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name: name.into(),
            op,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: impl Into<String>, op: usize, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, op, parent, now, now)
    }

    pub fn close(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        self.spans[id].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &str,
        op: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another recorder's spans, re-basing their parent ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total duration per span name, in seconds.
    pub fn totals(&self) -> BTreeMap<&str, f64> {
        let mut totals = BTreeMap::new();
        for s in &self.spans {
            *totals.entry(s.name.as_str()).or_insert(0.0) += s.secs();
        }
        totals
    }

    /// `1 - Σ top-level spans / Σ op wall` over every op root (a span
    /// with no parent whose name starts with `op:`).
    pub fn unattributed_frac(&self) -> f64 {
        let mut covered = 0.0;
        let mut wall = 0.0;
        for (id, root) in self.spans.iter().enumerate() {
            if root.parent.is_some() || !root.name.starts_with("op:") {
                continue;
            }
            wall += root.secs();
            covered += self
                .spans
                .iter()
                .filter(|s| s.parent == Some(id))
                .map(Span::secs)
                .sum::<f64>();
        }
        if wall > 0.0 {
            1.0 - covered / wall
        } else {
            0.0
        }
    }

    /// Every span with its self time (duration minus its children's).
    pub fn to_json(&self) -> Json {
        let mut child_secs = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_secs[p] += s.secs();
            }
        }
        Json::Arr(
            self.spans
                .iter()
                .zip(&child_secs)
                .map(|(s, children)| {
                    Json::obj()
                        .field("name", Json::str(&s.name))
                        .field("op", Json::num(s.op as f64))
                        .field(
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                        )
                        .field("start_ns", Json::num(s.start_ns as f64))
                        .field("end_ns", Json::num(s.end_ns as f64))
                        .field("self_s", Json::num(s.secs() - children))
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unattributed_is_the_op_time_no_child_covers() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        let mut tr = Tracer::new(t0);
        let root = tr.record("op:a", 0, None, at(0), at(100));
        tr.record("child", 0, Some(root), at(0), at(60));
        tr.record("child", 0, Some(root), at(60), at(90));
        let mut other = Tracer::new(t0);
        let root2 = other.record("op:b", 1, None, at(100), at(200));
        other.record("child", 1, Some(root2), at(100), at(200));
        tr.absorb(other);
        assert!((tr.unattributed_frac() - 0.05).abs() < 1e-9);
        assert!((tr.totals()["child"] - 0.19).abs() < 1e-9);
        let json = tr.to_json();
        let self_s = json.as_arr().expect("array")[0]
            .get("self_s")
            .and_then(Json::as_f64)
            .expect("self time");
        assert!((self_s - 0.01).abs() < 1e-9);
    }
}
