//! Durable job journal: the crash-safety substrate of the service.
//!
//! The queue keeps jobs in memory; this module makes them survive a
//! `kill -9`. The journal is **one append-only segment**,
//! `DIR/journal.log`, holding one checksummed record per line:
//!
//! ```text
//! <16 lowercase hex: FNV-1a 64 of the JSON> <compact JSON>\n
//!
//! 6c1f0e8d2b7a9354 {"record":"submitted","job":1,"key":null,"spec":{...}}
//! 0d94be3a7f21c680 {"record":"shard_done","job":1,"shard":0,"report":{...}}
//! e25a7c19b0f4d3a8 {"record":"done","job":1,"report":{...}}
//! ```
//!
//! An append writes its whole line and `fdatasync`s it under the
//! journal's one lock, so lines land in write order. A failed append
//! cuts the file back to the last record boundary before it returns the
//! error, so a later record never shares a line with a partial one.
//!
//! Record kinds: `submitted` (spec + optional idempotency key),
//! `shard_done` (one shard's partial report), and the terminal `done`
//! (the merged report) / `failed` / `cancelled`. Reports are inline and
//! round-trip bit-exactly through [`Report::from_json`], so a recovered
//! job serves the bytes an uninterrupted one would. There is
//! deliberately **no planned record**: shard planning is a
//! deterministic function of the spec, the shard cap and the cache, so
//! recovery re-plans and the shard indices line up by construction.
//!
//! [`Journal::replay`] reads the segment once and folds it into per-job
//! [`RecoveredJob`]s. A line whose checksum or JSON fails is *damaged*.
//! The run of damaged lines at the end — the footprint of a crash
//! mid-append — is cut; a damaged line followed by a good one is
//! damage the write path cannot produce, so it is skipped and kept for
//! a human to inspect. Replay also compacts: the `shard_done` lines of
//! terminal jobs are dropped (the terminal record supersedes them). When
//! either removes a line, the segment is rewritten atomically (temp file
//! → `fsync` → rename → directory `fsync`).
//!
//! The journal assumes a single writer (one service process per
//! directory), matching the one-listener-per-`--journal-dir` deployment.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use synts_core::scenario::Json;
use synts_core::{Report, ScenarioSpec};

/// The segment's file name inside the journal directory.
const SEGMENT: &str = "journal.log";

/// Terminal state of a recovered job.
#[derive(Debug, PartialEq)]
pub enum Terminal {
    /// The merged report was journaled; the job serves it immediately.
    Done(Box<Report>),
    /// The job failed with this error.
    Failed(String),
    /// The job was cancelled.
    Cancelled,
}

/// Everything the journal knows about one job after replay.
#[derive(Debug, PartialEq)]
pub struct RecoveredJob {
    /// The job's sequence number (its id is `job-<seq>`).
    pub seq: u64,
    /// The submitted spec.
    pub spec: ScenarioSpec,
    /// The client-supplied idempotency key, if any.
    pub key: Option<String>,
    /// The terminal state, or `None` for a job that must resume.
    pub terminal: Option<Terminal>,
    /// Completed shard reports by shard index, for resumed jobs.
    pub shards: BTreeMap<usize, Report>,
}

/// The outcome of replaying a journal.
#[derive(Debug, Default)]
pub struct Replay {
    /// Jobs by sequence number, in submission order.
    pub jobs: BTreeMap<u64, RecoveredJob>,
    /// Lines that were kept but not used: damaged lines followed by a
    /// good one, and well-formed records of an unknown kind or job or
    /// with an unreadable spec or report. Never fatal.
    pub skipped: usize,
    /// Damaged lines at the end of the segment (a crash mid-append
    /// leaves a partial last line): cut, so the next append starts on a
    /// record boundary.
    pub truncated: usize,
    /// `shard_done` lines dropped because their job is terminal.
    pub compacted: usize,
}

/// An open journal directory (see the module docs for the format).
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    segment: Mutex<Segment>,
}

/// The segment's append handle and where its last whole record ends.
#[derive(Debug)]
struct Segment {
    file: File,
    /// Bytes through the last whole record.
    len: u64,
    /// Bytes past `len` may hold a partial line (a cut that failed);
    /// the next append cuts them before it writes.
    torn: bool,
}

impl Journal {
    /// Opens (creating if needed) the journal in `dir`. Records append
    /// after the segment's last byte, so replay a journal a crash may
    /// have left with a partial last line before appending to it;
    /// [`Service::start`](crate::Service::start) does.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory or opening the segment, and
    /// a `dir` that holds the old one-file-per-record layout (a
    /// `records/` directory): an unusable journal must stop service
    /// startup loudly, not run without durability or silently drop jobs
    /// it already accepted.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Journal> {
        let dir = dir.into();
        if dir.join("records").is_dir() {
            return Err(io::Error::other(format!(
                "{} holds records/ from the old one-file-per-record journal layout; \
                 finish its jobs with the release that wrote it, or move it aside",
                dir.display()
            )));
        }
        fs::create_dir_all(&dir)?;
        let file = OpenOptions::new()
            .append(true)
            .create(true)
            .open(dir.join(SEGMENT))?;
        let len = file.metadata()?.len();
        let torn = false;
        let segment = Mutex::new(Segment { file, len, torn });
        Ok(Journal { dir, segment })
    }

    /// Journals a job submission. Written *before* the job is queued so
    /// an accepted job is always recoverable.
    ///
    /// # Errors
    ///
    /// Propagates write failures — the caller refuses the submission
    /// rather than accept work it could lose.
    pub fn record_submitted(
        &self,
        job: u64,
        key: Option<&str>,
        spec: &ScenarioSpec,
    ) -> io::Result<()> {
        self.append(
            record("submitted", job)
                .field("key", key.map_or(Json::Null, Json::str))
                .field("spec", spec.to_json()),
        )
    }

    /// Journals one completed shard with its partial report.
    ///
    /// # Errors
    ///
    /// Propagates write failures (the caller logs and carries on — a
    /// lost shard record only costs a recompute after a crash).
    pub fn record_shard_done(&self, job: u64, shard: usize, report: &Report) -> io::Result<()> {
        self.append(
            record("shard_done", job)
                .field("shard", Json::num(shard as f64))
                .field("report", report.to_json()),
        )
    }

    /// Journals successful completion with the merged report, so a
    /// restarted service serves the byte-identical result without
    /// recomputing anything.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn record_done(&self, job: u64, report: &Report) -> io::Result<()> {
        self.append(record("done", job).field("report", report.to_json()))
    }

    /// Journals terminal failure.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn record_failed(&self, job: u64, error: &str) -> io::Result<()> {
        self.append(record("failed", job).field("error", Json::str(error)))
    }

    /// Journals cancellation.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn record_cancelled(&self, job: u64) -> io::Result<()> {
        self.append(record("cancelled", job))
    }

    /// Replays the segment into per-job recovery state, then compacts
    /// it. Later records win (a `done` after `shard_done`s supersedes
    /// them); unusable lines are skipped and counted. A damaged tail —
    /// the footprint of a crash mid-append — is cut instead of failing
    /// startup, and the `shard_done` lines of terminal jobs are dropped.
    ///
    /// Single-writer rule applies: call before anything appends.
    #[must_use]
    pub fn replay(&self) -> Replay {
        // Every update of a `Segment` leaves it valid (`len` moves only
        // after a synced write, and a failed cut sets `torn`), so a
        // poisoned lock is safe to keep using.
        let mut segment = self.segment.lock().unwrap_or_else(PoisonError::into_inner);
        let path = self.dir.join(SEGMENT);
        let bytes = fs::read(&path).unwrap_or_else(|e| {
            eprintln!("journal: reading {} failed: {e}", path.display());
            Vec::new()
        });
        let (replay, kept, good_end) = fold(&bytes);
        if replay.truncated + replay.compacted > 0 {
            match write_atomic(&path, &kept) {
                Ok(rewritten) => *segment = rewritten,
                Err(e) => {
                    eprintln!("journal: rewriting {} failed: {e}", path.display());
                    // The next append still starts on a record boundary.
                    segment.len = good_end as u64;
                    segment.torn = replay.truncated > 0;
                }
            }
        }
        replay
    }

    /// Readiness probe: can this journal still land records? Writes and
    /// removes a probe file beside the segment.
    #[must_use]
    pub fn writable(&self) -> bool {
        static PROBE_SEQ: AtomicU64 = AtomicU64::new(0);
        let unique = PROBE_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = self
            .dir
            .join(format!(".probe-{}-{unique}", std::process::id()));
        let ok = fs::write(&path, b"probe").is_ok();
        let _ = fs::remove_file(&path);
        ok
    }

    /// Appends one record as a whole line and syncs it. On failure the
    /// file is cut back to the last record boundary before the error
    /// returns; if even the cut fails, the next append retries it first.
    fn append(&self, record: Json) -> io::Result<()> {
        let line = render_line(&record);
        let mut segment = self.segment.lock().unwrap_or_else(PoisonError::into_inner);
        let segment = &mut *segment;
        if segment.torn {
            segment.file.set_len(segment.len)?;
            segment.torn = false;
        }
        match segment
            .file
            .write_all(line.as_bytes())
            .and_then(|()| segment.file.sync_data())
        {
            Ok(()) => {
                segment.len += line.len() as u64;
                Ok(())
            }
            Err(e) => {
                segment.torn = segment.file.set_len(segment.len).is_err();
                Err(e)
            }
        }
    }
}

/// How one segment line fared in [`fold`].
enum Line {
    /// No newline, a checksum that is not the JSON's, or JSON that does
    /// not parse.
    Damaged,
    /// A `shard_done` record of this job.
    ShardDone(u64),
    /// Any other well-formed record.
    Record,
}

/// Replays segment bytes. Returns the replay, the segment to keep (no
/// damaged tail, no `shard_done` lines of terminal jobs) and where the
/// last good line ends.
fn fold(segment: &[u8]) -> (Replay, Vec<u8>, usize) {
    let mut replay = Replay::default();
    let mut lines = Vec::new();
    for line in segment.split_inclusive(|&b| b == b'\n') {
        let kind = match parse_line(line) {
            None => Line::Damaged,
            Some(record) => {
                if apply(&record, &mut replay.jobs).is_none() {
                    replay.skipped += 1;
                }
                match (
                    record.get("record").and_then(Json::as_str),
                    record.get("job").and_then(Json::as_usize),
                ) {
                    (Some("shard_done"), Some(job)) => Line::ShardDone(job as u64),
                    _ => Line::Record,
                }
            }
        };
        lines.push((line, kind));
    }
    let good = lines
        .iter()
        .rposition(|(_, kind)| !matches!(kind, Line::Damaged))
        .map_or(0, |i| i + 1);
    replay.truncated = lines.len() - good;
    let mut kept = Vec::with_capacity(segment.len());
    let mut good_end = 0;
    for (line, kind) in &lines[..good] {
        good_end += line.len();
        match kind {
            Line::Damaged => replay.skipped += 1,
            Line::ShardDone(job)
                if replay
                    .jobs
                    .get(job)
                    .is_some_and(|job| job.terminal.is_some()) =>
            {
                replay.compacted += 1;
                continue;
            }
            _ => {}
        }
        kept.extend_from_slice(line);
    }
    (replay, kept, good_end)
}

/// Parses one segment line, `<16 lowercase hex> <JSON>\n`, or `None`
/// when the line is damaged.
fn parse_line(line: &[u8]) -> Option<Json> {
    let body = line.strip_suffix(b"\n")?;
    let json = body.get(16..)?.strip_prefix(b" ")?;
    if body.get(..16)? != format!("{:016x}", fnv64(json)).as_bytes() {
        return None;
    }
    Json::parse(std::str::from_utf8(json).ok()?).ok()
}

/// The start of every record: its kind and job.
fn record(kind: &str, job: u64) -> Json {
    Json::obj()
        .field("record", Json::str(kind))
        .field("job", Json::num(job as f64))
}

fn render_line(record: &Json) -> String {
    let json = record.render();
    format!("{:016x} {json}\n", fnv64(json.as_bytes()))
}

/// Folds one well-formed record into `jobs`; `None` when it is unusable.
fn apply(record: &Json, jobs: &mut BTreeMap<u64, RecoveredJob>) -> Option<()> {
    let kind = record.get("record")?.as_str()?;
    let job = record.get("job")?.as_usize()? as u64;
    match kind {
        "submitted" => {
            let spec = ScenarioSpec::from_json(record.get("spec")?).ok()?;
            let key = record.get("key").and_then(Json::as_str).map(str::to_string);
            jobs.insert(
                job,
                RecoveredJob {
                    seq: job,
                    spec,
                    key,
                    terminal: None,
                    shards: BTreeMap::new(),
                },
            );
        }
        "shard_done" => {
            let shard = record.get("shard")?.as_usize()?;
            let report = Report::from_json(record.get("report")?).ok()?;
            jobs.get_mut(&job)?.shards.insert(shard, report);
        }
        "done" => {
            let report = Report::from_json(record.get("report")?).ok()?;
            jobs.get_mut(&job)?.terminal = Some(Terminal::Done(Box::new(report)));
        }
        "failed" => {
            let error = record.get("error")?.as_str()?.to_string();
            jobs.get_mut(&job)?.terminal = Some(Terminal::Failed(error));
        }
        "cancelled" => {
            jobs.get_mut(&job)?.terminal = Some(Terminal::Cancelled);
        }
        _ => return None,
    }
    Some(())
}

/// Replaces the segment at `path` with `bytes` atomically: temp file →
/// `fsync` → rename → directory `fsync`. Returns the temp file's handle,
/// which the rename made the segment's append handle.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<Segment> {
    let tmp = path.with_extension("log.tmp");
    let _ = fs::remove_file(&tmp);
    let mut file = OpenOptions::new()
        .append(true)
        .create_new(true)
        .open(&tmp)?;
    let written = file
        .write_all(bytes)
        .and_then(|()| file.sync_all())
        .and_then(|()| fs::rename(&tmp, path));
    if let Err(e) = written {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    // Directory fsync makes the rename durable; non-fatal where the
    // platform refuses to open a directory for writing metadata. Nothing
    // after the rename may fail: the old handle now points at the
    // replaced file.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    let len = bytes.len() as u64;
    Ok(Segment {
        file,
        len,
        torn: false,
    })
}

/// FNV-1a 64, the line checksum (stable across platforms and Rust
/// versions, and it catches every change confined to one byte).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    const GOLDEN: &str = include_str!("../../../tests/fixtures/fig-6-12-quick.report.golden.json");

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("synts-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The golden report cut to two records (so the sweeps stay fast)
    /// under another spec name, so every journaled spec and report is
    /// distinct.
    fn report(name: &str) -> Report {
        let mut report = Report::from_json_str(GOLDEN).expect("golden parses");
        report.spec.name = name.to_string();
        report.datasets.truncate(1);
        report.datasets[0].records.truncate(2);
        report
    }

    /// Journals job 1 (keyed) done after two shards, job 2 with one
    /// shard and no terminal record, and job 3 cancelled, through the
    /// real append path; returns the segment's bytes.
    fn fixture(dir: &Path) -> Vec<u8> {
        let journal = Journal::open(dir).expect("journal opens");
        let spec = |job: u64| report(&format!("job-{job}")).spec;
        journal
            .record_submitted(1, Some("key-1"), &spec(1))
            .expect("append");
        journal.record_submitted(2, None, &spec(2)).expect("append");
        journal
            .record_shard_done(1, 0, &report("1@0"))
            .expect("append");
        journal.record_submitted(3, None, &spec(3)).expect("append");
        journal
            .record_shard_done(2, 0, &report("2@0"))
            .expect("append");
        journal
            .record_shard_done(1, 1, &report("1@1"))
            .expect("append");
        journal.record_cancelled(3).expect("append");
        journal.record_done(1, &report("fig-6-12")).expect("append");
        fs::read(dir.join(SEGMENT)).expect("segment reads")
    }

    /// Start offsets of the segment's lines, plus its length.
    fn line_starts(bytes: &[u8]) -> Vec<usize> {
        let mut starts = vec![0];
        starts.extend(
            bytes
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == b'\n')
                .map(|(i, _)| i + 1),
        );
        starts
    }

    #[test]
    fn a_clean_segment_replays_exactly_what_was_journaled() {
        let dir = temp_dir("clean");
        let bytes = fixture(&dir);
        let (replay, kept, good_end) = fold(&bytes);
        assert_eq!((replay.skipped, replay.truncated), (0, 0));
        assert_eq!(good_end, bytes.len());
        assert_eq!(replay.compacted, 2, "job 1's shard lines are superseded");
        assert_eq!(replay.jobs.keys().copied().collect::<Vec<_>>(), [1, 2, 3]);

        let job1 = &replay.jobs[&1];
        assert_eq!((job1.seq, job1.key.as_deref()), (1, Some("key-1")));
        assert_eq!(job1.spec, report("job-1").spec);
        let Some(Terminal::Done(merged)) = &job1.terminal else {
            panic!("job 1 must be done: {:?}", job1.terminal);
        };
        let journaled = report("fig-6-12").to_json_string();
        assert_eq!(merged.to_json_string(), journaled, "byte-identical report");
        assert_eq!(job1.shards[&0], report("1@0"));
        assert_eq!(job1.shards[&1], report("1@1"));
        let job2 = &replay.jobs[&2];
        assert_eq!((job2.key.as_deref(), &job2.terminal), (None, &None));
        assert_eq!(job2.shards.len(), 1);
        assert_eq!(job2.shards[&0], report("2@0"));
        assert_eq!(replay.jobs[&3].terminal, Some(Terminal::Cancelled));

        // The compacted segment recovers the same jobs, less the shards
        // of terminal jobs, and is a fixpoint.
        let mut settled = replay.jobs;
        settled.get_mut(&1).expect("job 1").shards.clear();
        let (again, kept_again, _) = fold(&kept);
        assert_eq!(again.jobs, settled);
        assert_eq!((again.skipped, again.truncated, again.compacted), (0, 0, 0));
        assert_eq!(kept_again, kept);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_cut_at_any_byte_recovers_the_whole_lines_before_it() {
        let dir = temp_dir("cut");
        let bytes = fixture(&dir);
        let starts = line_starts(&bytes);
        let expected: BTreeMap<usize, BTreeMap<u64, RecoveredJob>> = starts
            .iter()
            .map(|&end| (end, fold(&bytes[..end]).0.jobs))
            .collect();
        for cut in 0..=bytes.len() {
            let whole = starts[starts.partition_point(|&s| s <= cut) - 1];
            let (replay, kept, good_end) = fold(&bytes[..cut]);
            assert_eq!(replay.skipped, 0, "cut at {cut}");
            assert_eq!(replay.truncated, usize::from(cut != whole), "cut at {cut}");
            assert_eq!(good_end, whole, "cut at {cut}");
            assert!(kept.last().is_none_or(|&b| b == b'\n'), "cut at {cut}");
            assert!(replay.jobs == expected[&whole], "cut at {cut}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_bit_flip_loses_only_the_lines_it_touches() {
        let dir = temp_dir("flip");
        let bytes = fixture(&dir);
        let starts = line_starts(&bytes);
        let lines = starts.len() - 1;
        // A stride of 16 lands in every checksum and every JSON body; the
        // newlines are added explicitly.
        let positions: BTreeSet<usize> = (0..bytes.len())
            .step_by(16)
            .chain(starts[1..].iter().map(|&s| s - 1))
            .collect();
        let mut expected = BTreeMap::new();
        for pos in positions {
            // A flipped newline joins its line to the next one.
            let first = starts.partition_point(|&s| s <= pos) - 1;
            let last = if bytes[pos] == b'\n' {
                (first + 1).min(lines - 1)
            } else {
                first
            };
            let (exp, exp_kept, untouched_len) =
                expected.entry((first, last)).or_insert_with(|| {
                    let mut untouched = bytes[..starts[first]].to_vec();
                    untouched.extend_from_slice(&bytes[starts[last + 1]..]);
                    let (replay, kept, _) = fold(&untouched);
                    (replay, kept, untouched.len())
                });
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[pos] ^= 1 << bit;
                let (replay, kept, _) = fold(&flipped);
                let damaged =
                    flipped.split_inclusive(|&b| b == b'\n').count() - (lines - (last - first + 1));
                let at = format!("bit {bit} of byte {pos} (lines {first}..={last})");
                assert!(replay.jobs == exp.jobs, "{at}: recovered state drifted");
                let counts = (replay.truncated, replay.skipped);
                if last == lines - 1 {
                    assert_eq!(counts, (damaged, exp.skipped), "{at}");
                    assert!(kept == *exp_kept, "{at}: the damaged tail must be cut");
                } else {
                    assert_eq!(counts, (0, exp.skipped + damaged), "{at}");
                    let compacted = *untouched_len - exp_kept.len();
                    assert_eq!(
                        kept.len(),
                        flipped.len() - compacted,
                        "{at}: damage must be kept"
                    );
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_cuts_a_torn_tail_compacts_and_appends_on_a_boundary() {
        let dir = temp_dir("file");
        let bytes = fixture(&dir);
        // A crash mid-append leaves part of a line behind.
        let mut torn = bytes.clone();
        torn.extend_from_slice(&bytes[..40]);
        fs::write(dir.join(SEGMENT), &torn).expect("torn tail");

        let journal = Journal::open(&dir).expect("journal reopens");
        let replay = journal.replay();
        assert_eq!(
            (replay.skipped, replay.truncated, replay.compacted),
            (0, 1, 2)
        );
        let (_, kept, _) = fold(&bytes);
        assert_eq!(fs::read(dir.join(SEGMENT)).expect("segment"), kept);
        assert!(journal.writable());
        let names: Vec<_> = fs::read_dir(&dir)
            .expect("dir lists")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(names, [SEGMENT], "an idle journal holds only its segment");

        // The rewritten handle appends after the last whole record.
        journal.record_failed(2, "boom").expect("append");
        drop(journal);
        let journal = Journal::open(&dir).expect("journal reopens");
        let replay = journal.replay();
        assert_eq!(
            (replay.skipped, replay.truncated, replay.compacted),
            (0, 0, 1)
        );
        assert_eq!(
            replay.jobs[&2].terminal,
            Some(Terminal::Failed("boom".into()))
        );
        let settled = fs::read(dir.join(SEGMENT)).expect("segment");
        drop(journal);
        let replay = Journal::open(&dir).expect("journal reopens").replay();
        assert_eq!(
            (replay.skipped, replay.truncated, replay.compacted),
            (0, 0, 0)
        );
        assert_eq!(fs::read(dir.join(SEGMENT)).expect("segment"), settled);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_refuses_the_old_per_record_layout() {
        let dir = temp_dir("old-layout");
        fs::create_dir_all(dir.join("records")).expect("old layout");
        let err = Journal::open(&dir).expect_err("an old journal must not open empty");
        let msg = err.to_string();
        assert!(msg.contains("records/") && msg.contains("layout"), "{msg}");
        assert!(!dir.join(SEGMENT).exists(), "nothing is written beside it");
        let _ = fs::remove_dir_all(&dir);
    }
}
