//! Error type for the optimization layer.

use std::error::Error;
use std::fmt;

use milp::SolveError;
use timing::TimingError;
use workloads::SampleMismatch;

/// Errors raised by the SynTS optimizers and controllers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OptError {
    /// Inconsistent [`crate::SystemConfig`] (message names the violation).
    BadConfig(&'static str),
    /// No thread profiles were supplied.
    NoThreads,
    /// No feasible assignment exists (cannot happen with a well-formed
    /// config, kept for defense in depth).
    Infeasible,
    /// The MILP back-end failed.
    Milp(SolveError),
    /// A solver name that is not in the [`crate::SolverRegistry`]; the
    /// error carries the registered keys so CLIs and spec loaders can
    /// tell the user what *is* available.
    UnknownSolver {
        /// The name that failed to resolve.
        name: String,
        /// Every key the registry holds, sorted.
        known: Vec<String>,
    },
    /// A malformed scenario spec (JSON syntax or an invalid field).
    Spec(String),
    /// A timing-layer failure while preparing inputs.
    Timing(TimingError),
    /// A workload's sampling run saw other events than its counting run.
    Workload(SampleMismatch),
    /// Problem too large for the exhaustive reference solver.
    TooLarge {
        /// Number of candidate assignments requested.
        candidates: u128,
        /// The solver's hard cap.
        limit: u128,
    },
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::BadConfig(msg) => write!(f, "bad system config: {msg}"),
            OptError::NoThreads => write!(f, "no thread profiles supplied"),
            OptError::Infeasible => write!(f, "no feasible assignment"),
            OptError::Milp(e) => write!(f, "milp solver: {e}"),
            OptError::UnknownSolver { name, known } => {
                if known.is_empty() {
                    write!(f, "unknown solver scheme '{name}' (the registry is empty)")
                } else {
                    write!(
                        f,
                        "unknown solver scheme '{name}' (registered: {})",
                        known.join(", ")
                    )?;
                    if let Some(best) = closest_match(name, known.iter().map(String::as_str)) {
                        write!(f, "; did you mean '{best}'?")?;
                    }
                    Ok(())
                }
            }
            OptError::Spec(msg) => write!(f, "scenario: {msg}"),
            OptError::Timing(e) => write!(f, "timing layer: {e}"),
            OptError::Workload(e) => write!(f, "workload layer: {e}"),
            OptError::TooLarge { candidates, limit } => write!(
                f,
                "exhaustive search over {candidates} assignments exceeds limit {limit}"
            ),
        }
    }
}

/// Classic two-row Levenshtein edit distance (insert/delete/substitute,
/// unit costs), over `char`s.
#[must_use]
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() || b.is_empty() {
        return a.len() + b.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The candidate closest to `target` by edit distance, if any is close
/// enough to be a plausible typo (distance ≤ max(1, target_len / 3)).
/// Ties resolve to the earliest candidate, so sorted inputs give a
/// deterministic suggestion.
#[must_use]
pub fn closest_match<'a>(
    target: &str,
    candidates: impl IntoIterator<Item = &'a str>,
) -> Option<&'a str> {
    let budget = (target.chars().count() / 3).max(1);
    let mut best: Option<(usize, &'a str)> = None;
    for cand in candidates {
        let d = levenshtein(target, cand);
        if d <= budget && best.is_none_or(|(bd, _)| d < bd) {
            best = Some((d, cand));
        }
    }
    best.map(|(_, cand)| cand)
}

impl Error for OptError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OptError::Milp(e) => Some(e),
            OptError::Timing(e) => Some(e),
            OptError::Workload(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolveError> for OptError {
    fn from(e: SolveError) -> OptError {
        OptError::Milp(e)
    }
}

impl From<TimingError> for OptError {
    fn from(e: TimingError) -> OptError {
        OptError::Timing(e)
    }
}

impl From<SampleMismatch> for OptError {
    fn from(e: SampleMismatch) -> OptError {
        OptError::Workload(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        let e: OptError = SolveError::Infeasible.into();
        assert!(Error::source(&e).is_some());
        let e: OptError = TimingError::EmptyTrace.into();
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&OptError::NoThreads).is_none());
    }

    #[test]
    fn display() {
        let e = OptError::BadConfig("no TSR levels");
        assert_eq!(e.to_string(), "bad system config: no TSR levels");
        let e = OptError::UnknownSolver {
            name: "annealer".to_string(),
            known: vec!["synts_poly".to_string(), "nominal".to_string()],
        };
        let msg = e.to_string();
        assert!(msg.contains("annealer"), "{msg}");
        assert!(
            msg.contains("synts_poly") && msg.contains("nominal"),
            "lists the registered keys: {msg}"
        );
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("synts_poly", "synts_poly"), 0);
        assert_eq!(levenshtein("synts_poly", "synts_polly"), 1);
    }

    #[test]
    fn close_typos_earn_a_suggestion_distant_names_do_not() {
        let known = ["synts_poly", "synts_milp", "nominal", "exhaustive"];
        assert_eq!(closest_match("synts_polly", known), Some("synts_poly"));
        assert_eq!(closest_match("nominel", known), Some("nominal"));
        assert_eq!(closest_match("warp_drive", known), None);
        let e = OptError::UnknownSolver {
            name: "synts_pol".to_string(),
            known: known.iter().map(|s| (*s).to_string()).collect(),
        };
        let msg = e.to_string();
        assert!(msg.contains("did you mean 'synts_poly'"), "{msg}");
        let e = OptError::UnknownSolver {
            name: "warp_drive".to_string(),
            known: known.iter().map(|s| (*s).to_string()).collect(),
        };
        assert!(!e.to_string().contains("did you mean"), "{e}");
    }
}
