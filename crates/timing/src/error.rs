//! Error type for the timing layer.

use std::error::Error;
use std::fmt;

use gatelib::NetlistError;

/// Errors raised while characterizing delays or building error curves.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TimingError {
    /// An underlying netlist/simulation failure.
    Netlist(NetlistError),
    /// A delay trace or event list was empty, so no statistics exist.
    EmptyTrace,
    /// A timing-speculation ratio outside the meaningful `(0, 1]` range.
    InvalidRatio(f64),
    /// A sampled estimate was requested with zero samples per level.
    NoSamples,
    /// A sampled event list does not hold the events its sampling rule
    /// keeps.
    SampleMismatch {
        /// Events the rule keeps.
        expected: usize,
        /// Events the list holds.
        found: usize,
    },
}

impl fmt::Display for TimingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimingError::Netlist(e) => write!(f, "netlist error: {e}"),
            TimingError::EmptyTrace => write!(f, "empty delay trace"),
            TimingError::InvalidRatio(r) => {
                write!(f, "timing speculation ratio {r} outside (0, 1]")
            }
            TimingError::NoSamples => write!(f, "sampled curve requires at least one sample"),
            TimingError::SampleMismatch { expected, found } => write!(
                f,
                "sampled event list holds {found} events where the sampling rule keeps {expected}"
            ),
        }
    }
}

impl Error for TimingError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TimingError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for TimingError {
    fn from(e: NetlistError) -> TimingError {
        TimingError::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_netlist_errors() {
        let e: TimingError = NetlistError::NoOutputs.into();
        assert!(matches!(e, TimingError::Netlist(_)));
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn display_messages() {
        assert_eq!(TimingError::EmptyTrace.to_string(), "empty delay trace");
        assert!(TimingError::InvalidRatio(1.5).to_string().contains("1.5"));
    }
}
