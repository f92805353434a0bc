//! Typed errors for the acquisition side of the receive chain.
//!
//! The paper's receiver runs against whatever a $25 RTL-SDR actually
//! delivers: captures can be empty (a dongle that never started),
//! truncated (a recording cut mid-transfer), or laced with non-finite
//! values (a parser fed a corrupt file). Every fallible entry point in
//! this crate reports one of the enums below instead of panicking, so
//! a degenerate capture degrades to a typed "no decode" rather than a
//! crash.

use std::fmt;

/// Why a capture (or the configuration used to acquire it) cannot be
/// processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureError {
    /// The capture holds no samples at all.
    Empty,
    /// The capture is shorter than the analysis window needs.
    TooShort {
        /// Minimum number of samples the operation needs.
        needed: usize,
        /// Number of samples actually present.
        got: usize,
    },
    /// Too many samples are NaN or infinite to salvage the capture.
    NonFinite {
        /// Number of non-finite samples found.
        count: usize,
        /// Total samples inspected.
        total: usize,
    },
    /// The capture's sample rate is zero, negative, non-finite, or so
    /// high that a receiver kernel sized from it would exceed its cap.
    InvalidSampleRate,
    /// A configuration precondition does not hold (the message names
    /// the violated invariant).
    InvalidConfig(&'static str),
}

impl CaptureError {
    /// Whether a retry of the *acquisition* could plausibly clear this
    /// error. Transient conditions — a dongle that delivered nothing
    /// yet, a capture cut short mid-transfer, a corrupt stretch of
    /// samples — are retryable: the same receiver pointed at the same
    /// sensor may succeed on the next capture. Configuration errors
    /// are fatal: no amount of re-capturing fixes a zero sample rate
    /// or a violated config invariant, so a supervisor should
    /// quarantine instead of burning its restart budget.
    pub fn is_retryable(&self) -> bool {
        match self {
            CaptureError::Empty
            | CaptureError::TooShort { .. }
            | CaptureError::NonFinite { .. } => true,
            CaptureError::InvalidSampleRate | CaptureError::InvalidConfig(_) => false,
        }
    }
}

impl fmt::Display for CaptureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaptureError::Empty => write!(f, "capture holds no samples"),
            CaptureError::TooShort { needed, got } => {
                write!(f, "capture too short: need {needed} samples, got {got}")
            }
            CaptureError::NonFinite { count, total } => {
                write!(f, "capture corrupt: {count} of {total} samples are not finite")
            }
            CaptureError::InvalidSampleRate => {
                write!(f, "sample rate must be positive, finite and in range")
            }
            CaptureError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for CaptureError {}

/// Why a statistic cannot be computed from the data given.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsError {
    /// The input slice is empty.
    EmptyData,
    /// Every input value is NaN or infinite.
    NoFiniteData,
    /// A histogram was requested with zero bins.
    ZeroBins,
    /// The quantile parameter is outside `[0, 1]`.
    InvalidQuantile,
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::EmptyData => write!(f, "no data"),
            StatsError::NoFiniteData => write!(f, "no finite data"),
            StatsError::ZeroBins => write!(f, "histogram needs at least one bin"),
            StatsError::InvalidQuantile => write!(f, "quantile must be in [0, 1]"),
        }
    }
}

impl std::error::Error for StatsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_specific() {
        let s = CaptureError::TooShort { needed: 256, got: 3 }.to_string();
        assert!(s.contains("256") && s.contains('3'), "{s}");
        let s = CaptureError::NonFinite { count: 7, total: 100 }.to_string();
        assert!(s.contains('7') && s.contains("100"), "{s}");
        assert!(CaptureError::InvalidConfig("bins empty").to_string().contains("bins empty"));
        assert!(StatsError::InvalidQuantile.to_string().contains("[0, 1]"));
    }

    #[test]
    fn retryable_split_is_transient_vs_config() {
        assert!(CaptureError::Empty.is_retryable());
        assert!(CaptureError::TooShort { needed: 256, got: 3 }.is_retryable());
        assert!(CaptureError::NonFinite { count: 7, total: 10 }.is_retryable());
        assert!(!CaptureError::InvalidSampleRate.is_retryable());
        assert!(!CaptureError::InvalidConfig("bins empty").is_retryable());
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(CaptureError::Empty, CaptureError::Empty);
        assert_ne!(
            CaptureError::TooShort { needed: 1, got: 0 },
            CaptureError::TooShort { needed: 2, got: 0 }
        );
        assert_eq!(StatsError::EmptyData, StatsError::EmptyData);
    }
}
