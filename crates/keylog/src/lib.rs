//! Keystroke logging via the PMU EM side channel (§V of the paper).
//!
//! Every keypress briefly wakes the otherwise-idle processor, which
//! makes the VRM's emanation flare — so a radio across the wall can
//! count keystrokes, time them, and group them into words:
//!
//! - [`typist`]: a human typing model implementing Salthouse's
//!   empirical inter-key timing effects over QWERTY geometry,
//! - [`burst`]: keystroke → CPU-activity-burst mapping (plus the
//!   browser housekeeping that causes false positives),
//! - [`detect`]: the §V-C detector — short non-overlapping STFT
//!   windows, band thresholding, and the ≥30 ms duration filter —
//!   with TPR/FPR scoring against ground truth,
//! - [`stream`]: the resumable [`stream::StreamingDetector`], fed I/Q
//!   in chunks; its whole-capture form
//!   [`stream::StreamingDetector::detect`] is one push, and every
//!   chunking gives the same report,
//! - [`words`]: gap-based word grouping and the Table IV word-length
//!   precision/recall metrics,
//! - [`identify`]: §V-B's timing-based search-space reduction — how
//!   many bits of key-guessing work the inter-key intervals save.
//!
//! The full physical chain is composed in `emsc-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod burst;
pub mod detect;
pub mod identify;
pub mod stream;
pub mod typist;
pub mod words;

pub use burst::BurstModel;
pub use detect::{
    score_detections, DetectError, DetectedBurst, DetectionReport, DetectionScore, DetectorConfig,
};
pub use stream::StreamingDetector;

pub use identify::{
    digraph_candidates, search_space_reduction, DigraphCandidates, SearchSpaceReduction,
};
pub use typist::{Keystroke, Typist, TypistConfig};
pub use words::{group_words, score_words, word_lengths, WordScore};
