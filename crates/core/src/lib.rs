//! End-to-end reproduction of the HPCA 2020 PMU EM side-channel paper.
//!
//! This crate composes the substrates — [`emsc_pmu`] (CPU power
//! management), [`emsc_vrm`] (buck converter), [`emsc_emfield`] (EM
//! propagation), [`emsc_sdr`] (receiver/DSP), [`emsc_covert`] and
//! [`emsc_keylog`] (the two exploits) — into runnable scenarios:
//!
//! - [`laptop`]: the six Table I laptops as presets,
//! - [`chain`]: the full signal chain (program → … → I/Q capture),
//! - [`fused`]: the fused blockwise TX chain behind it (cache-resident
//!   synth→AWGN→digitise, streamable block by block),
//! - [`covert_run`]: covert-channel transfers with BER/IP/DP scoring,
//! - [`keylog_run`]: keylogging runs with TPR/FPR and word scoring,
//! - [`fingerprint_run`]: the §III website-fingerprinting extension,
//! - [`countermeasure`]: the §III/§VI mitigations,
//! - [`session`]: multi-tenant streaming capture sessions multiplexed
//!   over the worker pool,
//! - [`experiments`]: one function per paper table and figure.
//!
//! # Examples
//!
//! Exfiltrate a secret across the air gap and read it back:
//!
//! ```
//! use emsc_core::chain::{Chain, Setup};
//! use emsc_core::covert_run::CovertScenario;
//! use emsc_core::laptop::Laptop;
//!
//! let laptop = Laptop::dell_inspiron();
//! let chain = Chain::new(&laptop, Setup::NearField);
//! let scenario = CovertScenario::for_laptop(&laptop, chain);
//! let outcome = scenario.run(b"pw:hunter2", 7);
//! assert!(outcome.recovered(b"pw:hunter2"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod chain;
pub mod countermeasure;
pub mod covert_run;
pub mod experiments;
pub mod fingerprint_run;
pub mod fused;
pub mod keylog_run;
pub mod laptop;
pub mod session;

pub use chain::{Chain, ChainRun, Setup};
pub use countermeasure::Countermeasure;
pub use covert_run::{CovertOutcome, CovertScenario};
pub use fingerprint_run::{FingerprintOutcome, FingerprintScenario};
pub use fused::{ChainStream, FUSED_BLOCK};
pub use keylog_run::{KeylogOutcome, KeylogScenario};
pub use laptop::{Laptop, Microarch, Os};
pub use session::{
    ClosedSession, SessionError, SessionId, SessionOutput, SessionRegistry, SessionStats,
};
