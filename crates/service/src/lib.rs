//! `emsc-service`: a supervised, fault-tolerant capture daemon for
//! the EM side-channel listening post.
//!
//! The paper's attack (HPCA 2020, §VI) is not a one-shot capture: it
//! is a radio parked near a victim for hours, and real radios
//! disconnect, stall, truncate transfers and go bad mid-run. This
//! crate turns the streaming receive chain of `emsc_core::session`
//! into a *service* that survives all of that:
//!
//! - [`supervisor::Supervisor`] — the daemon loop: per-sensor
//!   lifecycle (`Running → Degraded → Restarting → Quarantined/Done`),
//!   watchdog timeouts, seeded exponential-backoff restarts, session
//!   rotation and graceful shutdown (a stream that closes there with a
//!   typed error quarantines its sensor). Each pulled chunk goes
//!   straight to the registry, whose bounded session buffer is the one
//!   backpressure rule: a chunk larger than that buffer is fatal;
//! - [`source`] — pluggable sensor sources: in-memory capture replay
//!   and incremental spooled `rtl_sdr` u8 decoding;
//! - [`fault`] — deterministic fault plans (disconnects, stalls,
//!   truncation, corruption, reordering, poison) scheduled on the
//!   supervisor's tick count;
//! - [`policy`] — the restart budget, backoff, watchdog and poison
//!   constants, and the per-sensor pull rate and rotation policy;
//! - [`soak`](mod@soak) — experiment E5: a ten-sensor soak under an
//!   escalating fault schedule, scored against unfaulted batch references.
//!
//! Nothing here reads wall-clock time or unseeded randomness: a soak
//! run — faults, restarts, backoff jitter, quarantines — is a pure
//! function of `(fleet, plan, seed)` and replays bit-identically at
//! any `EMSC_THREADS` setting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod policy;
pub mod soak;
pub mod source;
pub mod supervisor;

pub use fault::{Fault, FaultEvent, FaultPlan};
pub use policy::SensorPolicy;
pub use soak::{render_soak_rows, soak, SoakOutcome, SoakRow};
pub use source::{ReplaySource, SensorSource, SourceError, SpoolSource};
pub use supervisor::{
    LifecycleState, SensorKind, SensorReport, SensorSpec, ServiceConfig, ServiceEvent,
    ServiceReport, Supervisor,
};
