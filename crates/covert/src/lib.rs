//! The PMU-EM covert channel: transmitter, receiver and metrics.
//!
//! Implements §IV of the HPCA 2020 paper end to end:
//!
//! - [`tx`]: the Fig. 3 transmitter — return-to-zero coding of bits
//!   into busy/`usleep` phases of a user-level program,
//! - [`coding`]: the Hamming(7,4) parity code (min distance 3) of
//!   §IV-B4 / §IV-C2,
//! - [`frame`]: sync/marker framing (§IV-C1),
//! - [`packets`]: packetised transfers that bound insertion/deletion
//!   damage to one packet (§IV-C1 "the data can be sent in packets"),
//! - [`rx`]: the §IV-B receiver — Eq. (1) energy signal, Fig. 5 edge
//!   detection, Fig. 6 median timing with gap filling, Fig. 7 bimodal
//!   threshold labeling — with [`rx::Receiver`] as the whole-capture
//!   entry point,
//! - [`matched`]: the matched-filter receiver the paper rejected
//!   (kept for the ablation),
//! - [`stream`]: the receive chain's state machines — resumable
//!   [`stream::StreamingReceiver`]/[`stream::Deframer`] fed IQ or bit
//!   chunks; the whole-capture entry points are one push of these,
//!   and every chunking gives the same result,
//! - [`metrics`]: insertion/deletion-aware alignment producing the
//!   BER/IP/DP numbers of Tables II and III,
//! - [`capacity`]: information-theoretic bounds on the measured
//!   channel (BSC capacity, indel-discounted effective rate),
//! - [`marker`]: synchronisation-robust marker coding — periodic known
//!   markers with a drift-tracking decoder that re-aligns the bit
//!   clock between markers, so insertions/deletions corrupt one
//!   segment instead of shifting the rest of the frame.
//!
//! The full physical chain (machine → VRM → EM scene → SDR) is
//! composed in `emsc-core`; this crate's end-to-end tests wire it up
//! manually.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod capacity;
pub mod coding;
pub mod frame;
pub mod marker;
pub mod matched;
pub mod metrics;
pub mod packets;
pub mod rx;
pub mod stream;
pub mod tx;

pub use coding::CodingStats;
pub use frame::{salvage_marker_bits, FrameError, Salvage};
pub use marker::{blind_lock, marker_encode, MarkerConfig, MarkerStats, MarkerStream};
pub use metrics::{
    align, align_semiglobal, align_trace, codeword_audit, AlignOp, Alignment, CodewordAudit,
};
pub use rx::{Receiver, RxConfig, RxError, RxReport, SyncLoss};
pub use stream::{Deframer, FrameEvent, StreamingReceiver};
pub use tx::{Transmitter, TxConfig};
