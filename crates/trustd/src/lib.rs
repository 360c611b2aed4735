//! trustd: a concurrent trust-decision query service over the
//! root-store corpus.
//!
//! The analysis crates answer trust questions in batch — build a study,
//! run it, read the tables. `trustd` turns the same decision machinery
//! into a long-lived query service: a TCP server (std only, no async
//! runtime) whose few readiness-loop threads multiplex every connection
//! ([`event`]), speaking a length-prefixed JSON protocol with four
//! request types mirroring the paper's four measurement angles:
//!
//! * `validate` — chain validation against a named device store profile
//!   (§4's per-store validation counts, one chain at a time);
//! * `classify` — extra-root classification per the Figure 2 taxonomy;
//! * `audit` — cacerts snapshot diff against an AOSP baseline (§5);
//! * `probe` — interception verdict for a presented chain (§7).
//!
//! Three properties carry over from the batch pipeline:
//!
//! * **Determinism** — the service is a pure function of its request
//!   sequence (modulo latency numbers), so a seeded replay through the
//!   server must match the same requests handled offline, byte for byte.
//! * **Graceful degradation** — malformed wire input is quarantined
//!   under the PR-1 `(stage, error)` vocabulary and answered with a
//!   classified `error` reply; connections are not dropped for bad
//!   *messages*, only for unrecoverable *framing* faults.
//! * **Shared substrate** — verification memoisation uses the same
//!   [`tangled_x509::ChainKey`] as the batch validation counter; store
//!   profiles are plain [`tangled_pki::store::RootStore`] snapshots.

pub mod cache;
pub mod chaos;
pub mod client;
pub mod event;
pub mod index;
pub mod replay;
pub mod resilient;
pub mod service;
pub mod stats;
pub mod warm;
pub mod wire;

pub use chaos::ChaosSpec;
pub use client::{ClientError, TrustClient};
pub use event::{serve_stream, EventServer, ServerConfig};
pub use index::StoreIndex;
pub use replay::{
    canonical, drive, offline_verdicts, queries_for, scale_for_sessions, verdict_fingerprint, Link,
    ReplayOp, ReplayOutcome, ReplaySpec, BATCH_DEPTH,
};
pub use resilient::{Connect, ResilientClient, ResilientError, RetryPolicy, TcpConnector};
pub use service::{TrustService, DEFAULT_CACHE_CAPACITY};
pub use stats::LatencyHistogram;
pub use warm::{
    degraded_index_from_snapshot, index_from_chain, index_from_snapshot, replay_journal,
};
pub use wire::{ChainVerdict, FrameError, Request, Response, WireError, MAX_FRAME};
