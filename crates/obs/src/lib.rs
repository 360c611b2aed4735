//! `tangled-obs` — the deterministic observability layer.
//!
//! Every other crate on the study's hot path reports through here. The
//! layer has two halves with deliberately different determinism
//! contracts:
//!
//! * **The metrics [`registry`](mod@registry)** — process-wide counters, gauges and
//!   log₂ [`Log2Histogram`]s with cheap atomic recording. Metric *values*
//!   may be nondeterministic (wall-clock latencies, memo hit rates, pool
//!   widths); only the dump *format* is stable: [`Registry::dump_text`]
//!   and [`Registry::dump_json`] emit metrics in sorted name order.
//! * **The [`trace`] event log** — span-based structured tracing whose
//!   JSONL output is *byte-identical at any pool width*. Span IDs derive
//!   from `(seed, stage, unit index)` — never wall clock — and every
//!   event payload is a width-invariant value (unit counts, RNG-seed
//!   provenance, quarantine tallies in the `RunHealth` vocabulary).
//!   Pipeline stages emit trace events only from their sequential
//!   sections (phase boundaries and index-ordered merge loops), so the
//!   log is a pure function of the study inputs.
//!
//! The split is load-bearing: anything timed or scheduling-dependent
//! belongs in the registry, anything provenance-shaped belongs in the
//! trace. [`schema::validate_lines`] pins the event-log schema so CI can
//! check emitted logs without replaying the pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod registry;
pub mod schema;
pub mod trace;

pub use hist::Log2Histogram;
pub use registry::{registry, Registry};
pub use schema::{validate_lines, TraceSummary};
