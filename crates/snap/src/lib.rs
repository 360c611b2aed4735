//! `tangled-snap` — deterministic binary persistence for the study corpus
//! and the trustd swap history.
//!
//! Two halves, one crate:
//!
//! * **Snapshot container** ([`container`], [`study`]): a single-file,
//!   sectioned binary format holding the certificate corpus (raw DER),
//!   the reference and device root stores, the Netalyzr population, the
//!   ValidationIndex tallies and the run-health ledger. Writing shards
//!   section encoding over the ambient [`tangled_exec::ExecPool`] but the
//!   emitted bytes are identical at any pool width (sections are encoded
//!   independently and assembled in fixed id order). Reading is lazy —
//!   the section table is parsed up front, bodies are checksummed and
//!   decoded on access — and *never panics on hostile bytes*: every
//!   malformed input maps to a classified [`SnapError`].
//! * **Append-only journal** ([`journal`]): every trustd `swap` is framed
//!   (length + FNV-1a checksum + JSON body), appended and fsync'd before
//!   the store install is published — write-ahead order. On restart the
//!   journal is replayed over the snapshot's reference profiles and the
//!   epochs reproduce exactly; a torn final frame (a crash mid-append) is
//!   truncated away, not fatal.
//!
//! Checksums use the workspace's one shared FNV-1a implementation
//! ([`tangled_crypto::hash`]) — the same fold that derives obs span IDs
//! and catalogue keys.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compact;
pub mod container;
pub mod delta;
pub mod journal;
pub mod study;
pub mod wire;

pub use compact::{checkpoint_base, encode_checkpoint, read_checkpoint, TrustState};
pub use container::{SectionId, Snapshot, VerifyRow, FORMAT_VERSION, MAGIC};
pub use delta::{
    decode_delta_meta, encode_delta, file_id, materialize, materialize_chain, DeltaMeta,
    DeltaSummary, Materialized, DELTA_BASE_NONE,
};
pub use journal::{Journal, Recovery, SwapRecord};
pub use study::{
    decode_eco_stores, decode_stores, decode_study, encode_study, encode_study_sections,
    load_study, write_study, SnapSummary,
};

/// Classified snapshot/journal failures.
///
/// Every variant carries a stable `label()` in the PR-1 quarantine
/// vocabulary, so corrupt files surface through `RunHealth` ledgers and
/// metrics exactly like damaged ingest surfaces do — classified, counted,
/// never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// Underlying filesystem failure.
    Io {
        /// Rendered `std::io::Error`.
        detail: String,
    },
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The container's format version is not one this build reads.
    BadVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The file ends before a structure it declared.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// The section table is self-inconsistent (out-of-bounds extents,
    /// duplicate ids, implausible counts).
    BadSectionTable {
        /// What check failed.
        detail: &'static str,
    },
    /// A section body does not match its recorded checksum.
    ChecksumMismatch {
        /// The damaged section.
        section: &'static str,
    },
    /// A required section is absent from the table.
    MissingSection {
        /// The absent section.
        section: &'static str,
    },
    /// A section body decoded but its records are malformed.
    Malformed {
        /// The section being decoded.
        section: &'static str,
        /// What was wrong.
        detail: &'static str,
    },
    /// The journal file does not start with the journal magic.
    BadJournalMagic,
    /// Journal replay produced a different epoch than the one recorded
    /// at append time — the snapshot and journal do not belong together.
    EpochMismatch {
        /// The epoch the journal frame recorded.
        recorded: u64,
        /// The epoch replay actually produced.
        produced: u64,
    },
    /// A delta's recorded base id does not match the file it is being
    /// applied over — the chain is mis-ordered or a link was swapped.
    BaseMismatch {
        /// The base id the delta recorded.
        recorded: u64,
        /// The id of the file the chain actually supplies.
        actual: u64,
    },
}

impl SnapError {
    /// Stable error label (the `RunHealth` quarantine vocabulary).
    pub fn label(&self) -> &'static str {
        match self {
            SnapError::Io { .. } => "io",
            SnapError::BadMagic => "bad-magic",
            SnapError::BadVersion { .. } => "bad-version",
            SnapError::Truncated { .. } => "truncated",
            SnapError::BadSectionTable { .. } => "bad-section-table",
            SnapError::ChecksumMismatch { .. } => "checksum-mismatch",
            SnapError::MissingSection { .. } => "missing-section",
            SnapError::Malformed { .. } => "malformed-record",
            SnapError::BadJournalMagic => "bad-journal-magic",
            SnapError::EpochMismatch { .. } => "epoch-mismatch",
            SnapError::BaseMismatch { .. } => "base-mismatch",
        }
    }
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Io { detail } => write!(f, "io failure: {detail}"),
            SnapError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapError::BadVersion { found } => {
                write!(f, "unsupported snapshot format version {found}")
            }
            SnapError::Truncated { context } => write!(f, "truncated while reading {context}"),
            SnapError::BadSectionTable { detail } => write!(f, "bad section table: {detail}"),
            SnapError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section '{section}'")
            }
            SnapError::MissingSection { section } => write!(f, "missing section '{section}'"),
            SnapError::Malformed { section, detail } => {
                write!(f, "malformed record in section '{section}': {detail}")
            }
            SnapError::BadJournalMagic => write!(f, "not a journal file (bad magic)"),
            SnapError::EpochMismatch { recorded, produced } => write!(
                f,
                "journal replay epoch diverged: recorded {recorded}, produced {produced}"
            ),
            SnapError::BaseMismatch { recorded, actual } => write!(
                f,
                "delta base mismatch: delta applies over {recorded:016x}, chain has {actual:016x}"
            ),
        }
    }
}

impl std::error::Error for SnapError {}

impl From<std::io::Error> for SnapError {
    fn from(e: std::io::Error) -> SnapError {
        SnapError::Io {
            detail: e.to_string(),
        }
    }
}
