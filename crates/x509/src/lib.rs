//! `tangled-x509` — X.509 v3 certificates: model, DER codec, issuance,
//! signature verification, and chain building.
//!
//! This crate implements the subset of RFC 5280 that the paper's
//! measurement pipeline touches:
//!
//! * distinguished names with the standard RDN attributes ([`name`]),
//! * the v3 extensions governing trust: basic constraints, key usage,
//!   extended key usage, subject/authority key identifiers, subject
//!   alternative names ([`extensions`]),
//! * the certificate structure itself with strict DER parse and re-encode
//!   ([`cert`]),
//! * a certificate builder used by the simulators to mint CA hierarchies
//!   and server certificates ([`builder`]),
//! * single-signature verification and validity checks ([`verify`]),
//! * chain building from a leaf through intermediates to a trust anchor
//!   ([`chain`]) — the operation behind every "how many Notary certificates
//!   does this root validate" number in the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod builder;
pub mod cert;
pub mod chain;
pub mod extensions;
pub mod name;
pub mod pem;
pub mod sigmemo;
pub mod verify;

pub use builder::CertificateBuilder;
pub use cert::{CertIdentity, Certificate};
pub use chain::{ChainError, ChainKey, ChainOptions, ChainPath, ChainVerifier, VerifiedChain};
pub use name::DistinguishedName;
pub use sigmemo::{sig_memo_clear, sig_memo_counters, sig_memo_len};

use tangled_asn1::Asn1Error;
use tangled_crypto::CryptoError;

/// Errors produced while parsing or validating certificates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum X509Error {
    /// The DER structure is malformed.
    Asn1(Asn1Error),
    /// A cryptographic operation failed (bad signature, invalid key, …).
    Crypto(CryptoError),
    /// The certificate uses an algorithm this workspace does not model.
    UnsupportedAlgorithm(String),
    /// A v3 structural rule is violated (e.g. missing required field).
    Malformed(&'static str),
}

impl std::fmt::Display for X509Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            X509Error::Asn1(e) => write!(f, "DER error: {e}"),
            X509Error::Crypto(e) => write!(f, "crypto error: {e}"),
            X509Error::UnsupportedAlgorithm(oid) => write!(f, "unsupported algorithm {oid}"),
            X509Error::Malformed(what) => write!(f, "malformed certificate: {what}"),
        }
    }
}

impl std::error::Error for X509Error {}

impl From<Asn1Error> for X509Error {
    fn from(e: Asn1Error) -> Self {
        X509Error::Asn1(e)
    }
}

impl From<CryptoError> for X509Error {
    fn from(e: CryptoError) -> Self {
        X509Error::Crypto(e)
    }
}
