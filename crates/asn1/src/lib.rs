//! `tangled-asn1` — a strict DER (Distinguished Encoding Rules) codec.
//!
//! X.509 certificates are DER structures; the measurement methodology of the
//! paper (certificate identity from subject + RSA modulus, signature-string
//! comparison, manual subject/issuer inspection) all operate on parsed DER.
//! The offline dependency allowlist has no ASN.1 crate, so this one
//! implements the subset of DER that X.509 v3 requires, from scratch:
//!
//! * tag/length/value framing with definite lengths ([`reader`], [`writer`]),
//! * INTEGER (arbitrary precision, via big-endian byte strings), BOOLEAN,
//!   NULL, OBJECT IDENTIFIER, BIT STRING, OCTET STRING,
//! * UTF8String / PrintableString / IA5String,
//! * SEQUENCE, SET, and context-specific constructed tags,
//! * UTCTime and GeneralizedTime ([`time`]).
//!
//! Parsing is strict: indefinite lengths, non-minimal lengths, and trailing
//! garbage are all rejected, as RFC 5280 demands of DER consumers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod oid;
pub mod reader;
pub mod tag;
pub mod time;
pub mod writer;

pub use oid::Oid;
pub use reader::DerReader;
pub use tag::{Tag, TagClass};
pub use time::Time;
pub use writer::DerWriter;

/// Errors produced while reading DER.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Asn1Error {
    /// Input ended before a complete TLV was read.
    Truncated,
    /// A length field was indefinite or not minimally encoded.
    BadLength,
    /// The tag encountered did not match what the caller expected.
    UnexpectedTag {
        /// Tag the caller required.
        expected: Tag,
        /// Tag actually present in the input.
        actual: Tag,
    },
    /// Content bytes violate the type's encoding rules (e.g. a non-minimal
    /// INTEGER, an invalid OID, an out-of-range time).
    BadValue(&'static str),
    /// Bytes remained after the caller finished reading a structure.
    TrailingData,
    /// High tag numbers (>= 31) are not used by X.509 and are unsupported.
    UnsupportedTag,
}

impl std::fmt::Display for Asn1Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Asn1Error::Truncated => write!(f, "truncated DER input"),
            Asn1Error::BadLength => write!(f, "invalid DER length encoding"),
            Asn1Error::UnexpectedTag { expected, actual } => {
                write!(f, "unexpected tag: expected {expected:?}, found {actual:?}")
            }
            Asn1Error::BadValue(what) => write!(f, "invalid DER value: {what}"),
            Asn1Error::TrailingData => write!(f, "trailing data after DER structure"),
            Asn1Error::UnsupportedTag => write!(f, "unsupported high tag number"),
        }
    }
}

impl std::error::Error for Asn1Error {}

#[cfg(test)]
mod round_trip_tests {
    use super::*;

    #[test]
    fn nested_structure_round_trip() {
        // SEQUENCE { INTEGER 5, SEQUENCE { UTF8String "hi" }, BOOLEAN true }
        let mut w = DerWriter::new();
        w.sequence(|w| {
            w.integer_bytes(&[5]);
            w.sequence(|w| {
                w.utf8_string("hi");
            });
            w.boolean(true);
        });
        let bytes = w.into_bytes();

        let mut r = DerReader::new(&bytes);
        let mut seq = r.read_sequence().unwrap();
        assert_eq!(seq.read_integer_bytes().unwrap(), vec![5]);
        let mut inner = seq.read_sequence().unwrap();
        assert_eq!(inner.read_string().unwrap(), "hi");
        inner.finish().unwrap();
        assert!(seq.read_boolean().unwrap());
        seq.finish().unwrap();
        r.finish().unwrap();
    }
}
