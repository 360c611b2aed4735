//! The X.509 certificate model.
//!
//! [`Certificate`] keeps both the parsed fields and the exact DER bytes it
//! was built from. The raw bytes matter twice: the signature covers the raw
//! `tbsCertificate` encoding, and the paper distinguishes *byte-equivalent*
//! certificates from *equivalent* ones ("root certificates are not
//! byte-equivalent \[but\] can still be 'equivalent' if their subject and RSA
//! key modulus are identical") — the [`CertIdentity`] type implements
//! exactly that equivalence.

use crate::extensions::{BasicConstraints, Extension, KeyPurpose, KeyUsage};
use crate::name::DistinguishedName;
use crate::X509Error;
use tangled_asn1::{DerReader, Oid, Time};
use tangled_crypto::rsa::{RsaPublicKey, SignatureAlgorithm};
use tangled_crypto::sha256::sha256;
use tangled_crypto::Uint;

/// A parsed X.509 v3 certificate plus its exact DER encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    raw: Vec<u8>,
    tbs_raw: Vec<u8>,
    /// Serial number.
    pub serial: Uint,
    /// Signature algorithm (outer, must match the TBS `signature` field).
    pub signature_algorithm: SignatureAlgorithm,
    /// Issuer name.
    pub issuer: DistinguishedName,
    /// Start of the validity window.
    pub not_before: Time,
    /// End of the validity window.
    pub not_after: Time,
    /// Subject name.
    pub subject: DistinguishedName,
    /// Subject public key (RSA only in this workspace).
    pub public_key: RsaPublicKey,
    /// v3 extensions in encounter order.
    pub extensions: Vec<Extension>,
    /// Raw signature bytes.
    pub signature: Vec<u8>,
}

impl Certificate {
    /// Parse a certificate from DER. Strict: trailing bytes are an error.
    pub fn parse(der: &[u8]) -> Result<Certificate, X509Error> {
        let mut top = DerReader::new(der);
        let mut cert_seq = top.read_sequence()?;
        top.finish()?;

        // Capture the raw TBS bytes (signed payload) before parsing it.
        let tbs_raw = {
            let mut probe = cert_seq.clone();
            probe.read_raw_tlv()?.to_vec()
        };

        let mut tbs = cert_seq.read_sequence()?;

        // version [0] EXPLICIT INTEGER DEFAULT v1(0). We accept v1 (absent)
        // and v3 (2); v2 never occurs in the corpora the paper studies.
        let version = match tbs.read_optional_context(0)? {
            Some(mut ctx) => {
                let v = ctx.read_integer_u64()?;
                ctx.finish()?;
                v
            }
            None => 0,
        };
        if version != 0 && version != 2 {
            return Err(X509Error::Malformed("unsupported certificate version"));
        }

        let serial = Uint::from_be_bytes(&tbs.read_integer_bytes()?);
        let tbs_sig_alg = read_algorithm_identifier(&mut tbs)?;
        let issuer = DistinguishedName::read_der(&mut tbs)?;

        let mut validity = tbs.read_sequence()?;
        let not_before = validity.read_time()?;
        let not_after = validity.read_time()?;
        validity.finish()?;

        let subject = DistinguishedName::read_der(&mut tbs)?;
        let public_key = read_spki(&mut tbs)?;

        let mut extensions = Vec::new();
        if version == 2 {
            if let Some(mut ctx) = tbs.read_optional_context(3)? {
                let mut ext_seq = ctx.read_sequence()?;
                while !ext_seq.is_at_end() {
                    extensions.push(Extension::read_der(&mut ext_seq)?);
                }
                ext_seq.finish()?;
                ctx.finish()?;
            }
        }
        tbs.finish()?;

        let outer_sig_alg = read_algorithm_identifier(&mut cert_seq)?;
        if outer_sig_alg != tbs_sig_alg {
            return Err(X509Error::Malformed(
                "signatureAlgorithm mismatch between TBS and outer fields",
            ));
        }
        let signature = cert_seq.read_bit_string_bytes()?.to_vec();
        cert_seq.finish()?;

        Ok(Certificate {
            raw: der.to_vec(),
            tbs_raw,
            serial,
            signature_algorithm: outer_sig_alg,
            issuer,
            not_before,
            not_after,
            subject,
            public_key,
            extensions,
            signature,
        })
    }

    /// The exact DER bytes this certificate was parsed from / built as.
    pub fn to_der(&self) -> &[u8] {
        &self.raw
    }

    /// The raw `tbsCertificate` bytes the signature covers.
    pub fn tbs_bytes(&self) -> &[u8] {
        &self.tbs_raw
    }

    /// SHA-256 fingerprint of the full DER encoding.
    pub fn fingerprint_sha256(&self) -> [u8; 32] {
        sha256(&self.raw)
    }

    /// The paper's certificate identity: subject string + RSA key modulus.
    pub fn identity(&self) -> CertIdentity {
        CertIdentity {
            subject: self.subject.to_string(),
            modulus: self.public_key.modulus.clone(),
        }
    }

    /// The short identifier the paper prints in Figure 2: the first 32 bits
    /// of (a hash of) the certificate subject, rendered as 8 hex digits.
    pub fn short_subject_id(&self) -> String {
        let h = sha256(self.subject.to_string().as_bytes());
        format!("{:02x}{:02x}{:02x}{:02x}", h[0], h[1], h[2], h[3])
    }

    /// Is the subject equal to the issuer (self-issued)?
    pub fn is_self_issued(&self) -> bool {
        self.subject == self.issuer
    }

    /// Does a basicConstraints extension mark this certificate as a CA?
    pub fn is_ca(&self) -> bool {
        self.basic_constraints().is_some_and(|bc| bc.ca)
    }

    /// The basicConstraints extension, if present.
    pub fn basic_constraints(&self) -> Option<BasicConstraints> {
        self.extensions.iter().find_map(|e| match e {
            Extension::BasicConstraints(bc) => Some(*bc),
            _ => None,
        })
    }

    /// The keyUsage extension, if present.
    pub fn key_usage(&self) -> Option<KeyUsage> {
        self.extensions.iter().find_map(|e| match e {
            Extension::KeyUsage(ku) => Some(*ku),
            _ => None,
        })
    }

    /// The extendedKeyUsage purposes, if the extension is present.
    pub fn extended_key_usage(&self) -> Option<&[KeyPurpose]> {
        self.extensions.iter().find_map(|e| match e {
            Extension::ExtendedKeyUsage(p) => Some(p.as_slice()),
            _ => None,
        })
    }

    /// The subjectKeyIdentifier, if present.
    pub fn subject_key_id(&self) -> Option<&[u8]> {
        self.extensions.iter().find_map(|e| match e {
            Extension::SubjectKeyIdentifier(id) => Some(id.as_slice()),
            _ => None,
        })
    }

    /// The authorityKeyIdentifier, if present.
    pub fn authority_key_id(&self) -> Option<&[u8]> {
        self.extensions.iter().find_map(|e| match e {
            Extension::AuthorityKeyIdentifier(id) => Some(id.as_slice()),
            _ => None,
        })
    }

    /// The dNSName entries of subjectAltName, if present.
    pub fn dns_names(&self) -> &[String] {
        self.extensions
            .iter()
            .find_map(|e| match e {
                Extension::SubjectAltName(names) => Some(names.as_slice()),
                _ => None,
            })
            .unwrap_or(&[])
    }

    /// Is `at` within the validity window (inclusive at both ends, as
    /// RFC 5280 specifies)?
    pub fn is_valid_at(&self, at: Time) -> bool {
        self.not_before <= at && at <= self.not_after
    }

    /// Has the certificate expired as of `at`?
    pub fn is_expired_at(&self, at: Time) -> bool {
        at > self.not_after
    }

    /// Verify this certificate's signature against an issuer public key.
    ///
    /// Consults the process-wide [`crate::sigmemo`] first: identical
    /// verifications (same issuer key, same signed bytes) run the RSA
    /// arithmetic once per process, however many stores or profiles
    /// re-anchor the certificate.
    pub fn verify_signature(&self, issuer_key: &RsaPublicKey) -> Result<(), X509Error> {
        crate::sigmemo::verify_memoised(
            issuer_key,
            self.signature_algorithm,
            &self.tbs_raw,
            &self.signature,
        )
    }

    /// Verify that `issuer_cert` signed this certificate (names must chain
    /// and the signature must verify).
    pub fn verify_issued_by(&self, issuer_cert: &Certificate) -> Result<(), X509Error> {
        if self.issuer != issuer_cert.subject {
            return Err(X509Error::Malformed("issuer name does not match"));
        }
        self.verify_signature(&issuer_cert.public_key)
    }
}

/// The paper's certificate-equivalence key: subject string plus RSA key
/// modulus. Two stores' roots with the same [`CertIdentity`] validate the
/// same children even when their DER differs (e.g. re-issued with a new
/// expiration date).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CertIdentity {
    /// Canonical subject string (RFC 4514-style rendering).
    pub subject: String,
    /// RSA modulus.
    pub modulus: Uint,
}

impl std::fmt::Display for CertIdentity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (modulus {} bits)", self.subject, self.modulus.bit_len())
    }
}

fn read_algorithm_identifier(r: &mut DerReader<'_>) -> Result<SignatureAlgorithm, X509Error> {
    let mut alg = r.read_sequence()?;
    let oid = alg.read_oid()?;
    // Parameters: NULL for the RSA family.
    if !alg.is_at_end() {
        alg.read_null()?;
    }
    alg.finish()?;
    if oid == Oid::sha256_with_rsa() {
        Ok(SignatureAlgorithm::Sha256WithRsa)
    } else if oid == Oid::sha1_with_rsa() {
        Ok(SignatureAlgorithm::Sha1WithRsa)
    } else {
        Err(X509Error::UnsupportedAlgorithm(oid.to_string()))
    }
}

fn read_spki(r: &mut DerReader<'_>) -> Result<RsaPublicKey, X509Error> {
    let mut spki = r.read_sequence()?;
    let mut alg = spki.read_sequence()?;
    let oid = alg.read_oid()?;
    if oid != Oid::rsa_encryption() {
        return Err(X509Error::UnsupportedAlgorithm(oid.to_string()));
    }
    alg.read_null()?;
    alg.finish()?;
    let key_bits = spki.read_bit_string_bytes()?;
    spki.finish()?;

    let mut key = DerReader::new(key_bits);
    let mut key_seq = key.read_sequence()?;
    let modulus = Uint::from_be_bytes(&key_seq.read_integer_bytes()?);
    let exponent = Uint::from_be_bytes(&key_seq.read_integer_bytes()?);
    key_seq.finish()?;
    key.finish()?;
    if modulus.is_zero() || exponent.is_zero() {
        return Err(X509Error::Malformed("degenerate RSA key"));
    }
    Ok(RsaPublicKey { modulus, exponent })
}

// Tests for parsing live in `builder.rs` (build → parse round trips) and in
// the crate-level integration tests; the failure-path tests are here.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn garbage_inputs_rejected() {
        assert!(Certificate::parse(&[]).is_err());
        assert!(Certificate::parse(&[0x30, 0x00]).is_err());
        assert!(Certificate::parse(b"not a certificate at all").is_err());
    }

    #[test]
    fn truncated_prefix_rejected() {
        // A plausible SEQUENCE header claiming more bytes than provided.
        assert!(Certificate::parse(&[0x30, 0x82, 0x01, 0x00, 0x30]).is_err());
    }
}
