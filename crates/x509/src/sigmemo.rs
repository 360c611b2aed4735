//! Process-wide signature-verification memo.
//!
//! RSA signature verification is the dominant cost of every chain the
//! workspace builds, and the same verification recurs constantly: each of
//! the six reference stores re-anchors the same Notary chains, every
//! degraded-store rebuild re-checks the same leaf→issuer edges, and trustd
//! replays validate chains the offline study already verified. The memo
//! collapses all of those into one modular exponentiation per distinct
//! (issuer key, signed message) pair, process-wide.
//!
//! **Key.** `(SHA-256 of the issuer SPKI, SHA-256 of algorithm ‖ TBS ‖
//! signature)`. Including the signature bytes in the message digest is
//! load-bearing: the fault engine can corrupt a certificate's signature
//! while leaving its TBS intact, and a memo keyed on the TBS alone would
//! replay the intact certificate's verdict for the corrupted one.
//!
//! **Determinism.** A verification outcome is a pure function of the key,
//! so cache hits are unobservable in results — only in wall time. The
//! stripes are bounded (flush-at-cap) so a long-lived server cannot grow
//! the memo without bound.

use crate::X509Error;
use std::sync::OnceLock;
use tangled_crypto::rsa::{RsaPublicKey, SignatureAlgorithm};
use tangled_crypto::sha256::sha256;
use tangled_exec::StripedMap;

/// Memo key: (issuer SPKI digest, signed-message digest).
type SigKey = ([u8; 32], [u8; 32]);

/// Stripe count for the process-wide memo.
const STRIPES: usize = 64;

/// Per-stripe entry bound: 64 stripes × 16 Ki entries ≈ 1 M verdicts
/// (~100 MB worst case) before any stripe flushes — far above a full-scale
/// study run, a hard bound for a long-lived server.
const STRIPE_CAP: usize = 16 * 1024;

fn memo() -> &'static StripedMap<SigKey, Result<(), X509Error>> {
    static MEMO: OnceLock<StripedMap<SigKey, Result<(), X509Error>>> = OnceLock::new();
    MEMO.get_or_init(|| StripedMap::bounded(STRIPES, STRIPE_CAP))
}

/// Digest of an RSA public key's content (modulus ‖ exponent, each
/// length-prefixed so concatenation ambiguity cannot alias two keys).
fn spki_digest(key: &RsaPublicKey) -> [u8; 32] {
    let modulus = key.modulus.to_be_bytes();
    let exponent = key.exponent.to_be_bytes();
    let mut data = Vec::with_capacity(16 + modulus.len() + exponent.len());
    data.extend_from_slice(&(modulus.len() as u64).to_be_bytes());
    data.extend_from_slice(&modulus);
    data.extend_from_slice(&(exponent.len() as u64).to_be_bytes());
    data.extend_from_slice(&exponent);
    sha256(&data)
}

fn message_digest(algorithm: SignatureAlgorithm, tbs: &[u8], signature: &[u8]) -> [u8; 32] {
    let mut data = Vec::with_capacity(17 + tbs.len() + signature.len());
    data.push(match algorithm {
        SignatureAlgorithm::Sha256WithRsa => 1,
        SignatureAlgorithm::Sha1WithRsa => 2,
    });
    data.extend_from_slice(&(tbs.len() as u64).to_be_bytes());
    data.extend_from_slice(tbs);
    data.extend_from_slice(signature);
    sha256(&data)
}

/// Verify `signature` over `tbs` with `key`, replaying a memoised verdict
/// when this exact verification has run before anywhere in the process.
pub fn verify_memoised(
    key: &RsaPublicKey,
    algorithm: SignatureAlgorithm,
    tbs: &[u8],
    signature: &[u8],
) -> Result<(), X509Error> {
    let memo_key = (spki_digest(key), message_digest(algorithm, tbs, signature));
    memo()
        .get_or_insert_with(memo_key, || {
            key.verify(algorithm, tbs, signature).map_err(X509Error::Crypto)
        })
        .0
}

/// Lifetime (hits, misses) of the process-wide memo. A hit is a modular
/// exponentiation that did not run.
pub fn sig_memo_counters() -> (u64, u64) {
    memo().counters()
}

/// Entries currently memoised.
pub fn sig_memo_len() -> usize {
    memo().len()
}

/// Drop every memoised verdict (counters survive). Benchmarks use this to
/// measure cold-path cost honestly.
pub fn sig_memo_clear() {
    memo().clear()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CertificateBuilder;
    use crate::name::DistinguishedName;
    use std::sync::Arc;
    use tangled_asn1::Time;
    use tangled_crypto::{SplitMix64, Uint};

    /// Distinct key seeds per caller: the memo is process-global, so tests
    /// sharing one pair would see each other's entries.
    fn cert_pair(seed: u64) -> (Arc<crate::Certificate>, Arc<crate::Certificate>) {
        let root_kp =
            tangled_crypto::rsa::RsaKeyPair::generate(512, &mut SplitMix64::new(seed)).unwrap();
        let leaf_kp =
            tangled_crypto::rsa::RsaKeyPair::generate(512, &mut SplitMix64::new(seed + 1)).unwrap();
        let root = Arc::new(
            CertificateBuilder::self_signed_root(
                DistinguishedName::common_name("Memo Root"),
                Time::date(2010, 1, 1).unwrap(),
                Time::date(2030, 1, 1).unwrap(),
                &root_kp,
                Uint::one(),
            )
            .unwrap(),
        );
        let leaf = Arc::new(
            CertificateBuilder::new(
                root.subject.clone(),
                DistinguishedName::common_name("memo.example"),
                Time::date(2010, 1, 1).unwrap(),
                Time::date(2030, 1, 1).unwrap(),
            )
            .serial(Uint::from_u64(2))
            .tls_server(vec!["memo.example".into()])
            .sign(leaf_kp.public_key(), &root_kp)
            .unwrap(),
        );
        (root, leaf)
    }

    #[test]
    fn repeat_verification_hits_the_memo() {
        // Counters are process-global and other tests verify concurrently,
        // so deltas are lower bounds: this pair's key is unique to the
        // test, guaranteeing it contributed one miss then one hit.
        let (root, leaf) = cert_pair(7001);
        let (_, misses_before) = sig_memo_counters();
        leaf.verify_issued_by(&root).unwrap();
        let (hits_mid, misses_mid) = sig_memo_counters();
        assert!(misses_mid > misses_before, "first check computes");
        leaf.verify_issued_by(&root).unwrap();
        let (hits_after, _) = sig_memo_counters();
        assert!(hits_after > hits_mid, "second check replays");
    }

    #[test]
    fn corrupted_signature_is_a_distinct_memo_entry() {
        let (root, leaf) = cert_pair(7101);
        leaf.verify_issued_by(&root).unwrap();
        // Same TBS, flipped signature bit: must fail — a (SPKI, TBS)-only
        // key would wrongly replay the success.
        let mut bad = (*leaf).clone();
        let mut sig = bad.signature.clone();
        sig[0] ^= 0x01;
        bad.signature = sig;
        assert!(bad.verify_signature(&root.public_key).is_err());
        // And the failure itself memoises: verifying again still fails.
        assert!(bad.verify_signature(&root.public_key).is_err());
    }

    #[test]
    fn wrong_key_is_a_distinct_memo_entry() {
        let (root, leaf) = cert_pair(7201);
        leaf.verify_signature(&root.public_key).unwrap();
        assert!(leaf.verify_signature(&leaf.public_key).is_err());
    }

    #[test]
    fn spki_digest_separates_prefix_aliases() {
        let a = RsaPublicKey {
            modulus: Uint::from_u64(0x0102),
            exponent: Uint::from_u64(0x03),
        };
        let b = RsaPublicKey {
            modulus: Uint::from_u64(0x01),
            exponent: Uint::from_u64(0x0203),
        };
        assert_ne!(spki_digest(&a), spki_digest(&b));
    }
}
