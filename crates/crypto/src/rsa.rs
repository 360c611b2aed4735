//! RSA key generation and PKCS#1 v1.5 signatures (RFC 8017).
//!
//! Implements RSASSA-PKCS1-v1_5 with SHA-1 or SHA-256 digests — the two
//! signature algorithms that dominate the 2012–2014 certificate corpus the
//! paper studies. Verification is strict: the decoded encoded message must
//! match the expected EMSA-PKCS1-v1_5 encoding byte-for-byte (no
//! Bleichenbacher-style lenient parsing).

use crate::bigint::Uint;
use crate::modular::{lcm, mod_inv, mod_mul, mod_pow, mod_sub};
use crate::prime::gen_prime_coprime;
use crate::rng::SplitMix64;
use crate::sha1::sha1;
use crate::sha256::sha256;
use crate::CryptoError;

/// Signature algorithm identifiers understood by this workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignatureAlgorithm {
    /// `sha1WithRSAEncryption` (OID 1.2.840.113549.1.1.5).
    Sha1WithRsa,
    /// `sha256WithRSAEncryption` (OID 1.2.840.113549.1.1.11).
    Sha256WithRsa,
}

impl SignatureAlgorithm {
    /// Human-readable name matching OpenSSL's convention.
    pub fn name(self) -> &'static str {
        match self {
            SignatureAlgorithm::Sha1WithRsa => "sha1WithRSAEncryption",
            SignatureAlgorithm::Sha256WithRsa => "sha256WithRSAEncryption",
        }
    }

    /// DigestInfo DER prefix for EMSA-PKCS1-v1_5 (RFC 8017 §9.2 note 1).
    fn digest_info_prefix(self) -> &'static [u8] {
        match self {
            // SEQ { SEQ { OID 1.3.14.3.2.26, NULL }, OCTET STRING (20) }
            SignatureAlgorithm::Sha1WithRsa => {
                &[0x30, 0x21, 0x30, 0x09, 0x06, 0x05, 0x2b, 0x0e, 0x03, 0x02, 0x1a, 0x05, 0x00,
                  0x04, 0x14]
            }
            // SEQ { SEQ { OID 2.16.840.1.101.3.4.2.1, NULL }, OCTET STRING (32) }
            SignatureAlgorithm::Sha256WithRsa => {
                &[0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04,
                  0x02, 0x01, 0x05, 0x00, 0x04, 0x20]
            }
        }
    }

    fn digest(self, message: &[u8]) -> Vec<u8> {
        match self {
            SignatureAlgorithm::Sha1WithRsa => sha1(message).to_vec(),
            SignatureAlgorithm::Sha256WithRsa => sha256(message).to_vec(),
        }
    }
}

/// An RSA public key: modulus `n` and public exponent `e`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RsaPublicKey {
    /// The modulus `n = p·q`.
    pub modulus: Uint,
    /// The public exponent `e` (65537 throughout this workspace).
    pub exponent: Uint,
}

impl RsaPublicKey {
    /// Byte length of the modulus (`k` in RFC 8017 terms).
    pub fn modulus_len(&self) -> usize {
        self.modulus.bit_len().div_ceil(8)
    }

    /// Verify an RSASSA-PKCS1-v1_5 signature over `message`.
    pub fn verify(
        &self,
        alg: SignatureAlgorithm,
        message: &[u8],
        signature: &[u8],
    ) -> Result<(), CryptoError> {
        if self.modulus.is_zero() || self.exponent.is_zero() {
            return Err(CryptoError::InvalidKey);
        }
        let k = self.modulus_len();
        if signature.len() != k {
            return Err(CryptoError::BadSignature);
        }
        let s = Uint::from_be_bytes(signature);
        if s >= self.modulus {
            return Err(CryptoError::BadSignature);
        }
        let m = mod_pow(&s, &self.exponent, &self.modulus)?;
        let em = m
            .to_be_bytes_padded(k)
            .ok_or(CryptoError::BadSignature)?;
        let expected = emsa_pkcs1_v15(alg, message, k)?;
        // Full byte comparison — strict verification.
        if em == expected {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }
}

/// An RSA key pair, its private half in the CRT representation (RFC 8017
/// §3.2, second form) that signing uses. The private exponent
/// `d = e⁻¹ mod λ(n)` itself is not kept: `dP` and `dQ` are its residues.
#[derive(Clone)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    /// The prime factors `n = p·q`.
    p: Uint,
    q: Uint,
    /// `dP = d mod (p − 1)`.
    dp: Uint,
    /// `dQ = d mod (q − 1)`.
    dq: Uint,
    /// `qInv = q⁻¹ mod p`.
    qinv: Uint,
}

/// Prints only the modulus size: the private material never reaches a log.
impl std::fmt::Debug for RsaKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RsaKeyPair")
            .field("modulus_bits", &self.public.modulus.bit_len())
            .finish_non_exhaustive()
    }
}

impl RsaKeyPair {
    /// Deterministically generate a key pair with a modulus of
    /// `modulus_bits` from the given RNG. `modulus_bits` must be ≥ 128 and
    /// even.
    pub fn generate(modulus_bits: usize, rng: &mut SplitMix64) -> Result<Self, CryptoError> {
        if modulus_bits < 128 || !modulus_bits.is_multiple_of(2) {
            return Err(CryptoError::InvalidKey);
        }
        let e = Uint::from_u64(65537);
        let half = modulus_bits / 2;
        for _attempt in 0..64 {
            let p = gen_prime_coprime(half, &e, rng);
            let q = gen_prime_coprime(half, &e, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            if n.bit_len() != modulus_bits {
                continue; // product fell one bit short; redraw
            }
            let (p1, q1) = (p.sub(&Uint::one()), q.sub(&Uint::one()));
            let d = match mod_inv(&e, &lcm(&p1, &q1)) {
                Ok(d) => d,
                Err(_) => continue,
            };
            // Distinct primes are coprime, so q is invertible mod p.
            let qinv = mod_inv(&q, &p)?;
            return Ok(RsaKeyPair {
                public: RsaPublicKey {
                    modulus: n,
                    exponent: e,
                },
                dp: d.rem(&p1)?,
                dq: d.rem(&q1)?,
                p,
                q,
                qinv,
            });
        }
        Err(CryptoError::KeyGenExhausted)
    }

    /// Borrow the public half.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Sign `message` with RSASSA-PKCS1-v1_5.
    ///
    /// Computes `s = m^d mod n` by the Chinese remainder theorem (RFC 8017
    /// §5.1.2, step 2b): two half-size exponentiations mod `p` and `q`,
    /// then Garner's recombination. The result is the same integer as the
    /// full-width exponentiation, so the signature bytes are too.
    pub fn sign(
        &self,
        alg: SignatureAlgorithm,
        message: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.modulus_len();
        let em = emsa_pkcs1_v15(alg, message, k)?;
        let m = Uint::from_be_bytes(&em);
        let m1 = mod_pow(&m, &self.dp, &self.p)?;
        let m2 = mod_pow(&m, &self.dq, &self.q)?;
        // h = qInv·(m1 − m2) mod p; s = m2 + h·q.
        let h = mod_mul(&self.qinv, &mod_sub(&m1, &m2, &self.p)?, &self.p)?;
        let s = m2.add(&h.mul(&self.q));
        s.to_be_bytes_padded(k).ok_or(CryptoError::MessageTooLong)
    }
}

/// EMSA-PKCS1-v1_5 encoding (RFC 8017 §9.2):
/// `0x00 0x01 PS 0x00 DigestInfo` where PS is at least eight `0xFF` bytes.
fn emsa_pkcs1_v15(
    alg: SignatureAlgorithm,
    message: &[u8],
    em_len: usize,
) -> Result<Vec<u8>, CryptoError> {
    let digest = alg.digest(message);
    let t_len = alg.digest_info_prefix().len() + digest.len();
    if em_len < t_len + 11 {
        return Err(CryptoError::MessageTooLong);
    }
    let mut em = Vec::with_capacity(em_len);
    em.push(0x00);
    em.push(0x01);
    em.resize(em_len - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(alg.digest_info_prefix());
    em.extend_from_slice(&digest);
    debug_assert_eq!(em.len(), em_len);
    Ok(em)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keypair(seed: u64) -> RsaKeyPair {
        RsaKeyPair::generate(512, &mut SplitMix64::new(seed)).expect("keygen")
    }

    #[test]
    fn sign_verify_round_trip_sha256() {
        let kp = keypair(1);
        let sig = kp.sign(SignatureAlgorithm::Sha256WithRsa, b"hello world").unwrap();
        kp.public_key()
            .verify(SignatureAlgorithm::Sha256WithRsa, b"hello world", &sig)
            .unwrap();
    }

    #[test]
    fn sign_verify_round_trip_sha1() {
        let kp = keypair(2);
        let sig = kp.sign(SignatureAlgorithm::Sha1WithRsa, b"legacy era").unwrap();
        kp.public_key()
            .verify(SignatureAlgorithm::Sha1WithRsa, b"legacy era", &sig)
            .unwrap();
    }

    #[test]
    fn tampered_message_rejected() {
        let kp = keypair(3);
        let sig = kp.sign(SignatureAlgorithm::Sha256WithRsa, b"original").unwrap();
        assert_eq!(
            kp.public_key()
                .verify(SignatureAlgorithm::Sha256WithRsa, b"tampered", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = keypair(4);
        let mut sig = kp.sign(SignatureAlgorithm::Sha256WithRsa, b"msg").unwrap();
        sig[10] ^= 0x01;
        assert_eq!(
            kp.public_key()
                .verify(SignatureAlgorithm::Sha256WithRsa, b"msg", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn wrong_algorithm_rejected() {
        let kp = keypair(5);
        let sig = kp.sign(SignatureAlgorithm::Sha1WithRsa, b"msg").unwrap();
        assert_eq!(
            kp.public_key()
                .verify(SignatureAlgorithm::Sha256WithRsa, b"msg", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = keypair(6);
        let kp2 = keypair(7);
        let sig = kp1.sign(SignatureAlgorithm::Sha256WithRsa, b"msg").unwrap();
        assert!(kp2
            .public_key()
            .verify(SignatureAlgorithm::Sha256WithRsa, b"msg", &sig)
            .is_err());
    }

    #[test]
    fn wrong_length_signature_rejected() {
        let kp = keypair(8);
        let sig = kp.sign(SignatureAlgorithm::Sha256WithRsa, b"msg").unwrap();
        assert_eq!(
            kp.public_key()
                .verify(SignatureAlgorithm::Sha256WithRsa, b"msg", &sig[1..]),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn keygen_deterministic() {
        let a = keypair(42);
        let b = keypair(42);
        assert_eq!(a.public_key(), b.public_key());
        assert_eq!((&a.p, &a.q, &a.dp, &a.dq, &a.qinv), (&b.p, &b.q, &b.dp, &b.dq, &b.qinv));
    }

    #[test]
    fn crt_sign_equals_full_width_exponentiation() {
        for (bits, seed) in [(512usize, 11u64), (768, 12), (1024, 13)] {
            let kp = RsaKeyPair::generate(bits, &mut SplitMix64::new(seed)).unwrap();
            let n = &kp.public.modulus;
            let lambda = lcm(&kp.p.sub(&Uint::one()), &kp.q.sub(&Uint::one()));
            let d = mod_inv(&kp.public.exponent, &lambda).unwrap();
            assert_eq!(kp.p.mul(&kp.q), *n);
            for msg in [&b""[..], b"crt", b"a longer message signed by every key size"] {
                for alg in [SignatureAlgorithm::Sha1WithRsa, SignatureAlgorithm::Sha256WithRsa] {
                    let em = emsa_pkcs1_v15(alg, msg, kp.public.modulus_len()).unwrap();
                    let full = mod_pow(&Uint::from_be_bytes(&em), &d, n).unwrap();
                    let sig = kp.sign(alg, msg).unwrap();
                    assert_eq!(sig, full.to_be_bytes_padded(kp.public.modulus_len()).unwrap());
                    kp.public.verify(alg, msg, &sig).unwrap();
                }
            }
        }
    }

    #[test]
    fn debug_redacts_private_material() {
        let kp = keypair(10);
        let shown = format!("{kp:?}");
        assert_eq!(shown, "RsaKeyPair { modulus_bits: 512, .. }");
        for secret in [&kp.p, &kp.q, &kp.dp, &kp.dq, &kp.qinv] {
            assert!(!shown.contains(&secret.to_hex()));
        }
    }

    #[test]
    fn keygen_distinct_seeds() {
        assert_ne!(keypair(1).public_key().modulus, keypair(2).public_key().modulus);
    }

    #[test]
    fn modulus_has_requested_bits() {
        for bits in [512usize, 768] {
            let kp = RsaKeyPair::generate(bits, &mut SplitMix64::new(9)).unwrap();
            assert_eq!(kp.public_key().modulus.bit_len(), bits);
        }
    }

    #[test]
    fn invalid_keygen_params() {
        assert!(RsaKeyPair::generate(64, &mut SplitMix64::new(0)).is_err());
        assert!(RsaKeyPair::generate(513, &mut SplitMix64::new(0)).is_err());
    }

    #[test]
    fn modulus_too_small_for_digest() {
        // A 512-bit modulus is fine; the encoding check itself:
        let em = emsa_pkcs1_v15(SignatureAlgorithm::Sha256WithRsa, b"x", 32);
        assert_eq!(em, Err(CryptoError::MessageTooLong));
    }

    #[test]
    fn emsa_layout() {
        let em = emsa_pkcs1_v15(SignatureAlgorithm::Sha256WithRsa, b"x", 64).unwrap();
        assert_eq!(em.len(), 64);
        assert_eq!(&em[..2], &[0x00, 0x01]);
        let zero_pos = em[2..].iter().position(|&b| b == 0).unwrap() + 2;
        assert!(em[2..zero_pos].iter().all(|&b| b == 0xff));
        assert!(zero_pos - 2 >= 8, "PS must be >= 8 bytes");
    }
}
