//! `tangled-crypto` — from-scratch cryptographic substrate for the
//! *tangled-mass* workspace.
//!
//! The reproduction needs real certificate chains whose signatures actually
//! verify, but the offline dependency allowlist carries no cryptography
//! crates. This crate therefore implements, from first principles:
//!
//! * arbitrary-precision unsigned integers ([`bigint::Uint`]),
//! * modular arithmetic (modpow, modular inverse) ([`modular`]),
//! * Miller–Rabin primality testing and prime generation ([`prime`]),
//! * RSA key generation, PKCS#1 v1.5 signing and verification ([`rsa`]),
//! * SHA-1 and SHA-256 ([`sha1`], [`sha256`]),
//! * a small deterministic PRNG ([`rng::SplitMix64`]) so key generation is
//!   reproducible from a seed,
//! * the workspace's shared non-cryptographic hashes ([`hash`]): FNV-1a
//!   (span IDs, catalogue keys, snapshot checksums) and the SplitMix64
//!   finalizer (seed splitting).
//!
//! Keys default to 512 bits in tests and 1024 bits in examples: large enough
//! to exercise every code path (multi-limb arithmetic, normalization in
//! division, PKCS#1 padding) while keeping from-scratch keygen fast.
//!
//! This crate is **not** intended to protect real traffic; it exists so the
//! measurement pipeline operates on genuine X.509 objects rather than mocks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bigint;
pub mod hash;
pub mod modular;
pub mod prime;
pub mod rng;
pub mod rsa;
pub mod sha1;
pub mod sha256;

pub use bigint::Uint;
pub use rng::SplitMix64;
pub use rsa::{RsaKeyPair, RsaPublicKey, SignatureAlgorithm};

/// Errors produced by cryptographic operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// Attempted division (or modular reduction) by zero.
    DivisionByZero,
    /// No modular inverse exists (operands not coprime).
    NotInvertible,
    /// A signature failed to verify.
    BadSignature,
    /// The message (or its encoding) does not fit in the modulus.
    MessageTooLong,
    /// Key generation failed to find suitable primes within the attempt
    /// budget (practically unreachable with a working PRNG).
    KeyGenExhausted,
    /// Malformed key material (e.g. zero modulus).
    InvalidKey,
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::DivisionByZero => write!(f, "division by zero"),
            CryptoError::NotInvertible => write!(f, "element is not invertible"),
            CryptoError::BadSignature => write!(f, "signature verification failed"),
            CryptoError::MessageTooLong => write!(f, "message too long for modulus"),
            CryptoError::KeyGenExhausted => write!(f, "key generation attempt budget exhausted"),
            CryptoError::InvalidKey => write!(f, "invalid key material"),
        }
    }
}

impl std::error::Error for CryptoError {}
