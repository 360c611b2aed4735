//! Certificate chain building and verification.
//!
//! This is the operation behind the paper's Notary validation numbers
//! (Tables 3–4, Figure 3): given a leaf certificate, a pool of candidate
//! intermediates, and a root store, find a signature path from the leaf to
//! a trust anchor. A naive quadratic builder is kept alongside as the
//! reference and for the ablation benchmark (DESIGN.md §5.2).
//!
//! [`ChainVerifier`] indexes anchors and pooled intermediates by a `u64`
//! digest of the subject [`DistinguishedName`]'s structure, and each
//! lookup keeps only the bucket entries whose subject *equals* the issuer
//! being sought. No name is rendered to a string on insert or at any
//! search step, so two names that print alike but differ in structure
//! (`CN="a,O=b"` against `CN=a`+`O=b`) never stand in for each other.
//!
//! A chain as a client presents it is checked with
//! [`ChainVerifier::verify_chain`]: the presented intermediates are an
//! overlay for that one call, tried after the pool's candidates and in
//! presented order, so a shared anchor set is borrowed, never cloned.

use crate::cert::Certificate;
use crate::name::DistinguishedName;
use crate::verify::{check_cert, CertCheckError, CertRole};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use tangled_asn1::Time;
use tangled_crypto::sha256::sha256;

/// Memoisation key for chain-validation results.
///
/// [`ChainKey::exact`] fingerprints a *presented chain* — leaf plus
/// intermediates, order-sensitive, byte-exact. Two requests carrying the
/// same certificates produce the same key, so a verification memo keyed
/// on it may replay the earlier outcome without re-running signatures.
///
/// Keys are totally ordered (byte-lexicographic on the digest), so maps
/// keyed on `ChainKey` — the disparity engine's per-chain verdict
/// vectors in particular — can be sorted into one canonical order that
/// is stable across runs, platforms, and exec-pool widths.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChainKey([u8; 32]);

impl ChainKey {
    /// Byte-exact fingerprint of a presented chain (leaf first).
    pub fn exact<'a, I>(certs: I) -> ChainKey
    where
        I: IntoIterator<Item = &'a Certificate>,
    {
        let mut data = Vec::with_capacity(16 + 32 * 4);
        data.extend_from_slice(b"chain-key/exact\0");
        for cert in certs {
            data.extend_from_slice(&cert.fingerprint_sha256());
        }
        ChainKey(sha256(&data))
    }

    /// The raw 32-byte digest.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase-hex rendering (stable across runs — suitable for logs
    /// and wire stats).
    pub fn to_hex(&self) -> String {
        tangled_crypto::sha256::hex(&self.0)
    }
}

impl std::fmt::Debug for ChainKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ChainKey({})", &self.to_hex()[..16])
    }
}

/// Why chain building failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// No path from the leaf to any trust anchor exists.
    NoPathToTrustAnchor,
    /// A certificate along the only candidate path failed validation.
    CertCheck(CertCheckError),
    /// A signature along the path failed to verify.
    BadSignature,
    /// The path exceeded the maximum permitted length.
    PathTooLong,
    /// A certificate on the path carries a platform-blacklisted key
    /// (Android 4.4's fraudulent-certificate protection, §2).
    Blacklisted,
}

impl ChainError {
    /// Stable short label for the failure — the rejection vocabulary of
    /// the trustd verdicts and the interception attribution ledger, so it
    /// feeds every verdict fingerprint and must not change.
    pub fn label(&self) -> &'static str {
        match self {
            ChainError::NoPathToTrustAnchor => "no-path",
            ChainError::CertCheck(_) => "cert-check",
            ChainError::BadSignature => "bad-signature",
            ChainError::PathTooLong => "path-too-long",
            ChainError::Blacklisted => "blacklisted",
        }
    }
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::NoPathToTrustAnchor => write!(f, "no path to a trust anchor"),
            ChainError::CertCheck(e) => write!(f, "certificate check failed: {e}"),
            ChainError::BadSignature => write!(f, "signature verification failed on path"),
            ChainError::PathTooLong => write!(f, "path exceeds maximum depth"),
            ChainError::Blacklisted => {
                write!(f, "path contains a platform-blacklisted key")
            }
        }
    }
}

impl std::error::Error for ChainError {}

/// Options controlling path validation.
#[derive(Debug, Clone, Copy)]
pub struct ChainOptions {
    /// Verification time (validity windows are checked against this).
    pub at: Time,
    /// Maximum number of certificates in a path, including leaf and root.
    pub max_depth: usize,
    /// When false, expiry of the *trust anchor itself* is ignored — this is
    /// what Android does in practice (the expired Firmaprofesional root in
    /// AOSP §2 still anchors chains); when true the anchor's window is
    /// enforced too.
    pub check_anchor_expiry: bool,
}

impl ChainOptions {
    /// Defaults used across the workspace: depth ≤ 8, anchor expiry not
    /// enforced (Android semantics).
    pub fn at(at: Time) -> Self {
        ChainOptions {
            at,
            max_depth: 8,
            check_anchor_expiry: false,
        }
    }
}

/// A certificate path that is non-empty *by construction*: the leaf is a
/// dedicated field, not element zero of a vector, so `last()`/`leaf()`
/// are total functions and no "chains are non-empty" invariant has to be
/// asserted at runtime.
#[derive(Debug, Clone)]
pub struct ChainPath {
    head: Arc<Certificate>,
    tail: Vec<Arc<Certificate>>,
}

impl ChainPath {
    /// A path holding just the leaf.
    pub fn new(leaf: Arc<Certificate>) -> ChainPath {
        ChainPath {
            head: leaf,
            tail: Vec::new(),
        }
    }

    /// The leaf the path starts from.
    pub fn leaf(&self) -> &Arc<Certificate> {
        &self.head
    }

    /// The certificate furthest from the leaf. Total — there is always at
    /// least the leaf.
    pub fn last(&self) -> &Arc<Certificate> {
        self.tail.last().unwrap_or(&self.head)
    }

    /// Extend the path away from the leaf.
    pub fn push(&mut self, cert: Arc<Certificate>) {
        self.tail.push(cert);
    }

    /// Retract the most recent extension. The leaf itself cannot be
    /// popped: a path never becomes empty.
    pub fn pop(&mut self) -> Option<Arc<Certificate>> {
        self.tail.pop()
    }

    /// Number of certificates on the path (≥ 1).
    pub fn len(&self) -> usize {
        1 + self.tail.len()
    }

    /// Paths are never empty; provided for clippy symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterate leaf first.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<Certificate>> {
        std::iter::once(&self.head).chain(self.tail.iter())
    }

    /// Indexed access (0 = leaf).
    pub fn get(&self, index: usize) -> Option<&Arc<Certificate>> {
        if index == 0 {
            Some(&self.head)
        } else {
            self.tail.get(index - 1)
        }
    }
}

/// A successfully validated chain, leaf first, trust anchor last.
#[derive(Debug, Clone)]
pub struct VerifiedChain {
    /// Path from leaf (index 0) to the trust anchor (last).
    pub path: ChainPath,
}

impl VerifiedChain {
    /// The trust anchor this chain terminates in.
    pub fn anchor(&self) -> &Certificate {
        self.path.last()
    }

    /// Number of certificates in the chain.
    pub fn len(&self) -> usize {
        self.path.len()
    }

    /// Chains are never empty; provided for clippy symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Certificates bucketed by [`name_key`] of their subject.
type NameIndex = HashMap<u64, Vec<Arc<Certificate>>>;

/// Bucket key of a name: a digest of its structure (the derived `Hash`).
/// Lookups filter the bucket by full name equality, so a digest collision
/// costs one comparison, never a wrong candidate.
fn name_key(name: &DistinguishedName) -> u64 {
    let mut hasher = DefaultHasher::new();
    name.hash(&mut hasher);
    hasher.finish()
}

/// The certificates of `index` whose subject is exactly `name`, in
/// insertion order.
fn subjects_named<'a>(
    index: &'a NameIndex,
    name: &'a DistinguishedName,
) -> impl Iterator<Item = &'a Arc<Certificate>> {
    index
        .get(&name_key(name))
        .into_iter()
        .flatten()
        .filter(move |c| c.subject == *name)
}

/// A chain builder holding trust anchors and an intermediate pool.
#[derive(Debug, Clone, Default)]
pub struct ChainVerifier {
    anchors_by_subject: NameIndex,
    intermediates_by_subject: NameIndex,
    blacklisted_keys: std::collections::HashSet<Vec<u8>>,
    n_anchors: usize,
}

impl ChainVerifier {
    /// An empty verifier (no trust anchors — everything fails).
    pub fn new() -> Self {
        ChainVerifier::default()
    }

    /// Add a trust anchor (root-store member).
    pub fn add_anchor(&mut self, cert: Arc<Certificate>) {
        self.anchors_by_subject
            .entry(name_key(&cert.subject))
            .or_default()
            .push(cert);
        self.n_anchors += 1;
    }

    /// Add a candidate intermediate certificate to the pool every later
    /// verification searches.
    pub fn add_intermediate(&mut self, cert: Arc<Certificate>) {
        self.intermediates_by_subject
            .entry(name_key(&cert.subject))
            .or_default()
            .push(cert);
    }

    /// Blacklist a public key by its modulus bytes — the platform-level
    /// protection Android 4.4 introduced against known-fraudulent
    /// certificates (§2 of the paper). Any certificate carrying the key is
    /// rejected wherever it appears in a path, even when a store anchor
    /// would otherwise trust it.
    pub fn blacklist_key(&mut self, key: &tangled_crypto::rsa::RsaPublicKey) {
        self.blacklisted_keys.insert(key.modulus.to_be_bytes());
    }

    fn is_blacklisted(&self, cert: &Certificate) -> bool {
        !self.blacklisted_keys.is_empty()
            && self
                .blacklisted_keys
                .contains(&cert.public_key.modulus.to_be_bytes())
    }

    /// Number of trust anchors installed.
    pub fn anchor_count(&self) -> usize {
        self.n_anchors
    }

    /// Build and verify a chain from `leaf` to any trust anchor, with the
    /// pool as the only intermediates: [`ChainVerifier::verify_chain`]
    /// with nothing presented.
    pub fn verify(
        &self,
        leaf: &Arc<Certificate>,
        opts: ChainOptions,
    ) -> Result<VerifiedChain, ChainError> {
        self.verify_chain(leaf, &[], opts)
    }

    /// Build and verify a chain from `leaf` to any trust anchor, trying
    /// the `presented` intermediates for this call only: after the
    /// pool's candidates and in presented order — the order a clone of
    /// this verifier with each presented certificate added through
    /// [`ChainVerifier::add_intermediate`] would give.
    ///
    /// Depth-first search over issuer candidates; the first fully valid
    /// path wins. The returned error is the most specific failure seen
    /// (a signature/validity failure beats [`ChainError::NoPathToTrustAnchor`]).
    pub fn verify_chain(
        &self,
        leaf: &Arc<Certificate>,
        presented: &[Arc<Certificate>],
        opts: ChainOptions,
    ) -> Result<VerifiedChain, ChainError> {
        check_cert(leaf, opts.at, CertRole::Leaf).map_err(ChainError::CertCheck)?;
        if self.is_blacklisted(leaf) {
            return Err(ChainError::Blacklisted);
        }
        let mut best_err = ChainError::NoPathToTrustAnchor;
        let mut path = ChainPath::new(Arc::clone(leaf));
        if let Some(chain) = self.search(&mut path, presented, opts, &mut best_err) {
            Ok(chain)
        } else {
            Err(best_err)
        }
    }

    fn search(
        &self,
        path: &mut ChainPath,
        presented: &[Arc<Certificate>],
        opts: ChainOptions,
        best_err: &mut ChainError,
    ) -> Option<VerifiedChain> {
        let current = Arc::clone(path.last());
        if path.len() >= opts.max_depth {
            *best_err = ChainError::PathTooLong;
            return None;
        }
        let issuer = &current.issuer;
        // CA certs between a candidate issuer and the leaf = number of
        // non-leaf certs already on the path.
        let ca_below = (path.len() - 1) as u32;
        let issuer_role = CertRole::Issuer {
            ca_certs_below: ca_below,
        };

        // Try anchors first: shortest chains win and anchors terminate.
        for anchor in subjects_named(&self.anchors_by_subject, issuer) {
            if self.is_blacklisted(anchor) {
                *best_err = ChainError::Blacklisted;
                continue;
            }
            // Self-signed leaf that IS an anchor: accept [leaf] if identical.
            if current.verify_issued_by(anchor).is_err() {
                *best_err = ChainError::BadSignature;
                continue;
            }
            if opts.check_anchor_expiry {
                if let Err(e) = check_cert(anchor, opts.at, CertRole::Leaf) {
                    *best_err = ChainError::CertCheck(e);
                    continue;
                }
            }
            // Anchors are trusted as CAs by configuration; pathLen still
            // applies when the anchor carries basicConstraints.
            if let Some(bc) = anchor.basic_constraints() {
                if let Some(max) = bc.path_len {
                    if ca_below > max {
                        *best_err = ChainError::CertCheck(CertCheckError::PathLenExceeded);
                        continue;
                    }
                }
            }
            let mut full = path.clone();
            full.push(Arc::clone(anchor));
            return Some(VerifiedChain { path: full });
        }

        // Then intermediates: the pool's, then the presented overlay.
        let overlay = presented.iter().filter(|c| c.subject == *issuer);
        for cand in subjects_named(&self.intermediates_by_subject, issuer).chain(overlay) {
            // Avoid loops: an intermediate may appear once per path.
            if path.iter().any(|c| Arc::ptr_eq(c, cand) || **c == **cand) {
                continue;
            }
            if self.is_blacklisted(cand) {
                *best_err = ChainError::Blacklisted;
                continue;
            }
            if let Err(e) = check_cert(cand, opts.at, issuer_role) {
                *best_err = ChainError::CertCheck(e);
                continue;
            }
            if current.verify_issued_by(cand).is_err() {
                *best_err = ChainError::BadSignature;
                continue;
            }
            path.push(Arc::clone(cand));
            if let Some(found) = self.search(path, presented, opts, best_err) {
                return Some(found);
            }
            path.pop();
        }
        None
    }

    /// Naive quadratic chain builder retained as the reference and for the
    /// ablation benchmark: scans every anchor and intermediate at each step
    /// instead of using the subject index, and compares names for
    /// equality. Semantics match [`ChainVerifier::verify`].
    pub fn verify_naive(
        &self,
        leaf: &Arc<Certificate>,
        opts: ChainOptions,
    ) -> Result<VerifiedChain, ChainError> {
        check_cert(leaf, opts.at, CertRole::Leaf).map_err(ChainError::CertCheck)?;
        let anchors: Vec<&Arc<Certificate>> =
            self.anchors_by_subject.values().flatten().collect();
        let intermediates: Vec<&Arc<Certificate>> =
            self.intermediates_by_subject.values().flatten().collect();

        fn go(
            path: &mut ChainPath,
            anchors: &[&Arc<Certificate>],
            intermediates: &[&Arc<Certificate>],
            opts: ChainOptions,
        ) -> Option<VerifiedChain> {
            let current = Arc::clone(path.last());
            if path.len() >= opts.max_depth {
                return None;
            }
            let ca_below = (path.len() - 1) as u32;
            for anchor in anchors {
                if current.issuer != anchor.subject {
                    continue;
                }
                if current.verify_issued_by(anchor).is_err() {
                    continue;
                }
                if opts.check_anchor_expiry
                    && check_cert(anchor, opts.at, CertRole::Leaf).is_err()
                {
                    continue;
                }
                let mut full = path.clone();
                full.push(Arc::clone(anchor));
                return Some(VerifiedChain { path: full });
            }
            for cand in intermediates {
                if current.issuer != cand.subject {
                    continue;
                }
                if path.iter().any(|c| **c == ***cand) {
                    continue;
                }
                if check_cert(cand, opts.at, CertRole::Issuer { ca_certs_below: ca_below })
                    .is_err()
                    || current.verify_issued_by(cand).is_err()
                {
                    continue;
                }
                path.push(Arc::clone(cand));
                if let Some(found) = go(path, anchors, intermediates, opts) {
                    return Some(found);
                }
                path.pop();
            }
            None
        }

        let mut path = ChainPath::new(Arc::clone(leaf));
        go(&mut path, &anchors, &intermediates, opts).ok_or(ChainError::NoPathToTrustAnchor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CertificateBuilder;
    use crate::name::DistinguishedName;
    use tangled_crypto::rsa::RsaKeyPair;
    use tangled_crypto::{SplitMix64, Uint};

    struct Fixture {
        root: Arc<Certificate>,
        intermediate: Arc<Certificate>,
        leaf: Arc<Certificate>,
        other_root: Arc<Certificate>,
    }

    fn nb() -> Time {
        Time::date(2012, 1, 1).unwrap()
    }
    fn na() -> Time {
        Time::date(2020, 1, 1).unwrap()
    }
    fn at() -> Time {
        Time::date(2014, 2, 1).unwrap()
    }

    fn fixture() -> Fixture {
        let root_kp = RsaKeyPair::generate(512, &mut SplitMix64::new(100)).unwrap();
        let int_kp = RsaKeyPair::generate(512, &mut SplitMix64::new(101)).unwrap();
        let leaf_kp = RsaKeyPair::generate(512, &mut SplitMix64::new(102)).unwrap();
        let other_kp = RsaKeyPair::generate(512, &mut SplitMix64::new(103)).unwrap();

        let root = CertificateBuilder::self_signed_root(
            DistinguishedName::common_name("Fixture Root"),
            nb(),
            na(),
            &root_kp,
            Uint::one(),
        )
        .unwrap();
        let intermediate = CertificateBuilder::new(
            root.subject.clone(),
            DistinguishedName::common_name("Fixture Intermediate"),
            nb(),
            na(),
        )
        .serial(Uint::from_u64(2))
        .ca(Some(0))
        .sign(int_kp.public_key(), &root_kp)
        .unwrap();
        let leaf = CertificateBuilder::new(
            intermediate.subject.clone(),
            DistinguishedName::common_name("www.example.com"),
            nb(),
            na(),
        )
        .serial(Uint::from_u64(3))
        .tls_server(vec!["www.example.com".into()])
        .sign(leaf_kp.public_key(), &int_kp)
        .unwrap();
        let other_root = CertificateBuilder::self_signed_root(
            DistinguishedName::common_name("Unrelated Root"),
            nb(),
            na(),
            &other_kp,
            Uint::one(),
        )
        .unwrap();
        Fixture {
            root: Arc::new(root),
            intermediate: Arc::new(intermediate),
            leaf: Arc::new(leaf),
            other_root: Arc::new(other_root),
        }
    }

    fn verifier(f: &Fixture) -> ChainVerifier {
        let mut v = ChainVerifier::new();
        v.add_anchor(Arc::clone(&f.root));
        v.add_intermediate(Arc::clone(&f.intermediate));
        v
    }

    #[test]
    fn three_cert_chain_verifies() {
        let f = fixture();
        let v = verifier(&f);
        let chain = v.verify(&f.leaf, ChainOptions::at(at())).unwrap();
        assert_eq!(chain.len(), 3);
        assert_eq!(chain.anchor().subject, f.root.subject);
        assert_eq!(chain.path.leaf().subject, f.leaf.subject);
    }

    #[test]
    fn direct_anchor_chain() {
        let f = fixture();
        let v = verifier(&f);
        // The intermediate itself chains straight to the root.
        let chain = v.verify(&f.intermediate, ChainOptions::at(at())).unwrap();
        assert_eq!(chain.len(), 2);
    }

    #[test]
    fn untrusted_root_fails() {
        let f = fixture();
        let mut v = ChainVerifier::new();
        v.add_anchor(Arc::clone(&f.other_root));
        v.add_intermediate(Arc::clone(&f.intermediate));
        assert_eq!(
            v.verify(&f.leaf, ChainOptions::at(at())).unwrap_err(),
            ChainError::NoPathToTrustAnchor
        );
    }

    #[test]
    fn missing_intermediate_fails() {
        let f = fixture();
        let mut v = ChainVerifier::new();
        v.add_anchor(Arc::clone(&f.root));
        assert!(v.verify(&f.leaf, ChainOptions::at(at())).is_err());
    }

    #[test]
    fn expired_leaf_fails() {
        let f = fixture();
        let v = verifier(&f);
        let late = Time::date(2021, 1, 1).unwrap();
        assert_eq!(
            v.verify(&f.leaf, ChainOptions::at(late)).unwrap_err(),
            ChainError::CertCheck(CertCheckError::Expired)
        );
    }

    #[test]
    fn expired_intermediate_fails_with_specific_error() {
        let root_kp = RsaKeyPair::generate(512, &mut SplitMix64::new(200)).unwrap();
        let int_kp = RsaKeyPair::generate(512, &mut SplitMix64::new(201)).unwrap();
        let leaf_kp = RsaKeyPair::generate(512, &mut SplitMix64::new(202)).unwrap();
        let root = Arc::new(
            CertificateBuilder::self_signed_root(
                DistinguishedName::common_name("R"),
                nb(),
                na(),
                &root_kp,
                Uint::one(),
            )
            .unwrap(),
        );
        // Intermediate already expired at verification time.
        let inter = Arc::new(
            CertificateBuilder::new(
                root.subject.clone(),
                DistinguishedName::common_name("I"),
                nb(),
                Time::date(2013, 1, 1).unwrap(),
            )
            .ca(None)
            .sign(int_kp.public_key(), &root_kp)
            .unwrap(),
        );
        let leaf = Arc::new(
            CertificateBuilder::new(
                inter.subject.clone(),
                DistinguishedName::common_name("L"),
                nb(),
                na(),
            )
            .tls_server(vec!["l".into()])
            .sign(leaf_kp.public_key(), &int_kp)
            .unwrap(),
        );
        let mut v = ChainVerifier::new();
        v.add_anchor(root);
        v.add_intermediate(inter);
        assert_eq!(
            v.verify(&leaf, ChainOptions::at(at())).unwrap_err(),
            ChainError::CertCheck(CertCheckError::Expired)
        );
    }

    #[test]
    fn expired_anchor_android_vs_strict() {
        // Android semantics: expired trust anchors still anchor chains.
        let root_kp = RsaKeyPair::generate(512, &mut SplitMix64::new(210)).unwrap();
        let leaf_kp = RsaKeyPair::generate(512, &mut SplitMix64::new(211)).unwrap();
        let root = Arc::new(
            CertificateBuilder::self_signed_root(
                DistinguishedName::common_name("Firmaprofesional-like"),
                Time::date(2001, 1, 1).unwrap(),
                Time::date(2013, 10, 24).unwrap(),
                &root_kp,
                Uint::one(),
            )
            .unwrap(),
        );
        let leaf = Arc::new(
            CertificateBuilder::new(
                root.subject.clone(),
                DistinguishedName::common_name("child"),
                nb(),
                na(),
            )
            .tls_server(vec!["child".into()])
            .sign(leaf_kp.public_key(), &root_kp)
            .unwrap(),
        );
        let mut v = ChainVerifier::new();
        v.add_anchor(root);

        let android = ChainOptions::at(at());
        assert!(v.verify(&leaf, android).is_ok());

        let strict = ChainOptions {
            check_anchor_expiry: true,
            ..android
        };
        assert!(v.verify(&leaf, strict).is_err());
    }

    #[test]
    fn path_len_zero_blocks_sub_ca() {
        // Root → intermediate(pathLen=0) → sub-CA → leaf must fail.
        let root_kp = RsaKeyPair::generate(512, &mut SplitMix64::new(220)).unwrap();
        let int_kp = RsaKeyPair::generate(512, &mut SplitMix64::new(221)).unwrap();
        let sub_kp = RsaKeyPair::generate(512, &mut SplitMix64::new(222)).unwrap();
        let leaf_kp = RsaKeyPair::generate(512, &mut SplitMix64::new(223)).unwrap();
        let root = Arc::new(
            CertificateBuilder::self_signed_root(
                DistinguishedName::common_name("R0"),
                nb(),
                na(),
                &root_kp,
                Uint::one(),
            )
            .unwrap(),
        );
        let inter = Arc::new(
            CertificateBuilder::new(root.subject.clone(), DistinguishedName::common_name("I0"), nb(), na())
                .ca(Some(0))
                .sign(int_kp.public_key(), &root_kp)
                .unwrap(),
        );
        let sub = Arc::new(
            CertificateBuilder::new(inter.subject.clone(), DistinguishedName::common_name("S0"), nb(), na())
                .ca(None)
                .sign(sub_kp.public_key(), &int_kp)
                .unwrap(),
        );
        let leaf = Arc::new(
            CertificateBuilder::new(sub.subject.clone(), DistinguishedName::common_name("L0"), nb(), na())
                .tls_server(vec!["l0".into()])
                .sign(leaf_kp.public_key(), &sub_kp)
                .unwrap(),
        );
        let mut v = ChainVerifier::new();
        v.add_anchor(root);
        v.add_intermediate(inter);
        v.add_intermediate(sub);
        let err = v.verify(&leaf, ChainOptions::at(at())).unwrap_err();
        assert_eq!(err, ChainError::CertCheck(CertCheckError::PathLenExceeded));
    }

    #[test]
    fn issuer_cycle_terminates() {
        // Two CAs that cross-sign each other but never reach an anchor.
        let a_kp = RsaKeyPair::generate(512, &mut SplitMix64::new(230)).unwrap();
        let b_kp = RsaKeyPair::generate(512, &mut SplitMix64::new(231)).unwrap();
        let a_by_b = Arc::new(
            CertificateBuilder::new(
                DistinguishedName::common_name("B"),
                DistinguishedName::common_name("A"),
                nb(),
                na(),
            )
            .ca(None)
            .sign(a_kp.public_key(), &b_kp)
            .unwrap(),
        );
        let b_by_a = Arc::new(
            CertificateBuilder::new(
                DistinguishedName::common_name("A"),
                DistinguishedName::common_name("B"),
                nb(),
                na(),
            )
            .ca(None)
            .sign(b_kp.public_key(), &a_kp)
            .unwrap(),
        );
        let leaf_kp = RsaKeyPair::generate(512, &mut SplitMix64::new(232)).unwrap();
        let leaf = Arc::new(
            CertificateBuilder::new(
                DistinguishedName::common_name("A"),
                DistinguishedName::common_name("leaf"),
                nb(),
                na(),
            )
            .tls_server(vec!["leaf".into()])
            .sign(leaf_kp.public_key(), &a_kp)
            .unwrap(),
        );
        let mut v = ChainVerifier::new();
        v.add_intermediate(a_by_b);
        v.add_intermediate(b_by_a);
        // Must terminate (loop detection) with a failure, not hang.
        assert!(v.verify(&leaf, ChainOptions::at(at())).is_err());
    }

    #[test]
    fn naive_agrees_with_indexed() {
        let f = fixture();
        let v = verifier(&f);
        let opts = ChainOptions::at(at());
        let fast = v.verify(&f.leaf, opts).unwrap();
        let slow = v.verify_naive(&f.leaf, opts).unwrap();
        assert_eq!(fast.len(), slow.len());
        assert_eq!(fast.anchor().subject, slow.anchor().subject);
        assert!(v.verify_naive(&f.other_root, opts).is_err());
    }

    #[test]
    fn blacklisted_leaf_key_rejected() {
        let f = fixture();
        let mut v = verifier(&f);
        // Before blacklisting: verifies.
        assert!(v.verify(&f.leaf, ChainOptions::at(at())).is_ok());
        v.blacklist_key(&f.leaf.public_key);
        assert_eq!(
            v.verify(&f.leaf, ChainOptions::at(at())).unwrap_err(),
            ChainError::Blacklisted
        );
    }

    #[test]
    fn blacklisted_intermediate_breaks_path() {
        let f = fixture();
        let mut v = verifier(&f);
        v.blacklist_key(&f.intermediate.public_key);
        let err = v.verify(&f.leaf, ChainOptions::at(at())).unwrap_err();
        assert_eq!(err, ChainError::Blacklisted);
        // The intermediate itself (as leaf) is also rejected.
        assert_eq!(
            v.verify(&f.intermediate, ChainOptions::at(at())).unwrap_err(),
            ChainError::Blacklisted
        );
    }

    #[test]
    fn blacklisted_anchor_rejected_even_if_installed() {
        // The Android 4.4 scenario (§2): a fraudulent CA is in the store
        // (e.g. injected by a root app) but its key is platform-blacklisted
        // — chains through it must fail anyway.
        let rogue_kp = RsaKeyPair::generate(512, &mut SplitMix64::new(240)).unwrap();
        let leaf_kp = RsaKeyPair::generate(512, &mut SplitMix64::new(241)).unwrap();
        let rogue = Arc::new(
            CertificateBuilder::self_signed_root(
                DistinguishedName::common_name("Fraudulent Google CA"),
                nb(),
                na(),
                &rogue_kp,
                Uint::one(),
            )
            .unwrap(),
        );
        let forged = Arc::new(
            CertificateBuilder::new(
                rogue.subject.clone(),
                DistinguishedName::common_name("www.google.com"),
                nb(),
                na(),
            )
            .tls_server(vec!["www.google.com".into()])
            .sign(leaf_kp.public_key(), &rogue_kp)
            .unwrap(),
        );
        let mut v = ChainVerifier::new();
        v.add_anchor(Arc::clone(&rogue));
        // Without the blacklist the forged chain anchors.
        assert!(v.verify(&forged, ChainOptions::at(at())).is_ok());
        // With it, rejected.
        v.blacklist_key(&rogue.public_key);
        assert_eq!(
            v.verify(&forged, ChainOptions::at(at())).unwrap_err(),
            ChainError::Blacklisted
        );
    }

    #[test]
    fn chain_path_is_never_empty() {
        let f = fixture();
        let mut p = ChainPath::new(Arc::clone(&f.leaf));
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
        assert!(Arc::ptr_eq(p.last(), &f.leaf));
        assert!(p.pop().is_none(), "the leaf must not be poppable");
        p.push(Arc::clone(&f.intermediate));
        p.push(Arc::clone(&f.root));
        assert_eq!(p.len(), 3);
        assert!(Arc::ptr_eq(p.last(), &f.root));
        assert!(Arc::ptr_eq(p.get(0).unwrap(), &f.leaf));
        assert!(Arc::ptr_eq(p.get(2).unwrap(), &f.root));
        assert!(p.get(3).is_none());
        let subjects: Vec<_> = p.iter().map(|c| c.subject.to_string()).collect();
        assert_eq!(subjects.len(), 3);
        assert!(subjects[0].contains("www.example.com"));
        assert!(p.pop().is_some());
        assert!(p.pop().is_some());
        assert!(p.pop().is_none());
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn chain_key_distinguishes_chains() {
        let f = fixture();
        let full = [&*f.leaf, &*f.intermediate];
        let k1 = ChainKey::exact(full);
        let k2 = ChainKey::exact(full);
        assert_eq!(k1, k2, "same chain, same key");
        assert_ne!(
            k1,
            ChainKey::exact([&*f.leaf]),
            "dropping the intermediate changes the key"
        );
        assert_ne!(
            k1,
            ChainKey::exact([&*f.intermediate, &*f.leaf]),
            "order matters"
        );
        assert_eq!(k1.to_hex().len(), 64);
        assert_eq!(format!("{k1:?}").len(), "ChainKey(".len() + 16 + 1);
    }

    /// Two names that both render `CN=a,O=b`: a CN plus an O, and a
    /// single CN whose value holds the comma.
    fn rendering_twins() -> (DistinguishedName, DistinguishedName) {
        let structured = DistinguishedName::builder()
            .common_name("a")
            .organization("b")
            .build();
        let flat = DistinguishedName::common_name("a,O=b");
        assert_eq!(structured.to_string(), flat.to_string());
        assert_ne!(structured, flat);
        (structured, flat)
    }

    #[test]
    fn issuer_lookup_is_exact_not_by_rendering() {
        // The anchor is the structured name; the leaf's issuer is its
        // rendering twin, signed by an unrelated key. No anchor is the
        // leaf's issuer, so the answer is no path, not a bad signature.
        let (structured, flat) = rendering_twins();
        let root_kp = RsaKeyPair::generate(512, &mut SplitMix64::new(250)).unwrap();
        let twin_kp = RsaKeyPair::generate(512, &mut SplitMix64::new(251)).unwrap();
        let leaf_kp = RsaKeyPair::generate(512, &mut SplitMix64::new(252)).unwrap();
        let root =
            CertificateBuilder::self_signed_root(structured, nb(), na(), &root_kp, Uint::one())
                .unwrap();
        let leaf = Arc::new(
            CertificateBuilder::new(
                flat,
                DistinguishedName::common_name("twin leaf"),
                nb(),
                na(),
            )
            .tls_server(vec!["twin".into()])
            .sign(leaf_kp.public_key(), &twin_kp)
            .unwrap(),
        );
        let mut v = ChainVerifier::new();
        v.add_anchor(Arc::new(root));
        let opts = ChainOptions::at(at());
        assert_eq!(
            v.verify(&leaf, opts).unwrap_err(),
            ChainError::NoPathToTrustAnchor
        );
        assert_eq!(
            v.verify_naive(&leaf, opts).unwrap_err(),
            ChainError::NoPathToTrustAnchor
        );
    }

    #[test]
    fn presented_intermediates_are_an_overlay_for_one_call() {
        let f = fixture();
        let mut anchors = ChainVerifier::new();
        anchors.add_anchor(Arc::clone(&f.root));
        let opts = ChainOptions::at(at());
        let presented = [Arc::clone(&f.intermediate)];
        let overlay = anchors.verify_chain(&f.leaf, &presented, opts).unwrap();
        let pooled = verifier(&f).verify(&f.leaf, opts).unwrap();
        assert_eq!(overlay.len(), pooled.len());
        assert_eq!(overlay.anchor().subject, pooled.anchor().subject);
        // The overlay is not kept: the verifier still has no intermediate.
        assert_eq!(
            anchors.verify(&f.leaf, opts).unwrap_err(),
            ChainError::NoPathToTrustAnchor
        );
    }

    #[test]
    fn max_depth_enforced() {
        let f = fixture();
        let v = verifier(&f);
        let opts = ChainOptions {
            max_depth: 2, // leaf + 1 more — the 3-cert chain can't fit
            ..ChainOptions::at(at())
        };
        let err = v.verify(&f.leaf, opts).unwrap_err();
        assert_eq!(err, ChainError::PathTooLong);
    }
}
