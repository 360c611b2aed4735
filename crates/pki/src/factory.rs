//! Deterministic CA certificate minting.
//!
//! Every synthetic CA in the workspace is derived from its *name*: the name
//! is hashed into a key-generation seed, so "Deutsche Telekom Root CA 1"
//! carries the same RSA key pair whether it is minted for the Mozilla
//! manifest, a Samsung firmware image, or the Notary's issuance simulator.
//! That is what makes cross-store certificate *equivalence* (same subject +
//! modulus, possibly different DER) arise naturally, exactly as the paper
//! observes for re-issued roots.

use crate::{DEFAULT_KEY_BITS, WORKSPACE_SEED};
use std::collections::HashMap;
use std::sync::Arc;
use tangled_asn1::Time;
use tangled_crypto::rsa::{RsaKeyPair, SignatureAlgorithm};
use tangled_crypto::sha256::sha256;
use tangled_crypto::{SplitMix64, Uint};
use tangled_exec::ExecPool;
use tangled_x509::{Certificate, CertificateBuilder, DistinguishedName, X509Error};

/// Issuance parameters for a root certificate.
#[derive(Debug, Clone)]
pub struct CaSpec {
    /// Subject (and issuer) distinguished name.
    pub subject: DistinguishedName,
    /// Validity start.
    pub not_before: Time,
    /// Validity end.
    pub not_after: Time,
    /// Serial number.
    pub serial: u64,
    /// Signature algorithm.
    pub algorithm: SignatureAlgorithm,
}

impl CaSpec {
    /// The default spec for a named CA: `CN=<name>`, valid 2000–2030,
    /// serial 1, SHA-256. The long window means synthetic roots, like most
    /// real roots of the era, outlive the study period.
    pub fn named(name: &str) -> CaSpec {
        CaSpec {
            subject: DistinguishedName::common_name(name),
            not_before: Time::date(2000, 1, 1).expect("valid date"),
            not_after: Time::date(2030, 1, 1).expect("valid date"),
            serial: 1,
            algorithm: SignatureAlgorithm::Sha256WithRsa,
        }
    }
}

/// A deterministic factory for CA key pairs and certificates.
///
/// Key pairs are cached by key name; certificates by (key name, serial), so
/// re-issuing with a new serial/validity yields an *equivalent* but not
/// byte-equal certificate.
pub struct CaFactory {
    seed: u64,
    key_bits: usize,
    keys: HashMap<String, Arc<RsaKeyPair>>,
    certs: HashMap<(String, u64), Arc<Certificate>>,
}

impl std::fmt::Debug for CaFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CaFactory")
            .field("seed", &self.seed)
            .field("key_bits", &self.key_bits)
            .field("cached_keys", &self.cached_keys())
            .field("cached_certs", &self.certs.len())
            .finish()
    }
}

impl CaFactory {
    /// A factory using the workspace seed and default key size.
    pub fn new() -> CaFactory {
        CaFactory::with_seed(WORKSPACE_SEED, DEFAULT_KEY_BITS)
    }

    /// A factory with an explicit seed and key size.
    pub fn with_seed(seed: u64, key_bits: usize) -> CaFactory {
        CaFactory {
            seed,
            key_bits,
            keys: HashMap::new(),
            certs: HashMap::new(),
        }
    }

    /// The deterministic key pair for a named key. The same (factory seed,
    /// key name) always yields the same pair.
    pub fn keypair(&mut self, key_name: &str) -> Arc<RsaKeyPair> {
        if let Some(kp) = self.keys.get(key_name) {
            return Arc::clone(kp);
        }
        let kp = Arc::new(self.generate(key_name));
        self.keys.insert(key_name.to_owned(), Arc::clone(&kp));
        kp
    }

    /// Generate every key pair in `names` that the cache lacks, in
    /// parallel on the ambient [`ExecPool`], and cache them in name order.
    ///
    /// Each key is a pure function of (factory seed, key name), so the
    /// cache ends up exactly as the equivalent [`CaFactory::keypair`] calls
    /// would leave it, at any pool width; later `keypair` calls for these
    /// names are cache hits.
    pub fn prefetch<S: AsRef<str>>(&mut self, names: &[S]) {
        let mut missing: Vec<&str> = names
            .iter()
            .map(AsRef::as_ref)
            .filter(|name| !self.keys.contains_key(*name))
            .collect();
        missing.sort_unstable();
        missing.dedup();
        let this = &*self;
        let keys = ExecPool::current().par_map_indexed(&missing, |_, name| this.generate(name));
        for (name, kp) in missing.iter().zip(keys) {
            self.keys.insert((*name).to_owned(), Arc::new(kp));
        }
    }

    /// Number of key pairs in the cache.
    pub fn cached_keys(&self) -> usize {
        self.keys.len()
    }

    fn generate(&self, key_name: &str) -> RsaKeyPair {
        let mut rng = SplitMix64::new(self.derive_seed(key_name));
        RsaKeyPair::generate(self.key_bits, &mut rng)
            .expect("key sizes are validated at construction")
    }

    fn derive_seed(&self, key_name: &str) -> u64 {
        let h = sha256(key_name.as_bytes());
        let mut v = [0u8; 8];
        v.copy_from_slice(&h[..8]);
        u64::from_be_bytes(v) ^ self.seed
    }

    /// Mint (or fetch from cache) a self-signed root for `key_name` with
    /// the given spec.
    pub fn root_with_spec(
        &mut self,
        key_name: &str,
        spec: &CaSpec,
    ) -> Result<Arc<Certificate>, X509Error> {
        let cache_key = (key_name.to_owned(), spec.serial);
        if let Some(cert) = self.certs.get(&cache_key) {
            return Ok(Arc::clone(cert));
        }
        let kp = self.keypair(key_name);
        let cert = CertificateBuilder::new(
            spec.subject.clone(),
            spec.subject.clone(),
            spec.not_before,
            spec.not_after,
        )
        .serial(Uint::from_u64(spec.serial))
        .signature_algorithm(spec.algorithm)
        .ca(None)
        .key_ids(kp.public_key(), kp.public_key())
        .sign(kp.public_key(), &kp)?;
        let cert = Arc::new(cert);
        self.certs.insert(cache_key, Arc::clone(&cert));
        Ok(cert)
    }

    /// Mint the default root for a named CA (`CN=<name>`).
    pub fn root(&mut self, name: &str) -> Arc<Certificate> {
        self.root_with_spec(name, &CaSpec::named(name))
            .expect("default spec is always valid")
    }

    /// Mint a *re-issued* variant of a named root: same subject and key
    /// pair, shifted validity window and new serial. Byte-unequal but
    /// identity-equal to [`CaFactory::root`]'s output.
    pub fn reissued_root(&mut self, name: &str) -> Arc<Certificate> {
        let mut spec = CaSpec::named(name);
        spec.serial = 2;
        spec.not_before = Time::date(2010, 6, 1).expect("valid date");
        spec.not_after = Time::date(2035, 6, 1).expect("valid date");
        self.root_with_spec(name, &spec)
            .expect("reissue spec is always valid")
    }

    /// Issue an intermediate CA under a named root.
    pub fn intermediate(
        &mut self,
        parent_name: &str,
        name: &str,
        path_len: Option<u32>,
    ) -> Result<Arc<Certificate>, X509Error> {
        let cache_key = (format!("int:{parent_name}/{name}"), 1);
        if let Some(cert) = self.certs.get(&cache_key) {
            return Ok(Arc::clone(cert));
        }
        let parent = self.root(parent_name);
        let parent_kp = self.keypair(parent_name);
        let kp = self.keypair(&format!("int:{name}"));
        let cert = CertificateBuilder::new(
            parent.subject.clone(),
            DistinguishedName::common_name(name),
            parent.not_before,
            parent.not_after,
        )
        .serial(Uint::from_u64(1000 + cache_key.1))
        .ca(path_len)
        .key_ids(kp.public_key(), parent_kp.public_key())
        .sign(kp.public_key(), &parent_kp)?;
        let cert = Arc::new(cert);
        self.certs.insert(cache_key, Arc::clone(&cert));
        Ok(cert)
    }

    /// Issue a TLS server leaf for `domain`, signed by the named CA
    /// (root or `int:`-prefixed intermediate key name).
    pub fn leaf(
        &mut self,
        issuer_key_name: &str,
        issuer: &Certificate,
        domain: &str,
        serial: u64,
    ) -> Result<Arc<Certificate>, X509Error> {
        let issuer_kp = self.keypair(issuer_key_name);
        let kp = self.keypair(&format!("leaf:{domain}:{serial}"));
        let cert = CertificateBuilder::new(
            issuer.subject.clone(),
            DistinguishedName::common_name(domain),
            Time::date(2012, 1, 1).expect("valid date"),
            Time::date(2016, 1, 1).expect("valid date"),
        )
        .serial(Uint::from_u64(serial))
        .tls_server(vec![domain.to_owned()])
        .key_ids(kp.public_key(), issuer_kp.public_key())
        .sign(kp.public_key(), &issuer_kp)?;
        Ok(Arc::new(cert))
    }
}

impl Default for CaFactory {
    fn default() -> Self {
        CaFactory::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_deterministic_per_name() {
        let mut f1 = CaFactory::new();
        let mut f2 = CaFactory::new();
        assert_eq!(
            f1.keypair("GlobalSign Root CA").public_key(),
            f2.keypair("GlobalSign Root CA").public_key()
        );
        assert_ne!(
            f1.keypair("GlobalSign Root CA").public_key(),
            f1.keypair("GoDaddy Inc").public_key()
        );
    }

    #[test]
    fn different_factory_seeds_rekey() {
        let mut a = CaFactory::with_seed(1, 512);
        let mut b = CaFactory::with_seed(2, 512);
        assert_ne!(a.keypair("X").public_key(), b.keypair("X").public_key());
    }

    #[test]
    fn root_is_cached() {
        let mut f = CaFactory::new();
        let a = f.root("Cache Test CA");
        let b = f.root("Cache Test CA");
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn reissue_is_equivalent_not_equal() {
        let mut f = CaFactory::new();
        let orig = f.root("Reissue CA");
        let re = f.reissued_root("Reissue CA");
        assert_eq!(orig.identity(), re.identity());
        assert_ne!(orig.to_der(), re.to_der());
        assert_ne!(orig.serial, re.serial);
    }

    #[test]
    fn issued_hierarchy_verifies() {
        let mut f = CaFactory::new();
        let root = f.root("Hierarchy Root");
        let inter = f.intermediate("Hierarchy Root", "Hierarchy Sub CA", None).unwrap();
        let leaf = f
            .leaf("int:Hierarchy Sub CA", &inter, "www.example.net", 77)
            .unwrap();
        inter.verify_issued_by(&root).unwrap();
        leaf.verify_issued_by(&inter).unwrap();
        assert_eq!(leaf.dns_names(), &["www.example.net".to_string()]);
    }

    #[test]
    fn prefetch_matches_sequential_keygen_at_any_width() {
        let names = ["Prefetch A", "Prefetch C", "Prefetch B", "Prefetch A"];
        let mut sequential = CaFactory::with_seed(5, 512);
        for width in [1, 2, 4] {
            let mut f = CaFactory::with_seed(5, 512);
            f.keypair("Prefetch B");
            tangled_exec::set_thread_override(Some(width));
            f.prefetch(&names);
            tangled_exec::set_thread_override(None);
            assert_eq!(f.cached_keys(), 3, "duplicates and cached names skipped");
            for name in names {
                let before = f.cached_keys();
                assert_eq!(f.keypair(name).public_key(), sequential.keypair(name).public_key());
                assert_eq!(f.cached_keys(), before, "a prefetched key is a cache hit");
            }
        }
    }

    #[test]
    fn expired_spec_honoured() {
        let mut f = CaFactory::new();
        let mut spec = CaSpec::named("Firmaprofesional-like");
        spec.not_after = Time::date(2013, 10, 24).unwrap();
        let cert = f.root_with_spec("Firmaprofesional-like", &spec).unwrap();
        assert!(cert.is_expired_at(Time::date(2014, 1, 1).unwrap()));
    }
}
