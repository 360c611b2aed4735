//! The root store: a mutable, identity-keyed set of trust anchors.
//!
//! Mirrors Android's model (§2 of the paper): a system-wide store that is
//! read-only to apps, user-editable through settings (add / disable /
//! delete), and fully writable to anything with root permissions.

use crate::trust::{AnchorSource, TrustAnchor, TrustBits};
use std::collections::HashMap;
use std::sync::Arc;
use tangled_x509::{CertIdentity, Certificate, ChainVerifier};

/// A named collection of trust anchors keyed by certificate identity.
///
/// Iteration order is insertion order (stable across runs), which keeps
/// reports and serialized snapshots deterministic.
#[derive(Debug, Clone, Default)]
pub struct RootStore {
    name: String,
    order: Vec<CertIdentity>,
    anchors: HashMap<CertIdentity, TrustAnchor>,
}

impl RootStore {
    /// An empty store with a display name.
    pub fn new(name: &str) -> RootStore {
        RootStore {
            name: name.to_owned(),
            order: Vec::new(),
            anchors: HashMap::new(),
        }
    }

    /// The store's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of anchors (enabled or not).
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the store holds no anchors.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Add an anchor. Returns `false` (and leaves the store unchanged) when
    /// an anchor with the same identity is already present — matching
    /// Android, where installing an equivalent certificate is a no-op.
    pub fn add(&mut self, anchor: TrustAnchor) -> bool {
        let id = anchor.identity();
        if self.anchors.contains_key(&id) {
            return false;
        }
        self.order.push(id.clone());
        self.anchors.insert(id, anchor);
        true
    }

    /// Convenience: add a certificate with the given provenance and full
    /// Android trust.
    pub fn add_cert(&mut self, cert: Arc<Certificate>, source: AnchorSource) -> bool {
        self.add(TrustAnchor::new(cert, source))
    }

    /// Remove an anchor by identity. Returns the removed anchor.
    pub fn remove(&mut self, id: &CertIdentity) -> Option<TrustAnchor> {
        let removed = self.anchors.remove(id)?;
        self.order.retain(|o| o != id);
        Some(removed)
    }

    /// Disable (but keep) an anchor — Android settings' "disable"
    /// operation. Returns `true` if the anchor existed.
    pub fn disable(&mut self, id: &CertIdentity) -> bool {
        match self.anchors.get_mut(id) {
            Some(anchor) => {
                anchor.enabled = false;
                true
            }
            None => false,
        }
    }

    /// Re-enable a disabled anchor.
    pub fn enable(&mut self, id: &CertIdentity) -> bool {
        match self.anchors.get_mut(id) {
            Some(anchor) => {
                anchor.enabled = true;
                true
            }
            None => false,
        }
    }

    /// Restrict an anchor's trust bits (the paper's §8 recommendation).
    pub fn set_trust(&mut self, id: &CertIdentity, trust: TrustBits) -> bool {
        match self.anchors.get_mut(id) {
            Some(anchor) => {
                anchor.trust = trust;
                true
            }
            None => false,
        }
    }

    /// Does the store contain an anchor with this identity?
    pub fn contains(&self, id: &CertIdentity) -> bool {
        self.anchors.contains_key(id)
    }

    /// Look up an anchor by identity.
    pub fn get(&self, id: &CertIdentity) -> Option<&TrustAnchor> {
        self.anchors.get(id)
    }

    /// Iterate anchors in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &TrustAnchor> {
        self.order.iter().map(|id| &self.anchors[id])
    }

    /// Iterate only enabled anchors.
    pub fn iter_enabled(&self) -> impl Iterator<Item = &TrustAnchor> {
        self.iter().filter(|a| a.enabled)
    }

    /// Identities in insertion order.
    pub fn identities(&self) -> &[CertIdentity] {
        &self.order
    }

    /// A deep copy under a new name (firmware images start as copies of an
    /// AOSP store).
    pub fn cloned_as(&self, name: &str) -> RootStore {
        let mut out = self.clone();
        out.name = name.to_owned();
        out
    }

    /// Certificates of all enabled anchors, in insertion order.
    pub fn enabled_certificates(&self) -> Vec<Arc<Certificate>> {
        self.iter_enabled().map(|a| Arc::clone(&a.cert)).collect()
    }

    /// A chain verifier whose trust anchors are exactly this store's
    /// enabled anchors, in insertion order — the one place that decides
    /// which of a store's anchors a validator trusts. Disabled anchors
    /// are kept in the store but anchor nothing.
    pub fn verifier(&self) -> ChainVerifier {
        let mut verifier = ChainVerifier::new();
        for anchor in self.iter_enabled() {
            verifier.add_anchor(Arc::clone(&anchor.cert));
        }
        verifier
    }
}

/// Serializable snapshot entry (hex DER keeps snapshots self-contained).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreSnapshotEntry {
    /// Subject string.
    pub subject: String,
    /// Provenance label.
    pub source: String,
    /// Enabled flag.
    pub enabled: bool,
    /// Full certificate DER, lowercase hex.
    pub der_hex: String,
}

/// Serializable snapshot of a whole store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreSnapshot {
    /// Store display name.
    pub name: String,
    /// Anchors in insertion order.
    pub anchors: Vec<StoreSnapshotEntry>,
}

impl serde_json::Serialize for StoreSnapshotEntry {
    fn to_json_value(&self) -> serde_json::Value {
        serde_json::json!({
            "subject": self.subject.as_str(),
            "source": self.source.as_str(),
            "enabled": self.enabled,
            "der_hex": self.der_hex.as_str(),
        })
    }
}

impl serde_json::Deserialize for StoreSnapshotEntry {
    fn from_json_value(value: &serde_json::Value) -> Result<Self, serde_json::Error> {
        Ok(StoreSnapshotEntry {
            subject: snapshot_field(value, "subject")?,
            source: snapshot_field(value, "source")?,
            enabled: value["enabled"]
                .as_bool()
                .ok_or_else(|| serde_json::Error::msg("missing boolean field `enabled`"))?,
            der_hex: snapshot_field(value, "der_hex")?,
        })
    }
}

impl serde_json::Serialize for StoreSnapshot {
    fn to_json_value(&self) -> serde_json::Value {
        serde_json::json!({
            "name": self.name.as_str(),
            "anchors": self
                .anchors
                .iter()
                .map(serde_json::Serialize::to_json_value)
                .collect::<Vec<_>>(),
        })
    }
}

impl serde_json::Deserialize for StoreSnapshot {
    fn from_json_value(value: &serde_json::Value) -> Result<Self, serde_json::Error> {
        let anchors = value["anchors"]
            .as_array()
            .ok_or_else(|| serde_json::Error::msg("missing array field `anchors`"))?
            .iter()
            .map(serde_json::Deserialize::from_json_value)
            .collect::<Result<Vec<StoreSnapshotEntry>, _>>()?;
        Ok(StoreSnapshot {
            name: snapshot_field(value, "name")?,
            anchors,
        })
    }
}

/// Required string field of a snapshot object.
fn snapshot_field(value: &serde_json::Value, key: &str) -> Result<String, serde_json::Error> {
    value[key]
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| serde_json::Error::msg(format!("missing string field `{key}`")))
}

/// Errors reconstructing a store from a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// An entry's `der_hex` is not valid hex.
    BadHex {
        /// Subject of the offending entry.
        subject: String,
    },
    /// An entry's bytes failed to parse as a certificate.
    BadCertificate {
        /// Subject of the offending entry.
        subject: String,
    },
    /// An entry's `source` label is unknown.
    BadSource {
        /// The unrecognized label.
        label: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadHex { subject } => write!(f, "{subject}: invalid hex"),
            SnapshotError::BadCertificate { subject } => {
                write!(f, "{subject}: invalid certificate")
            }
            SnapshotError::BadSource { label } => write!(f, "unknown source '{label}'"),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn parse_source(label: &str) -> Option<AnchorSource> {
    Some(match label {
        "AOSP" => AnchorSource::Aosp,
        "manufacturer" => AnchorSource::Manufacturer,
        "operator" => AnchorSource::Operator,
        "user" => AnchorSource::User,
        "root-app" => AnchorSource::RootApp,
        "unknown" => AnchorSource::Unknown,
        _ => return None,
    })
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let nibble = |c: u8| -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            b'A'..=b'F' => Some(c - b'A' + 10),
            _ => None,
        }
    };
    s.as_bytes()
        .chunks(2)
        .map(|p| Some(nibble(p[0])? << 4 | nibble(p[1])?))
        .collect()
}

impl RootStore {
    /// Export a serializable snapshot.
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            name: self.name.clone(),
            anchors: self
                .iter()
                .map(|a| StoreSnapshotEntry {
                    subject: a.cert.subject.to_string(),
                    source: a.source.label().to_owned(),
                    enabled: a.enabled,
                    der_hex: tangled_crypto::sha256::hex(a.cert.to_der()),
                })
                .collect(),
        }
    }

    /// Reconstruct a store from a snapshot (inverse of
    /// [`RootStore::snapshot`] up to trust bits, which snapshots do not
    /// carry — reconstructed anchors get Android's all-purpose default).
    pub fn from_snapshot(snap: &StoreSnapshot) -> Result<RootStore, SnapshotError> {
        let mut store = RootStore::new(&snap.name);
        for entry in &snap.anchors {
            let der = hex_decode(&entry.der_hex).ok_or_else(|| SnapshotError::BadHex {
                subject: entry.subject.clone(),
            })?;
            let cert = Certificate::parse(&der).map_err(|_| SnapshotError::BadCertificate {
                subject: entry.subject.clone(),
            })?;
            let source = parse_source(&entry.source).ok_or_else(|| SnapshotError::BadSource {
                label: entry.source.clone(),
            })?;
            let mut anchor = TrustAnchor::new(Arc::new(cert), source);
            anchor.enabled = entry.enabled;
            store.add(anchor);
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::CaFactory;

    fn store_with(n: usize) -> (RootStore, Vec<CertIdentity>) {
        let mut f = CaFactory::new();
        let mut s = RootStore::new("test");
        let mut ids = Vec::new();
        for i in 0..n {
            let cert = f.root(&format!("Store Test CA {i}"));
            ids.push(cert.identity());
            assert!(s.add_cert(cert, AnchorSource::Aosp));
        }
        (s, ids)
    }

    #[test]
    fn add_remove_contains() {
        let (mut s, ids) = store_with(3);
        assert_eq!(s.len(), 3);
        assert!(s.contains(&ids[1]));
        let removed = s.remove(&ids[1]).unwrap();
        assert_eq!(removed.identity(), ids[1]);
        assert_eq!(s.len(), 2);
        assert!(!s.contains(&ids[1]));
        assert!(s.remove(&ids[1]).is_none());
    }

    #[test]
    fn duplicate_identity_rejected() {
        let mut f = CaFactory::new();
        let mut s = RootStore::new("dup");
        let a = f.root("Dup CA");
        let b = f.reissued_root("Dup CA"); // equivalent identity, new DER
        assert!(s.add_cert(a, AnchorSource::Aosp));
        assert!(!s.add_cert(b, AnchorSource::Manufacturer));
        assert_eq!(s.len(), 1);
        // Original provenance is kept.
        assert_eq!(s.iter().next().unwrap().source, AnchorSource::Aosp);
    }

    #[test]
    fn verifier_trusts_exactly_the_enabled_anchors() {
        let mut f = CaFactory::new();
        let mut s = RootStore::new("verifier");
        let root = f.root("Verifier Test CA");
        s.add_cert(Arc::clone(&root), AnchorSource::Aosp);
        let leaf = f
            .leaf("Verifier Test CA", &root, "verifier.example", 7)
            .unwrap();
        let opts = tangled_x509::ChainOptions::at(tangled_asn1::Time::date(2014, 2, 1).unwrap());
        let chain = s.verifier().verify(&leaf, opts).unwrap();
        assert_eq!(chain.anchor().identity(), root.identity());
        assert_eq!(s.verifier().anchor_count(), 1);

        s.disable(&root.identity());
        assert_eq!(s.verifier().anchor_count(), 0);
        assert!(s.verifier().verify(&leaf, opts).is_err());
    }

    #[test]
    fn disable_enable_cycle() {
        let (mut s, ids) = store_with(2);
        assert!(s.disable(&ids[0]));
        assert_eq!(s.iter_enabled().count(), 1);
        assert_eq!(s.len(), 2, "disable keeps the anchor");
        assert!(s.enable(&ids[0]));
        assert_eq!(s.iter_enabled().count(), 2);
        // Unknown identity.
        let (_, other_ids) = store_with(3);
        assert!(!s.disable(&other_ids[2]));
    }

    #[test]
    fn insertion_order_is_stable() {
        let (s, ids) = store_with(5);
        let got: Vec<_> = s.iter().map(|a| a.identity()).collect();
        assert_eq!(got, ids);
        assert_eq!(s.identities(), &ids[..]);
    }

    #[test]
    fn trust_bits_update() {
        let (mut s, ids) = store_with(1);
        assert!(s.set_trust(&ids[0], TrustBits::tls_only()));
        let a = s.get(&ids[0]).unwrap();
        assert!(a.trust.tls_server && !a.trust.code_signing);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let (s, _) = store_with(2);
        let snap = s.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: StoreSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name, "test");
        assert_eq!(back.anchors.len(), 2);
        assert_eq!(back.anchors[0].source, "AOSP");
    }

    #[test]
    fn snapshot_full_round_trip() {
        let mut f = CaFactory::new();
        let mut s = RootStore::new("snap");
        s.add_cert(f.root("Snap CA 1"), AnchorSource::Aosp);
        s.add_cert(f.root("Snap CA 2"), AnchorSource::Operator);
        s.add_cert(f.root("Snap CA 3"), AnchorSource::RootApp);
        let disabled = s.identities()[1].clone();
        s.disable(&disabled);

        let json = serde_json::to_string(&s.snapshot()).unwrap();
        let snap: StoreSnapshot = serde_json::from_str(&json).unwrap();
        let back = RootStore::from_snapshot(&snap).unwrap();

        assert_eq!(back.name(), "snap");
        assert_eq!(back.identities(), s.identities());
        for (a, b) in s.iter().zip(back.iter()) {
            assert_eq!(a.cert.to_der(), b.cert.to_der());
            assert_eq!(a.source, b.source);
            assert_eq!(a.enabled, b.enabled);
        }
    }

    #[test]
    fn snapshot_rejects_corruption() {
        let mut f = CaFactory::new();
        let mut s = RootStore::new("snap");
        s.add_cert(f.root("Snap CA"), AnchorSource::Aosp);
        let mut snap = s.snapshot();
        snap.anchors[0].der_hex.push('x');
        assert!(matches!(
            RootStore::from_snapshot(&snap),
            Err(SnapshotError::BadHex { .. })
        ));
        let mut snap = s.snapshot();
        snap.anchors[0].der_hex = "00ff".into();
        assert!(matches!(
            RootStore::from_snapshot(&snap),
            Err(SnapshotError::BadCertificate { .. })
        ));
        let mut snap = s.snapshot();
        snap.anchors[0].source = "martian".into();
        assert!(matches!(
            RootStore::from_snapshot(&snap),
            Err(SnapshotError::BadSource { .. })
        ));
    }

    #[test]
    fn cloned_as_is_independent() {
        let (s, ids) = store_with(2);
        let mut c = s.cloned_as("firmware");
        c.remove(&ids[0]);
        assert_eq!(s.len(), 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.name(), "firmware");
    }
}
