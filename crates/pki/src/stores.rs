//! Reference root-store manifests.
//!
//! Rebuilds the *structure* of the eight root stores the paper compares:
//! the four AOSP releases (139/140/146/150 anchors — Table 1), Mozilla
//! (153) and iOS 7 (227), plus the aggregated "Android in the wild"
//! universe (235 — Table 4). The certificates are synthetic (the real
//! stores are a closed dataset in DER form), but every cardinality and
//! overlap the paper reports is encoded:
//!
//! * 117 anchors **byte-identical** between AOSP 4.4 and Mozilla (§2);
//! * 13 more that are *equivalent* — same subject and RSA modulus,
//!   re-issued DER — bringing the equivalence-overlap to 130 (Table 4's
//!   "AOSP 4.4 and Mozilla root certs" row);
//! * the expired Autoridad de Certificacion Firmaprofesional root that AOSP
//!   still ships (§2);
//! * AOSP stores that only grow across releases (§2, and the Sony 4.1
//!   observation in §5);
//! * Mozilla's 23 non-AOSP members, 16 of which are the "found on Android
//!   devices" extras of Figure 2 (Table 4 row 2);
//! * iOS 7 as the largest store, containing the 24 iOS-member extras.

use crate::extras::{catalogue, ExtraCert};
use crate::factory::{CaFactory, CaSpec};
use crate::store::RootStore;
use crate::trust::AnchorSource;
use crate::vocab::AndroidVersion;
use tangled_asn1::Time;

/// Display name of the expired AOSP root (§2 of the paper).
pub const FIRMAPROFESIONAL: &str =
    "Autoridad de Certificacion Firmaprofesional CIF A62634068";

/// The reference stores of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReferenceStore {
    /// Google's AOSP distribution for Android 4.1.
    Aosp41,
    /// Google's AOSP distribution for Android 4.2.
    Aosp42,
    /// Google's AOSP distribution for Android 4.3.
    Aosp43,
    /// Google's AOSP distribution for Android 4.4.
    Aosp44,
    /// Mozilla's root store (NSS).
    Mozilla,
    /// Apple iOS 7's root store.
    Ios7,
}

impl ReferenceStore {
    /// All reference stores, AOSP releases first.
    pub const ALL: [ReferenceStore; 6] = [
        ReferenceStore::Aosp41,
        ReferenceStore::Aosp42,
        ReferenceStore::Aosp43,
        ReferenceStore::Aosp44,
        ReferenceStore::Mozilla,
        ReferenceStore::Ios7,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ReferenceStore::Aosp41 => "AOSP 4.1",
            ReferenceStore::Aosp42 => "AOSP 4.2",
            ReferenceStore::Aosp43 => "AOSP 4.3",
            ReferenceStore::Aosp44 => "AOSP 4.4",
            ReferenceStore::Mozilla => "Mozilla",
            ReferenceStore::Ios7 => "iOS 7",
        }
    }

    /// The certificate count the paper reports (Table 1).
    pub fn expected_len(self) -> usize {
        match self {
            ReferenceStore::Aosp41 => 139,
            ReferenceStore::Aosp42 => 140,
            ReferenceStore::Aosp43 => 146,
            ReferenceStore::Aosp44 => 150,
            ReferenceStore::Mozilla => 153,
            ReferenceStore::Ios7 => 227,
        }
    }

    /// The AOSP store for an Android version.
    pub fn for_version(v: AndroidVersion) -> ReferenceStore {
        match v {
            AndroidVersion::V4_1 => ReferenceStore::Aosp41,
            AndroidVersion::V4_2 => ReferenceStore::Aosp42,
            AndroidVersion::V4_3 => ReferenceStore::Aosp43,
            AndroidVersion::V4_4 => ReferenceStore::Aosp44,
        }
    }

    /// Build the store with a fresh factory. Prefer
    /// [`ReferenceStore::build_with`] when building several stores so the
    /// key cache is shared, or [`ReferenceStore::cached`] to share fully
    /// built stores process-wide.
    pub fn build(self) -> RootStore {
        self.build_with(&mut CaFactory::new())
    }

    /// A process-wide shared copy of this store, built once on first use
    /// from the [`global_factory`]. Key generation dominates store
    /// construction, so everything that only *reads* a reference store
    /// (simulators, analyses, benchmarks) should use this.
    pub fn cached(self) -> std::sync::Arc<RootStore> {
        use std::sync::{Arc, Mutex, OnceLock};
        static CACHE: OnceLock<Mutex<std::collections::HashMap<ReferenceStore, Arc<RootStore>>>> =
            OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(std::collections::HashMap::new()));
        let mut guard = cache.lock().expect("store cache poisoned");
        if let Some(store) = guard.get(&self) {
            return Arc::clone(store);
        }
        let store = {
            let mut factory = global_factory().lock().expect("factory poisoned");
            Arc::new(self.build_with(&mut factory))
        };
        guard.insert(self, Arc::clone(&store));
        store
    }

    /// Build the store using a shared factory.
    pub fn build_with(self, f: &mut CaFactory) -> RootStore {
        let store = mint_manifest(f, self.name(), &self.manifest());
        debug_assert_eq!(store.len(), self.expected_len());
        store
    }

    /// The store's anchors, in store order, before minting.
    pub(crate) fn manifest(self) -> Vec<Entry> {
        match self {
            ReferenceStore::Aosp41 => aosp_manifest(AndroidVersion::V4_1),
            ReferenceStore::Aosp42 => aosp_manifest(AndroidVersion::V4_2),
            ReferenceStore::Aosp43 => aosp_manifest(AndroidVersion::V4_3),
            ReferenceStore::Aosp44 => aosp_manifest(AndroidVersion::V4_4),
            ReferenceStore::Mozilla => mozilla_manifest(),
            ReferenceStore::Ios7 => ios7_manifest(),
        }
    }
}

/// Ecosystem store families beyond the paper's reference set.
///
/// The position paper "Certificate Root Stores: An Area of Unity or
/// Disparity?" generalises the Android-vs-Mozilla comparison to the four
/// big root programs. These profiles are synthesized with *calibrated*
/// overlap structure against the [`ReferenceStore`] set: every family
/// carries a slice of the shared web-trust core, its own exclusives, and
/// (for Java) the re-issued shared variants — so identity-overlap and
/// byte-overlap diverge across ecosystems exactly as §5.1's ablation
/// does for AOSP vs Mozilla.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EcosystemStore {
    /// Apple's desktop root program (a near-superset sibling of iOS 7).
    Apple,
    /// Microsoft's root program — the largest store of the ten.
    Microsoft,
    /// Mozilla NSS trunk — a near-clone of the reference Mozilla store.
    MozillaNss,
    /// Oracle Java `cacerts` — the smallest store of the ten.
    Java,
}

impl EcosystemStore {
    /// All ecosystem families, in canonical (epoch) order.
    pub const ALL: [EcosystemStore; 4] = [
        EcosystemStore::Apple,
        EcosystemStore::Microsoft,
        EcosystemStore::MozillaNss,
        EcosystemStore::Java,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EcosystemStore::Apple => "Apple",
            EcosystemStore::Microsoft => "Microsoft",
            EcosystemStore::MozillaNss => "Mozilla NSS",
            EcosystemStore::Java => "Java",
        }
    }

    /// The calibrated certificate count.
    pub fn expected_len(self) -> usize {
        match self {
            EcosystemStore::Apple => 213,
            EcosystemStore::Microsoft => 261,
            EcosystemStore::MozillaNss => 156,
            EcosystemStore::Java => 131,
        }
    }

    /// Build the store with a fresh factory. Prefer
    /// [`EcosystemStore::cached`] for read-only use.
    pub fn build(self) -> RootStore {
        self.build_with(&mut CaFactory::new())
    }

    /// A process-wide shared copy, built once from the [`global_factory`]
    /// (mirrors [`ReferenceStore::cached`]).
    pub fn cached(self) -> std::sync::Arc<RootStore> {
        use std::sync::{Arc, Mutex, OnceLock};
        static CACHE: OnceLock<Mutex<std::collections::HashMap<EcosystemStore, Arc<RootStore>>>> =
            OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(std::collections::HashMap::new()));
        let mut guard = cache.lock().expect("store cache poisoned");
        if let Some(store) = guard.get(&self) {
            return Arc::clone(store);
        }
        let store = {
            let mut factory = global_factory().lock().expect("factory poisoned");
            Arc::new(self.build_with(&mut factory))
        };
        guard.insert(self, Arc::clone(&store));
        store
    }

    /// Build the store using a shared factory.
    pub fn build_with(self, f: &mut CaFactory) -> RootStore {
        let store = mint_manifest(f, self.name(), &self.manifest());
        debug_assert_eq!(store.len(), self.expected_len());
        store
    }

    /// The store's anchors, in store order, before minting.
    pub(crate) fn manifest(self) -> Vec<Entry> {
        match self {
            EcosystemStore::Apple => apple_manifest(),
            EcosystemStore::Microsoft => microsoft_manifest(),
            EcosystemStore::MozillaNss => nss_manifest(),
            EcosystemStore::Java => java_manifest(),
        }
    }
}

/// Canonical name order of the ten standard profiles trustd serves and
/// the disparity engine compares: the six reference stores first (in
/// [`ReferenceStore::ALL`] order), then the four ecosystem families (in
/// [`EcosystemStore::ALL`] order). Epoch order, report row order, and
/// `compare` reply order all follow this list.
pub fn standard_store_names() -> Vec<&'static str> {
    ReferenceStore::ALL
        .into_iter()
        .map(ReferenceStore::name)
        .chain(EcosystemStore::ALL.into_iter().map(EcosystemStore::name))
        .collect()
}

/// The process-wide shared [`CaFactory`] (workspace seed, default key
/// size). Sharing it means a CA's key pair is generated exactly once per
/// process no matter how many stores or simulators need it.
pub fn global_factory() -> &'static std::sync::Mutex<CaFactory> {
    use std::sync::{Mutex, OnceLock};
    static FACTORY: OnceLock<Mutex<CaFactory>> = OnceLock::new();
    FACTORY.get_or_init(|| Mutex::new(CaFactory::new()))
}

/// Every key name the ten standard stores carry, plus the whole Figure 2
/// catalogue (which `class_index` and the simulators mint beyond the
/// stores' own extras), each once, in first-seen order. This is what a
/// server start-up prefetches with [`CaFactory::prefetch`].
pub fn standard_key_names() -> Vec<String> {
    let manifests = ReferenceStore::ALL
        .into_iter()
        .map(ReferenceStore::manifest)
        .chain(EcosystemStore::ALL.into_iter().map(EcosystemStore::manifest));
    let mut seen = std::collections::HashSet::new();
    manifests
        .flatten()
        .map(|e| e.key_name())
        .chain(catalogue().iter().map(ExtraCert::key_name))
        .filter(|name| seen.insert(name.clone()))
        .collect()
}

/// One anchor of a store manifest: what to mint, and under which key.
#[derive(Debug, Clone)]
pub(crate) enum Entry {
    /// The default root for a name (the Firmaprofesional root keeps its
    /// expired validity window).
    Root(String),
    /// The re-issued variant of a named root ([`CaFactory::reissued_root`]).
    Reissued(String),
    /// A Figure 2 extra ([`mint_extra`]).
    Extra(ExtraCert),
}

impl Entry {
    /// The factory key name the entry's certificate is signed with.
    pub(crate) fn key_name(&self) -> String {
        match self {
            Entry::Root(name) | Entry::Reissued(name) => name.clone(),
            Entry::Extra(extra) => extra.key_name(),
        }
    }

    /// Mint (or fetch from the factory cache) the entry's certificate.
    pub(crate) fn mint(&self, f: &mut CaFactory) -> std::sync::Arc<tangled_x509::Certificate> {
        match self {
            Entry::Root(name) => mint_root(f, name),
            Entry::Reissued(name) => f.reissued_root(name),
            Entry::Extra(extra) => mint_extra(f, extra),
        }
    }
}

/// A store named `name` holding a manifest's anchors, in manifest order.
fn mint_manifest(f: &mut CaFactory, name: &str, manifest: &[Entry]) -> RootStore {
    let mut store = RootStore::new(name);
    for entry in manifest {
        store.add_cert(entry.mint(f), AnchorSource::Aosp);
    }
    store
}

/// [`Entry::Root`]s named `name(i)` for each `i`.
fn roots(
    range: std::ops::RangeInclusive<usize>,
    name: fn(usize) -> String,
) -> impl Iterator<Item = Entry> {
    range.map(move |i| Entry::Root(name(i)))
}

/// [`Entry::Extra`]s for the catalogue members `pick` selects.
fn extras(pick: fn(&ExtraCert) -> bool) -> impl Iterator<Item = Entry> {
    catalogue().into_iter().filter(pick).map(Entry::Extra)
}

// --- composition constants ------------------------------------------------

/// Anchors byte-identical between AOSP 4.4 and Mozilla.
pub const SHARED_EXACT: usize = 117;
/// Anchors equivalent (same subject + modulus) but re-issued between them.
pub const SHARED_REISSUED: usize = 13;
/// Mozilla synthetic members absent from AOSP and from the extras list.
pub const MOZILLA_ONLY_SYNTHETIC: usize = 7;
/// iOS-7-only synthetic members.
pub const IOS7_ONLY_SYNTHETIC: usize = 63;
/// AOSP-only members that iOS 7 also carries.
pub const AOSP_ONLY_IN_IOS7: usize = 10;

/// Per-AOSP-version membership thresholds (stores only grow):
/// (shared-exact, shared-reissued, aosp-only) counts per release.
fn aosp_composition(v: AndroidVersion) -> (usize, usize, usize) {
    match v {
        AndroidVersion::V4_1 => (110, 11, 18), // 139
        AndroidVersion::V4_2 => (111, 11, 18), // 140
        AndroidVersion::V4_3 => (115, 12, 19), // 146
        AndroidVersion::V4_4 => (117, 13, 20), // 150
    }
}

/// Name of the i-th shared (byte-identical) anchor, 1-based.
pub fn shared_exact_name(i: usize) -> String {
    format!("Shared Web Trust Root CA {i:03}")
}

/// Name of the i-th shared re-issued anchor, 1-based.
pub fn shared_reissued_name(i: usize) -> String {
    format!("Reissued Web Trust Root CA {i:02}")
}

/// Name of the i-th AOSP-only anchor, 1-based. Index 1 is the expired
/// Firmaprofesional root.
pub fn aosp_only_name(i: usize) -> String {
    if i == 1 {
        FIRMAPROFESIONAL.to_owned()
    } else {
        format!("AOSP Regional Root CA {i:02}")
    }
}

/// Name of the i-th Mozilla-only synthetic anchor, 1-based.
pub fn mozilla_only_name(i: usize) -> String {
    format!("Mozilla Program Root CA {i:02}")
}

/// Name of the i-th iOS-7-only synthetic anchor, 1-based.
pub fn ios7_only_name(i: usize) -> String {
    format!("Apple Partner Root CA {i:02}")
}

fn mint_root(f: &mut CaFactory, name: &str) -> std::sync::Arc<tangled_x509::Certificate> {
    if name == FIRMAPROFESIONAL {
        // The expired root the paper calls out: expired Oct. 2013, still in
        // AOSP 4.4.
        let mut spec = CaSpec::named(name);
        spec.not_before = Time::date(2001, 10, 24).expect("valid date");
        spec.not_after = Time::date(2013, 10, 24).expect("valid date");
        f.root_with_spec(name, &spec).expect("spec is valid")
    } else {
        f.root(name)
    }
}

fn aosp_manifest(v: AndroidVersion) -> Vec<Entry> {
    let (n_exact, n_reissued, n_only) = aosp_composition(v);
    roots(1..=n_exact, shared_exact_name)
        // AOSP carries the *re-issued* variant; Mozilla the original.
        .chain((1..=n_reissued).map(|i| Entry::Reissued(shared_reissued_name(i))))
        .chain(roots(1..=n_only, aosp_only_name))
        .collect()
}

fn mozilla_manifest() -> Vec<Entry> {
    roots(1..=SHARED_EXACT, shared_exact_name)
        // The original issue — byte-unequal to AOSP's copy, same identity.
        .chain(roots(1..=SHARED_REISSUED, shared_reissued_name))
        // The 16 Figure 2 extras that are Mozilla members.
        .chain(extras(|e| e.in_mozilla))
        .chain(roots(1..=MOZILLA_ONLY_SYNTHETIC, mozilla_only_name))
        .collect()
}

fn ios7_manifest() -> Vec<Entry> {
    roots(1..=SHARED_EXACT, shared_exact_name)
        .chain(roots(1..=SHARED_REISSUED, shared_reissued_name))
        // iOS 7 carries some of the AOSP-only regional roots too, but not
        // the expired Firmaprofesional (index 1) — Apple dropped it.
        .chain(roots(2..=AOSP_ONLY_IN_IOS7 + 1, aosp_only_name))
        // The 24 Figure 2 extras that are iOS 7 members (incl. DoD CLASS 3).
        .chain(extras(|e| e.in_ios7))
        .chain(roots(1..=IOS7_ONLY_SYNTHETIC, ios7_only_name))
        .collect()
}

// --- ecosystem family compositions ---------------------------------------
//
// Calibration at a glance (identity overlap with the shared core):
//
//   Apple      = 117 exact + 13 orig + 10 aosp-only + 24 iOS extras
//                + 40 Apple partner + 9 exclusives            = 213
//   Microsoft  = 117 exact + 13 orig + 9 aosp-only + 7 Mozilla program
//                + 16 Mozilla extras + 99 exclusives          = 261
//   MozillaNss = 115 exact + 13 orig + 16 Mozilla extras
//                + 7 Mozilla program + 5 exclusives           = 156
//   Java       = 100 exact + 13 *re-issued* + 18 exclusives   = 131

/// How many of the iOS-7 partner roots Apple's desktop program shares.
pub const APPLE_PARTNER_SHARED: usize = 40;
/// Apple-desktop-only synthetic members.
pub const APPLE_ONLY_SYNTHETIC: usize = 9;
/// Microsoft-only synthetic members.
pub const MICROSOFT_ONLY_SYNTHETIC: usize = 99;
/// Shared-core prefix NSS trunk carries (two fewer than release Mozilla).
pub const NSS_SHARED_EXACT: usize = 115;
/// NSS-trunk-only synthetic members.
pub const NSS_ONLY_SYNTHETIC: usize = 5;
/// Shared-core prefix Java `cacerts` carries.
pub const JAVA_SHARED_EXACT: usize = 100;
/// Java-only synthetic members.
pub const JAVA_ONLY_SYNTHETIC: usize = 18;

/// Name of the i-th Apple-desktop-only synthetic anchor, 1-based.
pub fn apple_only_name(i: usize) -> String {
    format!("Apple Desktop Root CA {i:02}")
}

/// Name of the i-th Microsoft-only synthetic anchor, 1-based.
pub fn microsoft_only_name(i: usize) -> String {
    format!("Microsoft Trust Root CA {i:02}")
}

/// Name of the i-th NSS-trunk-only synthetic anchor, 1-based.
pub fn nss_only_name(i: usize) -> String {
    format!("NSS Builtin Object Token CA {i:02}")
}

/// Name of the i-th Java-only synthetic anchor, 1-based.
pub fn java_only_name(i: usize) -> String {
    format!("Java SE Cacerts Root CA {i:02}")
}

fn apple_manifest() -> Vec<Entry> {
    roots(1..=SHARED_EXACT, shared_exact_name)
        // Desktop ships the original issue, like iOS 7.
        .chain(roots(1..=SHARED_REISSUED, shared_reissued_name))
        // Same regional roots iOS 7 carries (Firmaprofesional dropped).
        .chain(roots(2..=AOSP_ONLY_IN_IOS7 + 1, aosp_only_name))
        .chain(extras(|e| e.in_ios7))
        .chain(roots(1..=APPLE_PARTNER_SHARED, ios7_only_name))
        .chain(roots(1..=APPLE_ONLY_SYNTHETIC, apple_only_name))
        .collect()
}

fn microsoft_manifest() -> Vec<Entry> {
    roots(1..=SHARED_EXACT, shared_exact_name)
        .chain(roots(1..=SHARED_REISSUED, shared_reissued_name))
        // One fewer regional root than Apple/iOS carry.
        .chain(roots(2..=AOSP_ONLY_IN_IOS7, aosp_only_name))
        .chain(roots(1..=MOZILLA_ONLY_SYNTHETIC, mozilla_only_name))
        .chain(extras(|e| e.in_mozilla))
        .chain(roots(1..=MICROSOFT_ONLY_SYNTHETIC, microsoft_only_name))
        .collect()
}

fn nss_manifest() -> Vec<Entry> {
    // Trunk trails the release store by two core anchors and carries a
    // handful of not-yet-released builtins — a near-clone of "Mozilla"
    // with a distinct anchor set (the §5.2 shape, across ecosystems).
    roots(1..=NSS_SHARED_EXACT, shared_exact_name)
        .chain(roots(1..=SHARED_REISSUED, shared_reissued_name))
        .chain(extras(|e| e.in_mozilla))
        .chain(roots(1..=MOZILLA_ONLY_SYNTHETIC, mozilla_only_name))
        .chain(roots(1..=NSS_ONLY_SYNTHETIC, nss_only_name))
        .collect()
}

fn java_manifest() -> Vec<Entry> {
    roots(1..=JAVA_SHARED_EXACT, shared_exact_name)
        // cacerts ships the *re-issued* variant like AOSP: identity-equal
        // to the originals, byte-unequal — cross-ecosystem §5.1 ablation.
        .chain((1..=SHARED_REISSUED).map(|i| Entry::Reissued(shared_reissued_name(i))))
        .chain(roots(1..=JAVA_ONLY_SYNTHETIC, java_only_name))
        .collect()
}

/// A §5.2 "+unusual" near-clone: same display name as `base`, same
/// anchors, plus `extra` unusual roots. Diffing machinery must key on
/// content — two stores sharing a name are *not* the same store.
pub fn unusual_clone(f: &mut CaFactory, base: &RootStore, extra: usize) -> RootStore {
    let mut clone = base.cloned_as(base.name());
    for i in 1..=extra {
        clone.add_cert(
            mint_root(f, &format!("{} Unusual Root CA {i:02}", base.name())),
            AnchorSource::Manufacturer,
        );
    }
    clone
}

/// Mint the certificate for a Figure 2 extra. The subject carries the
/// paper's hint as an OU so duplicate display names stay distinct.
pub fn mint_extra(
    f: &mut CaFactory,
    extra: &ExtraCert,
) -> std::sync::Arc<tangled_x509::Certificate> {
    let key = extra.key_name();
    let mut spec = CaSpec::named(extra.name);
    spec.subject = tangled_x509::DistinguishedName::builder()
        .common_name(extra.name)
        .organizational_unit(extra.hint)
        .build();
    f.root_with_spec(&key, &spec).expect("spec is valid")
}

/// Build the "aggregated Android" universe of Table 4: the AOSP 4.4 store
/// plus every wild extra that is in neither AOSP nor Mozilla
/// (150 + 85 ≈ the paper's 235; ours is 150 + 88 = 238 because the Figure 2
/// axis carries 88 such certificates — see EXPERIMENTS.md).
pub fn aggregated_android(f: &mut CaFactory) -> RootStore {
    let mut store = ReferenceStore::Aosp44
        .build_with(f)
        .cloned_as("Aggregated Android");
    for extra in catalogue().iter().filter(|e| !e.in_mozilla) {
        store.add_cert(mint_extra(f, extra), AnchorSource::Manufacturer);
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{diff, distinct_count, IdentityMode};

    #[test]
    fn table1_cardinalities() {
        for rs in ReferenceStore::ALL {
            let store = rs.cached();
            assert_eq!(store.len(), rs.expected_len(), "{}", rs.name());
        }
    }

    #[test]
    fn aosp_stores_only_grow() {
        let stores: Vec<_> = AndroidVersion::ALL
            .iter()
            .map(|&v| ReferenceStore::for_version(v).cached())
            .collect();
        for w in stores.windows(2) {
            let d = diff(&w[0], &w[1]);
            assert!(d.removed.is_empty(), "AOSP releases never drop anchors");
            assert!(!d.added.is_empty(), "each release adds anchors");
        }
    }

    #[test]
    fn aosp44_mozilla_overlap_is_130_equivalent_117_exact() {
        let aosp = ReferenceStore::Aosp44.cached();
        let mozilla = ReferenceStore::Mozilla.cached();

        // Paper-identity overlap (subject + modulus): 130 (Table 4).
        let d = diff(&mozilla, &aosp);
        assert_eq!(d.common.len(), 130);

        // Byte-identical overlap: 117 (§2's "117 of AOSP 4.4's 150").
        let aosp_hashes: std::collections::HashSet<[u8; 32]> = aosp
            .iter()
            .map(|a| a.cert.fingerprint_sha256())
            .collect();
        let exact = mozilla
            .iter()
            .filter(|a| aosp_hashes.contains(&a.cert.fingerprint_sha256()))
            .count();
        assert_eq!(exact, 117);
    }

    #[test]
    fn firmaprofesional_expired_but_present() {
        let aosp = ReferenceStore::Aosp44.cached();
        let study = Time::date(2014, 2, 1).unwrap();
        let expired: Vec<_> = aosp
            .iter()
            .filter(|a| a.cert.is_expired_at(study))
            .collect();
        assert_eq!(expired.len(), 1, "exactly one expired AOSP anchor");
        assert!(expired[0]
            .cert
            .subject
            .to_string()
            .contains("Firmaprofesional"));
        // All four AOSP releases carry it.
        for v in AndroidVersion::ALL {
            let s = ReferenceStore::for_version(v).cached();
            assert!(
                s.iter().any(|a| a.cert.is_expired_at(study)),
                "{} carries the expired root",
                v.label()
            );
        }
        // Mozilla and iOS 7 do not.
        for rs in [ReferenceStore::Mozilla, ReferenceStore::Ios7] {
            let s = rs.cached();
            assert!(s.iter().all(|a| !a.cert.is_expired_at(study)));
        }
    }

    #[test]
    fn ios7_is_largest_and_contains_dod() {
        let ios = ReferenceStore::Ios7.cached();
        for rs in ReferenceStore::ALL {
            assert!(ios.len() >= rs.expected_len());
        }
        assert!(ios
            .iter()
            .any(|a| a.cert.subject.to_string().contains("DoD CLASS 3")));
        // Mozilla does not carry DoD (Intranet CA footnote).
        let moz = ReferenceStore::Mozilla.cached();
        assert!(!moz
            .iter()
            .any(|a| a.cert.subject.to_string().contains("DoD CLASS 3")));
    }

    #[test]
    fn aggregated_android_size() {
        let mut f = global_factory().lock().unwrap();
        let agg = aggregated_android(&mut f);
        // 150 AOSP 4.4 + 88 extras outside Mozilla (paper: 235; the Figure 2
        // axis yields 88 rather than 85 such extras).
        assert_eq!(agg.len(), 238);
    }

    #[test]
    fn stores_are_reproducible() {
        // Fresh factories on purpose: proves bit-stability across factories.
        let a = ReferenceStore::Aosp41.build();
        let b = ReferenceStore::Aosp41.build();
        assert_eq!(a.identities(), b.identities());
        let ha: Vec<_> = a.iter().map(|x| x.cert.fingerprint_sha256()).collect();
        let hb: Vec<_> = b.iter().map(|x| x.cert.fingerprint_sha256()).collect();
        assert_eq!(ha, hb);
    }

    #[test]
    fn ecosystem_cardinalities() {
        for es in EcosystemStore::ALL {
            let store = es.cached();
            assert_eq!(store.len(), es.expected_len(), "{}", es.name());
        }
    }

    #[test]
    fn microsoft_largest_java_smallest() {
        let ms = EcosystemStore::Microsoft.cached();
        let java = EcosystemStore::Java.cached();
        for rs in ReferenceStore::ALL {
            assert!(ms.len() > rs.cached().len());
            assert!(java.len() < rs.cached().len());
        }
        for es in EcosystemStore::ALL {
            assert!(ms.len() >= es.cached().len());
            assert!(java.len() <= es.cached().len());
        }
    }

    #[test]
    fn ecosystem_overlap_calibration() {
        // Apple shares iOS 7's core, extras, regional roots, and 40 of
        // the partner roots: 117 + 13 + 10 + 24 + 40 = 204 identities.
        let apple = EcosystemStore::Apple.cached();
        let ios = ReferenceStore::Ios7.cached();
        assert_eq!(diff(&apple, &ios).common.len(), 204);

        // NSS trunk is a near-clone of release Mozilla: 115 + 13 + 16 + 7
        // = 151 shared identities out of 153 / 156.
        let nss = EcosystemStore::MozillaNss.cached();
        let moz = ReferenceStore::Mozilla.cached();
        let d = diff(&moz, &nss);
        assert_eq!(d.common.len(), 151);
        assert_eq!(d.removed.len(), 2, "release-only core anchors");
        assert_eq!(d.added.len(), 5, "trunk-only builtins");

        // Java overlaps Mozilla only through the shared core: 100 exact
        // + 13 re-issued (identity-equal, byte-unequal) = 113.
        let java = EcosystemStore::Java.cached();
        assert_eq!(diff(&java, &moz).common.len(), 113);
        let all: Vec<_> = java
            .iter()
            .chain(moz.iter())
            .map(|a| a.cert.as_ref().clone())
            .collect();
        // Byte identity splits the 13 re-issued pairs apart again.
        let by_identity = distinct_count(all.iter(), IdentityMode::SubjectAndModulus);
        let by_bytes = distinct_count(all.iter(), IdentityMode::ByteHash);
        assert_eq!(by_bytes, by_identity + 13);
    }

    #[test]
    fn every_family_has_exclusives() {
        // Each ecosystem family keeps members no other standard store
        // carries, so no store is a subset of the union of the others.
        let stores: Vec<_> = ReferenceStore::ALL
            .iter()
            .map(|rs| rs.cached())
            .chain(EcosystemStore::ALL.iter().map(|es| es.cached()))
            .collect();
        assert_eq!(standard_store_names().len(), stores.len());
        for es in EcosystemStore::ALL {
            let own = es.cached();
            let others: std::collections::HashSet<_> = stores
                .iter()
                .filter(|s| s.name() != es.name())
                .flat_map(|s| s.identities().iter().cloned())
                .collect();
            let exclusive = own
                .identities()
                .iter()
                .filter(|id| !others.contains(id))
                .count();
            assert!(exclusive > 0, "{} has no exclusives", es.name());
        }
    }

    #[test]
    fn unusual_clone_shares_name_not_content() {
        let base = EcosystemStore::Java.cached();
        let mut f = global_factory().lock().unwrap();
        let clone = unusual_clone(&mut f, &base, 2);
        assert_eq!(clone.name(), base.name(), "display names collide");
        let d = diff(&base, &clone);
        assert_eq!(d.added.len(), 2, "the unusual roots");
        assert!(d.removed.is_empty());
        assert_eq!(d.common.len(), base.len());
    }

    #[test]
    fn ecosystem_stores_are_reproducible() {
        let a = EcosystemStore::Microsoft.build();
        let b = EcosystemStore::Microsoft.build();
        assert_eq!(a.identities(), b.identities());
        let ha: Vec<_> = a.iter().map(|x| x.cert.fingerprint_sha256()).collect();
        let hb: Vec<_> = b.iter().map(|x| x.cert.fingerprint_sha256()).collect();
        assert_eq!(ha, hb);
    }

    #[test]
    fn reissued_members_diverge_in_bytes_only() {
        let aosp = ReferenceStore::Aosp44.cached();
        let moz = ReferenceStore::Mozilla.cached();
        // Under byte identity the stores share fewer members than under
        // the paper's identity — the DESIGN.md §5.1 ablation in miniature.
        let all: Vec<_> = aosp
            .iter()
            .chain(moz.iter())
            .map(|a| a.cert.as_ref().clone())
            .collect();
        let by_bytes = distinct_count(all.iter(), IdentityMode::ByteHash);
        let by_identity = distinct_count(all.iter(), IdentityMode::SubjectAndModulus);
        assert_eq!(by_identity, 150 + 153 - 130);
        assert_eq!(by_bytes, 150 + 153 - 117);
    }
}
