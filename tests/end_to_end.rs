//! Integration: cross-crate scenarios exercising the full stack — DER
//! bytes on disk, store tampering, chain validation, and interception.

use std::sync::Arc;
use tangled_mass::intercept::detect::{probe, probe_all};
use tangled_mass::intercept::origin::OriginServers;
use tangled_mass::intercept::{MitmProxy, Target, Verdict};
use tangled_mass::pki::cacerts::{from_cacerts_lenient, subject_hash, to_cacerts_pem, CacertsFile};
use tangled_mass::pki::diff::diff;
use tangled_mass::pki::stores::{global_factory, ReferenceStore};
use tangled_mass::pki::trust::AnchorSource;
use tangled_mass::x509::{Certificate, ChainOptions};

/// The §6 attack end to end at the byte level: a root app writes a rogue
/// certificate file into the cacerts directory; a later audit re-reads the
/// directory, diffs against the expected AOSP distribution, flags the
/// addition, and shows the rogue root now anchors arbitrary chains.
#[test]
fn rooted_tampering_full_cycle() {
    let aosp = ReferenceStore::Aosp44.cached();
    let mut files = to_cacerts_pem(&aosp);

    // The Freedom app (root permissions) drops its CA into the directory.
    let (mal_root, mal_leaf) = {
        let mut f = global_factory().lock().unwrap();
        let root = f.root("CRAZY HOUSE");
        let leaf = f
            .leaf("CRAZY HOUSE", &root, "play.google.com", 666)
            .unwrap();
        (root, leaf)
    };
    files.push(CacertsFile {
        name: format!("{}.0", subject_hash(&mal_root)),
        der: mal_root.to_der().to_vec(),
    });

    // Audit: re-read the directory and diff against the distribution.
    let (observed, quarantined) = from_cacerts_lenient("device", &files, AnchorSource::Unknown);
    assert!(quarantined.is_empty(), "quarantined: {quarantined:?}");
    let d = diff(&aosp, &observed);
    assert_eq!(d.added.len(), 1);
    assert!(d.added[0].subject.contains("CRAZY HOUSE"));

    // Consequence: the tampered store now validates a forged Google leaf.
    let tampered = observed.verifier();
    let opts = ChainOptions::at(tangled_mass::intercept::study_time());
    let chain = tampered
        .verify(&mal_leaf, opts)
        .expect("rogue chain anchors");
    assert!(chain.anchor().subject.to_string().contains("CRAZY HOUSE"));

    // The stock store rejects the same leaf.
    assert!(aosp.verifier().verify(&mal_leaf, opts).is_err());
}

/// Certificates survive a full serialize → reparse cycle with identical
/// semantics (the Netalyzr methodology depends on DER being canonical).
#[test]
fn der_round_trip_preserves_semantics() {
    let aosp = ReferenceStore::Aosp41.cached();
    for anchor in aosp.iter().take(25) {
        let reparsed = Certificate::parse(anchor.cert.to_der()).unwrap();
        assert_eq!(reparsed, *anchor.cert);
        assert_eq!(reparsed.identity(), anchor.identity());
        assert_eq!(
            reparsed.fingerprint_sha256(),
            anchor.cert.fingerprint_sha256()
        );
    }
}

/// A user disabling an anchor in system settings stops it from anchoring
/// chains but keeps it listed — Android's disable semantics.
#[test]
fn disabled_anchor_semantics() {
    let origin = OriginServers::for_table6();
    let mut store = ReferenceStore::Aosp44.cached().cloned_as("user-tuned");
    let expected = origin.issuer_identity();
    let target = Target::parse("www.hsbc.com:443").unwrap();
    let chain = origin.chain(&target).unwrap().to_vec();

    // Clean before.
    let r = probe(&target, &chain, &store, &expected, false);
    assert_eq!(r.verdict, Verdict::Clean);

    // Disable the issuing CA.
    assert!(store.disable(&expected));
    assert_eq!(store.len(), ReferenceStore::Aosp44.cached().len());
    let r = probe(&target, &chain, &store, &expected, false);
    assert!(matches!(r.verdict, Verdict::UntrustedChain { .. }));

    // Re-enable restores trust.
    assert!(store.enable(&expected));
    let r = probe(&target, &chain, &store, &expected, false);
    assert_eq!(r.verdict, Verdict::Clean);
}

/// The two §7 detection paths agree with the §6 threat model: without the
/// proxy root the interception is loud; with it, only anchor comparison or
/// pinning catches it.
#[test]
fn interception_detection_matrix() {
    let origin = OriginServers::for_table6();
    let stock = ReferenceStore::Aosp44.cached().cloned_as("stock");

    // No proxy at all: everything clean.
    let mut transparent = MitmProxy::new(
        tangled_mass::intercept::ProxyPolicy::transparent(),
        1,
    )
    .unwrap();
    let reports = probe_all(&mut transparent, &origin, &stock, &[]).unwrap();
    assert!(reports.iter().all(|r| r.verdict == Verdict::Clean));

    // Reality Mine proxy: exactly the 12 intercepted endpoints flagged.
    let mut proxy = MitmProxy::reality_mine().unwrap();
    let reports = probe_all(&mut proxy, &origin, &stock, &[]).unwrap();
    assert_eq!(
        reports.iter().filter(|r| r.verdict.is_interception()).count(),
        12
    );

    // Proxy root installed: naive check goes quiet, anchors disagree.
    let mut rooted = stock.cloned_as("rooted");
    rooted.add_cert(Arc::clone(proxy.root_cert()), AnchorSource::RootApp);
    let mut proxy2 = MitmProxy::reality_mine().unwrap();
    let reports = probe_all(&mut proxy2, &origin, &rooted, &[]).unwrap();
    assert_eq!(
        reports
            .iter()
            .filter(|r| matches!(r.verdict, Verdict::UntrustedChain { .. }))
            .count(),
        0,
        "installed root silences the untrusted-chain signal"
    );
    assert_eq!(
        reports
            .iter()
            .filter(|r| matches!(r.verdict, Verdict::UnexpectedAnchor { .. }))
            .count(),
        12
    );
}

/// Platform key blacklisting (Android 4.4's fraudulent-certificate
/// protection, §2) defeats the installed-proxy-root attack that plain
/// store checks miss.
#[test]
fn platform_blacklist_beats_installed_proxy_root() {
    let origin = OriginServers::for_table6();
    let mut proxy = MitmProxy::reality_mine().unwrap();
    let mut rooted = ReferenceStore::Aosp44.cached().cloned_as("rooted");
    rooted.add_cert(Arc::clone(proxy.root_cert()), AnchorSource::RootApp);

    let target = Target::parse("gmail.com:443").unwrap();
    let chain = proxy.serve(&target, &origin).unwrap();
    let opts = ChainOptions::at(tangled_mass::intercept::study_time());

    // Without the blacklist, the tampered store anchors the forged chain.
    let mut verifier = rooted.verifier();
    assert!(verifier.verify_chain(&chain[0], &chain[1..], opts).is_ok());

    // With the proxy root's key blacklisted, validation fails everywhere
    // the key appears, even though the store still trusts the anchor.
    verifier.blacklist_key(&proxy.root_cert().public_key);
    assert_eq!(
        verifier.verify_chain(&chain[0], &chain[1..], opts).unwrap_err(),
        tangled_mass::x509::ChainError::Blacklisted
    );

    // Legitimate chains are untouched by the blacklist.
    let clean_target = Target::parse("www.facebook.com:443").unwrap();
    let clean = origin.chain(&clean_target).unwrap();
    assert!(verifier.verify_chain(&clean[0], &clean[1..], opts).is_ok());
}

/// Firmware images share store allocations between devices, and device
/// stores always contain their version's full AOSP set unless the user
/// removed anchors.
#[test]
fn population_store_invariants() {
    let pop = tangled_mass::netalyzr::Population::generate(
        &tangled_mass::netalyzr::PopulationSpec::scaled(0.2),
    );
    for d in &pop.devices {
        let expected = d.os_version.aosp_store_size();
        let aosp_count = d.aosp_cert_count();
        if d.is_missing_aosp_certs() {
            assert!(aosp_count < expected);
            assert!(aosp_count + 2 >= expected, "at most two removals");
        } else {
            assert_eq!(aosp_count, expected, "device {:?}", d.id);
        }
        // Additions never shadow AOSP anchors (identity-keyed stores).
        assert_eq!(d.store.len(), aosp_count + d.additional_count());
    }
}
