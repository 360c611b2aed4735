//! Key-material golden: every CA key, certificate and signature the
//! standard stores and the Table 6 origin chains carry, pinned as one
//! digest. Any change to key generation, prime search, signing or the
//! store manifests that moves a single byte fails here.

use tangled_mass::crypto::sha256::{hex, Sha256};
use tangled_mass::intercept::origin::OriginServers;
use tangled_mass::intercept::{Target, INTERCEPTED_DOMAINS, WHITELISTED_DOMAINS};
use tangled_mass::pki::stores::{EcosystemStore, ReferenceStore};

/// sha256 over the DER of the ten standard stores (canonical order,
/// anchors in store order) followed by the Table 6 origin chains (probe
/// list order, leaf first).
const KEY_MATERIAL_SHA256: &str =
    "26b6c6222c16eefc03763deccf77ccd5f7b6a1f8299b43eb850e823c3161f7ba";

#[test]
fn standard_stores_and_origin_chains_are_byte_identical() {
    let mut h = Sha256::new();
    let stores = ReferenceStore::ALL
        .into_iter()
        .map(ReferenceStore::cached)
        .chain(EcosystemStore::ALL.into_iter().map(EcosystemStore::cached));
    for store in stores {
        for anchor in store.iter() {
            h.update(anchor.cert.to_der());
        }
    }
    let origin = OriginServers::for_table6();
    for domain in INTERCEPTED_DOMAINS.iter().chain(&WHITELISTED_DOMAINS) {
        let target = Target::parse(domain).expect("probe list parses");
        for cert in origin.chain(&target).expect("every target is served") {
            h.update(cert.to_der());
        }
    }
    assert_eq!(hex(&h.finalize()), KEY_MATERIAL_SHA256);
}
