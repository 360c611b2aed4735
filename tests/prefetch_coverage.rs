//! The start-up key prefetch names every key the ten standard stores and
//! the Figure 2 class index need, so after it nothing mints a key.
//!
//! This binary holds one test on purpose: it counts the keys in the
//! process-wide CA factory, which a concurrent test would disturb.

use tangled_mass::analysis::classify::class_index;
use tangled_mass::pki::stores::{
    global_factory, standard_key_names, EcosystemStore, ReferenceStore,
};

#[test]
fn prefetched_names_cover_the_stores_and_class_index() {
    let cached_keys = || {
        global_factory()
            .lock()
            .expect("factory poisoned")
            .cached_keys()
    };
    assert_eq!(cached_keys(), 0, "the factory starts empty");
    global_factory()
        .lock()
        .expect("factory poisoned")
        .prefetch(&standard_key_names());
    let prefetched = cached_keys();
    assert!(prefetched > 0);
    for rs in ReferenceStore::ALL {
        rs.cached();
    }
    for es in EcosystemStore::ALL {
        es.cached();
    }
    class_index();
    assert_eq!(
        cached_keys(),
        prefetched,
        "a store or class_index minted a key"
    );
}
