//! Property tests for the sharded validation build.
//!
//! The claim of the parallel execution layer is that sharding is
//! *unobservable* in results: the build on a pool of any width must agree
//! with the one-thread build, which runs the plain sequential loop, on any
//! ecosystem. Ecosystem generation is expensive, so the case count is
//! small; each case varies the RNG seed and the pool width.

use proptest::prelude::*;
use tangled_exec::ExecPool;
use tangled_notary::ecosystem::{Ecosystem, EcosystemSpec};
use tangled_notary::validate::ValidationIndex;
use tangled_pki::stores::ReferenceStore;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn sharded_build_agrees_at_every_pool_width(
        seed_offset in 0u64..4,
        width in 2usize..8,
    ) {
        let spec = EcosystemSpec {
            seed: 66_000_000 + seed_offset,
            scale: 0.01,
        };
        let eco = Ecosystem::generate(&spec);
        let wide = ValidationIndex::build_with_pool(&eco, &ExecPool::with_threads(width));
        let seq = ValidationIndex::build_with_pool(&eco, &ExecPool::with_threads(1));
        prop_assert_eq!(wide.validated_total(), seq.validated_total());
        prop_assert_eq!(wide.total_non_expired(), seq.total_non_expired());
        prop_assert_eq!(wide.total_sessions(), seq.total_sessions());
        prop_assert_eq!(wide.per_root(), seq.per_root());
        prop_assert_eq!(wide.per_root_sessions(), seq.per_root_sessions());
        for rs in ReferenceStore::ALL {
            let store = rs.cached();
            prop_assert_eq!(wide.store_count(&store), seq.store_count(&store));
        }
    }
}
