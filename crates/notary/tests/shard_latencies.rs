//! The validation build records exactly one `notary.validate.shard_us`
//! sample per shard. The histogram is process-wide, so this test lives in
//! its own binary: no other build can record into it while it runs.

use tangled_exec::fixed_shard_count;
use tangled_notary::ecosystem::{Ecosystem, EcosystemSpec};
use tangled_notary::validate::ValidationIndex;

#[test]
fn shard_latencies_cover_every_shard() {
    let eco = Ecosystem::generate(&EcosystemSpec::scaled(0.02));
    let hist = tangled_obs::registry().hist("notary.validate.shard_us");
    let before = hist.count();
    let idx = ValidationIndex::build(&eco);
    assert_eq!(
        hist.count() - before,
        fixed_shard_count(eco.certs.len()) as u64
    );
    assert!(idx.validated_total() > 0);
}
