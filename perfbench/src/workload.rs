//! The served workloads: seeded request streams and their expected
//! replies.

use tangled_mass::crypto::SplitMix64;
use tangled_mass::pki::stores::ReferenceStore;
use tangled_mass::trustd::replay::{compare_queries, population, queries};
use tangled_mass::trustd::{
    canonical, verdict_fingerprint, ReplaySpec, Request, TrustService, DEFAULT_CACHE_CAPACITY,
};

/// Sessions each stream is drawn from. At this scale the Notary corpus
/// holds 1,799 chains, so `compare` needs 17,990 memo keys — more than
/// [`DEFAULT_CACHE_CAPACITY`] (4,096).
pub const SESSIONS: usize = 2000;

/// `mixed-swap` inserts one `swap` after every this many requests.
pub const SWAP_STRIDE: usize = 200;

/// The AOSP profiles the mixed stream validates against; swaps rotate
/// over them.
const SWAPPED: [ReferenceStore; 4] = [
    ReferenceStore::Aosp41,
    ReferenceStore::Aosp42,
    ReferenceStore::Aosp43,
    ReferenceStore::Aosp44,
];

/// A served workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `validate` only, memo hits after warm-up.
    ValidateHot,
    /// `compare` over the Notary corpus, memo misses by construction.
    CompareMiss,
    /// The full mixed mix plus identical-content `swap`s, journalled.
    MixedSwap,
}

impl Workload {
    /// Every workload the benchmark runs. `BENCHMARK.json` gates
    /// `validate-hot` and `mixed-swap`; `compare-miss` runs on request.
    pub const ALL: [Workload; 3] = [
        Workload::ValidateHot,
        Workload::CompareMiss,
        Workload::MixedSwap,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ValidateHot => "validate-hot",
            Workload::CompareMiss => "compare-miss",
            Workload::MixedSwap => "mixed-swap",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fixed open-loop send rate in requests per second: about a
    /// quarter of the closed-loop `req_per_s` measured on a 2-vCPU x86-64
    /// VM, low enough that the queue stays short when the host's CPU
    /// speed dips. The same rate applies to every commit compared.
    pub fn open_rate(self) -> f64 {
        match self {
            Workload::ValidateHot => 5000.0,
            Workload::CompareMiss => 450.0,
            Workload::MixedSwap => 300.0,
        }
    }

    /// Does the server run with a swap journal?
    pub fn journaled(self) -> bool {
        self == Workload::MixedSwap
    }

    /// The request stream for `seed`. The same seed always gives the
    /// same requests in the same order.
    pub fn requests(self, seed: u64) -> Vec<Request> {
        let spec = ReplaySpec::new(seed, SESSIONS);
        match self {
            Workload::ValidateHot => queries(&population(&spec), &spec)
                .into_iter()
                .filter(|r| matches!(r, Request::Validate { .. }))
                .collect(),
            Workload::CompareMiss => {
                let mut reqs = compare_queries(&spec);
                shuffle(&mut reqs, seed);
                reqs
            }
            Workload::MixedSwap => {
                let mut out = Vec::new();
                let mut swaps = 0usize;
                for (i, req) in queries(&population(&spec), &spec).into_iter().enumerate() {
                    if i > 0 && i % SWAP_STRIDE == 0 {
                        let store = SWAPPED[swaps % SWAPPED.len()];
                        swaps += 1;
                        out.push(Request::Swap {
                            profile: store.name().to_owned(),
                            snapshot: store.cached().snapshot(),
                        });
                    }
                    out.push(req);
                }
                out
            }
        }
    }
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// A length-prefixed wire frame holding `body`.
pub fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 4);
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(body);
    out
}

/// A workload's inputs, ready before any server starts.
pub struct Inputs {
    /// The request stream.
    pub requests: Vec<Request>,
    /// Each request as a wire frame.
    pub frames: Vec<Vec<u8>>,
    /// The offline oracle's canonical reply per request.
    pub expected: Vec<String>,
    /// [`verdict_fingerprint`] over `expected`.
    pub fingerprint: u64,
}

impl Inputs {
    /// Generate the stream and answer it offline through a local
    /// [`TrustService`] — the same function the server runs.
    pub fn prepare(workload: Workload, seed: u64) -> Inputs {
        let requests = workload.requests(seed);
        let frames = requests.iter().map(|r| frame(&r.encode())).collect();
        let service = TrustService::new(DEFAULT_CACHE_CAPACITY);
        let expected: Vec<String> = requests
            .iter()
            .map(|r| canonical(&service.handle(r)))
            .collect();
        let fingerprint = verdict_fingerprint(&expected);
        Inputs {
            requests,
            frames,
            expected,
            fingerprint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_requests() {
        for w in Workload::ALL {
            let a: Vec<Vec<u8>> = w.requests(11).iter().map(Request::encode).collect();
            let b: Vec<Vec<u8>> = w.requests(11).iter().map(Request::encode).collect();
            assert!(!a.is_empty(), "{}", w.name());
            assert!(a == b, "{} differs between two runs of one seed", w.name());
        }
    }

    #[test]
    fn seeds_change_the_stream() {
        for w in Workload::ALL {
            let a: Vec<Vec<u8>> = w.requests(1).iter().map(Request::encode).collect();
            let b: Vec<Vec<u8>> = w.requests(2).iter().map(Request::encode).collect();
            assert!(a != b, "{} ignores its seed", w.name());
        }
    }

    #[test]
    fn streams_have_their_shape() {
        let hot = Workload::ValidateHot.requests(3);
        assert!(hot.iter().all(|r| matches!(r, Request::Validate { .. })));
        let miss = Workload::CompareMiss.requests(3);
        assert!(miss.iter().all(|r| matches!(r, Request::Compare { .. })));
        assert!(
            miss.len() * 10 > DEFAULT_CACHE_CAPACITY,
            "compare keys must overflow the memo"
        );
        let mixed = Workload::MixedSwap.requests(3);
        let swaps = mixed
            .iter()
            .filter(|r| matches!(r, Request::Swap { .. }))
            .count();
        let original = mixed.len() - swaps;
        assert_eq!(swaps, (original - 1) / SWAP_STRIDE);
        for kind in ["validate", "classify", "audit", "probe", "swap"] {
            assert!(
                mixed.iter().any(|r| r.kind() == kind),
                "mixed-swap lacks {kind}"
            );
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("study"), None);
    }
}
