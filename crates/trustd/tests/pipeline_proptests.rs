//! Property tests for the event core's pipelining contract.
//!
//! A client may write any number of frames — valid requests, garbage
//! bodies, even oversized frames — before reading a single reply. The
//! event core must answer every frame with exactly one reply, **in
//! request order**, resynchronising at the declared boundary after each
//! rejected frame. The oracle is the same [`TrustService`] handling the
//! same decoded requests directly, plus the classified wire-error
//! canonicals for the damaged frames.
//!
//! A second block drives the full chaos harness against the event core
//! at fault rate 1.0: every frame damaged, every failure classified, the
//! conservation invariant intact.

use proptest::prelude::*;
use std::io;
use std::sync::OnceLock;
use tangled_trustd::wire::{read_frame, write_frame, Request, Response, MAX_FRAME};
use tangled_trustd::{
    canonical, chaos, serve_bytes, ChaosSpec, TrustService, DEFAULT_CACHE_CAPACITY,
};

/// One shared service: profile installs are the expensive part and the
/// canonical verdict for a request does not depend on memo state.
fn service() -> &'static TrustService {
    static SERVICE: OnceLock<TrustService> = OnceLock::new();
    SERVICE.get_or_init(|| TrustService::new(DEFAULT_CACHE_CAPACITY))
}

/// One frame in the pipelined burst.
#[derive(Debug, Clone)]
enum Item {
    /// A well-formed request (any kind; the service classifies bad
    /// chains itself).
    Req(Request),
    /// A framed body that does not decode (0xff prefix forces bad-json).
    Garbage(Vec<u8>),
    /// A frame whose header declares `MAX_FRAME + extra` bytes — the
    /// declared body follows, so the stream resyncs at its end.
    Oversized(usize),
}

/// Chains a generated request presents: every Table 6 origin chain, an
/// empty chain and garbage DER — so bad chains sit among good ones in one
/// pipelined burst.
fn chains() -> &'static [Vec<Vec<u8>>] {
    static CHAINS: OnceLock<Vec<Vec<Vec<u8>>>> = OnceLock::new();
    CHAINS.get_or_init(|| {
        let origin = tangled_intercept::origin::OriginServers::for_table6();
        let mut targets: Vec<_> = origin.targets().collect();
        targets.sort_by_key(|t| t.to_string());
        let mut chains: Vec<Vec<Vec<u8>>> = targets
            .into_iter()
            .map(|t| {
                let chain = origin.chain(t).expect("table 6 target has a chain");
                chain.iter().map(|c| c.to_der().to_vec()).collect()
            })
            .collect();
        chains.push(Vec::new());
        chains.push(vec![vec![0xde, 0xad]]);
        chains
    })
}

fn arb_request() -> impl Strategy<Value = Request> {
    let blob = proptest::collection::vec(any::<u8>(), 0..48);
    let chain = || (0..chains().len()).prop_map(|i| chains()[i].clone());
    // The ten standard stores plus one the index does not hold.
    let mut profiles: Vec<String> = tangled_pki::stores::standard_store_names()
        .into_iter()
        .map(str::to_owned)
        .collect();
    profiles.push("CyanogenMod".to_owned());
    prop_oneof![
        Just(Request::Stats),
        (0..profiles.len(), chain()).prop_map(move |(p, chain)| Request::Validate {
            profile: profiles[p].clone(),
            chain,
        }),
        chain().prop_map(|chain| Request::Compare { chain }),
        blob.prop_map(|cert| Request::Classify { cert }),
    ]
}

fn arb_item() -> impl Strategy<Value = Item> {
    prop_oneof![
        6 => arb_request().prop_map(Item::Req),
        2 => proptest::collection::vec(any::<u8>(), 0..24).prop_map(|mut tail| {
            let mut body = vec![0xffu8];
            body.append(&mut tail);
            Item::Garbage(body)
        }),
        1 => (1usize..4).prop_map(Item::Oversized),
    ]
}

impl Item {
    /// Append this item's bytes to the pipelined stream.
    fn emit(&self, buf: &mut Vec<u8>) {
        match self {
            Item::Req(req) => write_frame(buf, &req.encode()).expect("bounded frame"),
            Item::Garbage(body) => write_frame(buf, body).expect("bounded frame"),
            Item::Oversized(extra) => {
                let len = MAX_FRAME + extra;
                buf.extend_from_slice(&(len as u32).to_be_bytes());
                buf.extend(std::iter::repeat_n(0u8, len));
            }
        }
    }

    /// The canonical form the reply for this item must have.
    fn expected(&self) -> String {
        match self {
            Item::Req(req) => canonical(&service().handle(req)),
            Item::Garbage(_) => "error/wire/bad-json".to_owned(),
            Item::Oversized(_) => "error/wire/oversized-frame".to_owned(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the interleaving of valid, garbage and oversized frames,
    /// the event core answers each with exactly one reply, in request
    /// order, and keeps the connection alive across rejected frames.
    #[test]
    fn pipelined_replies_arrive_in_request_order(
        items in proptest::collection::vec(arb_item(), 1..8),
    ) {
        let mut input = Vec::new();
        for item in &items {
            item.emit(&mut input);
        }
        let expected: Vec<String> = items.iter().map(Item::expected).collect();
        let valid = items
            .iter()
            .filter(|i| matches!(i, Item::Req(_)))
            .count() as u64;

        // The client half-closes at a frame boundary after the burst.
        let (output, served) = serve_bytes(&input, service());
        prop_assert_eq!(served, valid, "served counts decoded requests only");

        let mut cursor = io::Cursor::new(output);
        for (i, want) in expected.iter().enumerate() {
            let frame = read_frame(&mut cursor)
                .expect("framing intact")
                .expect("one reply per pipelined frame");
            let resp = Response::decode(&frame).expect("decodable reply");
            prop_assert_eq!(
                &canonical(&resp), want,
                "reply {} out of order or misclassified", i
            );
        }
        prop_assert!(
            read_frame(&mut cursor).expect("clean end").is_none(),
            "no extra replies after the burst"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Full-rate chaos against the event core: every frame damaged, yet
    /// every issued request still resolves to answered, shed, or a
    /// classified failure — never silence.
    #[test]
    fn event_core_conserves_under_total_chaos(seed in 0u64..1024) {
        let spec = ChaosSpec {
            seed,
            requests: 8,
            rate: 1.0,
            busy_rate: 0.0,
            ..ChaosSpec::default()
        };
        let report = chaos::run(&spec);
        prop_assert!(report.conserved(), "conservation violated:\n{}", report.ledger);
    }
}
