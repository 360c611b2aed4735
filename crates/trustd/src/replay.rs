//! Deterministic load generation and the two drivers that run it.
//!
//! Every workload here is a plan: a `Vec<Request>` built from a seed.
//! [`queries_for`] plans the Netalyzr mixes from a [`ReplaySpec`] —
//! every session validates an origin chain against its device's AOSP
//! profile, with classify/audit/probe requests interleaved on fixed
//! session strides — and other engines (the interception scenarios)
//! plan their own. A plan then runs through one of two drivers:
//!
//! * [`offline_verdicts`] answers it with a local [`TrustService`], no
//!   server involved, sharded over the ambient [`ExecPool`];
//! * [`drive`] replays it against a live server over a clean keep-alive
//!   [`Link`] or one with seeded lossy wire faults.
//!
//! Both reduce every reply to its [`canonical`] string, so a served run
//! must match the offline run byte for byte, and one
//! [`verdict_fingerprint`] names the whole verdict vector.

use crate::client::{dial, TrustClient};
use crate::resilient::{Connect, ResilientClient, RetryPolicy, TcpConnector};
use crate::service::{profile_for_version, TrustService, DEFAULT_CACHE_CAPACITY};
use crate::wire::{ChainVerdict, Request, Response};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tangled_exec::ExecPool;
use tangled_faults::chaos::{ChaosPlan, ChaosStream, WireFaultKind, WireLedger};
use tangled_intercept::origin::OriginServers;
use tangled_intercept::policy::Target;
use tangled_netalyzr::{Population, PopulationSpec};
use tangled_pki::cacerts::to_cacerts_pem;

/// The paper's full session count (scale 1.0).
const FULL_SESSIONS: f64 = 15_970.0;

/// Which request mix a replay drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayOp {
    /// The classic per-session mix: validate, with classify/audit/probe
    /// interleaved on fixed strides.
    Mixed,
    /// One `compare` request per chain of the study's Notary corpus, in
    /// corpus order — the disparity engine's verdict vectors, served.
    Compare,
    /// The mixed mix's validate stream, grouped into `batch_validate`
    /// requests of up to [`BATCH_DEPTH`] chains per store profile — the
    /// amortised form of the same workload.
    Batch,
}

/// How many chains a `--op batch` replay packs into one `batch_validate`
/// request before flushing it.
pub const BATCH_DEPTH: usize = 16;

/// What to replay.
#[derive(Debug, Clone, Copy)]
pub struct ReplaySpec {
    /// Population seed.
    pub seed: u64,
    /// Number of sessions to replay.
    pub sessions: usize,
    /// The request mix.
    pub op: ReplayOp,
}

impl ReplaySpec {
    /// A spec with the default seed and the mixed request mix.
    pub fn new(seed: u64, sessions: usize) -> ReplaySpec {
        ReplaySpec {
            seed,
            sessions,
            op: ReplayOp::Mixed,
        }
    }

    /// The same spec driving the `compare` mix.
    pub fn with_op(self, op: ReplayOp) -> ReplaySpec {
        ReplaySpec { op, ..self }
    }
}

/// The corpus scale a session count maps to — shared by the population
/// generator and the compare mix, so `loadgen --sessions N` and
/// `tangled disparity <scale>` line up on the same chain corpus.
pub fn scale_for_sessions(sessions: usize) -> f64 {
    ((sessions as f64 / FULL_SESSIONS) * 1.25).clamp(0.02, 1.0)
}

/// Generate the population for a spec: scaled so at least `sessions`
/// sessions exist (the generator's per-manufacturer rounding can
/// undershoot a naive scale).
pub fn population(spec: &ReplaySpec) -> Population {
    Population::generate(&PopulationSpec {
        seed: spec.seed,
        scale: scale_for_sessions(spec.sessions),
    })
}

/// The deterministic request mix for a population: per session, a
/// `validate` of an origin chain against the device's AOSP profile; every
/// 4th session additionally classifies the device's first extra root,
/// every 8th audits the device's cacerts snapshot, every 16th probes.
pub fn queries(pop: &Population, spec: &ReplaySpec) -> Vec<Request> {
    let origin = OriginServers::for_table6();
    let mut targets: Vec<Target> = origin.targets().cloned().collect();
    targets.sort_by_key(|t| t.to_string());

    let chain_for = |t: &Target| -> Vec<Vec<u8>> {
        origin
            .chain(t)
            .expect("table 6 target has a chain")
            .iter()
            .map(|c| c.to_der().to_vec())
            .collect()
    };

    let mut out = Vec::new();
    for session in pop.sessions.iter().take(spec.sessions) {
        let device = pop.device_of(session);
        let profile = profile_for_version(device.os_version).to_owned();
        let target = &targets[session.index as usize % targets.len()];
        out.push(Request::Validate {
            profile: profile.clone(),
            chain: chain_for(target),
        });
        if session.index % 4 == 1 {
            if let Some(extra) = device.additional_certs().first() {
                out.push(Request::Classify {
                    cert: extra.cert.to_der().to_vec(),
                });
            }
        }
        if session.index % 8 == 2 {
            out.push(Request::Audit {
                baseline: device.os_version.label().to_owned(),
                files: to_cacerts_pem(&device.store),
            });
        }
        if session.index % 16 == 5 {
            out.push(Request::Probe {
                profile,
                target: target.to_string(),
                chain: chain_for(target),
                pinned: false,
            });
        }
    }
    out
}

/// The `compare` request mix: one `compare` per chain of the Notary
/// corpus at the spec's derived scale, in corpus order. Every reply is a
/// full per-chain verdict vector, so a replay of this mix *is* the
/// disparity engine's offline computation, served.
pub fn compare_queries(spec: &ReplaySpec) -> Vec<Request> {
    let eco = tangled_notary::Ecosystem::generate(&tangled_notary::EcosystemSpec::scaled(
        scale_for_sessions(spec.sessions),
    ));
    eco.certs
        .iter()
        .map(|cert| Request::Compare {
            chain: cert.chain.iter().map(|c| c.to_der().to_vec()).collect(),
        })
        .collect()
}

/// The `batch_validate` request mix: the validate stream of [`queries`],
/// grouped into per-profile batches of up to [`BATCH_DEPTH`] chains.
/// Batches flush in arrival order when full; the remainders flush in
/// sorted profile order — deterministic, so the served replay can be
/// fingerprinted against [`offline_verdicts`].
pub fn batch_queries(pop: &Population, spec: &ReplaySpec) -> Vec<Request> {
    let mut out = Vec::new();
    let mut pending: BTreeMap<String, Vec<Vec<Vec<u8>>>> = BTreeMap::new();
    for req in queries(pop, spec) {
        let Request::Validate { profile, chain } = req else {
            continue;
        };
        let chains = pending.entry(profile.clone()).or_default();
        chains.push(chain);
        if chains.len() >= BATCH_DEPTH {
            out.push(Request::BatchValidate {
                profile,
                chains: std::mem::take(chains),
            });
        }
    }
    out.extend(
        pending
            .into_iter()
            .filter(|(_, chains)| !chains.is_empty())
            .map(|(profile, chains)| Request::BatchValidate { profile, chains }),
    );
    out
}

/// The request sequence for a spec, honouring its [`ReplayOp`].
pub fn queries_for(spec: &ReplaySpec) -> Vec<Request> {
    match spec.op {
        ReplayOp::Mixed => queries(&population(spec), spec),
        ReplayOp::Compare => compare_queries(spec),
        ReplayOp::Batch => batch_queries(&population(spec), spec),
    }
}

/// FNV-1a fingerprint over a verdict sequence (one canonical string per
/// request, newline-framed). The disparity report and `loadgen --op
/// compare` both print this, so one `grep` ties the served replies to
/// the offline verdict vectors.
pub fn verdict_fingerprint(verdicts: &[String]) -> u64 {
    let mut data = Vec::new();
    for v in verdicts {
        data.extend_from_slice(v.as_bytes());
        data.push(b'\n');
    }
    tangled_crypto::hash::fnv1a(&data)
}

/// The canonical (comparison) form of a response. Excludes the `cached`
/// flag — a verdict must not depend on whether the memo cache answered.
pub fn canonical(resp: &Response) -> String {
    match resp {
        Response::Validate { verdict, .. } => format!("validate/{verdict}"),
        Response::Classify { class, profiles } => {
            format!("classify/{class}/{}", profiles.join(","))
        }
        Response::Audit {
            risk,
            added,
            removed,
            findings,
            quarantined,
        } => format!(
            "audit/{risk}/+{added}/-{removed}/f{findings}/q{}",
            quarantined.len()
        ),
        Response::Probe { verdict } => format!("probe/{verdict}"),
        Response::ProbeSession { outcome } => format!("probe_session/{outcome}"),
        Response::Compare {
            chain_key,
            verdicts,
            ..
        } => {
            let parts: Vec<String> = verdicts
                .iter()
                .map(|(store, verdict)| format!("{store}={verdict}"))
                .collect();
            format!("compare/{chain_key}/{}", parts.join("|"))
        }
        Response::BatchValidate {
            profile, verdicts, ..
        } => {
            let parts: Vec<String> = verdicts.iter().map(ChainVerdict::to_string).collect();
            format!("batch_validate/{profile}/{}", parts.join("|"))
        }
        Response::Swap {
            profile, anchors, ..
        } => format!("swap/{profile}/{anchors}"),
        Response::Stats(_) => "stats".to_owned(),
        Response::Busy => "busy".to_owned(),
        Response::Error { stage, error } => format!("error/{stage}/{error}"),
    }
}

/// The offline driver: answer a plan with a local [`TrustService`] —
/// every request through [`TrustService::handle`], no server involved —
/// sharded over the ambient [`ExecPool`]. Verdicts merge in request
/// order, so the result is the same at any pool width.
pub fn offline_verdicts(requests: &[Request]) -> Vec<String> {
    let service = TrustService::new(DEFAULT_CACHE_CAPACITY);
    ExecPool::current().par_map_indexed(requests, |_, req| canonical(&service.handle(req)))
}

/// How [`drive`] reaches the server.
#[derive(Debug, Clone, Copy)]
pub enum Link {
    /// One kept-alive connection carrying pipelined chunks of `depth`
    /// requests, retried under the serving backoff seeded by `seed`.
    Clean {
        /// Requests written per round trip (1 = serial).
        depth: usize,
        /// Retry-jitter seed.
        seed: u64,
    },
    /// Seeded *lossy* wire faults ([`WireFaultKind::LOSSY`] — disconnect,
    /// partial write, trickle) injected client-side at `rate`, one
    /// request per round trip. A lossy fault can delay or destroy a
    /// request in transit but never deliver a corrupted one, so the
    /// verdicts must still match [`offline_verdicts`]: faults cost
    /// retries, not answers.
    Lossy {
        /// Fault-schedule seed (also the retry-jitter seed).
        seed: u64,
        /// Per-frame injection probability.
        rate: f64,
    },
}

/// The outcome of one served replay.
pub struct ReplayOutcome {
    /// Canonical verdict strings, one per request, in request order.
    pub verdicts: Vec<String>,
    /// Requests sent (each may have taken several attempts).
    pub requests: usize,
    /// `error` responses with stage `wire` (protocol errors).
    pub wire_errors: usize,
    /// TCP connections opened: 1 on a clean run regardless of request
    /// count (keep-alive), plus one per fault-forced reconnect.
    pub connects: u64,
    /// Retry attempts beyond first tries.
    pub retries: u64,
    /// `busy` sheds absorbed by the retry loop.
    pub busy: u64,
    /// Wire faults injected client-side (0 on a clean link).
    pub faults: usize,
    /// Wall-clock time spent replaying.
    pub elapsed: Duration,
    /// The server's stats document, fetched after the replay.
    pub stats: Value,
}

/// TCP connections whose client side rides a seeded chaos wrapper: each
/// connection gets the next salt, so the fault schedule is a pure
/// function of `(seed, connection ordinal, frame ordinal)`.
struct ChaosConnector {
    addr: SocketAddr,
    plan: ChaosPlan,
    salt: u64,
    ledger: WireLedger,
}

impl Connect for ChaosConnector {
    type Stream = ChaosStream<TcpStream>;

    fn connect(&mut self) -> io::Result<TrustClient<ChaosStream<TcpStream>>> {
        let stream = dial(self.addr)?;
        self.salt += 1;
        Ok(TrustClient::from_stream(ChaosStream::with_ledger(
            stream,
            &self.plan,
            self.salt,
            Arc::clone(&self.ledger),
        )))
    }
}

/// The served driver: replay a plan against a live server and collect
/// the canonical verdicts. Waits for a server that is still binding (the
/// CI smoke starts it in the background), then sends `requests` in
/// chunks through the [`ResilientClient`], which keeps one connection
/// alive and reopens it only after a failure. Every plan this replays is
/// idempotent, so a failed chunk is safely re-sent whole.
pub fn drive(
    addr: impl ToSocketAddrs + Clone,
    requests: &[Request],
    link: Link,
) -> Result<ReplayOutcome, String> {
    drop(
        TrustClient::connect_retry(addr.clone(), Duration::from_secs(5))
            .map_err(|e| format!("server never came up: {e}"))?,
    );
    let addr = addr
        .to_socket_addrs()
        .map_err(|e| format!("resolving address: {e}"))?
        .next()
        .ok_or("address resolved to nothing")?;
    match link {
        Link::Clean { depth, seed } => {
            let client = ResilientClient::new(TcpConnector::new(addr), RetryPolicy::new(seed));
            run(client, requests, depth, None)
        }
        Link::Lossy { seed, rate } => {
            let ledger: WireLedger = Arc::new(Mutex::new(Vec::new()));
            let connector = ChaosConnector {
                addr,
                plan: ChaosPlan::new(seed)
                    .with_rate(rate)
                    .only(&WireFaultKind::LOSSY),
                salt: 0,
                ledger: Arc::clone(&ledger),
            };
            // Zero backoff delay (the smoke runs under CI wall-clock), but
            // a deeper attempt budget than the serving default: at rates
            // this high, four breaking faults in a row are plausible.
            let policy = RetryPolicy {
                max_attempts: 8,
                ..RetryPolicy::immediate(seed)
            };
            let client = ResilientClient::new(connector, policy);
            run(client, requests, 1, Some(ledger))
        }
    }
}

/// [`drive`]'s loop, generic over the connection type.
fn run<C: Connect>(
    mut client: ResilientClient<C>,
    requests: &[Request],
    depth: usize,
    ledger: Option<WireLedger>,
) -> Result<ReplayOutcome, String> {
    let started = Instant::now();
    let mut verdicts = Vec::with_capacity(requests.len());
    let mut wire_errors = 0usize;
    for chunk in requests.chunks(depth.max(1)) {
        let replies = client
            .call_pipelined(chunk)
            .map_err(|e| format!("replay chunk: {e}"))?;
        for resp in &replies {
            if matches!(resp, Response::Error { stage, .. } if stage == "wire") {
                wire_errors += 1;
            }
            verdicts.push(canonical(resp));
        }
    }
    let elapsed = started.elapsed();

    let stats = match client
        .call(&Request::Stats)
        .map_err(|e| format!("fetching stats: {e}"))?
    {
        Response::Stats(doc) => doc,
        _ => return Err("unexpected stats reply".into()),
    };
    Ok(ReplayOutcome {
        verdicts,
        requests: requests.len(),
        wire_errors,
        connects: client.reconnects(),
        retries: client.retries(),
        busy: client.busy_count(),
        faults: ledger.map_or(0, |l| l.lock().map(|l| l.len()).unwrap_or(0)),
        elapsed,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_mix_is_deterministic_and_covers_kinds() {
        let spec = ReplaySpec::new(2014, 120);
        let pop = population(&spec);
        assert!(
            pop.sessions.len() >= spec.sessions,
            "population undershoots: {} < {}",
            pop.sessions.len(),
            spec.sessions
        );
        let a = queries(&pop, &spec);
        let b = queries(&population(&spec), &spec);
        assert_eq!(a, b, "same spec, same queries");
        assert!(a.len() >= spec.sessions);
        let kinds: std::collections::BTreeSet<&str> =
            a.iter().map(|r| r.kind()).collect();
        assert!(kinds.contains("validate"));
        assert!(kinds.contains("audit"));
        assert!(kinds.contains("probe"));
    }

    #[test]
    fn offline_verdicts_are_reproducible() {
        let requests = queries_for(&ReplaySpec::new(7, 40));
        assert_eq!(offline_verdicts(&requests), offline_verdicts(&requests));
    }

    #[test]
    fn compare_mix_covers_the_corpus_deterministically() {
        let spec = ReplaySpec::new(2014, 60).with_op(ReplayOp::Compare);
        let qs = queries_for(&spec);
        assert!(!qs.is_empty());
        assert!(qs.iter().all(|q| q.kind() == "compare"));
        assert_eq!(qs, queries_for(&spec), "same spec, same queries");

        let offline = offline_verdicts(&qs);
        assert_eq!(offline.len(), qs.len());
        // Every reply carries the full 10-store vector (9 separators).
        assert!(offline
            .iter()
            .all(|v| v.starts_with("compare/") && v.matches('|').count() == 9));
        let fp = verdict_fingerprint(&offline);
        assert_eq!(fp, verdict_fingerprint(&offline_verdicts(&qs)));
    }

    #[test]
    fn batch_mix_groups_the_validate_stream_deterministically() {
        let spec = ReplaySpec::new(2014, 120).with_op(ReplayOp::Batch);
        let qs = queries_for(&spec);
        assert!(!qs.is_empty());
        assert!(qs.iter().all(|q| q.kind() == "batch_validate"));
        assert_eq!(qs, queries_for(&spec), "same spec, same queries");

        // The batched mix carries exactly the validate stream of the
        // mixed mix: same chains, same multiplicity, grouped by profile.
        let mixed_spec = ReplaySpec::new(2014, 120);
        let mut singles: Vec<(String, Vec<Vec<u8>>)> = queries_for(&mixed_spec)
            .into_iter()
            .filter_map(|q| match q {
                Request::Validate { profile, chain } => Some((profile, chain)),
                _ => None,
            })
            .collect();
        let mut batched: Vec<(String, Vec<Vec<u8>>)> = qs
            .iter()
            .flat_map(|q| match q {
                Request::BatchValidate { profile, chains } => chains
                    .iter()
                    .map(|c| (profile.clone(), c.clone()))
                    .collect::<Vec<_>>(),
                _ => unreachable!("batch mix only"),
            })
            .collect();
        singles.sort();
        batched.sort();
        assert_eq!(singles, batched);

        // No batch exceeds the depth cap, and offline verdicts line up
        // one-per-request for fingerprinting.
        for q in &qs {
            if let Request::BatchValidate { chains, .. } = q {
                assert!(!chains.is_empty() && chains.len() <= BATCH_DEPTH);
            }
        }
        let offline = offline_verdicts(&qs);
        assert_eq!(offline.len(), qs.len());
        assert!(offline.iter().all(|v| v.starts_with("batch_validate/")));
    }

    #[test]
    fn canonical_ignores_cached_flag() {
        let verdict = ChainVerdict::Trusted {
            anchor: "CN=R".into(),
            chain_len: 2,
        };
        let cold = Response::Validate {
            verdict: verdict.clone(),
            cached: false,
        };
        let warm = Response::Validate {
            verdict,
            cached: true,
        };
        assert_eq!(canonical(&cold), canonical(&warm));
    }
}
