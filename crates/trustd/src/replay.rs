//! Deterministic load generation and the two drivers that run it.
//!
//! Every workload here is a plan: a `Vec<Request>` built from a seed.
//! [`queries`] plans the Netalyzr mix from a [`ReplaySpec`] — every
//! session validates an origin chain against its device's AOSP profile,
//! with classify/audit/probe requests interleaved on fixed session
//! strides — [`compare_queries`] plans one `compare` per Notary chain,
//! and other engines (the interception scenarios) plan their own. A plan
//! then runs through one of two drivers:
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
use crate::wire::{Request, Response};
use serde_json::Value;
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

/// What to replay.
#[derive(Debug, Clone, Copy)]
pub struct ReplaySpec {
    /// Population seed.
    pub seed: u64,
    /// Number of sessions to replay.
    pub sessions: usize,
}

impl ReplaySpec {
    /// A spec for `sessions` sessions of the population seeded by `seed`.
    pub fn new(seed: u64, sessions: usize) -> ReplaySpec {
        ReplaySpec { seed, sessions }
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
    use crate::wire::ChainVerdict;

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
        let spec = ReplaySpec::new(7, 40);
        let requests = queries(&population(&spec), &spec);
        assert_eq!(offline_verdicts(&requests), offline_verdicts(&requests));
    }

    #[test]
    fn compare_mix_covers_the_corpus_deterministically() {
        let spec = ReplaySpec::new(2014, 60);
        let qs = compare_queries(&spec);
        assert!(!qs.is_empty());
        assert!(qs.iter().all(|q| q.kind() == "compare"));
        assert_eq!(qs, compare_queries(&spec), "same spec, same queries");

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
