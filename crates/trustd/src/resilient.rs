//! A retrying client wrapper: bounded attempts, deterministic seeded
//! backoff, and one retry rule.
//!
//! [`ResilientClient`] wraps the plain [`TrustClient`] with the retry
//! discipline the chaos tests demand:
//!
//! * **Bounded retries with seeded backoff.** Every transport failure or
//!   explicit `busy` shed is retried up to [`RetryPolicy::max_attempts`]
//!   times, sleeping an exponentially growing, jittered delay between
//!   attempts. The jitter is drawn from a seeded RNG, so a simulated run
//!   retries at exactly the same points every time.
//! * **Idempotent requests only.** Pure queries (`validate`, `classify`,
//!   `audit`, `probe`, `probe_session`, `compare`, `stats`) are blindly
//!   retryable — running one twice is indistinguishable from once. A
//!   `swap` is not, so it is refused with [`ResilientError::NotIdempotent`]
//!   before anything is sent; swaps go through a plain [`TrustClient`].
//! * **Classified exhaustion.** When retries run out the caller gets a
//!   [`ResilientError`] naming the terminal fault — shed, or a transport
//!   label — never a bare hang.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::client::{ClientError, TrustClient};
use crate::wire::{Request, Response};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Retry schedule: attempt budget plus seeded exponential backoff.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per logical request (first try included).
    pub max_attempts: u32,
    /// Delay before the second attempt; doubles per retry.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Jitter seed: same seed, same delays.
    pub seed: u64,
}

impl RetryPolicy {
    /// The serving default: 4 attempts, 50 ms base, 2 s ceiling.
    pub fn new(seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            seed,
        }
    }

    /// Zero-delay variant for tests and in-process simulation: same
    /// attempt accounting, no wall-clock sleeps.
    pub fn immediate(seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            seed,
        }
    }

    /// The delay before retry number `attempt` (1 = first retry):
    /// exponential growth capped at `max_delay`, jittered uniformly into
    /// `[half, full]` so synchronized clients decorrelate.
    fn delay(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        if self.base_delay.is_zero() {
            return Duration::ZERO;
        }
        let exp = self
            .base_delay
            .saturating_mul(1u32 << (attempt.saturating_sub(1)).min(16))
            .min(self.max_delay);
        let micros = exp.as_micros() as u64;
        if micros == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros(rng.gen_range(micros / 2..=micros))
    }
}

/// How a [`ResilientClient`] obtains connections. Implementations decide
/// the transport: real TCP ([`TcpConnector`]), TCP under a chaos wrapper,
/// or fully simulated streams in tests.
pub trait Connect {
    /// The stream type of produced connections.
    type Stream: Read + Write;

    /// Open one connection, ready to carry calls.
    fn connect(&mut self) -> io::Result<TrustClient<Self::Stream>>;
}

/// Plain TCP connections to a fixed address.
#[derive(Debug, Clone)]
pub struct TcpConnector {
    /// The server address.
    pub addr: SocketAddr,
}

impl TcpConnector {
    /// A connector for `addr` with default deadlines.
    pub fn new(addr: SocketAddr) -> TcpConnector {
        TcpConnector { addr }
    }
}

impl Connect for TcpConnector {
    type Stream = TcpStream;

    fn connect(&mut self) -> io::Result<TrustClient<TcpStream>> {
        TrustClient::connect(self.addr)
    }
}

/// Why a resilient call gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResilientError {
    /// Every attempt was shed with an explicit `busy` reply.
    Shed {
        /// Attempts made.
        attempts: u32,
    },
    /// Retries exhausted on a classified transport fault.
    Exhausted {
        /// The terminal fault label (`disconnect`, `timeout`,
        /// `transport`, `protocol`, `connect-failed`).
        label: &'static str,
        /// Attempts made.
        attempts: u32,
    },
    /// The request is not idempotent (`swap`), so it was refused before
    /// anything was sent: a retry after an ambiguous failure could apply
    /// it twice.
    NotIdempotent {
        /// The refused request's kind.
        kind: &'static str,
    },
}

impl std::fmt::Display for ResilientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResilientError::Shed { attempts } => {
                write!(f, "shed with busy after {attempts} attempts")
            }
            ResilientError::Exhausted { label, attempts } => {
                write!(f, "gave up after {attempts} attempts: {label}")
            }
            ResilientError::NotIdempotent { kind } => {
                write!(f, "refused a non-idempotent {kind} request")
            }
        }
    }
}

impl std::error::Error for ResilientError {}

/// A [`TrustClient`] with retries and backoff, for idempotent requests.
pub struct ResilientClient<C: Connect> {
    connector: C,
    policy: RetryPolicy,
    rng: StdRng,
    conn: Option<TrustClient<C::Stream>>,
    retries: u64,
    busy: u64,
    reconnects: u64,
}

impl<C: Connect> ResilientClient<C> {
    /// Wrap `connector` under `policy`.
    pub fn new(connector: C, policy: RetryPolicy) -> ResilientClient<C> {
        let rng = StdRng::seed_from_u64(policy.seed);
        ResilientClient {
            connector,
            policy,
            rng,
            conn: None,
            retries: 0,
            busy: 0,
            reconnects: 0,
        }
    }

    /// Retries performed (attempts beyond the first, all calls).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// `busy` sheds received.
    pub fn busy_count(&self) -> u64 {
        self.busy
    }

    /// Connections opened.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Issue one idempotent request with the full retry discipline:
    /// [`ResilientClient::call_pipelined`] of one request.
    pub fn call(&mut self, req: &Request) -> Result<Response, ResilientError> {
        // `call_pipelined` answers every request it sends, so an empty
        // reply vector would be a broken protocol.
        self.call_pipelined(std::slice::from_ref(req))?
            .pop()
            .ok_or(ResilientError::Exhausted {
                label: "protocol",
                attempts: 1,
            })
    }

    /// Issue an idempotent request chunk as one pipelined burst, with the
    /// full retry discipline applied to the *chunk*: a transport fault
    /// mid-burst leaves unknown which requests executed, so the whole
    /// chunk is re-sent — harmless for pure reads. A chunk holding a
    /// non-idempotent request is refused before anything is sent. An
    /// admission shed (`busy`) likewise retries the whole chunk on a
    /// fresh connection. Replies come back in request order.
    pub fn call_pipelined(&mut self, reqs: &[Request]) -> Result<Vec<Response>, ResilientError> {
        if let Some(req) = reqs.iter().find(|r| !r.is_idempotent()) {
            return Err(ResilientError::NotIdempotent { kind: req.kind() });
        }
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let failure = match self.try_burst(reqs) {
                Ok(Some(replies)) => return Ok(replies),
                Ok(None) => ResilientError::Shed { attempts: attempt },
                Err(label) => ResilientError::Exhausted {
                    label,
                    attempts: attempt,
                },
            };
            if attempt >= self.policy.max_attempts {
                return Err(failure);
            }
            self.retries += 1;
            let delay = self.policy.delay(attempt, &mut self.rng);
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
        }
    }

    /// One attempt at a request burst: connect if needed, send, classify
    /// failures. `Ok(None)` is an admission shed (the burst was answered
    /// with `busy`); a shed or any failure tears the connection down so
    /// the next attempt starts fresh.
    fn try_burst(&mut self, reqs: &[Request]) -> Result<Option<Vec<Response>>, &'static str> {
        let client = match &mut self.conn {
            Some(client) => client,
            None => {
                let client = self.connector.connect().map_err(|_| "connect-failed")?;
                self.reconnects += 1;
                self.conn.insert(client)
            }
        };
        match client.pipeline(reqs) {
            Ok(replies) if replies.last().is_some_and(|r| matches!(r, Response::Busy)) => {
                self.busy += 1;
                self.conn = None;
                Ok(None)
            }
            Ok(replies) if replies.len() == reqs.len() => Ok(Some(replies)),
            // Short reply vector without a busy cannot happen (pipeline
            // only truncates on shed) — classify defensively.
            Ok(_) => {
                self.conn = None;
                Err("protocol")
            }
            Err(e) => {
                self.conn = None;
                Err(classify(&e))
            }
        }
    }
}

/// Stable label for a transport-layer client failure.
pub(crate) fn classify(e: &ClientError) -> &'static str {
    match e {
        ClientError::Io(_) => "transport",
        ClientError::Protocol(_) => "protocol",
        ClientError::Closed => "disconnect",
        ClientError::TimedOut => "timeout",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;
    use serde_json::json;
    use std::collections::VecDeque;

    /// A scripted connection: ignores writes, serves a fixed reply byte
    /// stream, then reports clean EOF.
    struct Scripted {
        reply: Vec<u8>,
        pos: usize,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.reply.len() {
                return Ok(0);
            }
            let n = buf.len().min(self.reply.len() - self.pos);
            buf[..n].copy_from_slice(&self.reply[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Hands out scripted connections in order; connect fails when the
    /// script runs dry.
    struct ScriptConnector {
        scripts: VecDeque<Vec<u8>>,
    }

    impl Connect for ScriptConnector {
        type Stream = Scripted;

        fn connect(&mut self) -> io::Result<TrustClient<Scripted>> {
            match self.scripts.pop_front() {
                Some(reply) => Ok(TrustClient::from_stream(Scripted { reply, pos: 0 })),
                None => Err(io::Error::new(io::ErrorKind::ConnectionRefused, "dry")),
            }
        }
    }

    fn framed(resps: &[Response]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in resps {
            wire::write_frame(&mut out, &r.encode()).unwrap();
        }
        out
    }

    #[test]
    fn busy_then_success_retries_through() {
        let connector = ScriptConnector {
            scripts: VecDeque::from(vec![
                framed(&[Response::Busy]),
                framed(&[Response::Probe {
                    verdict: "clean".into(),
                }]),
            ]),
        };
        let mut client = ResilientClient::new(connector, RetryPolicy::immediate(7));
        let resp = client
            .call(&Request::Probe {
                profile: "AOSP 4.4".into(),
                target: "gmail.com:443".into(),
                chain: vec![],
                pinned: false,
            })
            .expect("retried past the shed");
        assert!(matches!(resp, Response::Probe { .. }));
        assert_eq!(client.busy_count(), 1);
        assert_eq!(client.retries(), 1);
        assert_eq!(client.reconnects(), 2);
    }

    #[test]
    fn shed_pipelined_chunk_retries_whole_burst() {
        // Connection 1 sheds the burst with one busy frame; connection 2
        // answers both requests. The whole chunk is re-sent — replies
        // stay aligned with requests.
        let connector = ScriptConnector {
            scripts: VecDeque::from(vec![
                framed(&[Response::Busy]),
                framed(&[
                    Response::Stats(json!({"a": 1u64})),
                    Response::Stats(json!({"b": 2u64})),
                ]),
            ]),
        };
        let mut client = ResilientClient::new(connector, RetryPolicy::immediate(7));
        let replies = client
            .call_pipelined(&[Request::Stats, Request::Stats])
            .expect("retried past the shed");
        assert_eq!(replies.len(), 2);
        assert!(replies.iter().all(|r| matches!(r, Response::Stats(_))));
        assert_eq!(client.busy_count(), 1);
        assert_eq!(client.reconnects(), 2);
    }

    #[test]
    fn torn_pipelined_chunk_is_resent_in_full() {
        // Connection 1 delivers only the first of two replies before
        // closing: which requests executed is unknown, so the idempotent
        // chunk is re-sent whole on connection 2.
        let connector = ScriptConnector {
            scripts: VecDeque::from(vec![
                framed(&[Response::Stats(json!({"partial": true}))]),
                framed(&[
                    Response::Stats(json!({"a": 1u64})),
                    Response::Stats(json!({"b": 2u64})),
                ]),
            ]),
        };
        let mut client = ResilientClient::new(connector, RetryPolicy::immediate(7));
        let replies = client
            .call_pipelined(&[Request::Stats, Request::Stats])
            .expect("resent after the torn burst");
        assert_eq!(replies.len(), 2);
        assert_eq!(client.retries(), 1);
        assert_eq!(client.reconnects(), 2);
    }

    #[test]
    fn exhaustion_is_classified() {
        // Every connection closes without replying.
        let connector = ScriptConnector {
            scripts: VecDeque::from(vec![Vec::new(), Vec::new(), Vec::new(), Vec::new()]),
        };
        let mut client = ResilientClient::new(connector, RetryPolicy::immediate(7));
        match client.call(&Request::Stats) {
            Err(ResilientError::Exhausted { label, attempts }) => {
                assert_eq!(label, "disconnect");
                assert_eq!(attempts, 4);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn swap_is_refused_before_anything_is_sent() {
        use tangled_pki::store::RootStore;
        // The connection would answer both a stats read and the swap, so
        // only a refusal made before dialling leaves it unopened.
        let connector = ScriptConnector {
            scripts: VecDeque::from(vec![framed(&[
                Response::Stats(json!({})),
                Response::Swap {
                    profile: "AOSP 4.4".into(),
                    epoch: 11,
                    anchors: 0,
                },
            ])]),
        };
        let mut client = ResilientClient::new(connector, RetryPolicy::immediate(7));
        let swap = Request::Swap {
            profile: "AOSP 4.4".into(),
            snapshot: RootStore::new("x").snapshot(),
        };
        let refused = ResilientError::NotIdempotent { kind: "swap" };
        assert_eq!(client.call(&swap), Err(refused.clone()));
        assert_eq!(client.call_pipelined(&[Request::Stats, swap]), Err(refused));
        assert_eq!(client.reconnects(), 0);
        assert_eq!(client.retries(), 0);
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let policy = RetryPolicy::new(42);
        let mut a = StdRng::seed_from_u64(policy.seed);
        let mut b = StdRng::seed_from_u64(policy.seed);
        for attempt in 1..=8 {
            let da = policy.delay(attempt, &mut a);
            let db = policy.delay(attempt, &mut b);
            assert_eq!(da, db, "same seed, same delay");
            assert!(da <= policy.max_delay);
            assert!(da >= policy.base_delay / 2);
        }
        // The immediate policy never sleeps.
        let imm = RetryPolicy::immediate(42);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(imm.delay(3, &mut rng), Duration::ZERO);
    }
}
