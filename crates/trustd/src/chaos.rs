//! The chaos harness: a seeded client population driven through a wire
//! fault schedule against an in-process server.
//!
//! Everything here is synchronous and deterministic: the request mix
//! comes from [`crate::replay::queries`], each attempt runs the *real*
//! [`TrustClient`] over a [`ChaosStream`]-wrapped simulated connection
//! into the *real* connection state machine the TCP server multiplexes
//! ([`serve_bytes`]), and every RNG is seeded. Same [`ChaosSpec`], same
//! faults, same outcomes, byte for byte — the ledger is comparable with
//! `cmp` across runs, which is exactly what the CI chaos smoke does.
//!
//! The harness asserts the **conservation invariant**: every issued
//! request resolves to exactly one of
//!
//! * **answered-correct** — the reply's canonical form matches the
//!   verdict the offline driver ([`offline_verdicts`]) computes for the
//!   same request;
//! * **shed-with-busy** — every attempt was refused with an explicit
//!   `busy` frame;
//! * **failed-with-classified-fault** — attempts exhausted, and every
//!   failing attempt is matched by an injected fault in the chaos
//!   ledger.
//!
//! Anything else — a wrong answer or an unexplained transport error with
//! *no* injected fault to blame — is a conservation violation: a request
//! vanished or was silently corrupted by the stack itself.

use crate::client::TrustClient;
use crate::event::serve_bytes;
use crate::replay::{canonical, offline_verdicts, population, queries, ReplaySpec};
use crate::service::{TrustService, DEFAULT_CACHE_CAPACITY};
use crate::wire::{self, Response};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex};
use tangled_faults::chaos::{ChaosPlan, ChaosStream, WireFault, WireFaultKind};

/// What to run: request volume, fault schedule, retry budget.
#[derive(Debug, Clone)]
pub struct ChaosSpec {
    /// Master seed for the population, the fault schedule and the busy
    /// schedule.
    pub seed: u64,
    /// Requests to issue.
    pub requests: usize,
    /// Per-frame fault injection rate.
    pub rate: f64,
    /// Probability that a given attempt is shed with `busy` at
    /// admission.
    pub busy_rate: f64,
    /// Attempts per request (first try included).
    pub max_attempts: u32,
    /// Fault kinds in play (defaults to every kind).
    pub kinds: Vec<WireFaultKind>,
}

impl Default for ChaosSpec {
    fn default() -> ChaosSpec {
        ChaosSpec {
            seed: 42,
            requests: 200,
            rate: 0.25,
            busy_rate: 0.1,
            max_attempts: 4,
            kinds: WireFaultKind::ALL.to_vec(),
        }
    }
}

/// The harness outcome: conservation tallies plus the deterministic
/// fault/outcome ledger.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Requests issued.
    pub issued: usize,
    /// Requests answered with the correct verdict.
    pub answered: usize,
    /// Requests shed with `busy` on every attempt.
    pub shed: usize,
    /// Requests that exhausted retries on classified, injected faults.
    pub failed: usize,
    /// Conservation violations (must be zero).
    pub violations: usize,
    /// Retry attempts performed beyond first tries.
    pub retries: u64,
    /// Injected faults by kind label.
    pub fault_counts: BTreeMap<&'static str, u64>,
    /// The line-per-attempt ledger (deterministic text; no timestamps).
    pub ledger: String,
}

impl ChaosReport {
    /// Does the conservation invariant hold?
    pub fn conserved(&self) -> bool {
        self.violations == 0 && self.answered + self.shed + self.failed == self.issued
    }
}

/// One simulated connection to an in-process server.
///
/// The client writes its (chaos-damaged) request bytes into `inbox`;
/// the first read serves them whole through [`serve_bytes`] — or, when
/// the admission roll shed this attempt, answers a lone `busy` frame —
/// and subsequent reads drain the server's output. End of output is a
/// clean close, exactly like a TCP FIN at a frame boundary.
struct SimConn<'a> {
    service: &'a TrustService,
    busy: bool,
    inbox: Vec<u8>,
    /// The server's output, produced at the first read.
    outbox: Option<io::Cursor<Vec<u8>>>,
}

impl Read for SimConn<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let outbox = self.outbox.get_or_insert_with(|| {
            if self.busy {
                // Admission shed: the server never reads the request, the
                // same as the TCP accept thread over its backlog budget.
                let mut out = Vec::new();
                let _ = wire::write_frame(&mut out, &Response::Busy.encode());
                return io::Cursor::new(out);
            }
            io::Cursor::new(serve_bytes(&self.inbox, self.service).0)
        });
        outbox.read(buf)
    }
}

impl Write for SimConn<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inbox.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// How one attempt resolved.
enum Attempt {
    Correct,
    Busy,
    /// Server answered a classified wire-stage error (damaged frame).
    Rejected(String),
    /// Server answered, but not the expected verdict.
    Mismatch(String),
    /// The call failed at the transport layer.
    Transport(&'static str),
}

impl Attempt {
    /// The ledger's `outcome=` field.
    fn text(&self) -> String {
        match self {
            Attempt::Correct => "answered".to_owned(),
            Attempt::Busy => "busy".to_owned(),
            Attempt::Rejected(c) => format!("rejected:{c}"),
            Attempt::Mismatch(c) => format!("mismatch:{c}"),
            Attempt::Transport(label) => format!("transport:{label}"),
        }
    }
}

/// What the harness does after one attempt.
#[derive(Clone, Copy)]
enum Action {
    /// Answered correctly: the request is resolved.
    Done,
    /// Busy on the last attempt: resolved as shed.
    Shed,
    /// Failed on the last attempt, with an injected fault to blame.
    Failed,
    /// Failed with no injected fault to blame: a conservation breach.
    Violation,
    /// Try again.
    Retry,
}

impl Action {
    /// Decide from the attempt's outcome, whether a fault was injected
    /// into it, and whether the retry budget is spent.
    fn after(outcome: &Attempt, injected: bool, exhausted: bool) -> Action {
        match outcome {
            Attempt::Correct => Action::Done,
            Attempt::Busy if exhausted => Action::Shed,
            Attempt::Busy => Action::Retry,
            // The stack itself corrupted, misanswered or dropped an
            // undamaged request.
            _ if !injected => Action::Violation,
            _ if exhausted => Action::Failed,
            _ => Action::Retry,
        }
    }

    /// The ledger's `action=` field.
    fn label(self) -> &'static str {
        match self {
            Action::Done => "done",
            Action::Shed => "shed",
            Action::Failed => "failed",
            Action::Violation => "violation",
            Action::Retry => "retry",
        }
    }
}

/// Run the harness.
pub fn run(spec: &ChaosSpec) -> ChaosReport {
    let replay_spec = ReplaySpec::new(spec.seed, spec.requests.max(1));
    let pop = population(&replay_spec);
    let mut requests = queries(&pop, &replay_spec);
    requests.truncate(spec.requests.max(1));

    // Expected verdicts from the offline driver — the oracle.
    let expected = offline_verdicts(&requests);
    let service = TrustService::new(DEFAULT_CACHE_CAPACITY);

    let plan = ChaosPlan::new(spec.seed).with_rate(spec.rate).only(&spec.kinds);
    let mut busy_rng = StdRng::seed_from_u64(spec.seed ^ 0xB05B_B05B_B05B_B05B);

    let mut report = ChaosReport {
        issued: requests.len(),
        answered: 0,
        shed: 0,
        failed: 0,
        violations: 0,
        retries: 0,
        fault_counts: BTreeMap::new(),
        ledger: String::new(),
    };
    let mut salt = 0u64;

    for (i, req) in requests.iter().enumerate() {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            salt += 1;
            let busy = busy_rng.gen_bool(spec.busy_rate);
            let ledger = Arc::new(Mutex::new(Vec::<WireFault>::new()));
            let conn = SimConn {
                service: &service,
                busy,
                inbox: Vec::new(),
                outbox: None,
            };
            let stream = ChaosStream::with_ledger(conn, &plan, salt, Arc::clone(&ledger));
            let mut client = TrustClient::from_stream(stream);

            let result = client.call(req);
            let faults = ledger.lock().expect("chaos ledger poisoned").clone();
            for f in &faults {
                *report.fault_counts.entry(f.kind.label()).or_default() += 1;
            }
            let fault_label = faults
                .first()
                .map(|f| f.kind.label())
                .unwrap_or("none");

            let outcome = match result {
                Ok(Response::Busy) => Attempt::Busy,
                Ok(resp) => {
                    let c = canonical(&resp);
                    if c == expected[i] {
                        Attempt::Correct
                    } else if matches!(&resp, Response::Error { stage, .. } if stage == "wire")
                    {
                        Attempt::Rejected(c)
                    } else {
                        Attempt::Mismatch(c)
                    }
                }
                Err(e) => Attempt::Transport(crate::resilient::classify(&e)),
            };

            let action =
                Action::after(&outcome, !faults.is_empty(), attempt >= spec.max_attempts);
            report.ledger.push_str(&format!(
                "req={i:04} kind={} attempt={attempt} busy={} fault={fault_label} \
                 outcome={} action={}\n",
                req.kind(),
                if busy { 1 } else { 0 },
                outcome.text(),
                action.label(),
            ));

            match action {
                Action::Done => report.answered += 1,
                Action::Shed => report.shed += 1,
                Action::Failed => report.failed += 1,
                Action::Violation => report.violations += 1,
                Action::Retry => {
                    report.retries += 1;
                    continue;
                }
            }
            break;
        }
    }

    report.ledger.push_str(&format!(
        "summary: issued={} answered={} shed={} failed={} violations={} retries={}\n",
        report.issued,
        report.answered,
        report.shed,
        report.failed,
        report.violations,
        report.retries,
    ));
    for (label, n) in &report.fault_counts {
        report.ledger.push_str(&format!("fault: {label}={n}\n"));
    }
    report.ledger.push_str(&format!(
        "conservation: {}\n",
        if report.conserved() { "ok" } else { "VIOLATED" }
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Request;

    fn small_spec() -> ChaosSpec {
        ChaosSpec {
            requests: 40,
            ..ChaosSpec::default()
        }
    }

    #[test]
    fn ledger_is_deterministic_across_runs() {
        let a = run(&small_spec());
        let b = run(&small_spec());
        assert_eq!(a.ledger, b.ledger, "same spec, same ledger bytes");
        assert!(a.conserved(), "{}", a.ledger);
        assert!(
            !a.fault_counts.is_empty(),
            "rate 0.25 over 40+ attempts injects faults"
        );
    }

    #[test]
    fn different_seeds_schedule_different_faults() {
        let a = run(&small_spec());
        let b = run(&ChaosSpec {
            seed: 43,
            ..small_spec()
        });
        assert_ne!(a.ledger, b.ledger);
        assert!(b.conserved(), "{}", b.ledger);
    }

    #[test]
    fn conservation_holds_under_each_fault_kind_alone() {
        for kind in WireFaultKind::ALL {
            let spec = ChaosSpec {
                requests: 12,
                rate: 1.0,
                busy_rate: 0.0,
                kinds: vec![kind],
                ..ChaosSpec::default()
            };
            let report = run(&spec);
            assert!(
                report.conserved(),
                "conservation violated under {kind}:\n{}",
                report.ledger
            );
            assert_eq!(
                report.fault_counts.keys().copied().collect::<Vec<_>>(),
                vec![kind.label()],
                "only {kind} scheduled"
            );
        }
    }

    #[test]
    fn pure_busy_storm_sheds_everything() {
        let spec = ChaosSpec {
            requests: 10,
            rate: 0.0,
            busy_rate: 1.0,
            ..ChaosSpec::default()
        };
        let report = run(&spec);
        assert!(report.conserved(), "{}", report.ledger);
        assert_eq!(report.shed, 10, "every request shed:\n{}", report.ledger);
        assert_eq!(report.retries, 30, "3 retries each before giving up");
    }

    #[test]
    fn no_faults_means_every_request_answers() {
        let spec = ChaosSpec {
            requests: 20,
            rate: 0.0,
            busy_rate: 0.0,
            ..ChaosSpec::default()
        };
        let report = run(&spec);
        assert!(report.conserved());
        assert_eq!(report.answered, 20);
        assert_eq!(report.retries, 0);
        assert!(report.fault_counts.is_empty());
    }

    /// Saturation check: rate 1.0 damages every frame, and every
    /// failure must still trace back to an injected fault.
    #[test]
    fn event_core_conserves_under_full_fault_rate() {
        let spec = ChaosSpec {
            requests: 12,
            rate: 1.0,
            busy_rate: 0.0,
            ..ChaosSpec::default()
        };
        let report = run(&spec);
        assert!(report.conserved(), "{}", report.ledger);
        assert!(!report.fault_counts.is_empty());
    }

    /// The chaos wrapper also works on the *server* side: replies get
    /// damaged after the service computed them, and the real client
    /// classifies the damage instead of accepting it.
    #[test]
    fn server_side_chaos_corrupts_replies_detectably() {
        let service = TrustService::new(16);
        let plan = ChaosPlan::new(9)
            .with_rate(1.0)
            .only(&[WireFaultKind::BitFlip]);

        // Run the server over a chaos-wrapped stream: its reply frames
        // are bit-flipped on the way out.
        let request_bytes = {
            let mut buf = Vec::new();
            wire::write_frame(&mut buf, &Request::Stats.encode()).unwrap();
            buf
        };
        let (clean, _) = serve_bytes(&request_bytes, &service);
        let mut replies = Vec::new();
        {
            let mut chaos = ChaosStream::new(&mut replies, &plan, 0);
            chaos.write_all(&clean).unwrap();
            chaos.flush().unwrap();
        }
        // The client sees a frame whose body no longer decodes (or whose
        // JSON changed); either way it is classified, never silent.
        let frame = wire::read_frame(&mut io::Cursor::new(replies))
            .expect("framing intact")
            .expect("one reply");
        let clean = Response::Stats(service.stats_document());
        match Response::decode(&frame) {
            Ok(resp) => assert_ne!(
                serde_json::to_string(&resp.to_value()).unwrap(),
                serde_json::to_string(&clean.to_value()).unwrap(),
                "flip must alter the reply"
            ),
            Err(e) => assert!(!e.label().is_empty(), "classified: {e}"),
        }
    }
}
