//! Load generation over one keep-alive connection, and reply checking.
//!
//! Requests go out as pre-encoded frames so the timed loops spend no
//! client time on JSON; replies are kept as raw bodies and decoded only
//! after the timed phase, when they are checked against the oracle.

use crate::trace::Tracer;
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use tangled_mass::trustd::wire::{self, FrameError};
use tangled_mass::trustd::{canonical, Response};

/// Socket read timeout: how often a blocked reader wakes up.
const READ_TICK: Duration = Duration::from_millis(50);

/// A reply that takes longer than this counts as a timeout.
const REPLY_DEADLINE: Duration = Duration::from_secs(10);

/// One client connection, split into its write and read halves.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connect with no-delay and a short read tick.
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        let setup = |s: &TcpStream| -> std::io::Result<()> {
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(READ_TICK))
        };
        setup(&stream).map_err(|e| format!("configuring socket: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("cloning socket: {e}"))?;
        Ok(Conn {
            writer: stream,
            reader: BufReader::with_capacity(1 << 16, reader),
        })
    }
}

/// Read one reply body, waiting at most [`REPLY_DEADLINE`].
fn read_reply(reader: &mut BufReader<TcpStream>) -> Result<Vec<u8>, String> {
    let started = Instant::now();
    loop {
        match wire::read_frame(reader) {
            Ok(Some(body)) => return Ok(body),
            Ok(None) => return Err("server closed the connection".to_owned()),
            Err(FrameError::Io(e)) if wire::is_timeout(&e) => {
                if started.elapsed() > REPLY_DEADLINE {
                    return Err("reply timed out".to_owned());
                }
            }
            Err(e) => return Err(format!("reading reply: {e:?}")),
        }
    }
}

/// What one phase of load did.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests written.
    pub sent: usize,
    /// Latency of every request completed inside the measured window.
    pub latencies_ms: Vec<f64>,
    /// Per latency sample, its offset in seconds from the start of the
    /// phase: when the request completed in a closed loop, when it was
    /// due in an open loop.
    pub at_s: Vec<f64>,
    /// Length of the measured window.
    pub window_s: f64,
    /// Every reply received, with the index of its request.
    pub replies: Vec<(usize, Vec<u8>)>,
    /// Requests that got no reply.
    pub unanswered: usize,
    /// Open loop only: how late each send left relative to its due time.
    pub late_ms: Vec<f64>,
    /// The transport error that ended the phase early, if any.
    pub error: Option<String>,
}

impl Phase {
    /// Completions per second inside the measured window.
    pub fn throughput(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.window_s
    }
}

/// When a closed loop stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many requests.
    Count(usize),
    /// Once this much time has passed.
    After(Duration),
}

/// Closed loop at a fixed pipeline depth: `depth` requests stay in
/// flight, and each reply releases the next request. Requests cycle
/// through `frames` from `*cursor`, which is left after the last one
/// sent. With a tracer, each request gets a `client.request` span from
/// write to reply, with `client.write` and `client.read` children.
pub fn closed_loop(
    conn: &mut Conn,
    frames: &[Vec<u8>],
    cursor: &mut usize,
    depth: usize,
    stop: Stop,
    tracer: &mut Tracer,
) -> Phase {
    let mut phase = Phase::default();
    let mut inflight: VecDeque<(usize, Instant, Instant)> = VecDeque::new();
    let started = Instant::now();
    let deadline = match stop {
        Stop::After(d) => Some(started + d),
        Stop::Count(_) => None,
    };
    let want_more = |sent: usize, now: Instant| match stop {
        Stop::Count(n) => sent < n,
        Stop::After(_) => deadline.is_some_and(|d| now < d),
    };
    let mut send = |conn: &mut Conn, phase: &mut Phase, inflight: &mut VecDeque<_>| {
        let idx = *cursor % frames.len();
        let t0 = Instant::now();
        let ok = conn.writer.write_all(&frames[idx]);
        inflight.push_back((idx, t0, Instant::now()));
        *cursor += 1;
        phase.sent += 1;
        ok.map_err(|e| format!("writing request: {e}"))
    };
    while inflight.len() < depth && want_more(phase.sent, Instant::now()) {
        if let Err(e) = send(conn, &mut phase, &mut inflight) {
            phase.error = Some(e);
            break;
        }
    }
    while phase.error.is_none() {
        let Some(&(idx, sent_at, written_at)) = inflight.front() else {
            break;
        };
        let read_at = Instant::now();
        let body = match read_reply(&mut conn.reader) {
            Ok(body) => body,
            Err(e) => {
                phase.error = Some(e);
                break;
            }
        };
        let now = Instant::now();
        inflight.pop_front();
        if deadline.is_none_or(|d| now <= d) {
            phase.latencies_ms.push((now - sent_at).as_secs_f64() * 1e3);
            phase.at_s.push((now - started).as_secs_f64());
        }
        let req = phase.replies.len() as u64;
        let root = tracer.record("client.request", None, req, sent_at, now);
        tracer.record("client.write", Some(root), req, sent_at, written_at);
        tracer.record("client.read", Some(root), req, read_at.max(sent_at), now);
        phase.replies.push((idx, body));
        if want_more(phase.sent, now) {
            if let Err(e) = send(conn, &mut phase, &mut inflight) {
                phase.error = Some(e);
            }
        }
    }
    phase.unanswered = inflight.len();
    phase.window_s = match deadline {
        Some(d) => (d - started).as_secs_f64(),
        None => started.elapsed().as_secs_f64(),
    };
    phase
}

/// Open loop: request `k` is due at `k / rate` seconds after the start,
/// whether or not earlier replies have arrived. A sender thread writes
/// each request when due; this thread reads the replies, and each
/// request's latency runs from its due time, so a stall also delays every
/// request queued behind it.
pub fn open_loop(
    conn: &mut Conn,
    frames: &[Vec<u8>],
    cursor: &mut usize,
    rate: f64,
    duration: Duration,
) -> Phase {
    let mut phase = Phase {
        window_s: duration.as_secs_f64(),
        ..Phase::default()
    };
    let first = *cursor;
    let start = Instant::now();
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, Instant)>();
    let Conn { writer, reader } = conn;
    let (sent, late_ms, write_error) = std::thread::scope(|s| {
        let stop = &stop;
        let sender = s.spawn(move || {
            let mut late = Vec::new();
            let mut k = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let due = start + Duration::from_secs_f64(k as f64 / rate);
                if due >= start + duration {
                    break;
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let idx = (first + k) % frames.len();
                if tx.send((idx, due)).is_err() {
                    break;
                }
                late.push(due.elapsed().as_secs_f64() * 1e3);
                k += 1;
                if let Err(e) = writer.write_all(&frames[idx]) {
                    return (k, late, Some(format!("writing request: {e}")));
                }
            }
            (k, late, None)
        });
        for (idx, due) in rx.iter() {
            match read_reply(reader) {
                Ok(body) => {
                    phase.latencies_ms.push(due.elapsed().as_secs_f64() * 1e3);
                    phase.at_s.push((due - start).as_secs_f64());
                    phase.replies.push((idx, body));
                }
                Err(e) => {
                    phase.error = Some(e);
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
            }
        }
        sender.join().expect("open-loop sender panicked")
    });
    phase.sent = sent;
    phase.late_ms = late_ms;
    phase.unanswered = sent - phase.replies.len();
    if phase.error.is_none() {
        phase.error = write_error;
    }
    *cursor += sent;
    phase
}

/// Reply-check tallies.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Requests attempted.
    pub attempted: u64,
    /// Replies that matched the oracle.
    pub ok: u64,
    /// Replies the client could not decode, or `error` replies from the
    /// `wire` stage.
    pub wire_errors: u64,
    /// `busy` replies.
    pub busy: u64,
    /// Requests with no reply (timeouts or a dropped connection).
    pub timeouts: u64,
    /// Decoded replies whose canonical form differs from the oracle's.
    pub mismatches: u64,
}

impl Tally {
    /// Every failed request.
    pub fn failed(&self) -> u64 {
        self.wire_errors + self.busy + self.timeouts + self.mismatches
    }

    /// Check every reply of `phase` against `expected` and count it.
    pub fn check(&mut self, phase: &Phase, expected: &[String]) {
        self.attempted += phase.sent as u64;
        self.timeouts += phase.unanswered as u64;
        for (idx, body) in &phase.replies {
            match Response::decode(body) {
                Ok(Response::Busy) => self.busy += 1,
                Ok(Response::Error { stage, .. }) if stage == "wire" => self.wire_errors += 1,
                Ok(resp) if canonical(&resp) == expected[*idx] => self.ok += 1,
                Ok(_) => self.mismatches += 1,
                Err(_) => self.wire_errors += 1,
            }
        }
    }
}

/// Canonical replies of a phase, in reply order.
pub fn canonical_replies(phase: &Phase) -> Vec<String> {
    phase
        .replies
        .iter()
        .map(|(_, body)| match Response::decode(body) {
            Ok(resp) => canonical(&resp),
            Err(e) => format!("undecodable/{e:?}"),
        })
        .collect()
}
