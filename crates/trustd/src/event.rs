//! The trustd serving core: connection multiplexing over a handful of
//! readiness-loop threads.
//!
//! Sockets are nonblocking, each loop thread owns *many* connections, and
//! a sweep over them does bounded nonblocking reads, incremental frame
//! decode, and buffered partial writes. A stalled or trickling peer costs
//! one connection slot, not a thread.
//!
//! The readiness abstraction is deliberately std-only (the repo's
//! no-external-deps discipline rules out `libc`/epoll): level-triggered
//! readiness is emulated by sweeping nonblocking sockets and sleeping
//! briefly only when a whole sweep makes no progress. On an idle server
//! that costs a few wakeups per millisecond on one thread; under load the
//! loop never sleeps and behaves exactly like a level-triggered poller
//! that always reports every socket ready.
//!
//! Protocol failures follow the quarantine discipline, not the
//! drop-the-connection one:
//!
//! - an undecodable message gets a classified `error` reply and the
//!   connection lives on;
//! - an oversized frame's header still declares the next boundary, so the
//!   declared body is skipped (consumed incrementally as it arrives, no
//!   thread ever blocks draining it), the classified reply is queued, and
//!   the connection keeps serving;
//! - mid-frame truncation (EOF or a dead stall inside a frame) closes the
//!   stream after a best-effort error reply;
//! - EOF while skipping an oversized body closes without a *second*
//!   fault — the oversized frame was already recorded.
//!
//! Every fault is recorded in the service's health ledger before the
//! reply is queued. Every TCP connection runs under a `trustd.conn`
//! observability span and maintains `trustd.conn.*` registry gauges, so
//! a loaded server can be read from its metrics dump.
//!
//! On top of multiplexing, this core supports **pipelining**: a client
//! may write any number of request frames before reading a reply. Each
//! sweep ingests every complete frame in the receive buffer and queues
//! all replies into one write buffer, so a depth-N burst costs ~one read
//! and ~one coalesced write instead of N of each — replies are always
//! written in request order per connection.
//!
//! One connection state machine, two drivers: the TCP loop, and
//! [`serve_bytes`], which feeds an in-memory byte string to the same
//! state machine for the chaos harness and the pipelining tests. Only the
//! TCP loop reads a socket or keeps a deadline.

use crate::service::TrustService;
use crate::wire::{self, Request, Response, WireError, MAX_FRAME, READ_TICK, STALL_BUDGET};
use serde_json::Value;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Admission knobs for an [`EventServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Readiness-loop threads (minimum 1).
    pub workers: usize,
    /// Maximum registered connections. Arrivals beyond the budget are
    /// *shed*: the accept thread replies `busy` and closes, instead of
    /// registering unboundedly.
    pub backlog: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            backlog: 1024,
        }
    }
}

/// How many [`READ_TICK`]s a connection may sit idle at a frame boundary
/// before the server closes it. 1200 ticks ≈ one minute: an abandoned
/// socket cannot hold a connection slot forever.
const IDLE_TICKS: u32 = 1200;

/// Read scratch size per sweep round: large enough to drain a pipelined
/// burst in one syscall, small enough to live on the stack.
const SCRATCH: usize = 16 * 1024;

/// Bounded read rounds per connection per sweep, so one firehose peer
/// cannot starve the other connections on its loop.
const READS_PER_SWEEP: usize = 32;

/// How long a no-progress sweep sleeps before the next one. Short enough
/// that added latency is invisible next to a verification, long enough
/// that an idle loop thread is effectively free.
const IDLE_SLEEP: Duration = Duration::from_micros(500);

/// Consecutive no-progress sweeps that merely yield before the loop
/// starts sleeping [`IDLE_SLEEP`]. A serial request/reply conversation
/// has a sub-millisecond gap between a flushed reply and the next
/// request; yielding through that gap keeps per-round-trip latency at
/// scheduler granularity instead of a full sleep, while a genuinely idle
/// loop falls back to sleeping within a few hundred microseconds.
const SPIN_SWEEPS: u32 = 64;

/// The decode/encode state machine for one multiplexed connection.
///
/// Bytes in, frames out: [`ConnState::ingest`] appends whatever the
/// socket had ready and decodes every complete frame in the buffer,
/// queueing replies (in request order) into the write buffer;
/// [`ConnState::flush_once`] pushes the write buffer out as far as the
/// socket accepts, keeping the remainder for the next readiness sweep.
/// Two callers drive it: the TCP [`event_loop`] and [`serve_bytes`].
struct ConnState {
    /// Received-but-undecoded bytes (at most one partial frame plus
    /// whatever arrived behind it).
    rbuf: Vec<u8>,
    /// Bytes of a rejected oversized frame body still to be consumed
    /// before the next frame boundary.
    drain: usize,
    /// Encoded replies not yet accepted by the socket.
    wbuf: Vec<u8>,
    /// How much of `wbuf` the socket has accepted.
    wpos: usize,
    /// Successfully decoded requests (the span's `served` attribute).
    served: u64,
    /// The connection is done; drain `wbuf` and drop it.
    closing: bool,
    /// Observability span for wire-fault quarantine events.
    span: u64,
}

impl ConnState {
    fn new(span: u64) -> ConnState {
        ConnState {
            rbuf: Vec::new(),
            drain: 0,
            wbuf: Vec::new(),
            wpos: 0,
            served: 0,
            closing: false,
            span,
        }
    }

    /// Is the stream at a frame boundary (no partial frame buffered, no
    /// oversized body left to skip)? Governs which deadline applies: the
    /// generous idle deadline at a boundary, the stall budget mid-frame.
    fn at_boundary(&self) -> bool {
        self.rbuf.is_empty() && self.drain == 0
    }

    /// Append freshly-read bytes and decode every complete frame,
    /// queueing one reply per frame in request order.
    fn ingest(&mut self, service: &TrustService, bytes: &[u8]) {
        self.rbuf.extend_from_slice(bytes);
        let mut consumed = 0usize;
        let mut frames = 0u64;
        loop {
            if self.drain > 0 {
                // Mid-skip of a rejected oversized body: consume what
                // arrived; the reply is already queued.
                let n = (self.rbuf.len() - consumed).min(self.drain);
                consumed += n;
                self.drain -= n;
                if self.drain > 0 {
                    break;
                }
                continue;
            }
            if self.rbuf.len() - consumed < 4 {
                break;
            }
            let header: [u8; 4] = self.rbuf[consumed..consumed + 4]
                .try_into()
                .expect("4-byte slice");
            let len = u32::from_be_bytes(header) as usize;
            if len > MAX_FRAME {
                // Recoverable: the header declares where the next frame
                // starts. Queue the classified reply now and skip the
                // body as it arrives.
                let e = WireError::Oversized { len };
                record_wire_trace(self.span, &e);
                let reply = service.record_wire_fault(&e);
                self.push_reply(&reply);
                consumed += 4;
                self.drain = len;
                continue;
            }
            if self.rbuf.len() - consumed < 4 + len {
                break;
            }
            let reply = {
                let body = &self.rbuf[consumed + 4..consumed + 4 + len];
                match Request::decode(body) {
                    Ok(req) => {
                        self.served += 1;
                        service.handle(&req)
                    }
                    // Bad message, good framing: classify, reply, carry on.
                    Err(e) => {
                        record_wire_trace(self.span, &e);
                        service.record_wire_fault(&e)
                    }
                }
            };
            frames += 1;
            self.push_reply(&reply);
            consumed += 4 + len;
        }
        self.rbuf.drain(..consumed);
        if frames > 0 {
            // How many frames one readiness event delivered — the
            // observed pipelining depth.
            tangled_obs::registry::observe("trustd.event.pipeline_depth", frames);
        }
    }

    /// The peer closed its write side. Mid-frame EOF is a classified
    /// truncation; EOF while skipping an oversized body is *not* a second
    /// fault (the oversized frame was already recorded). A dead stall
    /// mid-frame takes the same path.
    fn on_eof(&mut self, service: &TrustService) {
        if self.drain == 0 && !self.rbuf.is_empty() {
            let e = WireError::Truncated;
            record_wire_trace(self.span, &e);
            let reply = service.record_wire_fault(&e);
            self.push_reply(&reply);
        }
        self.closing = true;
    }

    fn push_reply(&mut self, reply: &Response) {
        let body = reply.encode();
        self.wbuf
            .extend_from_slice(&(body.len() as u32).to_be_bytes());
        self.wbuf.extend_from_slice(&body);
    }

    /// Write as much of the reply buffer as the socket accepts right now.
    /// `Ok(true)` means fully drained; `Ok(false)` means the peer's
    /// window filled — the remainder stays buffered and this counts as a
    /// partial-write continuation.
    fn flush_once(&mut self, w: &mut impl Write) -> io::Result<bool> {
        while self.wpos < self.wbuf.len() {
            match w.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "peer accepts no more bytes",
                    ))
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if wire::is_timeout(&e) => {
                    tangled_obs::registry::add("trustd.event.partial_write", 1);
                    return Ok(false);
                }
                Err(e) => return Err(e),
            }
        }
        if !self.wbuf.is_empty() {
            self.wbuf.clear();
            self.wpos = 0;
            w.flush()?;
        }
        Ok(true)
    }
}

/// One whole connection, in process: feed `input` to a connection state
/// machine in `SCRATCH`-sized pieces (the sizes a socket read returns
/// in the TCP loop), then signal EOF. Returns the reply bytes, in request
/// order, and the number of requests served — the same faults recorded,
/// the same replies and the same close conditions as a TCP connection
/// that sent `input` and half-closed.
///
/// The chaos harness and the pipelining proptests drive the server
/// through this; no socket, no deadline.
pub fn serve_bytes(input: &[u8], service: &TrustService) -> (Vec<u8>, u64) {
    let mut state = ConnState::new(0);
    for piece in input.chunks(SCRATCH) {
        state.ingest(service, piece);
    }
    state.on_eof(service);
    (state.wbuf, state.served)
}

/// A running event-core trustd server: one accept thread plus a handful
/// of readiness-loop threads, each multiplexing many connections.
pub struct EventServer {
    local_addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    loops: Vec<JoinHandle<()>>,
}

impl EventServer {
    /// Bind `addr` and start `loops` readiness-loop threads (minimum 1),
    /// with default admission control.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<TrustService>,
        loops: usize,
    ) -> io::Result<EventServer> {
        EventServer::bind_with(
            addr,
            service,
            ServerConfig {
                workers: loops,
                ..ServerConfig::default()
            },
        )
    }

    /// Bind `addr` with explicit configuration. `config.workers` is the
    /// number of loop threads; `config.backlog` bounds *registered*
    /// connections — arrivals beyond it are shed with an explicit `busy`
    /// frame.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        service: Arc<TrustService>,
        config: ServerConfig,
    ) -> io::Result<EventServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        // Connections handed to a loop and not yet closed by it: the
        // admission-control input.
        let active = Arc::new(AtomicUsize::new(0));

        let n = config.workers.max(1);
        let mut txs = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = mpsc::channel::<TcpStream>();
            txs.push(tx);
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            let active = Arc::clone(&active);
            handles.push(std::thread::spawn(move || {
                event_loop(&rx, &service, &stop, &active)
            }));
        }

        let accept_stop = Arc::clone(&stop);
        let accept_active = Arc::clone(&active);
        let backlog = config.backlog;
        let accept_thread = std::thread::spawn(move || {
            let mut next = 0usize;
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(mut stream) = stream else { continue };
                tangled_obs::registry::add("trustd.conn.accepted", 1);
                if accept_active.load(Ordering::SeqCst) >= backlog {
                    shed(&mut stream);
                    continue;
                }
                accept_active.fetch_add(1, Ordering::SeqCst);
                // Round-robin across loop threads.
                if txs[next % txs.len()].send(stream).is_err() {
                    break;
                }
                next += 1;
            }
            // Dropping the senders disconnects the loops' channels.
        });

        Ok(EventServer {
            local_addr,
            stop,
            accept_thread: Some(accept_thread),
            loops: handles,
        })
    }

    /// The bound address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Stop accepting, flush registered connections, join every thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop: it blocks in `accept`, so poke it with a
        // throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        for handle in self.loops.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Shed one connection: explicit `busy` frame, bounded drain, close.
/// The peer gets a classified refusal, not a silent RST.
fn shed(stream: &mut TcpStream) {
    tangled_obs::registry::add("trustd.admission.shed", 1);
    let _ = wire::write_frame(stream, &Response::Busy.encode());
    // Drain whatever the peer already sent before closing: dropping a
    // socket with unread input raises an RST that can destroy the
    // in-flight `busy` frame. Bounded by one read timeout, so a shed
    // storm cannot pin the accept thread.
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let mut sink = [0u8; 4096];
    for _ in 0..64 {
        match stream.read(&mut sink) {
            Ok(n) if n > 0 => {}
            _ => break,
        }
    }
}

/// One registered connection in a readiness loop.
struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// Last time the socket produced bytes (or was registered) — drives
    /// the idle/stall deadlines without per-tick blocking reads.
    last_activity: Instant,
}

/// The readiness loop: sweep every registered connection with bounded
/// nonblocking reads, decode and reply, and sleep only when a whole
/// sweep made no progress.
fn event_loop(
    rx: &Receiver<TcpStream>,
    service: &Arc<TrustService>,
    stop: &Arc<AtomicBool>,
    active: &Arc<AtomicUsize>,
) {
    // Monotonic connection index: the span unit for live tracing. (Live
    // serving is inherently scheduling-dependent, so these spans are not
    // part of the pipeline's byte-identical trace contract.)
    static CONN_SEQ: AtomicU64 = AtomicU64::new(0);
    let idle_deadline = READ_TICK * IDLE_TICKS;
    let stall_deadline = READ_TICK * STALL_BUDGET;
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = [0u8; SCRATCH];
    let mut disconnected = false;
    let mut quiet_sweeps = 0u32;

    loop {
        // Register new arrivals.
        loop {
            match rx.try_recv() {
                Ok(stream) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    let id = CONN_SEQ.fetch_add(1, Ordering::Relaxed);
                    let span = tangled_obs::trace::span_start("trustd.conn", 0, id, &[]);
                    tangled_obs::registry::gauge_add("trustd.conn.active", 1);
                    conns.push(Conn {
                        stream,
                        state: ConnState::new(span),
                        last_activity: Instant::now(),
                    });
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        if stop.load(Ordering::SeqCst) || (disconnected && conns.is_empty()) {
            break;
        }
        tangled_obs::registry::add("trustd.event.wakeups", 1);

        let mut progress = false;
        let mut i = 0;
        while i < conns.len() {
            let conn = &mut conns[i];
            let mut close = false;

            if !conn.state.closing {
                for _ in 0..READS_PER_SWEEP {
                    match conn.stream.read(&mut scratch) {
                        Ok(0) => {
                            conn.state.on_eof(service);
                            break;
                        }
                        Ok(n) => {
                            progress = true;
                            conn.last_activity = Instant::now();
                            conn.state.ingest(service, &scratch[..n]);
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(e) if wire::is_timeout(&e) => break,
                        Err(_) => {
                            close = true;
                            break;
                        }
                    }
                }
            }

            match conn.state.flush_once(&mut conn.stream) {
                // Fully flushed and closing: the connection is done.
                Ok(true) => close = close || conn.state.closing,
                // Partial write: the remainder stays buffered for the
                // next sweep (a closing connection lingers until its
                // replies drain or its deadline passes).
                Ok(false) => progress = true,
                Err(_) => close = true,
            }

            if !close {
                // Deadlines: wall-clock since the socket last produced
                // bytes. A dead stall mid-frame is classified like an EOF
                // in the same position.
                let quiet = conn.last_activity.elapsed();
                if conn.state.at_boundary() && !conn.state.closing {
                    if quiet > idle_deadline {
                        tangled_obs::registry::add("trustd.conn.idle_closed", 1);
                        close = true;
                    }
                } else if quiet > stall_deadline {
                    if !conn.state.closing {
                        conn.state.on_eof(service);
                        let _ = conn.state.flush_once(&mut conn.stream);
                    }
                    close = true;
                }
            }

            if close {
                let conn = conns.swap_remove(i);
                finish_conn(conn, active);
            } else {
                i += 1;
            }
        }

        if progress {
            quiet_sweeps = 0;
        } else {
            quiet_sweeps += 1;
            if quiet_sweeps <= SPIN_SWEEPS && !conns.is_empty() {
                std::thread::yield_now();
            } else {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
    }

    // Shutdown: best-effort flush of queued replies, then release.
    for mut conn in conns.drain(..) {
        let _ = conn.state.flush_once(&mut conn.stream);
        finish_conn(conn, active);
    }
}

/// Record a wire fault into the metrics registry and, when a trace is
/// live, as a quarantine event on the connection span.
fn record_wire_trace(span: u64, e: &WireError) {
    tangled_obs::registry::add("trustd.wire_faults", 1);
    tangled_obs::trace::quarantine("trustd.conn", span, "wire", e.label(), 1);
}

fn finish_conn(conn: Conn, active: &Arc<AtomicUsize>) {
    active.fetch_sub(1, Ordering::SeqCst);
    tangled_obs::registry::gauge_add("trustd.conn.active", -1);
    tangled_obs::trace::span_end(
        "trustd.conn",
        conn.state.span,
        &[("served", Value::from(conn.state.served))],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::TrustClient;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn replies(outbox: &[u8]) -> Vec<Response> {
        let mut r = std::io::Cursor::new(outbox);
        let mut out = Vec::new();
        while let Some(body) = wire::read_frame(&mut r).expect("well-framed reply") {
            out.push(Response::decode(&body).expect("decodable reply"));
        }
        out
    }

    #[test]
    fn pipelined_frames_reply_in_request_order() {
        let service = TrustService::new(16);
        // Three frames written before any reply is read: a stats call, a
        // garbage body, another stats call.
        let mut burst = Vec::new();
        wire::write_frame(&mut burst, &Request::Stats.encode()).unwrap();
        wire::write_frame(&mut burst, b"this is not json").unwrap();
        wire::write_frame(&mut burst, &Request::Stats.encode()).unwrap();

        let (outbox, served) = serve_bytes(&burst, &service);
        assert_eq!(served, 2, "two decodable requests");

        let got = replies(&outbox);
        assert_eq!(got.len(), 3);
        assert!(matches!(got[0], Response::Stats(_)));
        assert_eq!(
            got[1],
            Response::Error {
                stage: "wire".into(),
                error: "bad-json".into()
            }
        );
        assert!(matches!(got[2], Response::Stats(_)));
        assert_eq!(service.stats().quarantined_total(), 1);
    }

    #[test]
    fn oversized_frame_mid_pipeline_resyncs() {
        let service = TrustService::new(16);
        let mut burst = Vec::new();
        wire::write_frame(&mut burst, &Request::Stats.encode()).unwrap();
        // Oversized frame, body present in full.
        let len = MAX_FRAME + 1;
        burst.extend_from_slice(&(len as u32).to_be_bytes());
        burst.extend_from_slice(&vec![0x42u8; len]);
        wire::write_frame(&mut burst, &Request::Stats.encode()).unwrap();

        let (outbox, _) = serve_bytes(&burst, &service);

        let got = replies(&outbox);
        assert_eq!(got.len(), 3);
        assert!(matches!(got[0], Response::Stats(_)));
        assert_eq!(
            got[1],
            Response::Error {
                stage: "wire".into(),
                error: "oversized-frame".into()
            }
        );
        assert!(matches!(got[2], Response::Stats(_)));
    }

    #[test]
    fn eof_mid_frame_is_a_classified_truncation() {
        let service = TrustService::new(16);
        // Header promises 8 bytes; only 4 arrive before EOF.
        let mut input = 8u32.to_be_bytes().to_vec();
        input.extend_from_slice(b"1234");

        let (outbox, served) = serve_bytes(&input, &service);
        assert_eq!(served, 0);
        assert_eq!(
            replies(&outbox),
            vec![Response::Error {
                stage: "wire".into(),
                error: "truncated-frame".into()
            }]
        );
        assert_eq!(service.stats().quarantined_total(), 1);
    }

    #[test]
    fn eof_while_draining_oversized_body_records_one_fault() {
        let service = TrustService::new(16);
        // Oversized header, body cut short by EOF: the oversized reply
        // goes out and the stream closes with exactly one recorded
        // fault, not a second truncation fault.
        let mut input = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        input.extend_from_slice(&[0x42u8; 100]);

        let (outbox, _) = serve_bytes(&input, &service);
        assert_eq!(
            replies(&outbox),
            vec![Response::Error {
                stage: "wire".into(),
                error: "oversized-frame".into()
            }]
        );
        assert_eq!(service.stats().quarantined_total(), 1);
    }

    /// A memo-less service: with capacity 0 no reply carries a `cached`
    /// flag that depends on an earlier run, so two runs over the same
    /// bytes must produce the same reply bytes.
    fn memoless_service() -> &'static TrustService {
        static SERVICE: OnceLock<TrustService> = OnceLock::new();
        SERVICE.get_or_init(|| TrustService::new(0))
    }

    /// One Table 6 origin chain, a garbage chain and an empty one.
    fn split_chains() -> &'static [Vec<Vec<u8>>] {
        static CHAINS: OnceLock<Vec<Vec<Vec<u8>>>> = OnceLock::new();
        CHAINS.get_or_init(|| {
            let origin = tangled_intercept::origin::OriginServers::for_table6();
            let mut targets: Vec<_> = origin.targets().collect();
            targets.sort_by_key(|t| t.to_string());
            let chain = origin
                .chain(targets[0])
                .expect("table 6 target has a chain");
            vec![
                chain.iter().map(|c| c.to_der().to_vec()).collect(),
                vec![vec![0xde, 0xad]],
                Vec::new(),
            ]
        })
    }

    /// One frame of a generated pipelined stream: a stateless request
    /// (no `stats`, no `swap`), a garbage body, or an oversized frame.
    fn arb_frame() -> impl Strategy<Value = Vec<u8>> {
        let chain = || (0..split_chains().len()).prop_map(|i| split_chains()[i].clone());
        let request = prop_oneof![
            chain().prop_map(|chain| Request::Validate {
                profile: "AOSP 4.4".to_owned(),
                chain,
            }),
            chain().prop_map(|chain| Request::Compare { chain }),
            proptest::collection::vec(any::<u8>(), 0..32)
                .prop_map(|cert| Request::Classify { cert }),
        ];
        prop_oneof![
            6 => request.prop_map(|req| {
                let mut frame = Vec::new();
                wire::write_frame(&mut frame, &req.encode()).expect("bounded frame");
                frame
            }),
            2 => proptest::collection::vec(any::<u8>(), 0..24).prop_map(|tail| {
                let mut body = vec![0xffu8];
                body.extend(tail);
                let mut frame = Vec::new();
                wire::write_frame(&mut frame, &body).expect("bounded frame");
                frame
            }),
            1 => (1usize..4).prop_map(|extra| {
                let len = MAX_FRAME + extra;
                let mut frame = (len as u32).to_be_bytes().to_vec();
                frame.resize(4 + len, 0);
                frame
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// However the bytes of a pipelined stream are cut into reads,
        /// the state machine answers with the same reply bytes and the
        /// same served count as one `serve_bytes` call. Reads take their
        /// sizes from `sizes` in turn, from single bytes up to several
        /// scratch buffers, so cuts land anywhere: inside a header, a
        /// body, or an oversized skip; the stream may end with a frame
        /// cut short.
        #[test]
        fn replies_are_invariant_under_read_splits(
            frames in proptest::collection::vec(arb_frame(), 1..6),
            sizes in proptest::collection::vec(
                prop_oneof![1usize..8, 8usize..4 * SCRATCH],
                1..8,
            ),
            truncate in any::<bool>(),
        ) {
            let mut input: Vec<u8> = frames.concat();
            if truncate {
                input.pop();
            }

            let service = memoless_service();
            let mut state = ConnState::new(0);
            let mut rest = &input[..];
            for &size in sizes.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (read, tail) = rest.split_at(size.min(rest.len()));
                state.ingest(service, read);
                rest = tail;
            }
            state.on_eof(service);

            let (whole, served) = serve_bytes(&input, service);
            prop_assert_eq!(state.served, served);
            prop_assert!(state.wbuf == whole, "reply bytes depend on the read split");
        }
    }

    #[test]
    fn event_server_round_trips_and_shuts_down() {
        let service = Arc::new(TrustService::new(16));
        let server =
            EventServer::bind("127.0.0.1:0", Arc::clone(&service), 2).expect("bind");
        let addr = server.local_addr();

        let mut client = TrustClient::connect(addr).expect("connect");
        match client.call(&Request::Stats).expect("stats call") {
            Response::Stats(doc) => {
                assert!(doc["served"].as_object().is_some() || doc["served"].is_null());
            }
            other => panic!("unexpected {other:?}"),
        }
        drop(client);
        server.shutdown();
        assert_eq!(service.stats().served_total(), 1);
    }

    #[test]
    fn event_server_pipelines_over_tcp() {
        let service = Arc::new(TrustService::new(16));
        let server =
            EventServer::bind("127.0.0.1:0", Arc::clone(&service), 1).expect("bind");

        let mut client = TrustClient::connect(server.local_addr()).expect("connect");
        let reqs: Vec<Request> = (0..8).map(|_| Request::Stats).collect();
        let got = client.pipeline(&reqs).expect("pipelined call");
        assert_eq!(got.len(), 8);
        assert!(got.iter().all(|r| matches!(r, Response::Stats(_))));

        server.shutdown();
        assert_eq!(service.stats().served_total(), 8);
    }

    #[test]
    fn event_server_keeps_connection_alive_through_bad_message() {
        let service = Arc::new(TrustService::new(16));
        let server =
            EventServer::bind("127.0.0.1:0", Arc::clone(&service), 1).expect("bind");
        let mut client = TrustClient::connect(server.local_addr()).expect("connect");

        let resp = client.call_raw(b"this is not json").expect("raw call");
        assert_eq!(
            resp,
            Response::Error {
                stage: "wire".into(),
                error: "bad-json".into()
            }
        );
        match client.call(&Request::Stats).expect("stats after fault") {
            Response::Stats(_) => {}
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
        assert_eq!(service.stats().quarantined_total(), 1);
    }

    #[test]
    fn event_server_oversized_frame_resyncs_connection() {
        let service = Arc::new(TrustService::new(16));
        let server =
            EventServer::bind("127.0.0.1:0", Arc::clone(&service), 1).expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

        // Hand-rolled oversized frame (the client refuses to build one):
        // header declares MAX_FRAME + 1 bytes, body follows in full.
        let len = MAX_FRAME + 1;
        stream.write_all(&(len as u32).to_be_bytes()).unwrap();
        stream.write_all(&vec![0x42u8; len]).unwrap();
        // Followed, on the same socket, by a well-formed request.
        wire::write_frame(&mut stream, &Request::Stats.encode()).unwrap();

        // First reply: the classified oversized-frame error.
        let body = wire::read_frame(&mut stream).unwrap().expect("error reply");
        assert_eq!(
            Response::decode(&body).unwrap(),
            Response::Error {
                stage: "wire".into(),
                error: "oversized-frame".into()
            }
        );
        // Second reply: the stats answer — the multiplexed loop skipped
        // the declared body and kept the connection.
        let body = wire::read_frame(&mut stream).unwrap().expect("stats reply");
        assert!(matches!(Response::decode(&body).unwrap(), Response::Stats(_)));

        server.shutdown();
        assert_eq!(service.stats().quarantined_total(), 1);
    }

    #[test]
    fn event_server_zero_backlog_sheds_with_busy() {
        let service = Arc::new(TrustService::new(16));
        let server = EventServer::bind_with(
            "127.0.0.1:0",
            Arc::clone(&service),
            ServerConfig {
                workers: 1,
                backlog: 0,
            },
        )
        .expect("bind");

        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let body = wire::read_frame(&mut stream).unwrap().expect("busy frame");
        assert_eq!(Response::decode(&body).unwrap(), Response::Busy);
        assert_eq!(wire::read_frame(&mut stream).unwrap(), None, "closed");

        server.shutdown();
        assert_eq!(service.stats().served_total(), 0, "nothing registered");
    }
}
