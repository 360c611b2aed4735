//! A small blocking client for the trustd wire protocol.
//!
//! One deadline per direction. Reads: sockets carry a short read
//! timeout (the wire's `READ_TICK`), and the wait for a reply is bounded
//! by `STALL_BUDGET` consecutive idle ticks, the same budget a frame
//! read tolerates mid-frame. A server that goes silent therefore
//! surfaces as [`ClientError::TimedOut`] instead of hanging the caller
//! forever; any received byte resets the budget, so a slow-but-live
//! server is never misclassified. Writes: the socket's own
//! `WRITE_BUDGET` write timeout bounds each frame write, so a server
//! that stops draining fails the call as [`ClientError::Io`].
//!
//! The client is generic over its stream so the chaos harness can run it
//! over simulated and fault-injecting transports; the `TcpStream` impl
//! adds the connect helpers.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::wire::{self, FrameError, Request, Response, WireError, READ_TICK, STALL_BUDGET};
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Write timeout for TCP sockets: a peer that stops draining cannot
/// block the caller in `write` for longer than this.
const WRITE_BUDGET: Duration = Duration::from_secs(5);

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server broke the wire protocol.
    Protocol(WireError),
    /// The server closed the connection instead of replying.
    Closed,
    /// The server went silent past the reply deadline.
    TimedOut,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::TimedOut => write!(f, "server exceeded the reply deadline"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> ClientError {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            FrameError::Wire(e) => ClientError::Protocol(e),
        }
    }
}

/// One connection to a trustd server.
pub struct TrustClient<S = TcpStream> {
    stream: S,
}

/// Open a TCP socket with the client deadline discipline: no-delay, a
/// `READ_TICK` read timeout and a `WRITE_BUDGET` write timeout. Every
/// client-side socket — plain or under a chaos wrapper — is opened here.
pub(crate) fn dial(addr: impl ToSocketAddrs) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TICK))?;
    stream.set_write_timeout(Some(WRITE_BUDGET))?;
    Ok(stream)
}

impl TrustClient<TcpStream> {
    /// Connect once, over a socket with the client deadlines.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TrustClient> {
        Ok(TrustClient::from_stream(dial(addr)?))
    }

    /// Connect with retries until `deadline` elapses — for racing a
    /// server that is still binding (CI loadgen smoke).
    pub fn connect_retry(
        addr: impl ToSocketAddrs + Clone,
        deadline: Duration,
    ) -> io::Result<TrustClient> {
        let started = Instant::now();
        loop {
            match TrustClient::connect(addr.clone()) {
                Ok(client) => return Ok(client),
                Err(e) if started.elapsed() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
}

impl<S: Read + Write> TrustClient<S> {
    /// Wrap an already-connected stream (simulated transports, chaos
    /// wrappers). The stream should report idle waits as
    /// `WouldBlock`/`TimedOut` for the reply deadline to be meaningful.
    pub fn from_stream(stream: S) -> TrustClient<S> {
        TrustClient { stream }
    }

    /// Send a request, wait for the reply.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.call_raw(&req.encode())
    }

    /// Send raw frame bytes (protocol-fault tests), wait for the reply.
    ///
    /// The wait is bounded: `read_frame` internally tolerates idle ticks
    /// *mid-frame*, while ticks at the reply boundary — nothing received
    /// yet — surface here; both are counted against `STALL_BUDGET`.
    pub fn call_raw(&mut self, body: &[u8]) -> Result<Response, ClientError> {
        wire::write_frame(&mut self.stream, body).map_err(ClientError::Io)?;
        self.read_reply()
    }

    /// Pipelined call: write *all* request frames before reading any
    /// reply, then collect the replies in request order (the event core's
    /// per-connection ordering guarantee). A depth-N burst costs one
    /// coalesced write window and one read window instead of N strict
    /// round trips. The reply budget applies per reply — each delivered
    /// reply resets the idle clock, so a server grinding through a long
    /// batch is never misclassified as stalled.
    /// A `busy` reply short-circuits the burst: only the admission path
    /// ever sends `busy`, and it closes the connection after, so nothing
    /// else is coming — the returned vector ends with that `busy` and may
    /// be shorter than `reqs`.
    pub fn pipeline(&mut self, reqs: &[Request]) -> Result<Vec<Response>, ClientError> {
        for req in reqs {
            wire::write_frame(&mut self.stream, &req.encode())
                .map_err(ClientError::Io)?;
        }
        let mut replies = Vec::with_capacity(reqs.len());
        for _ in reqs {
            let resp = self.read_reply()?;
            let shed = matches!(resp, Response::Busy);
            replies.push(resp);
            if shed {
                break;
            }
        }
        Ok(replies)
    }

    /// Wait for one reply frame under `STALL_BUDGET` consecutive idle
    /// ticks.
    fn read_reply(&mut self) -> Result<Response, ClientError> {
        let mut idle = 0u32;
        loop {
            match wire::read_frame(&mut self.stream) {
                Ok(Some(frame)) => {
                    return Response::decode(&frame).map_err(ClientError::Protocol);
                }
                Ok(None) => return Err(ClientError::Closed),
                Err(FrameError::Io(e)) if wire::is_timeout(&e) => {
                    idle += 1;
                    if idle > STALL_BUDGET {
                        return Err(ClientError::TimedOut);
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts the request, then never replies: every read is an idle
    /// tick.
    struct SilentServer;

    impl Read for SilentServer {
        fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            Err(io::Error::new(io::ErrorKind::WouldBlock, "tick"))
        }
    }

    impl Write for SilentServer {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn stalled_server_times_out_instead_of_hanging() {
        // The mock ticks without sleeping, so the full budget is instant.
        let mut client = TrustClient::from_stream(SilentServer);
        match client.call(&Request::Stats) {
            Err(ClientError::TimedOut) => {}
            other => panic!("expected TimedOut, got {other:?}"),
        }
    }

    /// Replies after a fixed number of idle ticks.
    struct SlowServer {
        reply: Vec<u8>,
        pos: usize,
        ticks_before_reply: u32,
    }

    impl Read for SlowServer {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.ticks_before_reply > 0 {
                self.ticks_before_reply -= 1;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "tick"));
            }
            if self.pos >= self.reply.len() {
                return Ok(0);
            }
            let n = buf.len().min(self.reply.len() - self.pos);
            buf[..n].copy_from_slice(&self.reply[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    impl Write for SlowServer {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn slow_reply_within_budget_is_delivered() {
        let mut reply = Vec::new();
        wire::write_frame(&mut reply, &Response::Busy.encode()).unwrap();
        let mut client = TrustClient::from_stream(SlowServer {
            reply,
            pos: 0,
            ticks_before_reply: 5,
        });
        assert_eq!(client.call(&Request::Stats).unwrap(), Response::Busy);
    }

    /// Accepts request bytes one at a time — a peer whose receive window
    /// holds a single byte — and serves a canned reply stream.
    struct TricklingServer {
        received: Vec<u8>,
        reply: Vec<u8>,
        pos: usize,
    }

    impl Read for TricklingServer {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.reply.len() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "tick"));
            }
            let n = buf.len().min(self.reply.len() - self.pos);
            buf[..n].copy_from_slice(&self.reply[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    impl Write for TricklingServer {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            match buf.first() {
                Some(&b) => {
                    self.received.push(b);
                    Ok(1)
                }
                None => Ok(0),
            }
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn pipelined_burst_survives_short_writes() {
        // A pipelined burst is far larger than one write window: every
        // write is short. The frame writer must still deliver the whole
        // burst. `busy` would short-circuit the pipelined read loop by
        // design, so the mock replies with classified errors instead.
        let canned = Response::Error {
            stage: "wire".to_owned(),
            error: "bad-json".to_owned(),
        };
        let mut reply = Vec::new();
        for _ in 0..4 {
            wire::write_frame(&mut reply, &canned.encode()).unwrap();
        }
        let mut client = TrustClient::from_stream(TricklingServer {
            received: Vec::new(),
            reply,
            pos: 0,
        });
        let reqs: Vec<Request> = (0..4).map(|_| Request::Stats).collect();
        let replies = client.pipeline(&reqs).expect("burst delivered");
        assert_eq!(replies.len(), 4);
        assert!(replies.iter().all(|r| *r == canned));

        // The server really did receive all four frames intact.
        let TricklingServer { received, .. } = client.stream;
        let mut r = std::io::Cursor::new(received);
        for _ in 0..4 {
            let body = wire::read_frame(&mut r).unwrap().expect("request frame");
            assert_eq!(Request::decode(&body).unwrap(), Request::Stats);
        }
    }
}
