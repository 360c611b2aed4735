//! The `trustd` wire protocol: length-prefixed JSON frames.
//!
//! Every message is a 4-byte big-endian length followed by that many bytes
//! of UTF-8 JSON. Frames are bounded by [`MAX_FRAME`]; anything larger is
//! rejected before allocation. Certificate bytes travel as standard Base64
//! (the same alphabet as PEM bodies), store snapshots reuse the
//! [`StoreSnapshot`] JSON schema of `tangled-pki`.
//!
//! [`read_frame`] waits out read-timeout ticks mid-frame under
//! `STALL_BUDGET`; [`write_frame`] is plain `write_all`s, so the
//! writer's socket write timeout is its one write deadline.
//!
//! Malformed input is a *classified* failure, not a dropped connection:
//! every decode error carries a stable [`WireError::label`] that the
//! server records in its quarantine ledger — the PR-1 graceful-degradation
//! vocabulary extended to the serving path.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::time::Duration;
use tangled_pki::cacerts::CacertsFile;
use tangled_pki::store::StoreSnapshot;
use tangled_x509::pem::{base64_decode, base64_encode};

/// Maximum frame size in bytes (header excluded). Large enough for a full
/// 150-anchor cacerts snapshot, small enough to bound per-connection
/// memory.
pub const MAX_FRAME: usize = 1 << 20;

/// Why a frame or message failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The declared frame length exceeds [`MAX_FRAME`].
    Oversized {
        /// The declared length.
        len: usize,
    },
    /// The peer closed the connection mid-frame.
    Truncated,
    /// The frame body is not valid UTF-8 JSON.
    BadJson,
    /// The JSON parsed but is not a well-formed message.
    BadRequest(&'static str),
}

impl WireError {
    /// Stable quarantine label (health-ledger key).
    pub fn label(&self) -> &'static str {
        match self {
            WireError::Oversized { .. } => "oversized-frame",
            WireError::Truncated => "truncated-frame",
            WireError::BadJson => "bad-json",
            WireError::BadRequest(_) => "bad-request",
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Oversized { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte limit")
            }
            WireError::Truncated => write!(f, "connection closed mid-frame"),
            WireError::BadJson => write!(f, "frame body is not valid JSON"),
            WireError::BadRequest(what) => write!(f, "malformed message: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A frame-layer failure: transport error or protocol violation.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed (including read timeouts).
    Io(io::Error),
    /// The peer violated the framing protocol.
    Wire(WireError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::Wire(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Is this I/O error a read-timeout (the server's idle poll tick)?
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// The socket read-timeout tick: the unit in which the idle and stall
/// deadlines are counted, on both ends of a connection.
pub(crate) const READ_TICK: Duration = Duration::from_millis(50);

/// How many *consecutive* idle timeout ticks a read tolerates before the
/// peer is declared dead: mid-frame on either end, and before a reply's
/// first byte in the client. 200 ticks ≈ ten seconds at [`READ_TICK`] — a
/// stalled peer cannot pin a connection forever, but any progress resets
/// the clock, so a slow-but-live peer is never misclassified.
pub(crate) const STALL_BUDGET: u32 = 200;

/// Fill `buf` completely. `Ok(false)` means clean EOF before the first
/// byte (only legal when `at_boundary`); EOF mid-buffer is
/// [`WireError::Truncated`]. A read timeout with nothing buffered
/// propagates as [`FrameError::Io`] so the caller can poll a stop flag; a
/// timeout *mid-frame* keeps waiting (bounded by [`STALL_BUDGET`]
/// consecutive idle ticks).
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    at_boundary: bool,
) -> Result<bool, FrameError> {
    let mut filled = 0usize;
    let mut stalls = 0u32;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && at_boundary {
                    Ok(false)
                } else {
                    Err(FrameError::Wire(WireError::Truncated))
                };
            }
            Ok(n) => {
                filled += n;
                stalls = 0;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => {
                if filled == 0 && at_boundary {
                    return Err(FrameError::Io(e));
                }
                stalls += 1;
                if stalls > STALL_BUDGET {
                    return Err(FrameError::Wire(WireError::Truncated));
                }
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(true)
}

/// Read one frame. `Ok(None)` is a clean end-of-stream at a frame
/// boundary.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 4];
    if !read_full(r, &mut header, true)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::Wire(WireError::Oversized { len }));
    }
    let mut body = vec![0u8; len];
    read_full(r, &mut body, false)?;
    Ok(Some(body))
}

/// Write one frame with `write_all`: short writes are continued, and a
/// write that times out fails the frame at once, so the socket's write
/// timeout is the whole write deadline.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME",
        ));
    }
    w.write_all(&(body.len() as u32).to_be_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// A query to the trust service.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Validate a presented chain (leaf first) against a named store
    /// profile.
    Validate {
        /// Store profile name (e.g. `"AOSP 4.4"`).
        profile: String,
        /// DER certificates, leaf first, intermediates after.
        chain: Vec<Vec<u8>>,
    },
    /// Classify a root certificate per the paper's extra-root taxonomy.
    Classify {
        /// DER certificate.
        cert: Vec<u8>,
    },
    /// Audit a cacerts snapshot against an AOSP baseline
    /// (damaged files are quarantined, not fatal).
    Audit {
        /// Baseline store name (`"4.4"` or `"AOSP 4.4"`).
        baseline: String,
        /// The snapshot's files.
        files: Vec<CacertsFile>,
    },
    /// Interception verdict for a presented chain on a target.
    Probe {
        /// Store profile the probing device runs.
        profile: String,
        /// Probed endpoint, `host:port`.
        target: String,
        /// Presented DER chain, leaf first.
        chain: Vec<Vec<u8>>,
        /// Does the client app pin the expected issuer?
        pinned: bool,
    },
    /// One adversarial-interception scenario session: a client with a
    /// named validator defect sees a (possibly re-signed) chain for a
    /// target, and the server returns the conservation-ledger outcome —
    /// whitelisted, blocked(reason) or intercepted(attributed-defect).
    /// Idempotent: a pure function of its inputs and the named profile.
    ProbeSession {
        /// Store profile the device runs (e.g. `"AOSP 4.4"`).
        profile: String,
        /// The client's validator-defect label
        /// ([`tangled_intercept::DefectClass`]).
        defect: String,
        /// Probed endpoint, `host:port`.
        target: String,
        /// Presented DER chain, leaf first.
        chain: Vec<Vec<u8>>,
        /// Does the client app pin the expected issuer?
        pinned: bool,
        /// A root the interceptor installed on the device, if any (DER).
        extra_anchor: Option<Vec<u8>>,
        /// Did the proxy interpose on this session (false = whitelisted
        /// pass-through)?
        intercepted: bool,
    },
    /// Cross-ecosystem comparison: validate one presented chain against
    /// *every* standard store profile in a single round trip (the
    /// disparity engine's per-chain verdict vector, amortising one index
    /// lookup across all ecosystems).
    Compare {
        /// DER certificates, leaf first, intermediates after.
        chain: Vec<Vec<u8>>,
    },
    /// Install or replace a store profile (bumps its epoch).
    Swap {
        /// Profile name to (re)install.
        profile: String,
        /// The new store contents.
        snapshot: StoreSnapshot,
    },
    /// Fetch the server's counters.
    Stats,
}

impl Request {
    /// The request-type tag (stats key).
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Validate { .. } => "validate",
            Request::Classify { .. } => "classify",
            Request::Audit { .. } => "audit",
            Request::Probe { .. } => "probe",
            Request::ProbeSession { .. } => "probe_session",
            Request::Compare { .. } => "compare",
            Request::Swap { .. } => "swap",
            Request::Stats => "stats",
        }
    }

    /// May this request be blindly retried after a transport failure?
    ///
    /// Queries (`validate`, `compare`, `classify`, `audit`, `probe`,
    /// `probe_session`, `stats`) are pure reads: executing one twice is
    /// indistinguishable from once.
    /// `swap` mutates the index and bumps the profile epoch, so a retry
    /// after an ambiguous failure could double-install; the retrying
    /// client (`resilient::ResilientClient`) refuses it.
    pub fn is_idempotent(&self) -> bool {
        !matches!(self, Request::Swap { .. })
    }

    /// JSON form.
    pub fn to_value(&self) -> Value {
        match self {
            Request::Validate { profile, chain } => json!({
                "type": "validate",
                "profile": profile.as_str(),
                "chain": encode_chain(chain),
            }),
            Request::Classify { cert } => json!({
                "type": "classify",
                "cert": base64_encode(cert),
            }),
            Request::Audit { baseline, files } => json!({
                "type": "audit",
                "baseline": baseline.as_str(),
                "files": files
                    .iter()
                    .map(|f| json!({
                        "name": f.name.as_str(),
                        "body": base64_encode(&f.der),
                    }))
                    .collect::<Vec<_>>(),
            }),
            Request::Probe {
                profile,
                target,
                chain,
                pinned,
            } => json!({
                "type": "probe",
                "profile": profile.as_str(),
                "target": target.as_str(),
                "chain": encode_chain(chain),
                "pinned": *pinned,
            }),
            Request::ProbeSession {
                profile,
                defect,
                target,
                chain,
                pinned,
                extra_anchor,
                intercepted,
            } => {
                let extra = match extra_anchor {
                    Some(anchor) => Value::from(base64_encode(anchor)),
                    None => Value::Null,
                };
                json!({
                    "type": "probe_session",
                    "profile": profile.as_str(),
                    "defect": defect.as_str(),
                    "target": target.as_str(),
                    "chain": encode_chain(chain),
                    "pinned": *pinned,
                    "extra_anchor": extra,
                    "intercepted": *intercepted,
                })
            }
            Request::Compare { chain } => json!({
                "type": "compare",
                "chain": encode_chain(chain),
            }),
            Request::Swap { profile, snapshot } => json!({
                "type": "swap",
                "profile": profile.as_str(),
                "snapshot": serde_json::Serialize::to_json_value(snapshot),
            }),
            Request::Stats => json!({ "type": "stats" }),
        }
    }

    /// Parse a request from its JSON form.
    pub fn from_value(v: &Value) -> Result<Request, WireError> {
        match str_field(v, "type")? {
            "validate" => Ok(Request::Validate {
                profile: str_field(v, "profile")?.to_owned(),
                chain: decode_chain(v.get("chain"))?,
            }),
            "classify" => Ok(Request::Classify {
                cert: decode_blob(v.get("cert"))?,
            }),
            "audit" => {
                let files = v
                    .get("files")
                    .and_then(Value::as_array)
                    .ok_or(WireError::BadRequest("missing files array"))?
                    .iter()
                    .map(|f| {
                        Ok(CacertsFile {
                            name: str_field(f, "name")?.to_owned(),
                            der: decode_blob(f.get("body"))?,
                        })
                    })
                    .collect::<Result<Vec<_>, WireError>>()?;
                Ok(Request::Audit {
                    baseline: str_field(v, "baseline")?.to_owned(),
                    files,
                })
            }
            "probe" => Ok(Request::Probe {
                profile: str_field(v, "profile")?.to_owned(),
                target: str_field(v, "target")?.to_owned(),
                chain: decode_chain(v.get("chain"))?,
                pinned: v
                    .get("pinned")
                    .and_then(Value::as_bool)
                    .ok_or(WireError::BadRequest("missing pinned flag"))?,
            }),
            "probe_session" => {
                let extra_anchor = match v.get("extra_anchor") {
                    None | Some(Value::Null) => None,
                    some => Some(decode_blob(some)?),
                };
                Ok(Request::ProbeSession {
                    profile: str_field(v, "profile")?.to_owned(),
                    defect: str_field(v, "defect")?.to_owned(),
                    target: str_field(v, "target")?.to_owned(),
                    chain: decode_chain(v.get("chain"))?,
                    pinned: v
                        .get("pinned")
                        .and_then(Value::as_bool)
                        .ok_or(WireError::BadRequest("missing pinned flag"))?,
                    extra_anchor,
                    intercepted: v
                        .get("intercepted")
                        .and_then(Value::as_bool)
                        .ok_or(WireError::BadRequest("missing intercepted flag"))?,
                })
            }
            "compare" => Ok(Request::Compare {
                chain: decode_chain(v.get("chain"))?,
            }),
            "swap" => {
                let snap = v
                    .get("snapshot")
                    .ok_or(WireError::BadRequest("missing snapshot"))?;
                let snapshot: StoreSnapshot =
                    serde_json::Deserialize::from_json_value(snap)
                        .map_err(|_| WireError::BadRequest("malformed snapshot"))?;
                Ok(Request::Swap {
                    profile: str_field(v, "profile")?.to_owned(),
                    snapshot,
                })
            }
            "stats" => Ok(Request::Stats),
            _ => Err(WireError::BadRequest("unknown request type")),
        }
    }

    /// Serialize to frame-body bytes.
    pub fn encode(&self) -> Vec<u8> {
        self.to_value().to_string().into_bytes()
    }

    /// Parse frame-body bytes.
    pub fn decode(body: &[u8]) -> Result<Request, WireError> {
        Request::from_value(&parse_body(body)?)
    }
}

/// The trust decision a `validate` request resolves to. Cache-friendly:
/// the *hit/miss* marker lives on the response, not here, so one cached
/// verdict answers any number of requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainVerdict {
    /// The chain anchors in the profile's store.
    Trusted {
        /// Subject of the anchoring trust anchor.
        anchor: String,
        /// Full path length, leaf to anchor inclusive.
        chain_len: usize,
    },
    /// No acceptable path exists.
    Untrusted {
        /// Stable failure label (`no-path`, `bad-signature`, …).
        error: String,
    },
}

impl ChainVerdict {
    /// The verdict's JSON object — `verdict` plus `anchor` and
    /// `chain_len`, or `error` — merged with the carrying reply's own
    /// `fields`. Objects keep their keys sorted, so the merge order does
    /// not reach the wire.
    fn to_value<const N: usize>(&self, fields: [(&str, Value); N]) -> Value {
        let mut object: BTreeMap<String, Value> = fields
            .into_iter()
            .map(|(key, value)| (key.to_owned(), value))
            .collect();
        match self {
            ChainVerdict::Trusted { anchor, chain_len } => {
                object.insert("verdict".into(), "trusted".into());
                object.insert("anchor".into(), anchor.as_str().into());
                object.insert("chain_len".into(), (*chain_len as u64).into());
            }
            ChainVerdict::Untrusted { error } => {
                object.insert("verdict".into(), "untrusted".into());
                object.insert("error".into(), error.as_str().into());
            }
        }
        Value::Object(object)
    }

    /// Read the verdict out of an object [`ChainVerdict::to_value`] wrote.
    fn from_value(v: &Value) -> Result<ChainVerdict, WireError> {
        match str_field(v, "verdict")? {
            "trusted" => Ok(ChainVerdict::Trusted {
                anchor: str_field(v, "anchor")?.to_owned(),
                chain_len: usize_field(v, "chain_len")?,
            }),
            "untrusted" => Ok(ChainVerdict::Untrusted {
                error: str_field(v, "error")?.to_owned(),
            }),
            _ => Err(WireError::BadRequest("unknown verdict")),
        }
    }
}

/// The canonical text of a verdict: `trusted/<anchor>/<chain_len>` or
/// `untrusted/<error>` — what [`crate::replay::canonical`] compares.
impl std::fmt::Display for ChainVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainVerdict::Trusted { anchor, chain_len } => {
                write!(f, "trusted/{anchor}/{chain_len}")
            }
            ChainVerdict::Untrusted { error } => write!(f, "untrusted/{error}"),
        }
    }
}

/// A reply from the trust service.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Validate result.
    Validate {
        /// The verdict.
        verdict: ChainVerdict,
        /// Served from the memo cache?
        cached: bool,
    },
    /// Classify result.
    Classify {
        /// Taxonomy class (`aosp`, `mozilla+ios7`, `ios7`, `only-android`,
        /// `not-recorded`).
        class: String,
        /// Profiles whose store contains this identity (sorted).
        profiles: Vec<String>,
    },
    /// Audit result.
    Audit {
        /// Rolled-up risk label.
        risk: String,
        /// Additions vs the baseline.
        added: usize,
        /// Removals vs the baseline.
        removed: usize,
        /// Total findings.
        findings: usize,
        /// Snapshot files refused by the lenient loader: (file, label).
        quarantined: Vec<(String, String)>,
    },
    /// Probe result.
    Probe {
        /// Canonical verdict string (`clean`, `pin-violation`, …).
        verdict: String,
    },
    /// Scenario-session result: the conservation-ledger bucket.
    ProbeSession {
        /// Canonical outcome label (`whitelisted`, `blocked(reason)`,
        /// `intercepted(defect)`).
        outcome: String,
    },
    /// Compare result: the per-chain ecosystem verdict vector.
    Compare {
        /// Hex [`tangled_x509::ChainKey`] of the presented chain — the
        /// key the disparity engine's verdict vectors are indexed by.
        chain_key: String,
        /// One `(profile, verdict)` per standard store, in the canonical
        /// store order (reference stores first, then ecosystem families).
        verdicts: Vec<(String, ChainVerdict)>,
        /// How many of the per-profile verdicts came from the memo cache.
        cached: usize,
    },
    /// Swap result.
    Swap {
        /// The profile installed.
        profile: String,
        /// Its new epoch.
        epoch: u64,
        /// Anchors in the installed store.
        anchors: usize,
    },
    /// Stats document (free-form JSON).
    Stats(Value),
    /// The server is at its admission budget and shed this connection
    /// before reading a request. Clients should back off and retry.
    Busy,
    /// A classified failure; `stage` is `wire` for framing/decode errors,
    /// otherwise the request type that rejected its input.
    Error {
        /// Which stage refused the input.
        stage: String,
        /// Stable error label.
        error: String,
    },
}

impl Response {
    /// JSON form.
    pub fn to_value(&self) -> Value {
        match self {
            Response::Validate { verdict, cached } => {
                verdict.to_value([("type", "validate".into()), ("cached", (*cached).into())])
            }
            Response::Classify { class, profiles } => json!({
                "type": "classify",
                "class": class.as_str(),
                "profiles": profiles.iter().map(String::as_str).collect::<Vec<_>>(),
            }),
            Response::Audit {
                risk,
                added,
                removed,
                findings,
                quarantined,
            } => json!({
                "type": "audit",
                "risk": risk.as_str(),
                "added": *added as u64,
                "removed": *removed as u64,
                "findings": *findings as u64,
                "quarantined": quarantined
                    .iter()
                    .map(|(file, label)| json!({
                        "file": file.as_str(),
                        "error": label.as_str(),
                    }))
                    .collect::<Vec<_>>(),
            }),
            Response::Probe { verdict } => json!({
                "type": "probe",
                "verdict": verdict.as_str(),
            }),
            Response::ProbeSession { outcome } => json!({
                "type": "probe_session",
                "outcome": outcome.as_str(),
            }),
            Response::Compare {
                chain_key,
                verdicts,
                cached,
            } => json!({
                "type": "compare",
                "chain_key": chain_key.as_str(),
                "verdicts": verdicts
                    .iter()
                    .map(|(store, verdict)| verdict.to_value([("store", store.as_str().into())]))
                    .collect::<Vec<_>>(),
                "cached": *cached as u64,
            }),
            Response::Swap {
                profile,
                epoch,
                anchors,
            } => json!({
                "type": "swap",
                "profile": profile.as_str(),
                "epoch": *epoch,
                "anchors": *anchors as u64,
            }),
            Response::Stats(doc) => json!({
                "type": "stats",
                "stats": doc.clone(),
            }),
            Response::Busy => json!({ "type": "busy" }),
            Response::Error { stage, error } => json!({
                "type": "error",
                "stage": stage.as_str(),
                "error": error.as_str(),
            }),
        }
    }

    /// Parse a response from its JSON form.
    pub fn from_value(v: &Value) -> Result<Response, WireError> {
        match str_field(v, "type")? {
            "validate" => {
                let cached = v
                    .get("cached")
                    .and_then(Value::as_bool)
                    .ok_or(WireError::BadRequest("missing cached flag"))?;
                let verdict = ChainVerdict::from_value(v)?;
                Ok(Response::Validate { verdict, cached })
            }
            "classify" => Ok(Response::Classify {
                class: str_field(v, "class")?.to_owned(),
                profiles: v
                    .get("profiles")
                    .and_then(Value::as_array)
                    .ok_or(WireError::BadRequest("missing profiles"))?
                    .iter()
                    .map(|p| {
                        p.as_str()
                            .map(str::to_owned)
                            .ok_or(WireError::BadRequest("non-string profile"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            "audit" => Ok(Response::Audit {
                risk: str_field(v, "risk")?.to_owned(),
                added: usize_field(v, "added")?,
                removed: usize_field(v, "removed")?,
                findings: usize_field(v, "findings")?,
                quarantined: v
                    .get("quarantined")
                    .and_then(Value::as_array)
                    .ok_or(WireError::BadRequest("missing quarantined"))?
                    .iter()
                    .map(|q| {
                        Ok((
                            str_field(q, "file")?.to_owned(),
                            str_field(q, "error")?.to_owned(),
                        ))
                    })
                    .collect::<Result<Vec<_>, WireError>>()?,
            }),
            "probe" => Ok(Response::Probe {
                verdict: str_field(v, "verdict")?.to_owned(),
            }),
            "probe_session" => Ok(Response::ProbeSession {
                outcome: str_field(v, "outcome")?.to_owned(),
            }),
            "compare" => Ok(Response::Compare {
                chain_key: str_field(v, "chain_key")?.to_owned(),
                verdicts: v
                    .get("verdicts")
                    .and_then(Value::as_array)
                    .ok_or(WireError::BadRequest("missing verdicts"))?
                    .iter()
                    .map(|entry| {
                        let store = str_field(entry, "store")?.to_owned();
                        Ok((store, ChainVerdict::from_value(entry)?))
                    })
                    .collect::<Result<Vec<_>, WireError>>()?,
                cached: usize_field(v, "cached")?,
            }),
            "swap" => Ok(Response::Swap {
                profile: str_field(v, "profile")?.to_owned(),
                epoch: v
                    .get("epoch")
                    .and_then(Value::as_u64)
                    .ok_or(WireError::BadRequest("missing epoch"))?,
                anchors: usize_field(v, "anchors")?,
            }),
            "stats" => Ok(Response::Stats(
                v.get("stats")
                    .cloned()
                    .ok_or(WireError::BadRequest("missing stats document"))?,
            )),
            "busy" => Ok(Response::Busy),
            "error" => Ok(Response::Error {
                stage: str_field(v, "stage")?.to_owned(),
                error: str_field(v, "error")?.to_owned(),
            }),
            _ => Err(WireError::BadRequest("unknown response type")),
        }
    }

    /// Serialize to frame-body bytes.
    pub fn encode(&self) -> Vec<u8> {
        self.to_value().to_string().into_bytes()
    }

    /// Parse frame-body bytes.
    pub fn decode(body: &[u8]) -> Result<Response, WireError> {
        Response::from_value(&parse_body(body)?)
    }
}

fn parse_body(body: &[u8]) -> Result<Value, WireError> {
    let text = std::str::from_utf8(body).map_err(|_| WireError::BadJson)?;
    serde_json::from_str(text).map_err(|_| WireError::BadJson)
}

fn str_field<'a>(v: &'a Value, key: &'static str) -> Result<&'a str, WireError> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or(WireError::BadRequest("missing string field"))
}

fn usize_field(v: &Value, key: &'static str) -> Result<usize, WireError> {
    v.get(key)
        .and_then(Value::as_u64)
        .map(|n| n as usize)
        .ok_or(WireError::BadRequest("missing integer field"))
}

fn encode_chain(chain: &[Vec<u8>]) -> Vec<Value> {
    chain
        .iter()
        .map(|der| Value::from(base64_encode(der)))
        .collect()
}

fn decode_chain(v: Option<&Value>) -> Result<Vec<Vec<u8>>, WireError> {
    v.and_then(Value::as_array)
        .ok_or(WireError::BadRequest("missing chain array"))?
        .iter()
        .map(|blob| decode_blob(Some(blob)))
        .collect()
}

fn decode_blob(v: Option<&Value>) -> Result<Vec<u8>, WireError> {
    let text = v
        .and_then(Value::as_str)
        .ok_or(WireError::BadRequest("missing base64 blob"))?;
    base64_decode(text).map_err(|_| WireError::BadRequest("invalid base64"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap(), Some(b"hello".to_vec()));
        assert_eq!(read_frame(&mut r).unwrap(), Some(Vec::new()));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn oversized_frame_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        match read_frame(&mut Cursor::new(buf)) {
            Err(FrameError::Wire(WireError::Oversized { len })) => {
                assert_eq!(len, u32::MAX as usize);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
        // Writing oversized frames is refused too.
        let big = vec![0u8; MAX_FRAME + 1];
        assert!(write_frame(&mut Vec::new(), &big).is_err());
    }

    #[test]
    fn truncated_frames_detected() {
        // EOF inside the header.
        let mut r = Cursor::new(vec![0u8, 0, 0]);
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Wire(WireError::Truncated))
        ));
        // EOF inside the body.
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_be_bytes());
        buf.extend_from_slice(b"1234");
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(FrameError::Wire(WireError::Truncated))
        ));
    }

    /// Yields its body one byte at a time, reporting `WouldBlock` between
    /// every byte — a slow-but-live peer. The total stall count far
    /// exceeds [`STALL_BUDGET`], but no two stalls are consecutive, so a
    /// correct (consecutive-stall) budget never fires. The first read
    /// succeeds immediately: `read_full` treats a timeout with nothing
    /// buffered at a boundary as an idle poll tick, not a stall.
    struct TricklingReader {
        data: Vec<u8>,
        pos: usize,
        stall_next: bool,
    }

    impl Read for TricklingReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.stall_next {
                self.stall_next = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "tick"));
            }
            self.stall_next = true;
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn trickling_peer_is_not_misclassified_as_truncated() {
        // Body longer than the stall budget: a *cumulative* stall counter
        // would trip partway through; the consecutive counter must not.
        let body = vec![0x2a; STALL_BUDGET as usize + 100];
        let mut framed = Vec::new();
        write_frame(&mut framed, &body).unwrap();
        let mut r = TricklingReader {
            data: framed,
            pos: 0,
            stall_next: false,
        };
        let got = read_frame(&mut r).expect("slow peer still delivers").unwrap();
        assert_eq!(got, body);
    }

    /// Delivers a few bytes, then stalls forever.
    struct StalledReader {
        data: Vec<u8>,
        pos: usize,
    }

    impl Read for StalledReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos < self.data.len() {
                buf[0] = self.data[self.pos];
                self.pos += 1;
                return Ok(1);
            }
            Err(io::Error::new(io::ErrorKind::WouldBlock, "tick"))
        }
    }

    #[test]
    fn dead_stall_mid_frame_still_bounded() {
        // Header promises 8 bytes; only 4 arrive, then silence. The stall
        // budget must still declare the frame truncated.
        let mut framed = Vec::new();
        framed.extend_from_slice(&8u32.to_be_bytes());
        framed.extend_from_slice(b"1234");
        let mut r = StalledReader {
            data: framed,
            pos: 0,
        };
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Wire(WireError::Truncated))
        ));
    }

    /// Accepts one byte per call — a peer whose receive window holds a
    /// single byte.
    struct TricklingWriter {
        data: Vec<u8>,
    }

    impl Write for TricklingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            match buf.first() {
                Some(&b) => {
                    self.data.push(b);
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
    fn trickling_peer_still_receives_the_whole_frame() {
        // Every write is short; the frame writer continues each one
        // until the whole frame is out.
        let body = vec![0x5a; 300];
        let mut w = TricklingWriter { data: Vec::new() };
        write_frame(&mut w, &body).expect("slow-draining peer still accepts");
        let mut r = Cursor::new(w.data);
        assert_eq!(read_frame(&mut r).unwrap(), Some(body));
    }

    /// Accepts `cap` bytes, then reports a write timeout on every call,
    /// counting the calls that timed out.
    struct StalledWriter {
        accepted: usize,
        cap: usize,
        timeouts: usize,
    }

    impl Write for StalledWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.accepted < self.cap {
                let n = buf.len().min(self.cap - self.accepted);
                self.accepted += n;
                return Ok(n);
            }
            self.timeouts += 1;
            Err(io::Error::new(io::ErrorKind::WouldBlock, "tick"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_timeout_fails_the_frame_at_once() {
        // A timed-out write already waited out the socket's write
        // deadline: the frame fails on it rather than waiting again.
        let mut w = StalledWriter {
            accepted: 0,
            cap: 6,
            timeouts: 0,
        };
        let err = write_frame(&mut w, b"0123456789").unwrap_err();
        assert!(is_timeout(&err));
        assert_eq!(w.accepted, 6);
        assert_eq!(w.timeouts, 1);
    }

    /// The round-trip corpus of requests.
    fn request_corpus() -> Vec<Request> {
        vec![
            Request::Validate {
                profile: "AOSP 4.4".into(),
                chain: vec![vec![0x30, 0x03, 1, 2, 3], vec![0xff]],
            },
            Request::Classify { cert: vec![1, 2, 3] },
            Request::Audit {
                baseline: "4.1".into(),
                files: vec![CacertsFile {
                    name: "00aabbcc.0".into(),
                    der: b"-----BEGIN CERTIFICATE-----".to_vec(),
                }],
            },
            Request::Probe {
                profile: "Mozilla".into(),
                target: "gmail.com:443".into(),
                chain: vec![],
                pinned: true,
            },
            Request::ProbeSession {
                profile: "AOSP 4.4".into(),
                defect: "accept-all".into(),
                target: "www.chase.com:443".into(),
                chain: vec![vec![0x30, 0x03, 1, 2, 3]],
                pinned: false,
                extra_anchor: Some(vec![0x30, 0x01, 0xaa]),
                intercepted: true,
            },
            Request::ProbeSession {
                profile: "AOSP 4.1".into(),
                defect: "correct".into(),
                target: "supl.google.com:7275".into(),
                chain: vec![],
                pinned: true,
                extra_anchor: None,
                intercepted: false,
            },
            Request::Compare {
                chain: vec![vec![0x30, 0x03, 1, 2, 3], vec![0xab]],
            },
            Request::Stats,
        ]
    }

    /// The round-trip corpus of responses.
    fn response_corpus() -> Vec<Response> {
        vec![
            Response::Validate {
                verdict: ChainVerdict::Trusted {
                    anchor: "CN=Root".into(),
                    chain_len: 3,
                },
                cached: true,
            },
            Response::Validate {
                verdict: ChainVerdict::Untrusted {
                    error: "no-path".into(),
                },
                cached: false,
            },
            Response::Classify {
                class: "ios7".into(),
                profiles: vec!["iOS 7".into()],
            },
            Response::Audit {
                risk: "stock".into(),
                added: 0,
                removed: 1,
                findings: 2,
                quarantined: vec![("x.0".into(), "malformed-der".into())],
            },
            Response::Probe {
                verdict: "clean".into(),
            },
            Response::ProbeSession {
                outcome: "intercepted(accept-all)".into(),
            },
            Response::Compare {
                chain_key: "ab12".into(),
                verdicts: vec![
                    (
                        "AOSP 4.4".into(),
                        ChainVerdict::Trusted {
                            anchor: "CN=Root".into(),
                            chain_len: 3,
                        },
                    ),
                    (
                        "Java".into(),
                        ChainVerdict::Untrusted {
                            error: "no-path".into(),
                        },
                    ),
                ],
                cached: 1,
            },
            Response::Swap {
                profile: "device".into(),
                epoch: 7,
                anchors: 150,
            },
            Response::Stats(json!({"served": {"validate": 3u64}})),
            Response::Busy,
            Response::Error {
                stage: "wire".into(),
                error: "bad-json".into(),
            },
        ]
    }

    #[test]
    fn request_json_round_trips() {
        for req in request_corpus() {
            let back = Request::decode(&req.encode()).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn response_json_round_trips() {
        for resp in response_corpus() {
            let back = Response::decode(&resp.encode()).unwrap();
            assert_eq!(back, resp);
        }
    }

    /// `encode` writes exactly the bytes `serde_json::to_string` gives
    /// for the message's JSON value.
    #[test]
    fn encode_matches_serde_json_bytes() {
        for req in request_corpus() {
            let json = serde_json::to_string(&req.to_value()).unwrap();
            assert_eq!(req.encode(), json.into_bytes(), "{}", req.kind());
        }
        for resp in response_corpus() {
            let json = serde_json::to_string(&resp.to_value()).unwrap();
            assert_eq!(resp.encode(), json.into_bytes(), "{resp:?}");
        }
    }

    #[test]
    fn malformed_bodies_classified() {
        assert_eq!(
            Request::decode(b"\xff\xfe").unwrap_err().label(),
            "bad-json"
        );
        assert_eq!(Request::decode(b"[1,2]").unwrap_err().label(), "bad-request");
        assert_eq!(
            Request::decode(br#"{"type":"warp"}"#).unwrap_err().label(),
            "bad-request"
        );
        assert_eq!(
            Request::decode(br#"{"type":"validate","profile":"x","chain":["!!"]}"#)
                .unwrap_err()
                .label(),
            "bad-request"
        );
        // A retired op is an unknown request type, not a panic.
        assert_eq!(
            Request::decode(br#"{"type":"batch_validate","profile":"AOSP 4.4","chains":[[]]}"#)
                .unwrap_err()
                .label(),
            "bad-request"
        );
    }
}
