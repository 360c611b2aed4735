//! In-process layer probes for the traced run.
//!
//! Each probe request walks the path a served request takes, calling
//! each layer's public function in turn inside its own span: wire decode,
//! DER parse, `ChainKey`, index lookup, verifier clone, chain verify (or
//! the audit/probe layers), the whole `TrustService::handle`, and
//! response encode. The spans of one request share its id.

use crate::trace::Tracer;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tangled_mass::crypto::{RsaKeyPair, SignatureAlgorithm, SplitMix64};
use tangled_mass::intercept::detect::probe;
use tangled_mass::intercept::origin::OriginServers;
use tangled_mass::intercept::policy::Target;
use tangled_mass::intercept::study_time;
use tangled_mass::pki::audit::audit;
use tangled_mass::pki::cacerts::from_cacerts_lenient;
use tangled_mass::pki::stores::{standard_store_names, ReferenceStore};
use tangled_mass::pki::trust::AnchorSource;
use tangled_mass::pki::DEFAULT_KEY_BITS;
use tangled_mass::snap::{Journal, SwapRecord};
use tangled_mass::trustd::index::DEFAULT_SHARDS;
use tangled_mass::trustd::service::reference_store;
use tangled_mass::trustd::{Request, StoreIndex, TrustService, DEFAULT_CACHE_CAPACITY};
use tangled_mass::x509::{sig_memo_counters, Certificate, ChainKey, ChainOptions};

/// The op kinds the per-op handle metrics cover.
pub const OPS: [&str; 6] = ["validate", "classify", "audit", "probe", "compare", "swap"];

/// Span name of `TrustService::handle` for an op kind.
fn handle_span(kind: &str) -> &'static str {
    match kind {
        "validate" => "service.handle.validate",
        "classify" => "service.handle.classify",
        "audit" => "service.handle.audit",
        "probe" => "service.handle.probe",
        "compare" => "service.handle.compare",
        "swap" => "service.handle.swap",
        _ => "service.handle.other",
    }
}

/// What the request-path probe measured beyond its spans.
#[derive(Debug, Default)]
pub struct PathProbe {
    /// Per workload request, by its index in the stream: decode + handle
    /// + encode, in microseconds.
    pub server_work_us: Vec<f64>,
    /// Signature-memo hits during the probe's chain verifications.
    pub memo_hits: u64,
    /// Signature-memo misses during the probe's chain verifications.
    pub memo_misses: u64,
}

/// Walk every request through the layers. The first `workload_len`
/// requests are the workload's own; the rest only cover op kinds the
/// workload lacks. Every request runs through a local service once
/// untraced first, so the traced pass sees the memo in the state the
/// workload leaves it in.
pub fn request_path(requests: &[Request], workload_len: usize, tracer: &mut Tracer) -> PathProbe {
    let service = TrustService::new(DEFAULT_CACHE_CAPACITY);
    for req in requests {
        std::hint::black_box(service.handle(req));
    }
    let index = service.index();
    let issuer = OriginServers::for_table6().issuer_identity();
    let opts = ChainOptions::at(study_time());
    let mut out = PathProbe::default();
    for (i, req) in requests.iter().enumerate() {
        let rid = i as u64;
        let body = req.encode();
        let root = tracer.begin("request", None, rid);
        let t0 = Instant::now();
        let decoded = tracer.time("wire.decode", Some(root), rid, || Request::decode(&body));
        let decode_us = t0.elapsed().as_secs_f64() * 1e6;
        let req = decoded.expect("a request the benchmark encoded decodes");
        match &req {
            Request::Validate { chain, .. }
            | Request::Compare { chain }
            | Request::Probe { chain, .. } => {
                let certs: Vec<Arc<Certificate>> =
                    tracer.time("x509.parse", Some(root), rid, || {
                        chain
                            .iter()
                            .map(|der| Certificate::parse(der).map(Arc::new))
                            .collect::<Result<_, _>>()
                            .expect("workload chains parse")
                    });
                tracer.time("x509.chain_key", Some(root), rid, || {
                    std::hint::black_box(ChainKey::exact(certs.iter().map(Arc::as_ref)))
                });
                let names: Vec<&str> = match &req {
                    Request::Validate { profile, .. } | Request::Probe { profile, .. } => {
                        vec![profile.as_str()]
                    }
                    _ => standard_store_names(),
                };
                for name in names {
                    let profile = tracer
                        .time("index.profile", Some(root), rid, || index.profile(name))
                        .expect("workload profiles exist");
                    if let Request::Probe { target, pinned, .. } = &req {
                        let target = Target::parse(target).expect("workload targets parse");
                        tracer.time("intercept.probe", Some(root), rid, || {
                            std::hint::black_box(probe(
                                &target,
                                &certs,
                                &profile.store,
                                &issuer,
                                *pinned,
                            ))
                        });
                        continue;
                    }
                    let verifier = tracer.time("x509.verifier_clone", Some(root), rid, || {
                        let mut v = (*profile.anchors).clone();
                        for link in &certs[1..] {
                            v.add_intermediate(Arc::clone(link));
                        }
                        v
                    });
                    let (h0, m0) = sig_memo_counters();
                    tracer.time("x509.verify", Some(root), rid, || {
                        std::hint::black_box(verifier.verify(&certs[0], opts).is_ok())
                    });
                    let (h1, m1) = sig_memo_counters();
                    out.memo_hits += h1 - h0;
                    out.memo_misses += m1 - m0;
                }
            }
            Request::Classify { cert } => {
                tracer.time("x509.parse", Some(root), rid, || {
                    std::hint::black_box(Certificate::parse(cert).is_ok())
                });
            }
            Request::Audit { baseline, files } => {
                let reference = reference_store(baseline)
                    .expect("workload baselines exist")
                    .cached();
                let (observed, _) = tracer.time("pki.cacerts_load", Some(root), rid, || {
                    from_cacerts_lenient("observed", files, AnchorSource::Unknown)
                });
                tracer.time("pki.audit", Some(root), rid, || {
                    std::hint::black_box(audit(&reference, &observed, study_time()))
                });
            }
            _ => {}
        }
        let t1 = Instant::now();
        let resp = tracer.time(handle_span(req.kind()), Some(root), rid, || {
            service.handle(&req)
        });
        let handle_us = t1.elapsed().as_secs_f64() * 1e6;
        let t2 = Instant::now();
        tracer.time("wire.encode", Some(root), rid, || {
            std::hint::black_box(resp.encode())
        });
        let encode_us = t2.elapsed().as_secs_f64() * 1e6;
        tracer.end(root);
        if i < workload_len {
            out.server_work_us.push(decode_us + handle_us + encode_us);
        }
    }
    out
}

/// Time RSA key generation, signing and verification at the factory's
/// key size, with fixed key seeds.
pub fn rsa(tracer: &mut Tracer) {
    const KEYS: u64 = 4;
    const MESSAGES: usize = 64;
    let mut keys = Vec::new();
    for k in 0..KEYS {
        let mut rng = SplitMix64::new(0x5eed_0000 + k);
        let key = tracer.time("crypto.rsa_keygen", None, k, || {
            RsaKeyPair::generate(DEFAULT_KEY_BITS, &mut rng)
        });
        keys.push(key.expect("key generation succeeds at the default size"));
    }
    let key = &keys[0];
    let messages: Vec<Vec<u8>> = (0..MESSAGES)
        .map(|i| format!("message {i}").into_bytes())
        .collect();
    let alg = SignatureAlgorithm::Sha256WithRsa;
    let sigs: Vec<Vec<u8>> = messages
        .iter()
        .enumerate()
        .map(|(i, m)| {
            tracer
                .time("crypto.rsa_sign", None, i as u64, || key.sign(alg, m))
                .expect("signing succeeds")
        })
        .collect();
    for (i, (m, s)) in messages.iter().zip(&sigs).enumerate() {
        tracer
            .time("crypto.rsa_verify", None, i as u64, || {
                key.public_key().verify(alg, m, s)
            })
            .expect("a fresh signature verifies");
    }
}

/// Time durable journal appends (each fsync'd) into `dir`, and store
/// installs into a fresh index.
pub fn persistence(dir: &Path, tracer: &mut Tracer) -> Result<(), String> {
    const APPENDS: u64 = 16;
    const INSTALL_ROUNDS: u64 = 2;
    let path = dir.join("probe.journal");
    let path = path.to_str().ok_or("journal path is not UTF-8")?;
    let (mut journal, _, _) = Journal::open(path).map_err(|e| format!("opening {path}: {e}"))?;
    let store = ReferenceStore::Aosp44;
    let snapshot = store.cached().snapshot();
    for epoch in 1..=APPENDS {
        let record = SwapRecord {
            profile: store.name().to_owned(),
            epoch,
            store: snapshot.clone(),
        };
        tracer
            .time("snap.journal_append", None, epoch, || {
                journal.append(&record)
            })
            .map_err(|e| format!("appending to {path}: {e}"))?;
    }
    let index = StoreIndex::new(DEFAULT_SHARDS);
    for round in 0..INSTALL_ROUNDS {
        for s in ReferenceStore::ALL {
            let store = s.cached();
            tracer.time("index.install", None, round, || {
                std::hint::black_box(index.install(s.name(), store))
            });
        }
    }
    Ok(())
}
