//! The synthetic server-certificate ecosystem.
//!
//! [`issuance_plan`] assigns every root CA of the workspace a leaf-issuance
//! volume calibrated to the paper's validation structure (see crate docs);
//! [`Ecosystem::generate`] then mints real, verifiable chains for the whole
//! plan plus a *wild* population no store validates.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use tangled_asn1::Time;
use tangled_pki::extras::catalogue;
use tangled_pki::stores::{
    aosp_only_name, global_factory, ios7_only_name, mint_extra, shared_exact_name,
    shared_reissued_name,
};
use tangled_crypto::rsa::RsaKeyPair;
use tangled_crypto::Uint;
use tangled_exec::ExecPool;
use tangled_x509::{Certificate, CertificateBuilder, DistinguishedName};

/// The study instant every validation in the workspace uses
/// (mid-window of the Nov 2013 – Apr 2014 collection).
pub fn study_time() -> Time {
    Time::date(2014, 2, 1).expect("valid date")
}

/// One CA's issuance assignment.
#[derive(Debug, Clone)]
pub struct IssuanceEntry {
    /// Factory key name of the issuing root.
    pub key_name: String,
    /// Whether the root is a Figure 2 extra (minted with the hint OU).
    pub is_extra: bool,
    /// Number of leaves to issue (full scale).
    pub leaves: u32,
    /// Issue through an intermediate CA instead of directly.
    pub via_intermediate: bool,
}

/// The calibrated issuance plan (full scale ≈ 8,500 validated leaves).
///
/// Calibration targets, all relative (see EXPERIMENTS.md for the mapping):
/// * Table 3 ordering: Mozilla < AOSP 4.1 = 4.2 < 4.3 < 4.4 < iOS 7, with
///   a spread below 2 % — the web's traffic concentrates on the shared
///   core every store carries;
/// * Table 4 dead-root fractions: ≈22 % of Mozilla and AOSP roots, ≈41 %
///   of iOS 7 roots, and ≈72 % of the neither-AOSP-nor-Mozilla extras
///   validate nothing;
/// * Figure 3 shape: Zipf-heavy — a handful of roots validates most
///   certificates.
pub fn issuance_plan() -> Vec<IssuanceEntry> {
    let mut plan = Vec::new();

    // Zipf core: shared roots 1..=100 issue; 101..=117 are dead weight.
    let h100: f64 = (1..=100).map(|i| 1.0 / i as f64).sum();
    for i in 1..=100usize {
        plan.push(IssuanceEntry {
            key_name: shared_exact_name(i),
            is_extra: false,
            leaves: ((8_000.0 / h100) / i as f64).round().max(1.0) as u32,
            via_intermediate: i % 10 == 0,
        });
    }
    // Re-issued shared roots: 1..=9 issue modestly; 10..=13 are dead.
    for i in 1..=9usize {
        plan.push(IssuanceEntry {
            key_name: shared_reissued_name(i),
            is_extra: false,
            leaves: 25,
            via_intermediate: false,
        });
    }
    // AOSP-only roots: a few government/regional CAs with small volumes.
    // Indices 19 and 20 join only in AOSP 4.3/4.4 — they create the
    // Table 3 growth across releases.
    for i in 2..=7usize {
        plan.push(IssuanceEntry {
            key_name: aosp_only_name(i),
            is_extra: false,
            leaves: 10,
            via_intermediate: false,
        });
    }
    plan.push(IssuanceEntry {
        key_name: aosp_only_name(19),
        is_extra: false,
        leaves: 5,
        via_intermediate: false,
    });
    plan.push(IssuanceEntry {
        key_name: aosp_only_name(20),
        is_extra: false,
        leaves: 3,
        via_intermediate: false,
    });

    // Figure 2 extras: store members issue small volumes; the pinned
    // "offline" certificates issue nothing.
    let cat = catalogue();
    let mut mozilla_issuers = 0;
    let mut ios7_issuers = 0;
    let mut android_issuers = 0;
    for extra in &cat {
        let leaves = if extra.in_mozilla && mozilla_issuers < 11 {
            mozilla_issuers += 1;
            3
        } else if !extra.in_mozilla && extra.in_ios7 && ios7_issuers < 10 {
            ios7_issuers += 1;
            6
        } else if !extra.in_mozilla && !extra.in_ios7 && extra.notary_seen && android_issuers < 12
        {
            android_issuers += 1;
            2
        } else {
            continue;
        };
        plan.push(IssuanceEntry {
            key_name: extra.key_name(),
            is_extra: true,
            leaves,
            via_intermediate: false,
        });
    }

    // A few iOS-only partner roots issue; the rest are dead weight.
    for i in 1..=8usize {
        plan.push(IssuanceEntry {
            key_name: ios7_only_name(i),
            is_extra: false,
            leaves: 5,
            via_intermediate: false,
        });
    }
    plan
}

/// Number of wild (store-invisible) leaves at full scale: self-signed
/// servers and private-CA deployments. Sized so store coverage of the
/// Notary lands near the paper's ~74 %.
pub const WILD_LEAVES: u32 = 2_900;

/// Number of distinct private CAs behind the wild chains.
pub const WILD_PRIVATE_CAS: usize = 30;

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct EcosystemSpec {
    /// Seed for the deterministic draws (domains, session volumes).
    pub seed: u64,
    /// Scale on issuance volumes (1.0 = full plan).
    pub scale: f64,
}

impl Default for EcosystemSpec {
    fn default() -> Self {
        EcosystemSpec {
            seed: 66_000_000,
            scale: 1.0,
        }
    }
}

impl EcosystemSpec {
    /// A reduced-scale spec for fast tests.
    pub fn scaled(scale: f64) -> EcosystemSpec {
        EcosystemSpec {
            seed: 66_000_000,
            scale,
        }
    }
}

/// The TLS-bearing service a certificate was observed on. The Notary
/// collects from "any port, not only HTTPS" (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Service {
    /// HTTPS (443, 8443).
    Https,
    /// SMTP submission / SMTPS (587, 465, 25+STARTTLS).
    Smtp,
    /// IMAPS / POP3S (993, 995).
    Imap,
    /// XMPP (5222/5269).
    Xmpp,
    /// Anything else TLS-wrapped.
    Other,
}

impl Service {
    /// All services in display order.
    pub const ALL: [Service; 5] = [
        Service::Https,
        Service::Smtp,
        Service::Imap,
        Service::Xmpp,
        Service::Other,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Service::Https => "HTTPS",
            Service::Smtp => "SMTP",
            Service::Imap => "IMAP/POP3",
            Service::Xmpp => "XMPP",
            Service::Other => "other",
        }
    }
}

/// One observed server certificate with its presented chain.
#[derive(Debug, Clone)]
pub struct NotaryCert {
    /// Presented chain, leaf first (root not included, as on the wire).
    pub chain: Vec<Arc<Certificate>>,
    /// Synthetic SSL session volume attributed to this certificate.
    pub sessions: u64,
    /// The service the certificate was observed on.
    pub service: Service,
}

impl NotaryCert {
    /// The leaf certificate.
    pub fn leaf(&self) -> &Arc<Certificate> {
        &self.chain[0]
    }
}

/// The generated ecosystem.
pub struct Ecosystem {
    /// All observed certificates.
    pub certs: Vec<NotaryCert>,
    /// Intermediate CA certificates (for the chain verifier pool).
    pub intermediates: Vec<Arc<Certificate>>,
    /// Every store-member root, deduplicated by identity — the universe
    /// the validation index anchors against.
    pub universe_roots: Vec<Arc<Certificate>>,
}

impl Ecosystem {
    /// Generate the ecosystem for a spec on the ambient [`ExecPool`].
    pub fn generate(spec: &EcosystemSpec) -> Ecosystem {
        Self::generate_with_pool(spec, &ExecPool::current())
    }

    /// Generate the ecosystem for a spec on an explicit pool.
    ///
    /// Generation is split into two phases so the output is bit-identical
    /// at any pool width. Phase A walks the plan *sequentially*, consuming
    /// the spec's RNG stream in exactly the order the original single-pass
    /// loop did (session and service draws are the only RNG uses) and
    /// resolving every issuer through the CA factory; it emits one
    /// `LeafJob` per certificate. Phase B — the RSA leaf-signing that
    /// dominates wall time — is pure per-job work with no RNG and no shared
    /// state, so [`ExecPool::par_map_indexed`] signs the jobs in parallel
    /// and reassembles them in index order.
    pub fn generate_with_pool(spec: &EcosystemSpec, pool: &ExecPool) -> Ecosystem {
        let span = tangled_obs::trace::span_start("notary.ecosystem", spec.seed, 0, &[]);
        let started = std::time::Instant::now();
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let plan = issuance_plan();
        let mut factory = global_factory().lock().expect("factory poisoned");

        // Pool of leaf keys: leaves do not need distinct keys, and key
        // generation is the only expensive step.
        let leaf_keys: Vec<Arc<RsaKeyPair>> = (0..8)
            .map(|i| factory.keypair(&format!("notary-leaf-pool-{i}")))
            .collect();

        let cat = catalogue();
        let mut jobs: Vec<LeafJob> = Vec::new();
        let mut intermediates = Vec::new();
        let mut serial = 10_000u64;

        // Phase A: sequential planning. Factory mutations and RNG draws
        // happen here, in the exact order of the original loop.
        for entry in &plan {
            let root = if entry.is_extra {
                let extra = cat
                    .iter()
                    .find(|e| e.key_name() == entry.key_name)
                    .expect("plan extras come from the catalogue");
                mint_extra(&mut factory, extra)
            } else {
                factory.root(&entry.key_name)
            };

            let (issuer_cert, issuer_key_name) = if entry.via_intermediate {
                let int_name = format!("{} Issuing CA", entry.key_name);
                let inter = factory
                    .intermediate(&entry.key_name, &int_name, Some(0))
                    .expect("intermediate issuance");
                intermediates.push(Arc::clone(&inter));
                (inter, format!("int:{int_name}"))
            } else {
                (Arc::clone(&root), entry.key_name.clone())
            };
            let issuer_kp = factory.keypair(&issuer_key_name);

            let n = scale_count(entry.leaves, spec.scale);
            for i in 0..n {
                serial += 1;
                // Every 7th leaf of high-volume CAs is expired at study
                // time (the Notary's 1.9M-total vs 1M-non-expired split);
                // small CAs keep all leaves valid so the calibrated
                // ordering of Table 3 stays deterministic.
                let expired = entry.leaves > 10 && i % 7 == 3;
                jobs.push(LeafJob {
                    kind: LeafKind::Issued {
                        issuer: Arc::clone(&issuer_cert),
                        issuer_kp: Arc::clone(&issuer_kp),
                        leaf_kp: Arc::clone(
                            &leaf_keys[(serial % leaf_keys.len() as u64) as usize],
                        ),
                        domain: format!("www.site-{serial}.example.org"),
                        serial,
                        expired,
                        presented_issuer: entry
                            .via_intermediate
                            .then(|| Arc::clone(&issuer_cert)),
                    },
                    sessions: draw_sessions(&mut rng),
                    service: draw_service(&mut rng),
                });
            }
        }

        // Wild population: self-signed servers and private-CA chains.
        let wild = scale_count(WILD_LEAVES, spec.scale);
        for w in 0..wild {
            serial += 1;
            let kind = if w % 2 == 0 {
                // Self-signed server certificate.
                LeafKind::SelfSigned {
                    kp: Arc::clone(&leaf_keys[(w % leaf_keys.len() as u32) as usize]),
                    domain: format!("self-signed-{serial}.internal"),
                    serial,
                }
            } else {
                // Private corporate CA the public stores do not carry.
                let ca_name = format!("Private Corp CA {:02}", w as usize % WILD_PRIVATE_CAS);
                let ca = factory.root(&ca_name);
                let ca_kp = factory.keypair(&ca_name);
                LeafKind::Issued {
                    issuer: ca,
                    issuer_kp: ca_kp,
                    leaf_kp: Arc::clone(&leaf_keys[(w % leaf_keys.len() as u32) as usize]),
                    domain: format!("intranet-{serial}.corp.example"),
                    serial,
                    expired: false,
                    presented_issuer: None,
                }
            };
            jobs.push(LeafJob {
                kind,
                sessions: draw_sessions(&mut rng),
                service: draw_service(&mut rng),
            });
        }
        drop(factory);

        // Phase A is over: the job list is fixed, so its size is a pure
        // function of the spec and safe to trace.
        tangled_obs::trace::point(
            "notary.ecosystem",
            span,
            &[("jobs", serde_json::Value::from(jobs.len() as u64))],
        );

        // Phase B: parallel signing. Each job is self-contained (issuer
        // cert, keys, domain, serial all resolved in phase A), so signing
        // order cannot affect the bytes produced; results come back in
        // job-index order.
        let leaves = pool.par_map_indexed(&jobs, |_, job| sign_job(&job.kind));
        let certs: Vec<NotaryCert> = jobs
            .iter()
            .zip(leaves)
            .map(|(job, leaf)| {
                let mut chain = vec![leaf];
                if let LeafKind::Issued {
                    presented_issuer: Some(inter),
                    ..
                } = &job.kind
                {
                    chain.push(Arc::clone(inter));
                }
                NotaryCert {
                    chain,
                    sessions: job.sessions,
                    service: job.service,
                }
            })
            .collect();

        // Universe roots: every reference-store member, deduplicated by
        // identity (the re-issued pairs share one identity).
        let mut seen = std::collections::HashSet::new();
        let mut universe_roots = Vec::new();
        for rs in tangled_pki::stores::ReferenceStore::ALL {
            for anchor in rs.cached().iter() {
                if seen.insert(anchor.identity()) {
                    universe_roots.push(Arc::clone(&anchor.cert));
                }
            }
        }
        // Plus the non-store extras observed on Android handsets.
        {
            let mut factory = global_factory().lock().expect("factory poisoned");
            for extra in &cat {
                let cert = mint_extra(&mut factory, extra);
                if seen.insert(cert.identity()) {
                    universe_roots.push(cert);
                }
            }
        }

        let eco = Ecosystem {
            certs,
            intermediates,
            universe_roots,
        };
        tangled_obs::registry::add("notary.ecosystem.runs", 1);
        tangled_obs::registry::observe(
            "notary.ecosystem.us",
            started.elapsed().as_micros() as u64,
        );
        tangled_obs::trace::span_end(
            "notary.ecosystem",
            span,
            &[
                ("certs", serde_json::Value::from(eco.certs.len() as u64)),
                (
                    "intermediates",
                    serde_json::Value::from(eco.intermediates.len() as u64),
                ),
                (
                    "universe_roots",
                    serde_json::Value::from(eco.universe_roots.len() as u64),
                ),
            ],
        );
        eco
    }

    /// Total unique certificates observed.
    pub fn len(&self) -> usize {
        self.certs.len()
    }

    /// True when the ecosystem holds no certificates (never in practice).
    pub fn is_empty(&self) -> bool {
        self.certs.is_empty()
    }

    /// Per-service certificate counts (the §4.2 "any port" breakdown).
    pub fn service_histogram(&self) -> Vec<(Service, usize)> {
        Service::ALL
            .into_iter()
            .map(|svc| {
                (
                    svc,
                    self.certs.iter().filter(|c| c.service == svc).count(),
                )
            })
            .collect()
    }

    /// Certificates still valid at the study time.
    pub fn non_expired(&self) -> usize {
        self.certs
            .iter()
            .filter(|c| c.leaf().is_valid_at(study_time()))
            .count()
    }
}

/// A fully-resolved certificate to mint: everything the signing phase
/// needs, with no RNG and no factory access left.
struct LeafJob {
    kind: LeafKind,
    sessions: u64,
    service: Service,
}

enum LeafKind {
    /// CA-issued leaf; `presented_issuer` is the intermediate to include
    /// in the presented chain (when issued via one).
    Issued {
        issuer: Arc<Certificate>,
        issuer_kp: Arc<RsaKeyPair>,
        leaf_kp: Arc<RsaKeyPair>,
        domain: String,
        serial: u64,
        expired: bool,
        presented_issuer: Option<Arc<Certificate>>,
    },
    /// Self-signed server certificate.
    SelfSigned {
        kp: Arc<RsaKeyPair>,
        domain: String,
        serial: u64,
    },
}

fn sign_job(kind: &LeafKind) -> Arc<Certificate> {
    match kind {
        LeafKind::Issued {
            issuer,
            issuer_kp,
            leaf_kp,
            domain,
            serial,
            expired,
            ..
        } => issue_leaf(issuer, issuer_kp, leaf_kp, domain, *serial, *expired),
        LeafKind::SelfSigned { kp, domain, serial } => Arc::new(
            CertificateBuilder::new(
                DistinguishedName::common_name(domain),
                DistinguishedName::common_name(domain),
                Time::date(2012, 1, 1).expect("valid"),
                Time::date(2016, 1, 1).expect("valid"),
            )
            .serial(Uint::from_u64(*serial))
            .tls_server(vec![domain.clone()])
            .sign(kp.public_key(), kp)
            .expect("self-signed issuance"),
        ),
    }
}

fn scale_count(full: u32, scale: f64) -> u32 {
    ((full as f64 * scale).round() as u32).max(1)
}

/// Service mix: HTTPS dominates, with real tails of mail and chat — the
/// paper's "any port" collection.
fn draw_service(rng: &mut StdRng) -> Service {
    let roll: f64 = rng.gen();
    if roll < 0.72 {
        Service::Https
    } else if roll < 0.84 {
        Service::Smtp
    } else if roll < 0.93 {
        Service::Imap
    } else if roll < 0.97 {
        Service::Xmpp
    } else {
        Service::Other
    }
}

fn draw_sessions(rng: &mut StdRng) -> u64 {
    // Heavy-tailed session volume per certificate.
    let u: f64 = rng.gen_range(0.000_01..1.0);
    (3.0 / u).round() as u64
}

fn issue_leaf(
    issuer: &Arc<Certificate>,
    issuer_kp: &RsaKeyPair,
    leaf_kp: &RsaKeyPair,
    domain: &str,
    serial: u64,
    expired: bool,
) -> Arc<Certificate> {
    let not_after = if expired {
        Time::date(2013, 6, 30).expect("valid")
    } else {
        Time::date(2015, 6, 30).expect("valid")
    };
    Arc::new(
        CertificateBuilder::new(
            issuer.subject.clone(),
            DistinguishedName::common_name(domain),
            Time::date(2012, 1, 1).expect("valid"),
            not_after,
        )
        .serial(Uint::from_u64(serial))
        .tls_server(vec![domain.to_owned()])
        .sign(leaf_kp.public_key(), issuer_kp)
        .expect("leaf issuance"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_structure() {
        let plan = issuance_plan();
        // 100 Zipf + 9 reissued + 8 AOSP-only + 33 extras + 8 iOS-only.
        assert_eq!(plan.len(), 158);
        let total: u32 = plan.iter().map(|e| e.leaves).sum();
        assert!(
            (7_000..10_000).contains(&total),
            "full-scale validated leaves ≈ 8.5k, got {total}"
        );
        // Zipf head dominates.
        assert!(plan[0].leaves > 1_000);
        assert!(plan[99].leaves < 30);
        // Some chains go through intermediates.
        assert_eq!(plan.iter().filter(|e| e.via_intermediate).count(), 10);
    }

    #[test]
    fn small_ecosystem_generates_and_verifies() {
        let eco = Ecosystem::generate(&EcosystemSpec::scaled(0.02));
        assert!(eco.len() > 150);
        assert!(eco.non_expired() < eco.len());
        // Spot-check: every chained cert cryptographically verifies
        // against its presented issuer.
        for c in eco.certs.iter().filter(|c| c.chain.len() > 1).take(20) {
            c.chain[0].verify_issued_by(&c.chain[1]).unwrap();
        }
        // Universe roots are identity-unique.
        let ids: std::collections::HashSet<_> = eco
            .universe_roots
            .iter()
            .map(|r| r.identity())
            .collect();
        assert_eq!(ids.len(), eco.universe_roots.len());
    }

    #[test]
    fn service_mix_is_https_heavy() {
        let eco = Ecosystem::generate(&EcosystemSpec::scaled(0.1));
        let hist: std::collections::HashMap<Service, usize> =
            eco.service_histogram().into_iter().collect();
        let total: usize = hist.values().sum();
        assert_eq!(total, eco.len());
        let https = hist[&Service::Https] as f64 / total as f64;
        assert!((0.6..0.85).contains(&https), "HTTPS share {https:.2}");
        // Every service class is represented.
        for svc in Service::ALL {
            assert!(hist[&svc] > 0, "{} missing", svc.label());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Ecosystem::generate(&EcosystemSpec::scaled(0.02));
        let b = Ecosystem::generate(&EcosystemSpec::scaled(0.02));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.certs.iter().zip(&b.certs) {
            assert_eq!(x.leaf().to_der(), y.leaf().to_der());
            assert_eq!(x.sessions, y.sessions);
        }
    }

    #[test]
    fn generation_is_pool_width_invariant() {
        let spec = EcosystemSpec::scaled(0.02);
        let seq = Ecosystem::generate_with_pool(&spec, &ExecPool::with_threads(1));
        let par = Ecosystem::generate_with_pool(&spec, &ExecPool::with_threads(8));
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.certs.iter().zip(&par.certs) {
            assert_eq!(a.leaf().to_der(), b.leaf().to_der());
            assert_eq!(a.chain.len(), b.chain.len());
            assert_eq!(a.sessions, b.sessions);
            assert_eq!(a.service, b.service);
        }
    }

    #[test]
    fn wild_leaves_do_not_chain_to_stores() {
        let eco = Ecosystem::generate(&EcosystemSpec::scaled(0.02));
        let universe: std::collections::HashSet<String> = eco
            .universe_roots
            .iter()
            .map(|r| r.subject.to_string())
            .collect();
        let wild = eco
            .certs
            .iter()
            .filter(|c| {
                let iss = c.leaf().issuer.to_string();
                iss.contains("Private Corp CA") || c.leaf().is_self_issued()
            })
            .count();
        assert!(wild > 30);
        for c in &eco.certs {
            if c.leaf().issuer.to_string().contains("Private Corp CA") {
                assert!(!universe.contains(&c.leaf().issuer.to_string()));
            }
        }
    }
}
