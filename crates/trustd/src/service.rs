//! The trust-decision service: request dispatch over the store index.
//!
//! [`TrustService::handle`] is the whole protocol — the TCP server is
//! just framing around it, which is what lets the loopback tests and the
//! loadgen client assert byte-identical verdicts between the served and
//! offline paths: both run this exact function.
//!
//! Validation verdicts are memoised in a bounded, flush-at-cap
//! [`StripedMap`] keyed by `(epoch, ChainKey)`. The epoch component makes
//! profile swaps self-invalidating: a swap installs under a fresh epoch,
//! so every stale entry simply stops being reachable and goes with the
//! next flush of its stripe.
//!
//! Each piece of mutable state has one lock: the store index (its
//! profiles and epoch), each memo stripe, the counters and the swap log.
//! The swap log holds the journal and its compaction together, since
//! every journalled swap appends and may compact; holding it also
//! serialises swaps.

use crate::index::{StoreIndex, StoreProfile};
use crate::stats::ServiceStats;
use crate::wire::{ChainVerdict, Request, Response, WireError};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tangled_core::classify::class_index;
use tangled_exec::StripedMap;
use tangled_intercept::defect::{evaluate_session, DefectClass, SessionInput};
use tangled_intercept::detect::{probe, Verdict};
use tangled_intercept::origin::OriginServers;
use tangled_intercept::policy::Target;
use tangled_pki::audit::audit;
use tangled_pki::cacerts::from_cacerts_lenient;
use tangled_pki::extras::Figure2Class;
use tangled_pki::store::RootStore;
use tangled_pki::stores::ReferenceStore;
use tangled_pki::trust::AnchorSource;
use tangled_pki::vocab::AndroidVersion;
use tangled_snap::{Journal, SnapError, SwapRecord};
use tangled_x509::{Certificate, CertIdentity, ChainKey, ChainOptions};

/// Memo-cache key: the verdict depends on the store and the presented
/// chain, nothing else. The profile epoch alone names the store: every
/// install takes an epoch no install has had before
/// ([`StoreIndex::install`] advances the counter,
/// [`StoreIndex::install_at_epoch`] refuses an epoch at or behind it), so
/// two profiles never share one. A verdict is therefore a pure function
/// of its key, which is the contract [`StripedMap`] asks of its values.
type MemoKey = (u64, ChainKey);

/// A handler's result: its reply, or the classified `error` reply that
/// refused the request. Both go on the wire; the split only lets the
/// intake steps short-circuit with `?`.
type Reply = Result<Response, Response>;

/// Default memo-cache capacity.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Memo entries per stripe: a memo gets one stripe per this many entries
/// of capacity, so the small memos the tests build have one stripe and
/// keep every entry until the memo is full.
const ENTRIES_PER_STRIPE: usize = 1024;

/// The write-ahead swap journal and, when armed, its compaction. One
/// lock holds both: every swap appends to the journal and may compact
/// it, and holding the lock serialises swaps.
struct SwapLog {
    journal: Journal,
    compaction: Option<Compaction>,
}

/// Online journal compaction: the fold accumulated so far plus where and
/// when to checkpoint it.
pub(crate) struct Compaction {
    /// Checkpoint destination (`<journal>.ckpt` by convention).
    pub(crate) path: String,
    /// Journal size (bytes) past which a swap triggers compaction.
    pub(crate) threshold: u64,
    /// The clean warm start's snapshot as a checkpoint reuses it
    /// ([`tangled_snap::checkpoint_base`]): its file id and section rows.
    /// `None` for a cold or degraded start: checkpoints are base-less.
    pub(crate) base: Option<tangled_snap::DeltaMeta>,
    /// Every swap the journal has ever recorded, folded to the last
    /// record per profile (seeded from a prior checkpoint at warm start).
    pub(crate) state: tangled_snap::TrustState,
    /// Checkpoints written by this process.
    pub(crate) compactions: u64,
}

/// The trust-decision service.
pub struct TrustService {
    index: StoreIndex,
    /// The verdict memo; its hit/miss counters are the `stats` reply's
    /// `cache` counters.
    memo: StripedMap<MemoKey, ChainVerdict>,
    classes: HashMap<CertIdentity, Figure2Class>,
    expected_issuer: CertIdentity,
    stats: ServiceStats,
    /// The swap journal and its compaction; `None` serves swaps
    /// unjournalled.
    swap_log: Mutex<Option<SwapLog>>,
}

impl TrustService {
    /// A service over the ten standard profiles (six reference stores
    /// plus the four ecosystem families) with a memo of at most
    /// `cache_capacity` verdicts (0 disables caching).
    pub fn new(cache_capacity: usize) -> TrustService {
        TrustService::with_index(StoreIndex::with_standard_profiles(), cache_capacity)
    }

    /// A service over an already-populated index — the path
    /// [`crate::warm::start`] takes: it builds the index from a snapshot
    /// (or cold) and replays the checkpoint and journal into it before
    /// serving begins.
    pub fn with_index(index: StoreIndex, cache_capacity: usize) -> TrustService {
        let stripes = (cache_capacity / ENTRIES_PER_STRIPE).max(1);
        TrustService {
            index,
            memo: StripedMap::bounded(stripes, cache_capacity / stripes),
            classes: class_index(),
            expected_issuer: OriginServers::for_table6().issuer_identity(),
            stats: ServiceStats::new(),
            swap_log: Mutex::new(None),
        }
    }

    /// Attach the swap journal and, if armed, its compaction. Every
    /// subsequent accepted `swap` is framed, appended and fsync'd
    /// *before* the store install publishes; with compaction armed, a
    /// swap that leaves the journal past its threshold folds the history
    /// into a checkpoint (written atomically: tmp + fsync + rename) and
    /// truncates the journal back to its magic.
    pub(crate) fn attach_swap_log(&self, journal: Journal, compaction: Option<Compaction>) {
        *self.swap_log() = Some(SwapLog {
            journal,
            compaction,
        });
    }

    fn swap_log(&self) -> std::sync::MutexGuard<'_, Option<SwapLog>> {
        self.swap_log.lock().expect("swap log poisoned")
    }

    /// Checkpoints written by this process (test/stats introspection).
    pub fn compactions(&self) -> u64 {
        self.swap_log()
            .as_ref()
            .and_then(|log| log.compaction.as_ref())
            .map_or(0, |c| c.compactions)
    }

    /// The service's counters.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// The counter ledger's deterministic digest, memo counters included
    /// (see [`ServiceStats::counters_fingerprint`]).
    pub fn counters_fingerprint(&self) -> String {
        self.stats.counters_fingerprint(self.memo.counters())
    }

    /// The store index (test introspection).
    pub fn index(&self) -> &StoreIndex {
        &self.index
    }

    /// Handle one request, recording counters and latency.
    pub fn handle(&self, req: &Request) -> Response {
        let started = Instant::now();
        let resp = self.dispatch(req);
        let errored = matches!(resp, Response::Error { .. });
        self.stats.record_request(
            req.kind(),
            started.elapsed().as_micros() as u64,
            errored,
        );
        resp
    }

    /// Record a framing/decode failure in the quarantine ledger and build
    /// the error reply the connection handler sends back.
    pub fn record_wire_fault(&self, err: &WireError) -> Response {
        self.stats.record_quarantined("wire", err.label());
        Response::Error {
            stage: "wire".to_owned(),
            error: err.label().to_owned(),
        }
    }

    fn dispatch(&self, req: &Request) -> Response {
        let reply = match req {
            Request::Validate { profile, chain } => self.validate(profile, chain),
            Request::Classify { cert } => self.classify(cert),
            Request::Audit { baseline, files } => self.audit(baseline, files),
            Request::Probe {
                profile,
                target,
                chain,
                pinned,
            } => self.probe(profile, target, chain, *pinned),
            Request::ProbeSession {
                profile,
                defect,
                target,
                chain,
                pinned,
                extra_anchor,
                intercepted,
            } => self.probe_session(
                profile,
                defect,
                target,
                chain,
                *pinned,
                extra_anchor.as_deref(),
                *intercepted,
            ),
            Request::Compare { chain } => self.compare(chain),
            Request::Swap { profile, snapshot } => self.swap(profile, snapshot),
            Request::Stats => Ok(Response::Stats(self.stats_document())),
        };
        reply.unwrap_or_else(|refused| refused)
    }

    /// The full stats document: the counter ledger, a live view of the
    /// index (global epoch and per-profile epochs) and, with a journal,
    /// its size and the checkpoints written.
    pub fn stats_document(&self) -> serde_json::Value {
        let mut doc = self.stats.to_json(self.memo.counters());
        let (epoch, profiles) = self.index.epochs();
        if let serde_json::Value::Object(map) = &mut doc {
            map.insert(
                "index".to_owned(),
                serde_json::json!({ "epoch": epoch, "profiles": profiles }),
            );
            if let Some(log) = self.swap_log().as_ref() {
                map.insert(
                    "journal".to_owned(),
                    serde_json::json!({
                        "size": log.journal.size(),
                        "compactions": log.compaction.as_ref().map_or(0, |c| c.compactions),
                    }),
                );
            }
        }
        doc
    }

    /// The named profile, or `unknown-profile` under `stage` — an
    /// error, not a quarantine: the input itself was never inspected.
    fn profile(&self, stage: &str, name: &str) -> Result<StoreProfile, Response> {
        self.index
            .profile(name)
            .ok_or_else(|| error(stage, "unknown-profile"))
    }

    /// Count `label` in the quarantine ledger under `stage` and build the
    /// error reply for it.
    fn quarantine(&self, stage: &str, label: &str) -> Response {
        self.stats.record_quarantined(stage, label);
        error(stage, label)
    }

    /// The one chain intake of the chain-carrying ops: parse every
    /// presented certificate, leaf first, or quarantine the request as
    /// `malformed-der` under `stage`. An empty chain parses to an empty
    /// vector; the ops that need a leaf refuse it before calling this.
    fn intake<D: AsRef<[u8]>>(
        &self,
        stage: &str,
        ders: &[D],
    ) -> Result<Vec<Arc<Certificate>>, Response> {
        ders.iter()
            .map(|der| Certificate::parse(der.as_ref()).ok().map(Arc::new))
            .collect::<Option<_>>()
            .ok_or_else(|| self.quarantine(stage, "malformed-der"))
    }

    fn validate(&self, profile: &str, chain: &[Vec<u8>]) -> Reply {
        let profile = self.profile("validate", profile)?;
        if chain.is_empty() {
            return Err(self.quarantine("validate", "empty-chain"));
        }
        let certs = self.intake("validate", chain)?;
        let chain_key = ChainKey::exact(certs.iter().map(Arc::as_ref));
        let (verdict, cached) = self.profile_verdict(&profile, &certs, chain_key);
        Ok(Response::Validate { verdict, cached })
    }

    /// Cross-ecosystem comparison: one chain parse, one [`ChainKey`], one
    /// verdict per standard profile — the per-chain verdict vector the
    /// disparity engine is built on, amortising the index lookup that a
    /// `validate` per store would repeat ten times.
    fn compare(&self, chain: &[Vec<u8>]) -> Reply {
        if chain.is_empty() {
            return Err(self.quarantine("compare", "empty-chain"));
        }
        let certs = self.intake("compare", chain)?;
        let chain_key = ChainKey::exact(certs.iter().map(Arc::as_ref));
        let mut verdicts = Vec::new();
        let mut cached = 0usize;
        // Canonical store order; a profile that has been swapped *out*
        // (not merely replaced) is simply absent from the vector.
        for name in tangled_pki::stores::standard_store_names() {
            let Some(profile) = self.index.profile(name) else {
                continue;
            };
            let (verdict, hit) = self.profile_verdict(&profile, &certs, chain_key);
            cached += usize::from(hit);
            verdicts.push((profile.name, verdict));
        }
        Ok(Response::Compare {
            chain_key: chain_key.to_hex(),
            verdicts,
            cached,
        })
    }

    /// Memoised single-profile verdict for an already-parsed chain.
    /// Returns the verdict and whether it came from the memo cache.
    fn profile_verdict(
        &self,
        profile: &StoreProfile,
        certs: &[Arc<Certificate>],
        chain_key: ChainKey,
    ) -> (ChainVerdict, bool) {
        self.memo.get_or_insert_with((profile.epoch, chain_key), || {
            // Preloaded anchors, borrowed; the presented intermediates.
            let opts = ChainOptions::at(tangled_intercept::study_time());
            match profile.anchors.verify_chain(&certs[0], &certs[1..], opts) {
                Ok(path) => ChainVerdict::Trusted {
                    anchor: path.anchor().subject.to_string(),
                    chain_len: path.len(),
                },
                Err(e) => ChainVerdict::Untrusted {
                    error: e.label().to_owned(),
                },
            }
        })
    }

    fn classify(&self, cert: &[u8]) -> Reply {
        let Ok(cert) = Certificate::parse(cert) else {
            return Err(self.quarantine("classify", "malformed-der"));
        };
        let id = cert.identity();
        let profiles = self.index.member_of(&id);
        let class = if profiles.iter().any(|p| p.starts_with("AOSP")) {
            "aosp"
        } else {
            match self.classes.get(&id) {
                Some(Figure2Class::MozillaAndIos7) => "mozilla+ios7",
                Some(Figure2Class::Ios7) => "ios7",
                Some(Figure2Class::OnlyAndroid) => "only-android",
                Some(Figure2Class::NotRecorded) | None => "not-recorded",
            }
        };
        Ok(Response::Classify {
            class: class.to_owned(),
            profiles,
        })
    }

    fn audit(
        &self,
        baseline: &str,
        files: &[tangled_pki::cacerts::CacertsFile],
    ) -> Reply {
        let Some(reference) = reference_store(baseline) else {
            return Err(error("audit", "unknown-baseline"));
        };
        let (observed, quarantined) =
            from_cacerts_lenient("observed", files, AnchorSource::Unknown);
        for q in &quarantined {
            self.stats.record_quarantined("cacerts", q.error.label());
        }
        let report = audit(
            &reference.cached(),
            &observed,
            tangled_intercept::study_time(),
        );
        Ok(Response::Audit {
            risk: report.risk.label().to_owned(),
            added: report.diff.added_count(),
            removed: report.diff.removed_count(),
            findings: report.findings.len(),
            quarantined: quarantined
                .into_iter()
                .map(|q| (q.file, q.error.label().to_owned()))
                .collect(),
        })
    }

    fn probe(
        &self,
        profile: &str,
        target: &str,
        chain: &[Vec<u8>],
        pinned: bool,
    ) -> Reply {
        let profile = self.profile("probe", profile)?;
        let Some(target) = Target::parse(target) else {
            return Err(error("probe", "bad-target"));
        };
        let certs = self.intake("probe", chain)?;
        let report = probe(
            &target,
            &certs,
            &profile.store,
            &self.expected_issuer,
            pinned,
        );
        Ok(Response::Probe {
            verdict: verdict_label(&report.verdict),
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn probe_session(
        &self,
        profile: &str,
        defect: &str,
        target: &str,
        chain: &[Vec<u8>],
        pinned: bool,
        extra_anchor: Option<&[u8]>,
        intercepted: bool,
    ) -> Reply {
        let profile = self.profile("probe_session", profile)?;
        let Some(defect) = DefectClass::parse(defect) else {
            return Err(error("probe_session", "unknown-defect"));
        };
        let Some(target) = Target::parse(target) else {
            return Err(error("probe_session", "bad-target"));
        };
        let certs = self.intake("probe_session", chain)?;
        let extra = match extra_anchor {
            Some(der) => self.intake("probe_session", &[der])?.pop(),
            None => None,
        };
        let outcome = evaluate_session(&SessionInput {
            device_store: &profile.store,
            extra_anchor: extra.as_ref(),
            defect,
            target: &target,
            chain: &certs,
            pinned,
            expected_issuer: &self.expected_issuer,
            intercepted,
        });
        Ok(Response::ProbeSession {
            outcome: outcome.label(),
        })
    }

    fn swap(
        &self,
        profile: &str,
        snapshot: &tangled_pki::store::StoreSnapshot,
    ) -> Reply {
        let Ok(store) = RootStore::from_snapshot(snapshot) else {
            return Err(self.quarantine("swap", "bad-snapshot"));
        };
        let anchors = store.len();

        // Write-ahead order: holding the swap-log lock serialises swaps,
        // so `current_epoch + 1` is exactly the epoch the install below
        // will produce; the frame is durable before the store publishes.
        // If the journal cannot be written the swap is refused — a swap
        // the journal does not record would be lost by a restart.
        let mut swap_log = self.swap_log();
        if let Some(log) = swap_log.as_mut() {
            let record = SwapRecord {
                profile: profile.to_owned(),
                epoch: self.index.current_epoch() + 1,
                store: snapshot.clone(),
            };
            if let Err(e) = log.journal.append(&record) {
                self.stats.record_quarantined("swap", e.label());
                return Err(error("swap", "journal-io"));
            }
            if let Some(compaction) = log.compaction.as_mut() {
                if let Err(e) = compaction.absorb(&mut log.journal, &record) {
                    self.stats.record_quarantined("compact", e.label());
                }
            }
        }
        let installed = self.index.install(profile, Arc::new(store));
        drop(swap_log);
        Ok(Response::Swap {
            profile: installed.name,
            epoch: installed.epoch,
            anchors,
        })
    }
}

impl Compaction {
    /// Fold the just-journalled swap into the state and, if the journal
    /// crossed the threshold, write a checkpoint and truncate it. Runs
    /// under the swap-log lock, so the fold, the checkpoint and the
    /// truncation are atomic with respect to concurrent swaps and WAL
    /// ordering is preserved: the checkpoint is durable (tmp + fsync +
    /// rename) *before* the journal resets, and a crash between the two
    /// merely leaves a tail that replay skips as already-covered.
    ///
    /// A failed checkpoint never fails the swap — the frame is already
    /// durable in the journal; the caller quarantines the failure and
    /// compaction retries at the next swap.
    fn absorb(&mut self, journal: &mut Journal, record: &SwapRecord) -> Result<(), SnapError> {
        self.state.absorb(std::slice::from_ref(record));
        if journal.size() < self.threshold {
            return Ok(());
        }
        let bytes = tangled_snap::encode_checkpoint(self.base.as_ref(), &self.state);
        write_atomic(&self.path, &bytes)?;
        journal.reset()?;
        self.compactions += 1;
        tangled_obs::registry::add("journal.compactions", 1);
        Ok(())
    }
}

/// Durable file replacement: write to a sibling tmp path, fsync, rename
/// over the destination. Readers see either the old checkpoint or the
/// complete new one, never a torn file.
fn write_atomic(path: &str, bytes: &[u8]) -> Result<(), SnapError> {
    use std::io::Write;
    let tmp = format!("{path}.tmp");
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_data()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

fn error(stage: &str, label: &str) -> Response {
    Response::Error {
        stage: stage.to_owned(),
        error: label.to_owned(),
    }
}

/// Stable label for a probe verdict.
pub fn verdict_label(v: &Verdict) -> String {
    match v {
        Verdict::Clean => "clean".to_owned(),
        Verdict::UntrustedChain { presented_issuer } => {
            format!("untrusted-chain({presented_issuer})")
        }
        Verdict::UnexpectedAnchor { anchor } => {
            format!("unexpected-anchor({})", anchor.subject)
        }
        Verdict::PinViolation => "pin-violation".to_owned(),
        Verdict::NoChain => "no-chain".to_owned(),
    }
}

/// Resolve a baseline name to a reference store; accepts both the short
/// CLI form (`"4.4"`, `"mozilla"`) and the canonical profile name.
pub fn reference_store(name: &str) -> Option<ReferenceStore> {
    match name {
        "4.1" | "AOSP 4.1" => Some(ReferenceStore::Aosp41),
        "4.2" | "AOSP 4.2" => Some(ReferenceStore::Aosp42),
        "4.3" | "AOSP 4.3" => Some(ReferenceStore::Aosp43),
        "4.4" | "AOSP 4.4" => Some(ReferenceStore::Aosp44),
        "mozilla" | "Mozilla" => Some(ReferenceStore::Mozilla),
        "ios7" | "iOS 7" => Some(ReferenceStore::Ios7),
        _ => None,
    }
}

/// The canonical profile name for an Android version (`"AOSP 4.4"`).
pub fn profile_for_version(v: AndroidVersion) -> &'static str {
    ReferenceStore::for_version(v).name()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tangled_pki::cacerts::to_cacerts_pem;

    fn origin_chain(host: &str) -> Vec<Vec<u8>> {
        let origin = OriginServers::for_table6();
        let t = Target::parse(host).expect("valid target");
        origin
            .chain(&t)
            .expect("table 6 target")
            .iter()
            .map(|c| c.to_der().to_vec())
            .collect()
    }

    #[test]
    fn validate_hits_cache_on_repeat() {
        let svc = TrustService::new(64);
        let req = Request::Validate {
            profile: "AOSP 4.4".into(),
            chain: origin_chain("gmail.com:443"),
        };
        let first = svc.handle(&req);
        let second = svc.handle(&req);
        match (&first, &second) {
            (
                Response::Validate {
                    verdict: v1,
                    cached: false,
                },
                Response::Validate {
                    verdict: v2,
                    cached: true,
                },
            ) => {
                assert_eq!(v1, v2);
                assert!(matches!(v1, ChainVerdict::Trusted { .. }), "{v1:?}");
            }
            other => panic!("expected miss then hit, got {other:?}"),
        }
        assert_eq!(svc.memo.counters(), (1, 1));
    }

    /// The memo never changes an answer. The mixed plan and the compare
    /// plan give the offline driver's canonical verdicts with no memo,
    /// with a 16-entry memo that the compare plan (ten profile keys per
    /// chain) flushes over and over, and with the default memo; and no
    /// memo ever holds more entries than its capacity.
    #[test]
    fn memo_capacity_never_changes_an_answer() {
        use crate::replay::{
            canonical, compare_queries, offline_verdicts, population, queries, ReplaySpec,
        };
        let spec = ReplaySpec::new(2014, 60);
        let mut plan = queries(&population(&spec), &spec);
        plan.extend(compare_queries(&spec));
        let expected = offline_verdicts(&plan);
        for capacity in [0, 16, DEFAULT_CACHE_CAPACITY] {
            let svc = TrustService::new(capacity);
            let got = tangled_exec::ExecPool::current()
                .par_map_indexed(&plan, |_, req| canonical(&svc.handle(req)));
            assert!(got == expected, "capacity {capacity} changed an answer");
            assert!(svc.memo.len() <= capacity, "capacity {capacity} overfilled");
            let (hits, misses) = svc.memo.counters();
            match capacity {
                0 => assert_eq!(hits, 0, "no memo, no hits"),
                16 => assert!(misses > 16, "the plan must overflow the memo"),
                _ => assert!(hits > 0, "the default memo must answer"),
            }
        }
    }

    #[test]
    fn validate_rejects_bad_input_into_quarantine() {
        let svc = TrustService::new(64);
        let empty = svc.handle(&Request::Validate {
            profile: "AOSP 4.4".into(),
            chain: vec![],
        });
        assert_eq!(
            empty,
            Response::Error {
                stage: "validate".into(),
                error: "empty-chain".into()
            }
        );
        let garbage = svc.handle(&Request::Validate {
            profile: "AOSP 4.4".into(),
            chain: vec![vec![0xde, 0xad]],
        });
        assert_eq!(
            garbage,
            Response::Error {
                stage: "validate".into(),
                error: "malformed-der".into()
            }
        );
        let unknown = svc.handle(&Request::Validate {
            profile: "CyanogenMod".into(),
            chain: vec![vec![0x30]],
        });
        assert_eq!(
            unknown,
            Response::Error {
                stage: "validate".into(),
                error: "unknown-profile".into()
            }
        );
        // Two quarantined inputs (the unknown profile is an error, not a
        // quarantine — the input itself was never inspected).
        assert_eq!(svc.stats().quarantined_total(), 2);
    }

    #[test]
    fn classify_separates_aosp_from_extras() {
        let svc = TrustService::new(0);
        let aosp_store = ReferenceStore::Aosp44.cached();
        let aosp_der = aosp_store.enabled_certificates()[0].to_der().to_vec();
        match svc.handle(&Request::Classify { cert: aosp_der }) {
            Response::Classify { class, profiles } => {
                assert_eq!(class, "aosp");
                assert!(profiles.iter().any(|p| p == "AOSP 4.4"), "{profiles:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn audit_quarantines_damaged_files() {
        let svc = TrustService::new(0);
        let mut files = to_cacerts_pem(&ReferenceStore::Aosp44.cached());
        files[0].der = Vec::new(); // destroy one file
        match svc.handle(&Request::Audit {
            baseline: "4.4".into(),
            files,
        }) {
            Response::Audit {
                risk,
                removed,
                quarantined,
                ..
            } => {
                // The destroyed file reads as a removal; risk reflects a
                // user-modified store.
                assert_eq!(removed, 1);
                assert_eq!(quarantined.len(), 1);
                assert_eq!(quarantined[0].1, "empty-file");
                assert!(!risk.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(svc.stats().quarantined_total(), 1);
    }

    #[test]
    fn probe_clean_chain() {
        let svc = TrustService::new(0);
        match svc.handle(&Request::Probe {
            profile: "AOSP 4.4".into(),
            target: "gmail.com:443".into(),
            chain: origin_chain("gmail.com:443"),
            pinned: false,
        }) {
            Response::Probe { verdict } => assert_eq!(verdict, "clean"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn probe_session_attributes_and_rejects_bad_input() {
        let svc = TrustService::new(0);
        // A pass-through session is whitelisted no matter the defect.
        match svc.handle(&Request::ProbeSession {
            profile: "AOSP 4.4".into(),
            defect: "accept-all".into(),
            target: "www.facebook.com:443".into(),
            chain: origin_chain("www.facebook.com:443"),
            pinned: true,
            extra_anchor: None,
            intercepted: false,
        }) {
            Response::ProbeSession { outcome } => assert_eq!(outcome, "whitelisted"),
            other => panic!("unexpected {other:?}"),
        }
        // A correct client blocks a re-signed chain; an accept-all client
        // lets it through and is attributed.
        let origin = OriginServers::for_table6();
        let mut proxy = tangled_intercept::MitmProxy::reality_mine().unwrap();
        let target = Target::parse("www.chase.com:443").unwrap();
        let minted: Vec<Vec<u8>> = proxy
            .serve(&target, &origin)
            .unwrap()
            .iter()
            .map(|c| c.to_der().to_vec())
            .collect();
        for (defect, expected) in [
            ("correct", "blocked(no-path)"),
            ("accept-all", "intercepted(accept-all)"),
        ] {
            match svc.handle(&Request::ProbeSession {
                profile: "AOSP 4.4".into(),
                defect: defect.into(),
                target: "www.chase.com:443".into(),
                chain: minted.clone(),
                pinned: false,
                extra_anchor: None,
                intercepted: true,
            }) {
                Response::ProbeSession { outcome } => assert_eq!(outcome, expected),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Unknown defect labels and malformed anchors are classified.
        match svc.handle(&Request::ProbeSession {
            profile: "AOSP 4.4".into(),
            defect: "nonsense".into(),
            target: "www.chase.com:443".into(),
            chain: minted.clone(),
            pinned: false,
            extra_anchor: None,
            intercepted: true,
        }) {
            Response::Error { stage, error } => {
                assert_eq!(stage, "probe_session");
                assert_eq!(error, "unknown-defect");
            }
            other => panic!("unexpected {other:?}"),
        }
        match svc.handle(&Request::ProbeSession {
            profile: "AOSP 4.4".into(),
            defect: "correct".into(),
            target: "www.chase.com:443".into(),
            chain: minted,
            pinned: false,
            extra_anchor: Some(vec![0xde, 0xad]),
            intercepted: true,
        }) {
            Response::Error { stage, error } => {
                assert_eq!(stage, "probe_session");
                assert_eq!(error, "malformed-der");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn compare_returns_the_full_verdict_vector_in_store_order() {
        let svc = TrustService::new(256);
        let chain = origin_chain("gmail.com:443");
        match svc.handle(&Request::Compare {
            chain: chain.clone(),
        }) {
            Response::Compare {
                chain_key,
                verdicts,
                cached,
            } => {
                let order: Vec<&str> =
                    verdicts.iter().map(|(name, _)| name.as_str()).collect();
                assert_eq!(order, tangled_pki::stores::standard_store_names());
                assert_eq!(chain_key.len(), 64, "hex ChainKey");
                assert_eq!(cached, 0, "cold cache");
                // The origin chain anchors in the shared web-trust core,
                // so every standard store trusts it.
                assert!(verdicts
                    .iter()
                    .all(|(_, v)| matches!(v, ChainVerdict::Trusted { .. })));
            }
            other => panic!("unexpected {other:?}"),
        }

        // A compare shares the memo with validate: each per-profile
        // verdict is now cached.
        match svc.handle(&Request::Compare { chain }) {
            Response::Compare { cached, .. } => assert_eq!(cached, 10),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn compare_agrees_with_per_profile_validate() {
        let svc = TrustService::new(256);
        let chain = origin_chain("www.chase.com:443");
        let Response::Compare { verdicts, .. } = svc.handle(&Request::Compare {
            chain: chain.clone(),
        }) else {
            panic!("expected compare reply");
        };
        for (profile, expected) in verdicts {
            match svc.handle(&Request::Validate {
                profile: profile.clone(),
                chain: chain.clone(),
            }) {
                Response::Validate { verdict, .. } => {
                    assert_eq!(verdict, expected, "{profile}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn compare_rejects_bad_input_into_quarantine() {
        let svc = TrustService::new(16);
        assert_eq!(
            svc.handle(&Request::Compare { chain: vec![] }),
            Response::Error {
                stage: "compare".into(),
                error: "empty-chain".into()
            }
        );
        assert_eq!(
            svc.handle(&Request::Compare {
                chain: vec![vec![0xde, 0xad]]
            }),
            Response::Error {
                stage: "compare".into(),
                error: "malformed-der".into()
            }
        );
        assert_eq!(svc.stats().quarantined_total(), 2);
    }

    #[test]
    fn swap_invalidates_cached_verdicts_via_epoch() {
        let svc = TrustService::new(64);
        let chain = origin_chain("www.chase.com:443");
        let req = Request::Validate {
            profile: "AOSP 4.4".into(),
            chain: chain.clone(),
        };
        svc.handle(&req); // miss, fills cache
        svc.handle(&req); // hit
        assert_eq!(svc.memo.counters(), (1, 1));

        // Swap the profile to an empty store: the old cache key is dead.
        let empty = RootStore::new("empty");
        let resp = svc.handle(&Request::Swap {
            profile: "AOSP 4.4".into(),
            snapshot: empty.snapshot(),
        });
        match resp {
            Response::Swap { anchors, epoch, .. } => {
                assert_eq!(anchors, 0);
                assert!(epoch > 10, "epoch advances past the 10 preloads");
            }
            other => panic!("unexpected {other:?}"),
        }
        match svc.handle(&req) {
            Response::Validate { verdict, cached } => {
                assert!(!cached, "epoch change forces a fresh verification");
                assert_eq!(
                    verdict,
                    ChainVerdict::Untrusted {
                        error: "no-path".into()
                    }
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stats_request_reports_counters() {
        let svc = TrustService::new(16);
        svc.handle(&Request::Validate {
            profile: "AOSP 4.4".into(),
            chain: origin_chain("gmail.com:443"),
        });
        let resp = svc.handle(&Request::Stats);
        match resp {
            Response::Stats(mut doc) => {
                assert_eq!(doc["served"]["validate"], 1u64);
                assert_eq!(doc["cache"]["misses"], 1u64);
                assert!(doc["latency_us"]["validate"]["p50_us"].as_u64().is_some());
                // Pinned, latency aside (wall-clock): the whole document.
                if let serde_json::Value::Object(map) = &mut doc {
                    map.remove("latency_us");
                }
                assert_eq!(
                    serde_json::to_string(&doc).unwrap(),
                    concat!(
                        r#"{"cache":{"hits":0,"misses":1},"errors":{},"#,
                        r#""health":{"balanced":true,"injected":{},"injected_total":0,"#,
                        r#""quarantined":{},"quarantined_total":0},"#,
                        r#""index":{"epoch":10,"profiles":{"AOSP 4.1":1,"AOSP 4.2":2,"#,
                        r#""AOSP 4.3":3,"AOSP 4.4":4,"Apple":7,"Java":10,"Microsoft":8,"#,
                        r#""Mozilla":5,"Mozilla NSS":9,"iOS 7":6}},"#,
                        r#""served":{"validate":1},"warm":{"degraded":false,"quarantined":[]}}"#,
                    )
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn swap_past_threshold_compacts_journal_into_checkpoint() {
        let dir = std::env::temp_dir().join(format!(
            "tangled-svc-compact-{}-{}",
            std::process::id(),
            std::time::Instant::now().elapsed().as_nanos() as u64
                ^ std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .unwrap()
                    .as_nanos() as u64
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("swaps.journal");
        let ckpt_path = dir.join("swaps.journal.ckpt");

        let svc = TrustService::new(16);
        let (journal, _, _) =
            tangled_snap::Journal::open(journal_path.to_str().unwrap()).unwrap();
        let compaction = Compaction {
            path: ckpt_path.to_string_lossy().into_owned(),
            threshold: 1, // every journalled swap crosses the threshold
            base: None,
            state: tangled_snap::TrustState::default(),
            compactions: 0,
        };
        svc.attach_swap_log(journal, Some(compaction));

        let store = ReferenceStore::Mozilla.cached();
        for profile in ["canary-a", "canary-b", "canary-a"] {
            let resp = svc.handle(&Request::Swap {
                profile: profile.into(),
                snapshot: store.snapshot(),
            });
            assert!(matches!(resp, Response::Swap { .. }), "{resp:?}");
        }
        assert_eq!(svc.compactions(), 3);

        // The journal is back to bare magic; the checkpoint holds the
        // fold — last swap per profile at its recorded epoch.
        let (_journal, replayed, recovery) =
            tangled_snap::Journal::open(journal_path.to_str().unwrap()).unwrap();
        assert!(!recovery.truncated);
        assert!(replayed.is_empty());
        let snap =
            tangled_snap::Snapshot::open(ckpt_path.to_str().unwrap()).unwrap();
        let state = tangled_snap::read_checkpoint(&snap).unwrap().unwrap();
        assert_eq!(state.epoch, 13);
        assert_eq!(state.records.len(), 2);
        assert_eq!(state.records[0].profile, "canary-b");
        assert_eq!(state.records[0].epoch, 12);
        assert_eq!(state.records[1].profile, "canary-a");
        assert_eq!(state.records[1].epoch, 13);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_document_exposes_index_epochs() {
        let svc = TrustService::new(16);
        let doc = svc.stats_document();
        assert_eq!(doc["index"]["epoch"], 10u64, "10 standard preloads");
        let before = doc["index"]["profiles"]["AOSP 4.4"]
            .as_u64()
            .expect("profile epoch");

        // A swap advances exactly that profile's epoch.
        svc.handle(&Request::Swap {
            profile: "AOSP 4.4".into(),
            snapshot: RootStore::new("empty").snapshot(),
        });
        let doc = svc.stats_document();
        let after = doc["index"]["profiles"]["AOSP 4.4"].as_u64().unwrap();
        assert!(after > before, "epoch advanced: {before} -> {after}");
        assert_eq!(doc["index"]["epoch"], after);
    }
}
