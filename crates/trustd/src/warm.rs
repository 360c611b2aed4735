//! Start-up: the one path from files on disk to a serving
//! [`TrustService`].
//!
//! [`start`] takes what `tangled serve` takes — an optional study
//! snapshot, an optional swap journal, an optional compaction threshold
//! — and runs one policy in four steps:
//!
//! 1. **Stores.** With a snapshot, the ten standard profiles load from
//!    it through one degraded picker: container-level damage is fatal,
//!    every other damaged unit is quarantined (see `pick_stores`).
//!    Without one they generate cold, exactly as
//!    [`StoreIndex::with_standard_profiles`] does.
//! 2. **Folded swaps.** If a compaction checkpoint `<journal>.ckpt`
//!    exists, its trust-state is read from that file and its records
//!    re-install at their recorded epochs. The checkpoint's stores are
//!    never materialised: a server checkpoint only ever changes
//!    `trust-state`, so its stores are the base's by construction.
//! 3. **Journal tail.** The swaps journalled since the checkpoint
//!    replay at their recorded epochs; records the checkpoint already
//!    covers are skipped.
//! 4. **Compaction.** Checkpoints delta over the snapshot only when
//!    step 1 quarantined nothing. They keep the snapshot's file id and
//!    section rows ([`checkpoint_base`]), not its bytes, and reuse every
//!    base section by checksum; after a degraded start they are
//!    base-less, since that reuse would name damaged or missing bytes.
//!
//! The epoch sequence is the cold start's: the six reference profiles
//! install as epochs 1–6 in [`ReferenceStore::ALL`] order, the four
//! ecosystem families as epochs 7–10 in [`EcosystemStore::ALL`] order,
//! and each folded or journalled swap at the epoch it recorded. Any
//! divergence is a classified [`SnapError::EpochMismatch`], not a
//! silently different server.

use crate::index::StoreIndex;
use crate::service::{Compaction, TrustService, DEFAULT_CACHE_CAPACITY};
use std::sync::Arc;
use tangled_pki::store::RootStore;
use tangled_pki::stores::{EcosystemStore, ReferenceStore};
use tangled_snap::compact::decode_trust_state;
use tangled_snap::{
    checkpoint_base, decode_delta_meta, decode_eco_stores, decode_stores, DeltaMeta, Journal,
    SectionId, SnapError, Snapshot, SwapRecord, TrustState, DELTA_BASE_NONE,
};

/// A started service and what start-up has to tell the operator.
pub struct Started {
    /// The service, ready to bind.
    pub service: Arc<TrustService>,
    /// One line per step taken or degraded, in order — what
    /// `tangled serve` prints to stderr.
    pub notes: Vec<String>,
}

/// Why start-up refused: the file it was reading and the classified
/// error.
#[derive(Debug)]
pub struct StartError {
    /// The snapshot, checkpoint or journal path.
    pub path: String,
    /// What was wrong with it.
    pub error: SnapError,
}

impl std::fmt::Display for StartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.error)
    }
}

impl std::error::Error for StartError {}

/// Attach the file being read to a classified error.
fn at(path: &str) -> impl Fn(SnapError) -> StartError + '_ {
    move |error| StartError {
        path: path.to_owned(),
        error,
    }
}

/// Build the serving service from a snapshot, a compaction checkpoint
/// and a swap journal, as the module documentation describes.
///
/// Fatal: an unreadable snapshot container (bad magic or version,
/// truncation, an inconsistent section table), an unreadable or
/// checksum-damaged journal frame, a checkpoint over a different
/// snapshot (`base-mismatch`), a checkpoint that changes any section
/// besides `trust-state`, and any record that does not land on its
/// recorded epoch. Everything else degrades and is listed in the notes
/// and in every `stats` reply. `compact_threshold` only applies with a
/// journal: compaction folds the journal.
pub fn start(
    snapshot: Option<&str>,
    journal: Option<&str>,
    compact_threshold: Option<u64>,
) -> Result<Started, StartError> {
    let mut notes = Vec::new();

    // 1. Stores.
    let mut quarantined = Vec::new();
    let (index, base) = match snapshot {
        Some(path) => {
            let snap = Snapshot::open(path).map_err(at(path))?;
            notes.push(format!("warm start: store profiles from {path}"));
            let picked = pick_stores(&snap, &mut quarantined, &mut notes);
            tangled_obs::registry::add("trustd.warm_starts", 1);
            if !quarantined.is_empty() {
                tangled_obs::registry::add("trustd.warm_starts.degraded", 1);
            }
            (StoreIndex::preloaded(picked), Some(checkpoint_base(&snap)))
        }
        None => {
            notes.push("cold start: generated the standard store profiles".to_owned());
            (StoreIndex::with_standard_profiles(), None)
        }
    };
    let service = Arc::new(TrustService::with_index(index, DEFAULT_CACHE_CAPACITY));
    for (unit, label) in &quarantined {
        service.stats().record_degraded(unit, label);
    }
    let Some(journal_path) = journal else {
        return Ok(Started { service, notes });
    };

    // 2. Folded swaps.
    let ckpt = format!("{journal_path}.ckpt");
    let mut state = TrustState::default();
    if std::path::Path::new(&ckpt).exists() {
        state = read_checkpoint_over(&ckpt, base.as_ref()).map_err(at(&ckpt))?;
        for record in &state.records {
            reinstall(service.index(), record, SectionId::TrustState.name()).map_err(at(&ckpt))?;
        }
        notes.push(format!(
            "checkpoint: folded {} profile(s); epoch {}",
            state.records.len(),
            state.epoch
        ));
    }

    // 3. Journal tail.
    let (journal, tail, recovery) = Journal::open(journal_path).map_err(at(journal_path))?;
    if recovery.truncated {
        notes.push(format!(
            "journal: truncated a torn final record ({} bytes dropped)",
            recovery.dropped_bytes
        ));
    }
    let summary = replay_journal(service.index(), &tail).map_err(at(journal_path))?;
    if summary.skipped > 0 {
        notes.push(format!(
            "journal: skipped {} swap(s) the checkpoint already covers",
            summary.skipped
        ));
    }
    notes.push(format!(
        "journal: replayed {} swap(s); epoch {}",
        summary.replayed,
        service.index().current_epoch()
    ));

    // 4. Compaction: the fold covers everything the index holds — the
    // checkpoint's state plus the replayed tail.
    let compaction = compact_threshold.map(|threshold| {
        let base = base.filter(|_| quarantined.is_empty());
        if base.is_none() && snapshot.is_some() {
            notes.push(
                "compaction: checkpoints are base-less (the warm start quarantined part of \
                 the snapshot)"
                    .to_owned(),
            );
        }
        state.absorb(&tail);
        notes.push(format!(
            "compaction: armed at {threshold} journal byte(s); checkpoint {ckpt}"
        ));
        Compaction {
            path: ckpt,
            threshold,
            base,
            state,
            compactions: 0,
        }
    });
    service.attach_swap_log(journal, compaction);
    Ok(Started { service, notes })
}

/// The snapshot section a decode failure should be quarantined under.
fn failed_section(e: &SnapError, default: &'static str) -> &'static str {
    match e {
        SnapError::ChecksumMismatch { section }
        | SnapError::MissingSection { section }
        | SnapError::Malformed { section, .. } => section,
        _ => default,
    }
}

/// Pick the ten standard profiles out of a snapshot, in canonical
/// install order, quarantining what is damaged instead of refusing:
///
/// * auxiliary sections (`meta`, `ecosystem`, `population`,
///   `validation`, `health`) are checksummed individually; a damaged one
///   is quarantined and the server runs without it — none of them feed
///   the serving path;
/// * an unusable `stores` section (its cursor is sequential, so
///   record-level resync is impossible) is quarantined whole and the six
///   reference profiles generate cold;
/// * the `eco-stores` section degrades the same way, independently: a
///   pre-disparity snapshot (no such section) or a damaged one is
///   quarantined and the four ecosystem families generate cold;
/// * a decodable `stores` section that lacks a reference profile
///   quarantines that profile (`missing-profile`) and serves the rest.
///
/// Returns the picked profiles; the `(unit, label)` quarantine ledger
/// goes to `quarantined`, and cold fallbacks are noted for the operator.
fn pick_stores(
    snap: &Snapshot,
    quarantined: &mut Vec<(String, String)>,
    notes: &mut Vec<String>,
) -> Vec<(&'static str, Arc<RootStore>)> {
    let mut quarantine = |unit: &str, label: &str| {
        let entry = (unit.to_owned(), label.to_owned());
        if !quarantined.contains(&entry) {
            quarantined.push(entry);
        }
    };

    for id in SectionId::STUDY {
        if matches!(
            id,
            SectionId::Corpus | SectionId::Stores | SectionId::EcoStores
        ) {
            continue;
        }
        if let Err(e) = snap.section(id) {
            quarantine(id.name(), e.label());
        }
    }

    let mut picked = Vec::with_capacity(ReferenceStore::ALL.len() + EcosystemStore::ALL.len());
    match decode_stores(snap) {
        Ok(stores) => {
            for rs in ReferenceStore::ALL {
                match stores.iter().find(|s| s.name() == rs.name()) {
                    Some(store) => picked.push((rs.name(), Arc::clone(store))),
                    None => quarantine(rs.name(), "missing-profile"),
                }
            }
        }
        Err(e) => {
            quarantine(failed_section(&e, "stores"), e.label());
            notes.push(
                "warm start degraded: store section unusable; serving cold-generated \
                 reference profiles"
                    .to_owned(),
            );
            picked.extend(ReferenceStore::ALL.map(|rs| (rs.name(), rs.cached())));
        }
    }
    match decode_eco_stores(snap) {
        Ok(eco) => picked.extend(EcosystemStore::ALL.map(|es| es.name()).into_iter().zip(eco)),
        Err(e) => {
            quarantine(failed_section(&e, SectionId::EcoStores.name()), e.label());
            notes.push(
                "warm start degraded: eco-stores section unusable; serving cold-generated \
                 ecosystem profiles"
                    .to_owned(),
            );
            picked.extend(EcosystemStore::ALL.map(|es| (es.name(), es.cached())));
        }
    }
    for (unit, label) in quarantined.iter() {
        notes.push(format!("warm start quarantined '{unit}': {label}"));
    }
    picked
}

/// Read a compaction checkpoint's trust-state, checking that it belongs
/// over `base` (the snapshot this start loaded, if any, as
/// [`checkpoint_base`] describes it) and that it changes nothing but the
/// trust-state.
fn read_checkpoint_over(path: &str, base: Option<&DeltaMeta>) -> Result<TrustState, SnapError> {
    let ckpt = Snapshot::open(path)?;
    let meta = decode_delta_meta(&ckpt)?.ok_or(SnapError::MissingSection {
        section: SectionId::DeltaMeta.name(),
    })?;
    if meta.base_id != DELTA_BASE_NONE {
        let actual = base.map_or(DELTA_BASE_NONE, |b| b.base_id);
        if meta.base_id != actual {
            return Err(SnapError::BaseMismatch {
                recorded: meta.base_id,
                actual,
            });
        }
    }
    let carried = [SectionId::DeltaMeta.tag(), SectionId::TrustState.tag()];
    if let Some(entry) = ckpt.entries().iter().find(|e| !carried.contains(&e.tag)) {
        return Err(SnapError::Malformed {
            section: SectionId::from_tag(entry.tag)
                .map(SectionId::name)
                .unwrap_or("unknown"),
            detail: "checkpoint changes a section other than trust-state",
        });
    }
    decode_trust_state(&ckpt)
}

/// Re-install a recorded swap at its recorded epoch, which must be
/// ahead of the index's. Folded records may skip epochs; the journal
/// holds every swap, so [`replay_journal`] also requires the next one.
fn reinstall(
    index: &StoreIndex,
    record: &SwapRecord,
    section: &'static str,
) -> Result<(), SnapError> {
    let store = RootStore::from_snapshot(&record.store).map_err(|_| SnapError::Malformed {
        section,
        detail: "recorded store fails to reconstruct",
    })?;
    index
        .install_at_epoch(&record.profile, Arc::new(store), record.epoch)
        .map(drop)
        .map_err(|current| SnapError::EpochMismatch {
            recorded: record.epoch,
            produced: current + 1,
        })
}

/// What [`replay_journal`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReplaySummary {
    /// Records re-installed at their recorded epochs.
    replayed: usize,
    /// Records skipped because the index was already at or past their
    /// epoch — the compaction crash window (checkpoint durable, journal
    /// tail not yet truncated) replays the same swaps twice; skipping
    /// makes that idempotent.
    skipped: usize,
}

/// Replay journalled swaps over a freshly started index.
///
/// Each record re-installs its store snapshot under its profile name and
/// must land on exactly the next epoch, the one recorded at append time;
/// the journal and snapshot belong to one server history, and a
/// mismatch means they were mixed from different ones. Records whose
/// epoch the index has already reached (a checkpoint written just before
/// a crash left the journal tail in place) are skipped, not errors — the
/// folded state already covers them.
fn replay_journal(index: &StoreIndex, records: &[SwapRecord]) -> Result<ReplaySummary, SnapError> {
    let mut summary = ReplaySummary {
        replayed: 0,
        skipped: 0,
    };
    for record in records {
        let next = index.current_epoch() + 1;
        if record.epoch < next {
            summary.skipped += 1;
            continue;
        }
        if record.epoch != next {
            return Err(SnapError::EpochMismatch {
                recorded: record.epoch,
                produced: next,
            });
        }
        reinstall(index, record, "journal")?;
        summary.replayed += 1;
    }
    tangled_obs::registry::add("journal.replayed", summary.replayed as u64);
    if summary.skipped > 0 {
        tangled_obs::registry::add("journal.replay_skipped", summary.skipped as u64);
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tangled_snap::container::assemble;
    use tangled_snap::delta::encode_delta_meta;

    /// A per-test scratch directory, removed on drop.
    struct TestDir(std::path::PathBuf);

    impl TestDir {
        fn new(tag: &str) -> TestDir {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos();
            let dir = std::env::temp_dir()
                .join(format!("tangled-warm-{tag}-{}-{nanos}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            TestDir(dir)
        }

        fn path(&self, name: &str) -> String {
            self.0.join(name).to_string_lossy().into_owned()
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// The six reference stores at epochs 1–6.
    fn reference_index() -> StoreIndex {
        StoreIndex::preloaded(
            ReferenceStore::ALL
                .map(|rs| (rs.name(), rs.cached()))
                .to_vec(),
        )
    }

    fn record(profile: &str, epoch: u64) -> SwapRecord {
        SwapRecord {
            profile: profile.into(),
            epoch,
            store: ReferenceStore::Mozilla.cached().snapshot(),
        }
    }

    #[test]
    fn replay_detects_epoch_divergence() {
        let index = reference_index();
        // A six-profile index's next epoch is 7, not 42.
        let err = replay_journal(&index, &[record("device", 42)]).unwrap_err();
        assert_eq!(
            err,
            SnapError::EpochMismatch {
                recorded: 42,
                produced: 7
            }
        );
    }

    #[test]
    fn replay_reproduces_recorded_epochs() {
        let index = reference_index();
        replay_journal(&index, &[record("device", 7), record("AOSP 4.4", 8)]).unwrap();
        assert_eq!(index.current_epoch(), 8);
        assert_eq!(index.profile("device").unwrap().epoch, 7);
        assert_eq!(index.profile("AOSP 4.4").unwrap().epoch, 8);
    }

    #[test]
    fn replay_skips_records_the_index_already_covers() {
        // The compaction crash window: the checkpoint reached epoch 6,
        // but the untruncated journal still holds frames 5 and 7.
        let index = reference_index();
        let summary = replay_journal(&index, &[record("device", 5), record("device", 7)]).unwrap();
        assert_eq!(
            summary,
            ReplaySummary {
                replayed: 1,
                skipped: 1
            }
        );
        assert_eq!(index.current_epoch(), 7);
    }

    #[test]
    fn start_reinstalls_folded_swaps_and_skips_the_covered_tail() {
        let dir = TestDir::new("folded");
        let journal = dir.path("swaps.jrn");
        let state = TrustState::fold(&[
            record("canary", 11),
            record("other", 12),
            record("canary", 13),
        ]);
        let ckpt = tangled_snap::encode_checkpoint(None, &state);
        std::fs::write(format!("{journal}.ckpt"), ckpt).unwrap();
        // The crash window: the journal still holds frame 13 beside the
        // checkpoint that folded it, plus one swap made after.
        let (mut log, _, _) = Journal::open(&journal).unwrap();
        log.append(&record("canary", 13)).unwrap();
        log.append(&record("late", 14)).unwrap();
        drop(log);

        let started = start(None, Some(&journal), None).unwrap();
        let index = started.service.index();
        assert_eq!(index.current_epoch(), 14);
        assert_eq!(index.profile("other").unwrap().epoch, 12);
        assert_eq!(index.profile("canary").unwrap().epoch, 13);
        assert_eq!(index.profile("late").unwrap().epoch, 14);
        // Standard profiles still underneath, at cold-start epochs.
        assert_eq!(index.profile("Mozilla").unwrap().epoch, 5);
        assert_eq!(
            started.notes[1..],
            [
                "checkpoint: folded 2 profile(s); epoch 13",
                "journal: skipped 1 swap(s) the checkpoint already covers",
                "journal: replayed 1 swap(s); epoch 14",
            ]
        );
    }

    #[test]
    fn folded_record_behind_the_standard_profiles_is_an_epoch_mismatch() {
        let dir = TestDir::new("stale");
        let journal = dir.path("swaps.jrn");
        let state = TrustState::fold(&[record("canary", 9)]);
        let ckpt = tangled_snap::encode_checkpoint(None, &state);
        std::fs::write(format!("{journal}.ckpt"), ckpt).unwrap();
        let err = start(None, Some(&journal), None).err().expect("refused");
        assert_eq!(err.path, format!("{journal}.ckpt"));
        assert_eq!(
            err.error,
            SnapError::EpochMismatch {
                recorded: 9,
                produced: 11
            }
        );
    }

    #[test]
    fn checkpoint_changing_a_store_section_is_refused() {
        let dir = TestDir::new("stores");
        let path = dir.path("swaps.jrn.ckpt");
        let meta = encode_delta_meta(&DeltaMeta {
            base_id: DELTA_BASE_NONE,
            epoch: 11,
            reused: Vec::new(),
        });
        let state =
            tangled_snap::compact::encode_trust_state(&TrustState::fold(&[record("canary", 11)]));
        let bytes = assemble(&[
            (SectionId::Stores, b"not the base's stores".to_vec()),
            (SectionId::DeltaMeta, meta),
            (SectionId::TrustState, state),
        ]);
        std::fs::write(&path, bytes).unwrap();
        let err = read_checkpoint_over(&path, None).unwrap_err();
        assert_eq!(err.label(), "malformed-record");
        assert_eq!(
            err,
            SnapError::Malformed {
                section: "stores",
                detail: "checkpoint changes a section other than trust-state",
            }
        );
    }

    #[test]
    fn a_full_snapshot_is_not_a_checkpoint() {
        let dir = TestDir::new("full");
        let path = dir.path("swaps.jrn.ckpt");
        std::fs::write(&path, assemble(&[(SectionId::Meta, b"m".to_vec())])).unwrap();
        assert_eq!(
            read_checkpoint_over(&path, None).unwrap_err(),
            SnapError::MissingSection {
                section: "delta-meta"
            }
        );
    }

    #[test]
    fn warm_starts_count_every_snapshot_start_and_nothing_else() {
        let counter = |name| {
            tangled_obs::registry::registry()
                .counter(name)
                .load(std::sync::atomic::Ordering::Relaxed)
        };
        let (warm, degraded) = (
            counter("trustd.warm_starts"),
            counter("trustd.warm_starts.degraded"),
        );
        let dir = TestDir::new("count");

        // A cold start over a base-less checkpoint is not a warm start.
        let journal = dir.path("cold.jrn");
        let ckpt =
            tangled_snap::encode_checkpoint(None, &TrustState::fold(&[record("canary", 11)]));
        std::fs::write(format!("{journal}.ckpt"), ckpt).unwrap();
        start(None, Some(&journal), None).unwrap();
        assert_eq!(counter("trustd.warm_starts"), warm);

        // A snapshot whose every store section is missing falls back to
        // cold profiles — still a warm start, a degraded one, and its
        // checkpoints are base-less.
        let snap = dir.path("meta-only.snap");
        std::fs::write(&snap, assemble(&[(SectionId::Meta, b"m".to_vec())])).unwrap();
        let started = start(Some(&snap), Some(&dir.path("warm.jrn")), Some(1)).unwrap();
        assert_eq!(started.service.index().profile_names().len(), 10);
        assert!(started
            .notes
            .iter()
            .any(|n| n.starts_with("compaction: checkpoints are base-less")));
        assert_eq!(counter("trustd.warm_starts"), warm + 1);
        assert_eq!(counter("trustd.warm_starts.degraded"), degraded + 1);
    }
}
