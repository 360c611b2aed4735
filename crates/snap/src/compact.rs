//! Journal compaction: fold the swap history into a checkpoint.
//!
//! The swap journal grows with every `swap` trustd serves, and replay
//! cost grows with it — O(total swaps ever). Compaction folds the
//! journal down to *what the swaps currently amount to*: the last
//! [`SwapRecord`] per profile, plus the global epoch the history
//! reached. That fold is encoded as a [`SectionId::TrustState`] section
//! inside a **checkpoint**: a delta snapshot (see [`crate::delta`])
//! that reuses every section of its base unchanged and carries only the
//! trust-state. After the checkpoint is durably on disk the journal is
//! truncated back to its magic, so recovery is O(current state):
//! materialise base + checkpoint, apply the folded records at their
//! recorded epochs, replay whatever short tail accumulated since.
//!
//! ```text
//! trust-state := epoch  varint       (global epoch after the fold)
//!                count  varint ×{
//!                  profile str, epoch varint, store str,
//!                  anchors varint ×{ subject str, source str,
//!                                    enabled u8, der_hex str } }
//! ```
//!
//! WAL ordering is preserved by the *writer* (trustd): the checkpoint
//! is written tmp + fsync + rename before `Journal::reset` truncates
//! the tail, both under trustd's one swap-log lock. A crash between the
//! two leaves a checkpoint *and* a full journal — replay tolerates that
//! by skipping records whose epoch the folded state already covers.

use crate::container::SectionId;
use crate::delta::{encode_delta_meta, file_id, DeltaMeta, DELTA_BASE_NONE};
use crate::journal::SwapRecord;
use crate::wire::{put_str, put_varint, Cursor};
use crate::{SnapError, Snapshot};
use tangled_pki::store::{StoreSnapshot, StoreSnapshotEntry};

/// The folded swap history: one record per profile, epoch order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TrustState {
    /// The global store-index epoch after applying every fold record —
    /// i.e. the epoch of the last swap the journal held.
    pub epoch: u64,
    /// The surviving (latest) swap per profile, ascending by epoch so
    /// replaying them in order reproduces the recorded epochs exactly.
    pub records: Vec<SwapRecord>,
}

impl TrustState {
    /// Fold a journal's replayed records: keep the highest-epoch swap
    /// per profile, order survivors by epoch. Keying on epoch (not list
    /// position) makes the fold order-insensitive, so absorbing an
    /// already-covered journal tail (the compaction crash window) is
    /// idempotent.
    pub fn fold(records: &[SwapRecord]) -> TrustState {
        let mut latest: Vec<&SwapRecord> = Vec::new();
        let mut epoch = 0u64;
        for record in records {
            epoch = epoch.max(record.epoch);
            if let Some(slot) = latest.iter_mut().find(|r| r.profile == record.profile) {
                if record.epoch >= slot.epoch {
                    *slot = record;
                }
            } else {
                latest.push(record);
            }
        }
        let mut records: Vec<SwapRecord> = latest.into_iter().cloned().collect();
        records.sort_by_key(|r| r.epoch);
        TrustState { epoch, records }
    }

    /// Absorb further swaps into an existing fold (repeated compactions
    /// build on the previous checkpoint's state).
    pub fn absorb(&mut self, records: &[SwapRecord]) {
        let mut all = std::mem::take(&mut self.records);
        all.extend(records.iter().cloned());
        let folded = TrustState::fold(&all);
        self.epoch = self.epoch.max(folded.epoch);
        self.records = folded.records;
    }
}

/// Encode a [`TrustState`] as the `trust-state` section body.
pub fn encode_trust_state(state: &TrustState) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, state.epoch);
    put_varint(&mut out, state.records.len() as u64);
    for record in &state.records {
        put_str(&mut out, &record.profile);
        put_varint(&mut out, record.epoch);
        put_str(&mut out, &record.store.name);
        put_varint(&mut out, record.store.anchors.len() as u64);
        for anchor in &record.store.anchors {
            put_str(&mut out, &anchor.subject);
            put_str(&mut out, &anchor.source);
            out.push(u8::from(anchor.enabled));
            put_str(&mut out, &anchor.der_hex);
        }
    }
    out
}

/// Decode a container's `trust-state` section.
pub fn decode_trust_state(snap: &Snapshot) -> Result<TrustState, SnapError> {
    let body = snap.section(SectionId::TrustState)?;
    let mut c = Cursor::new(body, SectionId::TrustState.name());
    let epoch = c.varint()?;
    let count = c.count()?;
    let mut records = Vec::with_capacity(count);
    let mut last_epoch = 0u64;
    for _ in 0..count {
        let profile = c.str()?;
        let record_epoch = c.varint()?;
        if record_epoch <= last_epoch {
            return Err(c.malformed("fold records out of epoch order"));
        }
        last_epoch = record_epoch;
        let name = c.str()?;
        let anchor_count = c.count()?;
        let mut anchors = Vec::with_capacity(anchor_count);
        for _ in 0..anchor_count {
            anchors.push(StoreSnapshotEntry {
                subject: c.str()?,
                source: c.str()?,
                enabled: match c.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(c.malformed("enabled flag is not 0/1")),
                },
                der_hex: c.str()?,
            });
        }
        records.push(SwapRecord {
            profile,
            epoch: record_epoch,
            store: StoreSnapshot { name, anchors },
        });
    }
    c.finish()?;
    if epoch < last_epoch {
        return Err(SnapError::Malformed {
            section: SectionId::TrustState.name(),
            detail: "global epoch precedes a fold record",
        });
    }
    Ok(TrustState { epoch, records })
}

/// What a checkpoint keeps of its base snapshot: the base's [`file_id`]
/// and its section table's `(tag, checksum)` rows, in tag order. Every
/// base section except `delta-meta` and `trust-state` is reused, so the
/// bodies are never read again.
pub fn checkpoint_base(base: &Snapshot) -> DeltaMeta {
    let carried = [SectionId::DeltaMeta.tag(), SectionId::TrustState.tag()];
    let mut reused: Vec<(u8, u64)> = base
        .entries()
        .iter()
        .filter(|e| !carried.contains(&e.tag))
        .map(|e| (e.tag, e.checksum))
        .collect();
    reused.sort_by_key(|&(tag, _)| tag);
    DeltaMeta {
        base_id: file_id(base.bytes()),
        epoch: 0,
        reused,
    }
}

/// Build a checkpoint file: a delta over `base` (see
/// [`checkpoint_base`]) that reuses every base section and carries the
/// folded [`TrustState`]. With no base (trustd cold-started from
/// standard profiles) the checkpoint is a base-less delta holding only
/// the trust-state.
pub fn encode_checkpoint(base: Option<&DeltaMeta>, state: &TrustState) -> Vec<u8> {
    let meta = DeltaMeta {
        base_id: base.map_or(DELTA_BASE_NONE, |b| b.base_id),
        epoch: state.epoch,
        reused: base.map(|b| b.reused.clone()).unwrap_or_default(),
    };
    tangled_obs::registry::add("snap.delta_sections_reused", meta.reused.len() as u64);
    crate::container::assemble_tagged(&[
        (SectionId::DeltaMeta.tag(), &encode_delta_meta(&meta)),
        (SectionId::TrustState.tag(), &encode_trust_state(state)),
    ])
}

/// Decode the trust-state out of a materialised chain (or a lone
/// checkpoint file). `Ok(None)` when the container carries no
/// `trust-state` section — a plain study snapshot.
pub fn read_checkpoint(snap: &Snapshot) -> Result<Option<TrustState>, SnapError> {
    let tag = SectionId::TrustState.tag();
    if !snap.entries().iter().any(|e| e.tag == tag) {
        return Ok(None);
    }
    decode_trust_state(snap).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::materialize;

    fn record(profile: &str, epoch: u64, subject: &str) -> SwapRecord {
        SwapRecord {
            profile: profile.to_string(),
            epoch,
            store: StoreSnapshot {
                name: format!("{profile}-store"),
                anchors: vec![StoreSnapshotEntry {
                    subject: subject.to_string(),
                    source: "system".to_string(),
                    enabled: true,
                    der_hex: "3000".to_string(),
                }],
            },
        }
    }

    #[test]
    fn fold_keeps_last_swap_per_profile_in_epoch_order() {
        let records = [
            record("a", 11, "one"),
            record("b", 12, "two"),
            record("a", 13, "three"),
        ];
        let state = TrustState::fold(&records);
        assert_eq!(state.epoch, 13);
        assert_eq!(state.records.len(), 2);
        assert_eq!(state.records[0].profile, "b");
        assert_eq!(state.records[1].profile, "a");
        assert_eq!(state.records[1].store.anchors[0].subject, "three");
    }

    #[test]
    fn trust_state_round_trips_through_a_checkpoint() {
        let state = TrustState::fold(&[record("a", 3, "x"), record("b", 7, "y")]);
        let snap = Snapshot::parse(encode_checkpoint(None, &state)).unwrap();
        assert_eq!(read_checkpoint(&snap).unwrap(), Some(state));
    }

    #[test]
    fn checkpoint_over_base_reuses_every_base_section() {
        let base = crate::container::assemble(&[
            (SectionId::Meta, b"m".to_vec()),
            (SectionId::Corpus, b"c".to_vec()),
        ]);
        let state = TrustState::fold(&[record("a", 2, "x")]);
        let meta = checkpoint_base(&Snapshot::parse(base.clone()).unwrap());
        let reused: Vec<u8> = meta.reused.iter().map(|&(tag, _)| tag).collect();
        assert_eq!(reused, [SectionId::Meta.tag(), SectionId::Corpus.tag()]);
        assert_eq!(meta.base_id, file_id(&base));
        let ckpt = encode_checkpoint(Some(&meta), &state);
        // Only the delta-meta and the trust-state ride in the file.
        assert_eq!(Snapshot::parse(ckpt.clone()).unwrap().entries().len(), 2);

        let m = materialize(&[base, ckpt], u64::MAX).unwrap();
        let snap = Snapshot::parse(m.bytes).unwrap();
        assert_eq!(snap.section(SectionId::Meta).unwrap(), b"m");
        assert_eq!(read_checkpoint(&snap).unwrap(), Some(state));
    }

    #[test]
    fn absorb_extends_a_previous_fold() {
        let mut state = TrustState::fold(&[record("a", 4, "x")]);
        state.absorb(&[record("a", 9, "y"), record("c", 6, "z")]);
        assert_eq!(state.epoch, 9);
        assert_eq!(state.records.len(), 2);
        assert_eq!(state.records.last().unwrap().store.anchors[0].subject, "y");
    }

    #[test]
    fn hostile_trust_state_classifies_not_panics() {
        // Out-of-order fold records.
        let bad = {
            let mut out = Vec::new();
            put_varint(&mut out, 9);
            put_varint(&mut out, 2);
            for (profile, epoch) in [("a", 5u64), ("b", 5u64)] {
                put_str(&mut out, profile);
                put_varint(&mut out, epoch);
                put_str(&mut out, "s");
                put_varint(&mut out, 0);
            }
            out
        };
        let snap =
            Snapshot::parse(crate::container::assemble(&[(SectionId::TrustState, bad)])).unwrap();
        assert_eq!(
            decode_trust_state(&snap).unwrap_err().label(),
            "malformed-record"
        );
        // Truncated body.
        let snap = Snapshot::parse(crate::container::assemble(&[(
            SectionId::TrustState,
            vec![3, 1],
        )]))
        .unwrap();
        assert!(decode_trust_state(&snap).is_err());
    }
}
