//! Longitudinal drift: the disparity lens pointed at *time*.
//!
//! [`crate::compute`] compares ten stores at one instant; this module
//! compares one serving history at two instants. The inputs are two
//! materialised snapshots (`tangled snap materialize`, or any full
//! study snapshot): each is resolved to its profile table — the
//! standard stores from its `stores`/`eco-stores` sections (cold
//! defaults when absent, matching trustd's warm-start rules) overlaid
//! with the folded swap records its `trust-state` section carries — and
//! the two tables are diffed profile by profile under the paper's
//! anchor identity. The report is the churn between the epochs:
//! per-profile anchor add/remove lists, Jaccard drift, and the
//! trusted-by-exactly-*k* migration of every anchor that changed
//! membership.

use crate::{standard_stores, JaccardCell};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use tangled_pki::diff::diff;
use tangled_pki::store::RootStore;
use tangled_snap::{
    decode_eco_stores, decode_stores, read_checkpoint, SectionId, SnapError, Snapshot,
};
use tangled_x509::CertIdentity;

/// One profile's anchor churn between the two epochs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreDrift {
    /// The profile name.
    pub profile: String,
    /// Anchor count at the `--from` epoch.
    pub from_anchors: usize,
    /// Anchor count at the `--to` epoch.
    pub to_anchors: usize,
    /// Subjects of anchors present at `--to` but not `--from`.
    pub added: Vec<String>,
    /// Subjects of anchors present at `--from` but not `--to`.
    pub removed: Vec<String>,
    /// Jaccard similarity between the profile's two anchor sets.
    pub jaccard: JaccardCell,
}

impl StoreDrift {
    /// Did the profile's anchor set change at all?
    pub fn changed(&self) -> bool {
        !self.added.is_empty() || !self.removed.is_empty()
    }
}

/// The drift report between two materialised epochs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftReport {
    /// The `--from` side's epoch label (0 = no trust-state recorded).
    pub from_epoch: u64,
    /// The `--to` side's epoch label.
    pub to_epoch: u64,
    /// Per-profile churn for profiles present at both epochs, sorted by
    /// profile name.
    pub drifts: Vec<StoreDrift>,
    /// Profiles that exist only at the `--to` epoch, sorted.
    pub added_profiles: Vec<String>,
    /// Profiles that exist only at the `--from` epoch, sorted.
    pub removed_profiles: Vec<String>,
    /// `exactly_k_from[k]` = anchors trusted by exactly `k` profiles at
    /// the `--from` epoch.
    pub exactly_k_from: Vec<usize>,
    /// Same histogram at the `--to` epoch.
    pub exactly_k_to: Vec<usize>,
    /// Anchors whose exactly-*k* membership count changed between the
    /// epochs, as `((k_from, k_to), anchors)` sorted by the pair — the
    /// migration matrix's non-diagonal occupancy.
    pub migration: Vec<((usize, usize), usize)>,
}

/// Resolve a materialised snapshot to `(epoch, profile → store)`:
/// store sections when present (cold standard profiles otherwise),
/// overlaid with the folded trust-state.
fn epoch_state(snap: &Snapshot) -> Result<(u64, BTreeMap<String, Arc<RootStore>>), SnapError> {
    let mut profiles: BTreeMap<String, Arc<RootStore>> = BTreeMap::new();
    let has_stores = snap
        .entries()
        .iter()
        .any(|e| e.tag == SectionId::Stores.tag());
    if has_stores {
        for store in decode_stores(snap)? {
            profiles.insert(store.name().to_owned(), store);
        }
        for store in decode_eco_stores(snap)? {
            profiles.insert(store.name().to_owned(), store);
        }
    } else {
        for store in standard_stores() {
            profiles.insert(store.name().to_owned(), store);
        }
    }
    let mut epoch = 0u64;
    if let Some(state) = read_checkpoint(snap)? {
        epoch = state.epoch;
        for record in &state.records {
            let store =
                RootStore::from_snapshot(&record.store).map_err(|_| SnapError::Malformed {
                    section: SectionId::TrustState.name(),
                    detail: "folded store fails to reconstruct",
                })?;
            profiles.insert(record.profile.clone(), Arc::new(store));
        }
    }
    Ok((epoch, profiles))
}

/// Per-anchor membership counts across a profile table.
fn membership_counts(profiles: &BTreeMap<String, Arc<RootStore>>) -> BTreeMap<CertIdentity, usize> {
    let mut counts: BTreeMap<CertIdentity, usize> = BTreeMap::new();
    for store in profiles.values() {
        for id in store.identities() {
            *counts.entry(id.clone()).or_default() += 1;
        }
    }
    counts
}

/// Compute the drift between two materialised epochs.
pub fn compute_drift(from: &Snapshot, to: &Snapshot) -> Result<DriftReport, SnapError> {
    let (from_epoch, from_profiles) = epoch_state(from)?;
    let (to_epoch, to_profiles) = epoch_state(to)?;

    let mut drifts = Vec::new();
    let mut removed_profiles = Vec::new();
    for (name, from_store) in &from_profiles {
        let Some(to_store) = to_profiles.get(name) else {
            removed_profiles.push(name.clone());
            continue;
        };
        let d = diff(from_store, to_store);
        let intersection = d.common.len();
        drifts.push(StoreDrift {
            profile: name.clone(),
            from_anchors: from_store.len(),
            to_anchors: to_store.len(),
            added: d.added.iter().map(|id| id.subject.clone()).collect(),
            removed: d.removed.iter().map(|id| id.subject.clone()).collect(),
            jaccard: JaccardCell {
                intersection,
                union: from_store.len() + to_store.len() - intersection,
            },
        });
    }
    let added_profiles: Vec<String> = to_profiles
        .keys()
        .filter(|name| !from_profiles.contains_key(*name))
        .cloned()
        .collect();

    let from_counts = membership_counts(&from_profiles);
    let to_counts = membership_counts(&to_profiles);
    let mut exactly_k_from = vec![0usize; from_profiles.len() + 1];
    for k in from_counts.values() {
        exactly_k_from[*k] += 1;
    }
    let mut exactly_k_to = vec![0usize; to_profiles.len() + 1];
    for k in to_counts.values() {
        exactly_k_to[*k] += 1;
    }
    let all_ids: BTreeSet<&CertIdentity> = from_counts.keys().chain(to_counts.keys()).collect();
    let mut migration: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for id in all_ids {
        let kf = from_counts.get(id).copied().unwrap_or(0);
        let kt = to_counts.get(id).copied().unwrap_or(0);
        if kf != kt {
            *migration.entry((kf, kt)).or_default() += 1;
        }
    }

    tangled_obs::registry::add("disparity.drift_reports", 1);
    Ok(DriftReport {
        from_epoch,
        to_epoch,
        drifts,
        added_profiles,
        removed_profiles,
        exactly_k_from,
        exactly_k_to,
        migration: migration.into_iter().collect(),
    })
}

impl DriftReport {
    /// Render the golden text report. Deterministic: every collection is
    /// name- or key-sorted.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let push = |out: &mut String, line: &str| {
            out.push_str(line);
            out.push('\n');
        };
        push(&mut out, "longitudinal root-store drift report");
        push(
            &mut out,
            &format!("epochs: {} -> {}", self.from_epoch, self.to_epoch),
        );
        push(&mut out, "");
        let changed: Vec<&StoreDrift> = self.drifts.iter().filter(|d| d.changed()).collect();
        push(
            &mut out,
            &format!(
                "profiles: {} compared | {} changed | +{} / -{} profiles",
                self.drifts.len(),
                changed.len(),
                self.added_profiles.len(),
                self.removed_profiles.len()
            ),
        );
        for name in &self.added_profiles {
            push(&mut out, &format!("  profile added:   {name}"));
        }
        for name in &self.removed_profiles {
            push(&mut out, &format!("  profile removed: {name}"));
        }
        for d in &changed {
            push(
                &mut out,
                &format!(
                    "  {:<12} {:>4} -> {:>4} anchors | jaccard {:.3} | +{} / -{}",
                    d.profile,
                    d.from_anchors,
                    d.to_anchors,
                    d.jaccard.value(),
                    d.added.len(),
                    d.removed.len()
                ),
            );
            for subject in &d.added {
                push(&mut out, &format!("    + {subject}"));
            }
            for subject in &d.removed {
                push(&mut out, &format!("    - {subject}"));
            }
        }
        push(&mut out, "");
        push(&mut out, "trusted-by-exactly-k anchor migration:");
        if self.migration.is_empty() {
            push(&mut out, "  none — every anchor kept its membership count");
        }
        for ((kf, kt), n) in &self.migration {
            push(&mut out, &format!("  k={kf} -> k={kt}: {n} anchors"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tangled_pki::factory::CaFactory;
    use tangled_pki::trust::AnchorSource;
    use tangled_snap::{encode_checkpoint, SwapRecord, TrustState};

    fn store_of(f: &mut CaFactory, name: &str, anchors: &[&str]) -> RootStore {
        let mut s = RootStore::new(name);
        for a in anchors {
            s.add_cert(f.root(a), AnchorSource::Aosp);
        }
        s
    }

    fn checkpoint_snap(records: &[SwapRecord]) -> Snapshot {
        let state = TrustState::fold(records);
        Snapshot::parse(encode_checkpoint(None, &state)).unwrap()
    }

    #[test]
    fn drift_reports_injected_churn_exactly() {
        let mut f = CaFactory::new();
        let before = store_of(&mut f, "canary", &["Keep CA", "Drop CA"]);
        let after = store_of(&mut f, "canary", &["Keep CA", "Gain CA"]);

        let from = checkpoint_snap(&[SwapRecord {
            profile: "canary".into(),
            epoch: 11,
            store: before.snapshot(),
        }]);
        let to = checkpoint_snap(&[
            SwapRecord {
                profile: "canary".into(),
                epoch: 11,
                store: before.snapshot(),
            },
            SwapRecord {
                profile: "canary".into(),
                epoch: 12,
                store: after.snapshot(),
            },
        ]);

        let report = compute_drift(&from, &to).unwrap();
        assert_eq!(report.from_epoch, 11);
        assert_eq!(report.to_epoch, 12);
        // Ten standard profiles plus the canary, all compared; only the
        // canary changed, by exactly the injected churn.
        assert_eq!(report.drifts.len(), 11);
        let changed: Vec<&StoreDrift> =
            report.drifts.iter().filter(|d| d.changed()).collect();
        assert_eq!(changed.len(), 1);
        let d = changed[0];
        assert_eq!(d.profile, "canary");
        assert_eq!(d.added, vec!["CN=Gain CA"]);
        assert_eq!(d.removed, vec!["CN=Drop CA"]);
        assert_eq!(
            d.jaccard,
            JaccardCell {
                intersection: 1,
                union: 3
            }
        );
        assert!(report.added_profiles.is_empty());
        assert!(report.removed_profiles.is_empty());
        // The churned anchors migrate k=1 -> k=0 and k=0 -> k=1.
        assert_eq!(report.migration, vec![((0, 1), 1), ((1, 0), 1)]);

        let text = report.render();
        assert!(text.contains("+ CN=Gain CA"), "{text}");
        assert!(text.contains("- CN=Drop CA"), "{text}");
        assert!(text.contains("epochs: 11 -> 12"), "{text}");
    }

    #[test]
    fn profile_appearing_only_later_is_an_added_profile() {
        let mut f = CaFactory::new();
        let store = store_of(&mut f, "fresh", &["New CA"]);
        let from = checkpoint_snap(&[]);
        let to = checkpoint_snap(&[SwapRecord {
            profile: "fresh".into(),
            epoch: 11,
            store: store.snapshot(),
        }]);
        let report = compute_drift(&from, &to).unwrap();
        assert_eq!(report.added_profiles, vec!["fresh"]);
        assert_eq!(report.drifts.len(), 10, "standard profiles only");
        assert!(report.drifts.iter().all(|d| !d.changed()));
    }

    #[test]
    fn identical_epochs_have_zero_drift() {
        let snap_a = checkpoint_snap(&[]);
        let snap_b = checkpoint_snap(&[]);
        let report = compute_drift(&snap_a, &snap_b).unwrap();
        assert!(report.drifts.iter().all(|d| !d.changed()));
        assert!(report.migration.is_empty());
        assert_eq!(report.exactly_k_from, report.exactly_k_to);
        assert!(report.render().contains("none — every anchor"), "render");
    }
}
