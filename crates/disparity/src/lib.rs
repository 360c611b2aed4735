//! `tangled-disparity` — the cross-ecosystem root-store disparity engine.
//!
//! The paper's §5 measures how far Android vendor stores drift from the
//! AOSP baseline. This crate widens the lens to *ecosystems*: the four
//! Android/desktop reference stores are joined by calibrated Apple,
//! Microsoft, Mozilla NSS and Java root-store families
//! ([`tangled_pki::stores::EcosystemStore`]) and compared three ways:
//!
//! * **set disparity** — pairwise Jaccard similarity over anchor
//!   identity sets (the paper's subject+modulus equivalence), plus
//!   union/intersection cardinalities;
//! * **validation disparity** — every chain of the study's Notary corpus
//!   validated against all ten stores, yielding a per-chain
//!   *verdict vector* ("valid on {AOSP 4.4, Mozilla NSS} only"), the
//!   trusted-by-exactly-*k* histogram, and per-store coverage counts;
//! * **name-collision disparity** — the §5.2 "(+unusual)" near-clone
//!   check: two stores sharing a display name whose anchor *content*
//!   diverges, demonstrating why every comparison here keys on
//!   certificate identity, never on store or anchor names.
//!
//! Verdict vectors are not recomputed locally: each chain goes through
//! [`TrustService::handle`] with a `compare` request — the same code
//! path a live trustd serves — so the offline report and a served
//! replay are byte-identical *by construction*, and
//! [`tangled_trustd::verdict_fingerprint`] over the canonical reply
//! strings is printed by both `tangled disparity` and
//! `tangled loadgen --op compare` for a one-`grep` cross-check.
//!
//! Chains shard over the ambient [`tangled_exec::ExecPool`]; every
//! number and the rendered report are byte-identical at any pool width.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drift;

pub use drift::{compute_drift, DriftReport, StoreDrift};

use std::collections::BTreeSet;
use std::sync::Arc;
use tangled_exec::ExecPool;
use tangled_notary::{Ecosystem, EcosystemSpec};
use tangled_pki::diff::diff;
use tangled_pki::store::RootStore;
use tangled_pki::stores::{
    global_factory, standard_store_names, unusual_clone, EcosystemStore, ReferenceStore,
};
use tangled_trustd::{
    canonical, verdict_fingerprint, ChainVerdict, Request, Response, TrustService,
    DEFAULT_CACHE_CAPACITY,
};
use tangled_x509::CertIdentity;

/// The ten standard stores, in [`standard_store_names`] order: the six
/// reference profiles, then the four ecosystem families.
pub fn standard_stores() -> Vec<Arc<RootStore>> {
    ReferenceStore::ALL
        .into_iter()
        .map(|rs| rs.cached())
        .chain(EcosystemStore::ALL.into_iter().map(|es| es.cached()))
        .collect()
}

/// One cell of the pairwise similarity matrix, kept as exact integers so
/// the rendered ratio is a pure function of the anchor sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JaccardCell {
    /// `|A ∩ B|` under the paper's identity.
    pub intersection: usize,
    /// `|A ∪ B|` under the paper's identity.
    pub union: usize,
}

impl JaccardCell {
    /// The Jaccard similarity `|A ∩ B| / |A ∪ B|` (1.0 for two empty sets).
    pub fn value(&self) -> f64 {
        if self.union == 0 {
            1.0
        } else {
            self.intersection as f64 / self.union as f64
        }
    }
}

/// Pairwise Jaccard matrix over the stores' anchor identity sets, in the
/// given store order. Symmetric with unit diagonal.
pub fn jaccard_matrix(stores: &[Arc<RootStore>]) -> Vec<Vec<JaccardCell>> {
    let sets: Vec<BTreeSet<&CertIdentity>> = stores
        .iter()
        .map(|s| s.identities().iter().collect())
        .collect();
    sets.iter()
        .map(|a| {
            sets.iter()
                .map(|b| {
                    let intersection = a.intersection(b).count();
                    JaccardCell {
                        intersection,
                        union: a.len() + b.len() - intersection,
                    }
                })
                .collect()
        })
        .collect()
}

/// One chain's verdict vector across the ten standard stores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainVerdicts {
    /// The chain's content key (hex), from the served `compare` reply.
    pub chain_key: String,
    /// Trusted flag per store, in [`standard_store_names`] order.
    pub trusted: Vec<bool>,
    /// The canonical served-reply string ([`tangled_trustd::canonical`]).
    pub canonical: String,
}

/// A group of chains sharing one verdict vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictClass {
    /// The stores that trust these chains, in standard order.
    pub trusted_in: Vec<&'static str>,
    /// How many corpus chains land in this class.
    pub count: usize,
    /// The chain key (hex) of the first chain seen in the class.
    pub example: String,
}

/// The §5.2 name-collision demonstration: a store pair that shares a
/// display name but not its anchor content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameCollision {
    /// The colliding display name.
    pub name: String,
    /// Anchors in the clone but not the base.
    pub added: usize,
    /// Anchors in the base but not the clone.
    pub removed: usize,
    /// Anchors shared by both (by identity).
    pub common: usize,
}

/// The full disparity report. Every field is a pure function of the
/// corpus scale; [`DisparityReport::render`] is the golden text form.
#[derive(Debug, Clone, PartialEq)]
pub struct DisparityReport {
    /// The Notary corpus scale the validation half ran at.
    pub scale: f64,
    /// The ten store names, in canonical order.
    pub store_names: Vec<&'static str>,
    /// Anchor count per store.
    pub anchor_counts: Vec<usize>,
    /// Distinct anchor identities across all ten stores.
    pub union_anchors: usize,
    /// Anchor identities present in every store.
    pub core_anchors: usize,
    /// Pairwise Jaccard matrix, store order on both axes.
    pub jaccard: Vec<Vec<JaccardCell>>,
    /// Per-chain verdict vectors, in corpus order.
    pub verdicts: Vec<ChainVerdicts>,
    /// Chains trusted per store (validation coverage), store order.
    pub coverage: Vec<usize>,
    /// Chains trusted by at least one store.
    pub union_trusted: usize,
    /// Chains trusted by all ten stores.
    pub intersection_trusted: usize,
    /// `exactly_k[k]` = chains trusted by exactly `k` stores, `k` ∈ 0..=10.
    pub exactly_k: Vec<usize>,
    /// Distinct verdict vectors, ordered by first appearance in the corpus.
    pub classes: Vec<VerdictClass>,
    /// The near-clone demonstration.
    pub collision: NameCollision,
    /// [`verdict_fingerprint`] over the canonical reply strings.
    pub fingerprint: u64,
}

fn compare_chain(service: &TrustService, chain: &[Vec<u8>], width: usize) -> ChainVerdicts {
    let resp = service.handle(&Request::Compare {
        chain: chain.to_vec(),
    });
    match &resp {
        Response::Compare {
            chain_key,
            verdicts,
            ..
        } => ChainVerdicts {
            chain_key: chain_key.clone(),
            trusted: verdicts
                .iter()
                .map(|(_, v)| matches!(v, ChainVerdict::Trusted { .. }))
                .collect(),
            canonical: canonical(&resp),
        },
        other => ChainVerdicts {
            chain_key: String::new(),
            trusted: vec![false; width],
            canonical: canonical(other),
        },
    }
}

/// Compute the disparity report at `scale` (the Notary corpus scale in
/// `(0, 1]`; `tangled loadgen --sessions N` maps to
/// [`tangled_trustd::scale_for_sessions`]`(N)`).
///
/// Set disparity comes straight from the cached stores; validation
/// disparity routes every corpus chain through a local
/// [`TrustService`]'s `compare` handler, sharded over the ambient pool.
pub fn compute(scale: f64) -> DisparityReport {
    let stores = standard_stores();
    let store_names = standard_store_names();
    let anchor_counts: Vec<usize> = stores.iter().map(|s| s.len()).collect();
    let jaccard = jaccard_matrix(&stores);

    let mut union_set: BTreeSet<&CertIdentity> = BTreeSet::new();
    for store in &stores {
        union_set.extend(store.identities().iter());
    }
    let core_anchors = stores[0]
        .identities()
        .iter()
        .filter(|id| stores[1..].iter().all(|s| s.identities().contains(id)))
        .count();

    let eco = Ecosystem::generate(&EcosystemSpec::scaled(scale));
    let chains: Vec<Vec<Vec<u8>>> = eco
        .certs
        .iter()
        .map(|nc| nc.chain.iter().map(|c| c.to_der().to_vec()).collect())
        .collect();
    let service = TrustService::new(DEFAULT_CACHE_CAPACITY);
    let width = store_names.len();
    let verdicts: Vec<ChainVerdicts> = ExecPool::current()
        .par_map_indexed(&chains, |_, chain| compare_chain(&service, chain, width));

    let coverage: Vec<usize> = (0..width)
        .map(|i| verdicts.iter().filter(|v| v.trusted[i]).count())
        .collect();
    let union_trusted = verdicts
        .iter()
        .filter(|v| v.trusted.iter().any(|&t| t))
        .count();
    let intersection_trusted = verdicts
        .iter()
        .filter(|v| v.trusted.iter().all(|&t| t))
        .count();
    let mut exactly_k = vec![0usize; width + 1];
    for v in &verdicts {
        exactly_k[v.trusted.iter().filter(|&&t| t).count()] += 1;
    }

    // Verdict classes, in first-appearance order (corpus order is
    // deterministic, so so is this).
    let mut classes: Vec<(Vec<bool>, VerdictClass)> = Vec::new();
    for v in &verdicts {
        match classes.iter_mut().find(|(mask, _)| *mask == v.trusted) {
            Some((_, class)) => class.count += 1,
            None => {
                let trusted_in: Vec<&'static str> = store_names
                    .iter()
                    .zip(&v.trusted)
                    .filter(|(_, &t)| t)
                    .map(|(&n, _)| n)
                    .collect();
                classes.push((
                    v.trusted.clone(),
                    VerdictClass {
                        trusted_in,
                        count: 1,
                        example: v.chain_key.clone(),
                    },
                ));
            }
        }
    }
    let classes: Vec<VerdictClass> = classes.into_iter().map(|(_, c)| c).collect();

    // The name-collision check: a "(+unusual)" clone of AOSP 4.4 shares
    // the display name but carries three extra manufacturer anchors.
    let base = ReferenceStore::Aosp44.cached();
    let clone = {
        let mut f = global_factory().lock().expect("factory poisoned");
        unusual_clone(&mut f, &base, 3)
    };
    let d = diff(&base, &clone);
    let collision = NameCollision {
        name: clone.name().to_owned(),
        added: d.added_count(),
        removed: d.removed_count(),
        common: d.common.len(),
    };

    let fingerprint = verdict_fingerprint(
        &verdicts
            .iter()
            .map(|v| v.canonical.clone())
            .collect::<Vec<_>>(),
    );

    tangled_obs::registry::add("disparity.reports", 1);
    tangled_obs::registry::add("disparity.chains", verdicts.len() as u64);
    tangled_obs::registry::add("disparity.classes", classes.len() as u64);

    DisparityReport {
        scale,
        store_names,
        anchor_counts,
        union_anchors: union_set.len(),
        core_anchors,
        jaccard,
        verdicts,
        coverage,
        union_trusted,
        intersection_trusted,
        exactly_k,
        classes,
        collision,
        fingerprint,
    }
}

/// Short column labels for the matrix header (the full names are in the
/// store table above it).
fn short_name(name: &str) -> String {
    match name {
        "AOSP 4.1" => "a41".into(),
        "AOSP 4.2" => "a42".into(),
        "AOSP 4.3" => "a43".into(),
        "AOSP 4.4" => "a44".into(),
        "Mozilla" => "moz".into(),
        "iOS 7" => "ios".into(),
        "Apple" => "app".into(),
        "Microsoft" => "ms".into(),
        "Mozilla NSS" => "nss".into(),
        "Java" => "jav".into(),
        other => other.chars().take(3).collect::<String>().to_lowercase(),
    }
}

impl DisparityReport {
    /// Render the golden text report. Byte-identical at any pool width.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let push = |out: &mut String, line: &str| {
            out.push_str(line);
            out.push('\n');
        };
        push(&mut out, "cross-ecosystem root-store disparity report");
        push(&mut out, &format!("corpus scale: {}", self.scale));
        push(&mut out, "");
        push(
            &mut out,
            &format!(
                "stores: {} | union {} anchors | shared core {}",
                self.store_names.len(),
                self.union_anchors,
                self.core_anchors
            ),
        );
        for (name, count) in self.store_names.iter().zip(&self.anchor_counts) {
            push(&mut out, &format!("  {name:<12} {count:>4} anchors"));
        }
        push(&mut out, "");
        push(
            &mut out,
            "pairwise Jaccard similarity (identity = subject + modulus):",
        );
        let mut header = String::from("       ");
        for name in &self.store_names {
            header.push_str(&format!(" {:>5}", short_name(name)));
        }
        push(&mut out, &header);
        for (i, name) in self.store_names.iter().enumerate() {
            let mut row = format!("  {:<5}", short_name(name));
            for cell in &self.jaccard[i] {
                row.push_str(&format!(" {:>5.3}", cell.value()));
            }
            push(&mut out, &row);
        }
        push(&mut out, "");
        push(
            &mut out,
            &format!(
                "validation coverage over {} corpus chains:",
                self.verdicts.len()
            ),
        );
        for (name, n) in self.store_names.iter().zip(&self.coverage) {
            push(
                &mut out,
                &format!("  {name:<12} {n:>5} trusted"),
            );
        }
        push(
            &mut out,
            &format!(
                "  union (any store) {} | intersection (all ten) {}",
                self.union_trusted, self.intersection_trusted
            ),
        );
        push(&mut out, "");
        push(&mut out, "trusted-by-exactly-k histogram:");
        for (k, n) in self.exactly_k.iter().enumerate() {
            push(&mut out, &format!("  k={k:<2} {n:>5}"));
        }
        push(&mut out, "");
        push(
            &mut out,
            &format!("verdict classes ({} distinct vectors):", self.classes.len()),
        );
        for class in &self.classes {
            let label = if class.trusted_in.is_empty() {
                "no store".to_owned()
            } else if class.trusted_in.len() == self.store_names.len() {
                "every store".to_owned()
            } else {
                format!("{{{}}} only", class.trusted_in.join(", "))
            };
            push(
                &mut out,
                &format!(
                    "  {label}: {} chains (e.g. {})",
                    class.count,
                    &class.example[..16.min(class.example.len())]
                ),
            );
        }
        push(&mut out, "");
        push(
            &mut out,
            &format!(
                "name-collision check: two stores named \"{}\" share {} anchors \
                 but diverge by +{}/-{} — comparisons key on content, not names",
                self.collision.name,
                self.collision.common,
                self.collision.added,
                self.collision.removed
            ),
        );
        push(
            &mut out,
            &format!("verdict-vector fingerprint: {:016x}", self.fingerprint),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jaccard_matrix_is_symmetric_with_unit_diagonal() {
        let stores = standard_stores();
        let m = jaccard_matrix(&stores);
        assert_eq!(m.len(), 10);
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row.len(), 10);
            assert_eq!(row[i].intersection, row[i].union, "diagonal is 1.0");
            assert_eq!(row[i].intersection, stores[i].len());
            for (j, cell) in row.iter().enumerate() {
                assert_eq!(*cell, m[j][i], "symmetric");
                assert!(cell.value() >= 0.0 && cell.value() <= 1.0);
            }
        }
        // The ecosystem calibration: Apple is nearer iOS 7 than Java is.
        let names = standard_store_names();
        let ios = names.iter().position(|&n| n == "iOS 7").unwrap();
        let apple = names.iter().position(|&n| n == "Apple").unwrap();
        let java = names.iter().position(|&n| n == "Java").unwrap();
        assert!(m[apple][ios].value() > m[java][ios].value());
    }

    #[test]
    fn report_is_internally_consistent() {
        let report = compute(0.02);
        assert_eq!(report.store_names.len(), 10);
        assert_eq!(report.anchor_counts[7], 261, "Microsoft is largest");
        assert!(!report.verdicts.is_empty());
        assert_eq!(
            report.exactly_k.iter().sum::<usize>(),
            report.verdicts.len(),
            "histogram partitions the corpus"
        );
        assert_eq!(report.exactly_k.len(), 11);
        assert_eq!(
            report.classes.iter().map(|c| c.count).sum::<usize>(),
            report.verdicts.len(),
            "classes partition the corpus"
        );
        assert!(report.union_trusted >= report.intersection_trusted);
        assert!(report.core_anchors > 0, "shared core exists");
        assert!(report.core_anchors < report.anchor_counts.iter().copied().min().unwrap());
        // The near-clone shares its name with the base but not content.
        assert_eq!(report.collision.name, "AOSP 4.4");
        assert_eq!(report.collision.added, 3);
        assert_eq!(report.collision.removed, 0);
        // Fingerprint matches the canonical verdict list.
        assert_eq!(
            report.fingerprint,
            verdict_fingerprint(
                &report
                    .verdicts
                    .iter()
                    .map(|v| v.canonical.clone())
                    .collect::<Vec<_>>()
            )
        );
        // The rendered report carries the cross-check line.
        let text = report.render();
        assert!(text.contains(&format!(
            "verdict-vector fingerprint: {:016x}",
            report.fingerprint
        )));
    }

    #[test]
    fn verdict_vectors_discriminate_between_ecosystems() {
        let report = compute(0.02);
        // Not every chain resolves identically across all ten stores:
        // some k between 1 and 9 is populated (the corpus includes roots
        // that only a subset of ecosystems carries).
        let partial: usize = report.exactly_k[1..10].iter().sum();
        assert!(partial > 0, "some chain splits the ecosystems: {:?}", report.exactly_k);
        assert!(report.classes.len() > 1, "more than one verdict class");
    }
}
