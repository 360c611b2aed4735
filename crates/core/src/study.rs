//! Study bundle: one dataset shared by every table and figure.

use crate::health::RunHealth;
use std::collections::HashMap;
use std::sync::Arc;
use tangled_exec::ExecPool;
use tangled_faults::{FaultPlan, InjectedFault};
use tangled_netalyzr::{Population, PopulationSpec};
use tangled_notary::degrade::RawEcosystem;
use tangled_notary::ecosystem::EcosystemSpec;
use tangled_notary::{Ecosystem, NotaryDb, ValidationIndex};
use tangled_pki::cacerts::ArmorCache;

/// Salt distinguishing the Notary ingest surface under one fault plan.
const NOTARY_SALT: u64 = 0x6e6f_7461_7279;
/// Base salt for the per-store cacerts surfaces (xor'd with the store
/// index so each distinct store degrades independently).
const CACERTS_SALT: u64 = 0x63_6163_6572_7473;

/// The generated inputs for one run of the paper's analysis.
pub struct Study {
    /// The Netalyzr device/session population.
    pub population: Population,
    /// The Notary certificate ecosystem.
    pub ecosystem: Ecosystem,
    /// Per-root validation tallies over the ecosystem.
    pub validation: ValidationIndex,
    /// The Notary record-keeping view.
    pub db: NotaryDb,
    /// Fault accounting (empty for clean runs).
    pub health: RunHealth,
    /// The raw injection ledger (empty for clean runs) — kept alongside
    /// [`Study::health`] so tests can reconcile the two independently.
    pub injected: Vec<InjectedFault>,
}

impl Study {
    /// Generate a study at the given scales (1.0 = the paper's dataset
    /// sizes for the population; the ecosystem plan at 1.0 is the scaled
    /// Notary of DESIGN.md).
    pub fn new(population_scale: f64, ecosystem_scale: f64) -> Study {
        let population = Population::generate(&PopulationSpec::scaled(population_scale));
        let ecosystem = Ecosystem::generate(&EcosystemSpec::scaled(ecosystem_scale));
        Study::assemble(population, ecosystem, RunHealth::new(), Vec::new())
    }

    /// Generate a study whose ingest surfaces are degraded by `plan`
    /// before analysis. Both the Notary collection (as raw wire bytes)
    /// and every distinct device root store (as a rendered cacerts
    /// directory) pass through the fault engine; damaged units are
    /// quarantined by the staged re-ingest and recorded in
    /// [`Study::health`] instead of aborting the run.
    pub fn with_faults(
        population_scale: f64,
        ecosystem_scale: f64,
        plan: &FaultPlan,
    ) -> Study {
        let span = tangled_obs::trace::span_start("study.with_faults", plan.seed, 0, &[]);
        let started = std::time::Instant::now();
        let mut health = RunHealth::new();
        let mut injected = Vec::new();

        // Notary: demote to wire form, damage, re-ingest with quarantine.
        let mut raw = RawEcosystem::from_ecosystem(Ecosystem::generate(&EcosystemSpec::scaled(
            ecosystem_scale,
        )));
        let ledger = plan.degrade(&mut raw, NOTARY_SALT);
        let (ecosystem, ingest_faults) = raw.into_ecosystem();
        for fault in &ledger {
            health.record_injected(fault.kind.label());
        }
        for q in &ingest_faults {
            health.record_quarantined(q.stage.label(), q.error.label());
        }
        injected.extend(ledger);

        // Netalyzr: render each distinct store as a cacerts directory,
        // damage the files, reload leniently, and swap the degraded store
        // back in. Surviving anchors keep their original provenance and
        // enablement (the directory format does not carry them). The
        // stores share most of their anchors, so each distinct
        // certificate is armored once for all of them, and a reload
        // parses only the files the damage changed. Each store's
        // degradation is salted by its *index* in the distinct-store list
        // (stable across runs and pool widths), so the units parallelise
        // freely; ledgers merge back in index order, keeping the health
        // tallies and the injection ledger deterministic.
        let mut population = Population::generate(&PopulationSpec::scaled(population_scale));
        let round_trip = std::time::Instant::now();
        let stores = population.distinct_stores();
        let mut armor = ArmorCache::default();
        for store in &stores {
            armor.add(store);
        }
        let outcomes = ExecPool::current().par_map_indexed(&stores, |i, store| {
            let mut written = armor.write(store);
            let ledger = plan.degrade(&mut written.files, CACERTS_SALT ^ (i as u64));
            if ledger.is_empty() {
                return None;
            }
            let (survivors, quarantined) = written.reload();
            Some((survivors, ledger, quarantined))
        });
        let mut replacements = HashMap::new();
        for outcome in outcomes {
            let Some((survivors, ledger, quarantined)) = outcome else {
                continue;
            };
            for fault in &ledger {
                health.record_injected(fault.kind.label());
            }
            for q in &quarantined {
                health.record_quarantined("cacerts", q.error.label());
            }
            injected.extend(ledger);
            // Keyed by store name — stable run-to-run, unlike the Arc
            // allocation address this map used to key on.
            replacements.insert(survivors.name().to_owned(), Arc::new(survivors));
        }
        population.replace_stores(&replacements);
        tangled_obs::registry::observe("study.cacerts.us", round_trip.elapsed().as_micros() as u64);

        // The health ledger is deterministic (index-ordered merges over
        // salted, width-independent degradation), so replaying it into the
        // trace — sorted maps, sequential code — keeps the log
        // byte-identical at any pool width.
        for (kind, n) in &health.injected {
            tangled_obs::trace::point(
                "study.with_faults",
                span,
                &[
                    ("injected_kind", serde_json::Value::from(kind.as_str())),
                    ("count", serde_json::Value::from(*n)),
                ],
            );
        }
        for (stage, errors) in &health.quarantined {
            for (label, n) in errors {
                tangled_obs::trace::quarantine(
                    "study.with_faults",
                    span,
                    stage,
                    label,
                    u64::from(*n),
                );
            }
        }
        tangled_obs::registry::add("study.injected", u64::from(health.injected_total()));
        tangled_obs::registry::add(
            "study.quarantined",
            u64::from(health.quarantined_total()),
        );
        tangled_obs::registry::observe(
            "study.with_faults.us",
            started.elapsed().as_micros() as u64,
        );
        let study = Study::assemble(population, ecosystem, health, injected);
        tangled_obs::trace::span_end(
            "study.with_faults",
            span,
            &[
                (
                    "injected",
                    serde_json::Value::from(u64::from(study.health.injected_total())),
                ),
                (
                    "quarantined",
                    serde_json::Value::from(u64::from(study.health.quarantined_total())),
                ),
            ],
        );
        study
    }

    fn assemble(
        population: Population,
        ecosystem: Ecosystem,
        health: RunHealth,
        injected: Vec<InjectedFault>,
    ) -> Study {
        let validation = ValidationIndex::build(&ecosystem);
        let db = NotaryDb::build(&ecosystem);
        Study {
            population,
            ecosystem,
            validation,
            db,
            health,
            injected,
        }
    }

    /// The full-scale study (15,970 sessions; full issuance plan).
    pub fn full() -> Study {
        Study::new(1.0, 1.0)
    }

    /// A reduced study for tests: sessions at 25 %, ecosystem at the
    /// smallest scale that preserves the Table 3 ordering.
    pub fn quick() -> Study {
        Study::new(0.25, 0.25)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use tangled_pki::store::RootStore;
    use tangled_pki::trust::AnchorSource;
    use tangled_x509::CertIdentity;

    #[test]
    fn quick_study_builds_consistently() {
        let s = Study::quick();
        assert!(!s.population.sessions.is_empty());
        assert!(!s.ecosystem.is_empty());
        assert!(s.validation.validated_total() > 0);
        assert!(s.db.unique_certs() == s.ecosystem.len());
        assert!(s.health.is_balanced());
        assert!(s.injected.is_empty());
    }

    #[test]
    fn zero_rate_fault_study_matches_clean() {
        let clean = Study::new(0.05, 0.02);
        let plan = FaultPlan::new(1);
        let faulted = Study::with_faults(0.05, 0.02, &plan);
        assert_eq!(faulted.ecosystem.len(), clean.ecosystem.len());
        assert_eq!(
            faulted.population.devices.len(),
            clean.population.devices.len()
        );
        assert!(faulted.injected.is_empty());
        assert_eq!(faulted.health, RunHealth::new());
    }

    #[test]
    fn faulted_study_reconciles_and_keeps_metadata() {
        let plan = FaultPlan::new(404).with_rate(0.05);
        let s = Study::with_faults(0.05, 0.02, &plan);
        assert!(!s.injected.is_empty(), "5% over both surfaces should hit");
        assert!(s.health.is_balanced(), "{}", s.health);
        assert_eq!(s.health.injected_total() as usize, s.injected.len());
        // Survivor anchors keep their provenance: sources beyond Unknown
        // still appear across the degraded population.
        let mut sources = std::collections::HashSet::new();
        for d in &s.population.devices {
            for a in d.store.iter() {
                sources.insert(a.source);
            }
        }
        assert!(sources.contains(&AnchorSource::Aosp));
    }

    #[test]
    fn shortcut_reload_matches_the_full_lenient_read() {
        use tangled_pki::cacerts::from_cacerts_lenient;
        let population = Population::generate(&PopulationSpec::scaled(0.2));
        let stores = population.distinct_stores();
        let mut armor = ArmorCache::default();
        for store in &stores {
            armor.add(store);
        }
        for seed in [2014, 0xFA17] {
            let plan = FaultPlan::new(seed).with_rate(0.05);
            let mut labels = std::collections::BTreeSet::new();
            for (i, store) in stores.iter().enumerate() {
                let mut written = armor.write(store);
                plan.degrade(&mut written.files, CACERTS_SALT ^ (i as u64));
                let (survivors, quarantined) = written.reload();
                let (lenient, expected) =
                    from_cacerts_lenient(store.name(), &written.files, AnchorSource::Unknown);
                assert_eq!(quarantined, expected, "seed {seed}, store {}", store.name());
                let ids = |s: &RootStore| -> HashSet<CertIdentity> {
                    s.identities().iter().cloned().collect()
                };
                assert_eq!(
                    ids(&survivors),
                    ids(&lenient),
                    "seed {seed}, store {}",
                    store.name()
                );
                labels.extend(quarantined.iter().map(|q| q.error.label()));
            }
            // Every cacerts fault kind was exercised, the appended copies
            // included.
            assert_eq!(
                labels.into_iter().collect::<Vec<_>>(),
                [
                    "bad-base64",
                    "duplicate-der",
                    "empty-file",
                    "malformed-der",
                    "pem-armor"
                ],
                "seed {seed}"
            );
        }
    }
}
