//! The study pipeline phase: the paper's faulted study, timed on a cold
//! signature memo and checked against a pinned digest.

use std::time::Instant;
use tangled_mass::analysis::{tables, Study};
use tangled_mass::crypto::hash::fnv1a;
use tangled_mass::exec::set_thread_override;
use tangled_mass::faults::FaultPlan;
use tangled_mass::netalyzr::{Population, PopulationSpec};
use tangled_mass::notary::{Ecosystem, EcosystemSpec, ValidationIndex};
use tangled_mass::x509::{sig_memo_clear, sig_memo_counters};

/// Population and ecosystem scale of the timed study.
pub const SCALE: f64 = 0.2;
/// Fault-plan seed. Fixed, so the output can be pinned.
pub const FAULT_SEED: u64 = 2014;
/// Share of ingest units the plan damages.
pub const FAULT_RATE: f64 = 0.05;
/// FNV-1a over the rendered tables and the health ledger of the study
/// at [`SCALE`] under the fixed plan.
pub const PINNED_DIGEST: u64 = 0xbe5d_9cb9_0585_ed64;

fn plan() -> FaultPlan {
    FaultPlan::new(FAULT_SEED).with_rate(FAULT_RATE)
}

/// One timed pass.
#[derive(Debug, Clone, Copy)]
pub struct StudyRun {
    /// Wall time of `Study::with_faults` plus rendering, in seconds.
    pub seconds: f64,
    /// Digest of the rendered tables and health ledger.
    pub digest: u64,
    /// Signature-memo hits during the pass.
    pub memo_hits: u64,
    /// Signature-memo misses during the pass.
    pub memo_misses: u64,
}

impl StudyRun {
    /// Does the output equal the pinned one?
    pub fn correct(&self) -> bool {
        self.digest == PINNED_DIGEST
    }
}

/// Run the pipeline once, untimed, so every CA key it needs is minted
/// and every lazily built store exists before timing starts.
pub fn warm_up() {
    let study = Study::with_faults(SCALE, SCALE, &plan());
    std::hint::black_box(tables::render_all(&study));
}

/// One pass on a cold signature memo: the faulted study, then the
/// rendered tables and health ledger.
pub fn run_once() -> StudyRun {
    sig_memo_clear();
    let (h0, m0) = sig_memo_counters();
    let started = Instant::now();
    let study = Study::with_faults(SCALE, SCALE, &plan());
    let mut text = tables::render_all(&study);
    text.push('\n');
    text.push_str(&study.health.to_string());
    let seconds = started.elapsed().as_secs_f64();
    let (h1, m1) = sig_memo_counters();
    StudyRun {
        seconds,
        digest: fnv1a(text.as_bytes()),
        memo_hits: h1 - h0,
        memo_misses: m1 - m0,
    }
}

/// The timed pipeline stages, in [`stage_times`] order: the per-layer
/// metric each reports its seconds under, and the stage's name in its
/// `exec.speedup.<stage>` metric.
pub const STAGES: [(&str, &str); 4] = [
    ("notary.ecosystem_generate_s", "ecosystem_generate"),
    ("notary.validation_build_s", "validation_build"),
    ("netalyzr.population_generate_s", "population_generate"),
    ("core.with_faults_s", "with_faults"),
];

/// Seconds per pipeline stage at pool width `width`, each on a cold
/// memo, in [`STAGES`] order.
pub fn stage_times(width: usize) -> [f64; 4] {
    fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
        sig_memo_clear();
        let started = Instant::now();
        let out = std::hint::black_box(f());
        (out, started.elapsed().as_secs_f64())
    }
    set_thread_override(Some(width));
    let (eco, ecosystem) = timed(|| Ecosystem::generate(&EcosystemSpec::scaled(SCALE)));
    let (_, validation) = timed(|| ValidationIndex::build(&eco));
    let (_, population) = timed(|| Population::generate(&PopulationSpec::scaled(SCALE)));
    let (_, with_faults) = timed(|| Study::with_faults(SCALE, SCALE, &plan()));
    set_thread_override(None);
    [ecosystem, validation, population, with_faults]
}
