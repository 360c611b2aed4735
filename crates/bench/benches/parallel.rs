//! Parallel execution layer benchmarks (DESIGN.md §10).
//!
//! Measures the four hot paths wired through [`tangled_exec::ExecPool`]
//! at pool width 1 (the sequential baseline) versus wider pools, the
//! trustd preload of the ten standard profiles at widths 1 and 4 (only
//! its key prefetch is parallel; the installs are serial), and
//! the effect of the process-wide signature-verification memo on a
//! repeated validation-index build. Determinism is asserted elsewhere
//! (`tests/determinism.rs`); this harness only times the same work.
//!
//! On a single-core container the multi-thread rows are expected to sit
//! at ~1x — the point of recording them is the comparison, not the
//! absolute number.

use criterion::black_box;
use tangled_bench::criterion;
use tangled_core::Study;
use tangled_exec::{set_thread_override, ExecPool};
use tangled_faults::FaultPlan;
use tangled_netalyzr::population::{Population, PopulationSpec};
use tangled_notary::ecosystem::EcosystemSpec;
use tangled_notary::{Ecosystem, ValidationIndex};
use tangled_trustd::StoreIndex;
use tangled_x509::sig_memo_clear;

fn main() {
    let mut c = criterion();

    // Validation-index build: cold signature memo each iteration so the
    // widths are comparable, then one warm-memo row for the ablation.
    let eco = Ecosystem::generate(&EcosystemSpec::scaled(0.25));
    for width in [1usize, 2, 4] {
        let pool = ExecPool::with_threads(width);
        c.bench_function(&format!("parallel/validation_build_{width}t"), |b| {
            b.iter(|| {
                sig_memo_clear();
                black_box(ValidationIndex::build_with_pool(&eco, &pool))
            })
        });
    }
    c.bench_function("parallel/validation_build_warm_sigmemo", |b| {
        b.iter(|| black_box(ValidationIndex::build(&eco)))
    });

    // Ecosystem generation: phase A (RNG walk) is sequential by design;
    // the width only parallelises the RSA leaf signing in phase B.
    let espec = EcosystemSpec::scaled(0.1);
    for width in [1usize, 4] {
        let pool = ExecPool::with_threads(width);
        c.bench_function(&format!("parallel/ecosystem_generate_{width}t"), |b| {
            b.iter(|| black_box(Ecosystem::generate_with_pool(&espec, &pool).len()))
        });
    }

    // Population generation: per-device draws run on split-seed sub-RNGs.
    let pspec = PopulationSpec::scaled(0.25);
    for width in [1usize, 4] {
        let pool = ExecPool::with_threads(width);
        c.bench_function(&format!("parallel/population_generate_{width}t"), |b| {
            b.iter(|| black_box(Population::generate_with_pool(&pspec, &pool).devices.len()))
        });
    }

    // Degraded study: the per-store cacerts render/damage/reload loop goes
    // through the ambient pool, so drive it via the thread override.
    let plan = FaultPlan::new(404).with_rate(0.05);
    for width in [1usize, 4] {
        set_thread_override(Some(width));
        c.bench_function(&format!("parallel/with_faults_{width}t"), |b| {
            b.iter(|| {
                sig_memo_clear();
                black_box(Study::with_faults(0.05, 0.02, &plan).injected.len())
            })
        });
        set_thread_override(None);
    }

    // trustd preload: its key prefetch runs on the ambient pool (the
    // installs that follow are serial), so drive it via the thread
    // override as well.
    for width in [1usize, 4] {
        set_thread_override(Some(width));
        c.bench_function(&format!("parallel/trustd_preload_{width}t"), |b| {
            b.iter(|| black_box(StoreIndex::with_standard_profiles().profile_names().len()))
        });
        set_thread_override(None);
    }

    c.final_summary();
}
