//! `tangled-bench` — the benchmark harness.
//!
//! Each Criterion bench target first *prints* the paper artifact it
//! regenerates (tables as text, figures as data summaries), then measures
//! the generation code:
//!
//! * `benches/paper_tables.rs` — Tables 1–6;
//! * `benches/paper_figures.rs` — Figures 1–3;
//! * `benches/ablations.rs` — the DESIGN.md §5 design-choice ablations
//!   (certificate identity, diff algorithm, chain building, validation
//!   memoisation, Montgomery exponentiation);
//! * `benches/parallel.rs` — the study stages and the trustd preload at
//!   pool width 1 vs 2/4 (`cargo bench --bench parallel`);
//! * `benches/snap.rs` — cold generation vs snapshot load and journal
//!   recovery (`cargo bench --bench snap`);
//! * `benches/disparity.rs` — the cross-ecosystem disparity engine.
//!
//! Run with `cargo bench --workspace`; see EXPERIMENTS.md for the mapping
//! to the paper's numbers. Served throughput and latency under sustained
//! load are measured end to end by `perfbench` (its own package at the
//! repository root, declared in `BENCHMARK.json`), not here.

/// Shared bench-harness configuration: small samples and short
/// measurement windows — the artifacts themselves, not micro-second
/// precision, are the point on a one-core runner.
pub fn criterion() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .configure_from_args()
}

/// The population/ecosystem scales the harness runs at. Half-scale
/// population and quarter-scale ecosystem preserve every calibrated
/// ordering while keeping a full `cargo bench` run in minutes.
pub const POPULATION_SCALE: f64 = 0.5;

/// Ecosystem scale for the harness (see [`POPULATION_SCALE`]).
pub const ECOSYSTEM_SCALE: f64 = 0.25;
