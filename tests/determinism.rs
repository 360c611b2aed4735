//! Cross-thread-count determinism: the whole point of the execution layer.
//!
//! The parallel pipeline must be *bit-identical* to the sequential one at
//! any pool width: work is sharded by unit index (never by thread),
//! per-unit sub-RNGs derive from `split_seed(seed, index)`, and results
//! merge in index order. This test builds the full-scale study at 1, 2 and
//! 8 threads and asserts the schema-v2 JSON export, every rendered paper
//! table, and all figure summaries are byte-identical.
//!
//! The observability trace rides under the same contract: each width's run
//! collects the obs event log, which must validate against the trace
//! schema and be byte-identical to every other width's log.
//!
//! The binary snapshot rides under it too: the container encoded at each
//! width must be byte-identical, and a study decoded back from those
//! bytes must reproduce every export and rendering exactly.
//!
//! The cross-ecosystem disparity report is the newest rider: its verdict
//! vectors shard chain-compares over the pool, and the rendered report
//! (fingerprint line included) must be byte-identical at every width.
//!
//! The thread override and the trace sink are process-global, so this
//! binary holds exactly one test.

use tangled_mass::analysis::{export, figures, tables, Study};
use tangled_mass::exec::{set_thread_override, ExecPool};
use tangled_mass::faults::FaultPlan;
use tangled_mass::obs;
use tangled_mass::snap;

fn render_everything(study: &Study) -> (String, String) {
    let doc = export::export_study(study);
    let json = serde_json::to_string(&doc).expect("export serialises");
    let text = [
        tables::dataset_summary(&study.population).render(),
        tables::render_all(study),
        figures::figure1_render(&study.population, 20),
        figures::figure2_render(&study.population, 20),
        figures::figure3_render(&study.validation),
    ]
    .join("\n");
    (json, text)
}

#[test]
fn full_study_is_bit_identical_across_thread_counts() {
    let plan = FaultPlan::new(404).with_rate(0.05);
    let mut runs = Vec::new();
    for threads in [1usize, 2, 8] {
        set_thread_override(Some(threads));
        // Collect the obs trace around the pipeline: the full study plus a
        // small faulted study, so the log covers ecosystem generation,
        // validation, population synthesis, and the fault/quarantine path.
        obs::trace::begin(2014);
        let study = Study::full();
        let _faulted = Study::with_faults(0.05, 0.02, &plan);
        let trace = obs::trace::finish().expect("trace was active");
        let snapshot = snap::encode_study(&study, &ExecPool::current());
        let disparity = tangled_mass::disparity::compute(0.02).render();
        runs.push((threads, render_everything(&study), trace, snapshot, disparity));
    }
    set_thread_override(None);

    let (_, (json_base, text_base), trace_base, snap_base, disparity_base) = &runs[0];
    // The value `tangled disparity 0.02` prints.
    assert!(
        disparity_base.contains("verdict-vector fingerprint: 8bf666e3329ff8b8"),
        "disparity fingerprint moved"
    );
    for (threads, (json, text), trace, snapshot, disparity) in &runs[1..] {
        assert_eq!(
            json, json_base,
            "schema-v2 export differs between 1 and {threads} threads"
        );
        assert_eq!(
            text, text_base,
            "rendered tables/figures differ between 1 and {threads} threads"
        );
        assert_eq!(
            trace, trace_base,
            "obs trace differs between 1 and {threads} threads"
        );
        assert_eq!(
            snapshot, snap_base,
            "snapshot bytes differ between 1 and {threads} threads"
        );
        assert_eq!(
            disparity, disparity_base,
            "disparity report differs between 1 and {threads} threads"
        );
    }

    // A study decoded back from the snapshot reproduces every rendering.
    let parsed = snap::Snapshot::parse(snap_base.clone()).expect("own snapshot parses");
    let loaded = snap::decode_study(&parsed).expect("own snapshot decodes");
    let (json_loaded, text_loaded) = render_everything(&loaded);
    assert_eq!(
        &json_loaded, json_base,
        "snapshot-loaded study exports differently"
    );
    assert_eq!(
        &text_loaded, text_base,
        "snapshot-loaded study renders differently"
    );

    let summary = obs::validate_lines(trace_base).expect("trace validates against schema");
    for stage in [
        "notary.ecosystem",
        "notary.validate",
        "netalyzr.population",
        "study.with_faults",
    ] {
        assert!(
            summary.stages.contains(stage),
            "trace is missing pipeline stage '{stage}': {:?}",
            summary.stages
        );
    }
    assert!(
        summary.quarantined > 0,
        "faulted study should emit quarantine events"
    );
}
