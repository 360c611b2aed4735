//! Snapshot persistence benchmarks (DESIGN.md §12).
//!
//! The number the subsystem exists for: cold-generating a study from the
//! seed versus loading the same study back from a snapshot file. Encode
//! and journal-append rates ride along so regressions in the wire format
//! show up without a profiler.

use criterion::black_box;
use tangled_bench::criterion;
use tangled_core::Study;
use tangled_exec::ExecPool;
use tangled_pki::stores::ReferenceStore;
use tangled_snap::{
    decode_study, encode_checkpoint, encode_delta, encode_study, encode_study_sections,
    materialize, read_checkpoint, Journal, Snapshot, SwapRecord, TrustState,
};

fn main() {
    let mut c = criterion();

    let scale = 0.25;
    let study = Study::new(scale, scale);
    let bytes = encode_study(&study, &ExecPool::current());
    println!(
        "snapshot at scale {scale}: {} bytes, {} section-body bytes",
        bytes.len(),
        Snapshot::parse(bytes.clone())
            .expect("own bytes parse")
            .entries()
            .iter()
            .map(|e| e.len)
            .sum::<u64>()
    );

    // The headline comparison: cold generate vs snapshot load.
    c.bench_function("snap/cold_generate", |b| {
        b.iter(|| black_box(Study::new(scale, scale).population.devices.len()))
    });
    c.bench_function("snap/load", |b| {
        b.iter(|| {
            let snap = Snapshot::parse(bytes.clone()).expect("parses");
            black_box(decode_study(&snap).expect("decodes").population.devices.len())
        })
    });

    // Encode at width 1 vs 4: the section bodies shard over the pool.
    for width in [1usize, 4] {
        let pool = ExecPool::with_threads(width);
        c.bench_function(&format!("snap/encode_{width}t"), |b| {
            b.iter(|| black_box(encode_study(&study, &pool).len()))
        });
    }

    // Journal append+fsync rate, the cost a trustd swap pays up front.
    let dir = std::env::temp_dir().join("tangled-bench-snap");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("bench-{}.jrn", std::process::id()));
    let record = SwapRecord {
        profile: "bench".into(),
        epoch: 1,
        store: ReferenceStore::Mozilla.cached().snapshot(),
    };
    c.bench_function("snap/journal_append_fsync", |b| {
        let _ = std::fs::remove_file(&path);
        let (mut journal, _, _) = Journal::open(path.to_str().unwrap()).expect("opens");
        b.iter(|| journal.append(black_box(&record)).expect("appends"))
    });
    let _ = std::fs::remove_file(&path);

    // Delta encode + chain materialisation: the longitudinal format's
    // incremental cost against re-encoding a full snapshot.
    let sections = encode_study_sections(&study, &ExecPool::current());
    c.bench_function("snap/delta_encode", |b| {
        b.iter(|| black_box(encode_delta(&sections, &bytes, 1).expect("encodes").bytes.len()))
    });
    let delta = encode_delta(&sections, &bytes, 1).expect("encodes").bytes;
    let chain = [bytes.clone(), delta];
    c.bench_function("snap/delta_materialize", |b| {
        b.iter(|| black_box(materialize(&chain, u64::MAX).expect("materialises").bytes.len()))
    });

    // Recovery comparison: replaying an unbounded journal (O(total
    // swaps ever)) vs opening a compacted checkpoint plus the truncated
    // tail (O(current state)). 256 swaps folding to 4 profiles.
    let swaps: Vec<SwapRecord> = (0..256u64)
        .map(|i| SwapRecord {
            profile: format!("canary-{}", i % 4),
            epoch: 11 + i,
            store: ReferenceStore::Mozilla.cached().snapshot(),
        })
        .collect();
    let unbounded_path = dir.join(format!("unbounded-{}.jrn", std::process::id()));
    let _ = std::fs::remove_file(&unbounded_path);
    let (mut journal, _, _) = Journal::open(unbounded_path.to_str().unwrap()).expect("opens");
    for record in &swaps {
        journal.append(record).expect("appends");
    }
    drop(journal);
    c.bench_function("snap/recover_unbounded_journal", |b| {
        b.iter(|| {
            let (_, records, _) =
                Journal::open(unbounded_path.to_str().unwrap()).expect("opens");
            black_box(records.len())
        })
    });

    let state = TrustState::fold(&swaps);
    let ckpt = encode_checkpoint(None, &state);
    let ckpt_path = dir.join(format!("compacted-{}.ckpt", std::process::id()));
    std::fs::write(&ckpt_path, &ckpt).expect("checkpoint writes");
    let tail_path = dir.join(format!("compacted-{}.jrn", std::process::id()));
    let _ = std::fs::remove_file(&tail_path);
    let (journal, _, _) = Journal::open(tail_path.to_str().unwrap()).expect("opens");
    drop(journal);
    c.bench_function("snap/recover_compacted_checkpoint", |b| {
        b.iter(|| {
            let snap = Snapshot::open(ckpt_path.to_str().unwrap()).expect("opens");
            let state = read_checkpoint(&snap)
                .expect("reads")
                .expect("carries trust-state");
            let (_, tail, _) = Journal::open(tail_path.to_str().unwrap()).expect("opens");
            black_box(state.records.len() + tail.len())
        })
    });
    let _ = std::fs::remove_file(&unbounded_path);
    let _ = std::fs::remove_file(&ckpt_path);
    let _ = std::fs::remove_file(&tail_path);

    c.final_summary();
}
