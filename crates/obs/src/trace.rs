//! Span-based structured tracing with deterministic span IDs.
//!
//! A trace is a JSONL event log collected between [`begin`] and
//! [`finish`]. The contract that makes it testable: the log is
//! *byte-identical at any exec-pool width*. Three rules enforce that:
//!
//! * **Span IDs are derived, never drawn.** [`span_id`] hashes
//!   `(seed, stage, unit index)` — an FNV-1a over the stage name folded
//!   through a SplitMix64-style finalizer — so the same work unit gets
//!   the same ID in every run at every width. No wall clock, no RNG.
//! * **Payloads are width-invariant.** Unit counts, seeds, quarantine
//!   tallies. Anything timed or scheduling-dependent (latencies, memo
//!   hit rates, thread counts) belongs in the metrics
//!   [`registry`](mod@crate::registry) instead.
//! * **Emission happens in sequential code.** Pipeline stages trace from
//!   phase boundaries and index-ordered merge loops, never from inside
//!   parallel closures, so event order is the sequential order.
//!
//! When no trace is active every emit is a cheap atomic-load no-op, so
//! the pipeline stages call these hooks unconditionally.

use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Event kinds a trace line may carry (the schema's `kind` field).
pub const EVENT_KINDS: [&str; 5] =
    ["run_start", "span_start", "span_end", "point", "quarantine"];

/// Derive the deterministic span ID for a work unit: FNV-1a over the
/// stage name, mixed with the seed and unit index through the SplitMix64
/// finalizer (both from the shared [`tangled_crypto::hash`] module). A
/// pure function of its arguments.
pub fn span_id(seed: u64, stage: &str, unit: u64) -> u64 {
    let h = tangled_crypto::hash::fnv1a(stage.as_bytes());
    tangled_crypto::hash::mix64(
        h ^ seed.rotate_left(32)
            ^ unit.wrapping_mul(tangled_crypto::hash::GOLDEN_GAMMA),
    )
}

/// Render a span ID the way the event log does: 16 lowercase hex chars.
pub fn span_hex(id: u64) -> String {
    format!("{id:016x}")
}

struct Sink {
    seq: u64,
    lines: Vec<String>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn sink() -> &'static Mutex<Option<Sink>> {
    static SINK: OnceLock<Mutex<Option<Sink>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Start collecting a trace, emitting the `run_start` event that records
/// the run's master seed. Replaces any active trace.
pub fn begin(seed: u64) {
    {
        let mut guard = sink().lock().expect("trace sink poisoned");
        *guard = Some(Sink {
            seq: 0,
            lines: Vec::new(),
        });
    }
    ENABLED.store(true, Ordering::SeqCst);
    emit("run_start", "run", None, &[("seed", Value::from(seed))]);
}

/// Is a trace being collected?
pub fn active() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// Stop collecting and return the event log, one JSON object per line.
/// `None` when no trace was active.
pub fn finish() -> Option<Vec<String>> {
    ENABLED.store(false, Ordering::SeqCst);
    sink()
        .lock()
        .expect("trace sink poisoned")
        .take()
        .map(|s| s.lines)
}

fn emit(kind: &str, stage: &str, span: Option<u64>, fields: &[(&str, Value)]) {
    if !ENABLED.load(Ordering::SeqCst) {
        return;
    }
    let mut guard = sink().lock().expect("trace sink poisoned");
    let Some(sink) = guard.as_mut() else {
        return;
    };
    let mut obj: BTreeMap<String, Value> = BTreeMap::new();
    for (key, value) in fields {
        obj.insert((*key).to_owned(), value.clone());
    }
    // Reserved keys win over a colliding field.
    obj.insert("seq".to_owned(), Value::from(sink.seq));
    obj.insert("kind".to_owned(), Value::from(kind));
    obj.insert("stage".to_owned(), Value::from(stage));
    if let Some(id) = span {
        obj.insert("span".to_owned(), Value::from(span_hex(id)));
    }
    sink.seq += 1;
    sink.lines.push(
        serde_json::to_string(&Value::Object(obj)).expect("trace event serialises"),
    );
}

/// Open a span for `(stage, unit)` under `seed` and return its ID. The
/// ID is computed (and identical) whether or not a trace is active, so
/// callers can thread it unconditionally.
pub fn span_start(stage: &str, seed: u64, unit: u64, fields: &[(&str, Value)]) -> u64 {
    let id = span_id(seed, stage, unit);
    emit("span_start", stage, Some(id), fields);
    id
}

/// Close a span opened by [`span_start`].
pub fn span_end(stage: &str, id: u64, fields: &[(&str, Value)]) {
    emit("span_end", stage, Some(id), fields);
}

/// Emit a point event inside a span (per-shard tallies, phase marks).
pub fn point(stage: &str, span: u64, fields: &[(&str, Value)]) {
    emit("point", stage, Some(span), fields);
}

/// Emit a quarantine event inside a span, in the PR-1 `RunHealth`
/// vocabulary: `count` units quarantined at detection stage `q_stage`
/// under error `label`.
pub fn quarantine(stage: &str, span: u64, q_stage: &str, label: &str, count: u64) {
    emit(
        "quarantine",
        stage,
        Some(span),
        &[
            ("q_stage", Value::from(q_stage)),
            ("label", Value::from(label)),
            ("count", Value::from(count)),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sink is process-global; trace tests must not interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn span_ids_are_pure_and_distinct() {
        assert_eq!(span_id(2014, "a", 0), span_id(2014, "a", 0));
        assert_ne!(span_id(2014, "a", 0), span_id(2014, "a", 1));
        assert_ne!(span_id(2014, "a", 0), span_id(2014, "b", 0));
        assert_ne!(span_id(2014, "a", 0), span_id(2015, "a", 0));
        assert_eq!(span_hex(0xab).len(), 16);
        assert_eq!(span_hex(0xab), "00000000000000ab");
    }

    #[test]
    fn collected_trace_replays_identically() {
        let _guard = lock();
        let run = || {
            begin(7);
            let span = span_start("stage.x", 7, 0, &[("units", Value::from(3u64))]);
            point("stage.x", span, &[("shard", Value::from(0u64))]);
            quarantine("stage.x", span, "parse", "malformed-der", 2);
            span_end("stage.x", span, &[("done", Value::from(true))]);
            finish().expect("trace active")
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same calls, same bytes");
        assert_eq!(a.len(), 5);
        assert!(a[0].contains("\"kind\":\"run_start\""), "{}", a[0]);
        assert!(a[0].contains("\"seed\":7"), "{}", a[0]);
        assert!(a[2].contains("\"kind\":\"point\""), "{}", a[2]);
        assert!(a[3].contains("\"label\":\"malformed-der\""), "{}", a[3]);
        crate::schema::validate_lines(&a).expect("own output validates");
    }

    #[test]
    fn disabled_trace_is_a_noop_with_stable_ids() {
        let _guard = lock();
        let _ = finish(); // drain any leftover trace from another test
        let id = span_start("stage.y", 1, 2, &[]);
        span_end("stage.y", id, &[]);
        assert_eq!(id, span_id(1, "stage.y", 2), "ID computed while disabled");
        assert!(finish().is_none(), "nothing collected");
    }

    #[test]
    fn begin_replaces_an_active_trace() {
        let _guard = lock();
        begin(1);
        span_start("old", 1, 0, &[]);
        begin(2);
        let lines = finish().expect("second trace active");
        assert_eq!(lines.len(), 1, "only the fresh run_start: {lines:?}");
        assert!(lines[0].contains("\"seed\":2"));
    }
}
