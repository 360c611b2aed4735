//! `tangled-exec` — the deterministic parallel execution layer.
//!
//! Every offline stage of the study pipeline (ecosystem generation, chain
//! validation, device synthesis, store preloading) is embarrassingly
//! parallel *per unit*, but the paper tables must regenerate byte-identically
//! from a seed. This crate provides the contract that reconciles the two:
//!
//! * **Work is sharded by unit index, never by thread.** A unit's inputs —
//!   including its RNG, derived with [`split_seed`] — depend only on the
//!   master seed and the unit index, so the unit computes the same value on
//!   any thread of any pool size.
//! * **Results merge in index order.** [`ExecPool::par_map_indexed`] returns
//!   results positionally and [`ExecPool::par_shard_reduce`] folds shard
//!   results in ascending shard order, so downstream accumulation observes
//!   the same sequence a single-threaded run produces.
//! * **`threads == 1` is the sequential path.** A one-thread pool runs the
//!   plain `for` loop on the calling thread — no channels, no spawns — so
//!   the deterministic-equality tests compare parallel runs against the
//!   genuine sequential execution, not a simulation of it.
//!
//! Thread count resolution order: an explicit [`set_thread_override`] (the
//! CLI's `--threads`), then the `TANGLED_THREADS` environment variable,
//! then [`std::thread::available_parallelism`].
//!
//! [`StripedMap`] complements the pool: a lock-striped, bounded hash map
//! for a memo table shared across shards or connections (the
//! process-wide signature memo and trustd's verdict memo). Striping keeps
//! contention low; memoised values must be pure functions of their key,
//! which makes the map's fill order — the only nondeterministic thing
//! about it — unobservable in results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod stripe;

pub use stripe::StripedMap;

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide thread-count override (0 = unset). Set by the CLI's
/// `--threads` flag; read by [`thread_count`].
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Environment variable controlling the default pool width.
pub const THREADS_ENV: &str = "TANGLED_THREADS";

/// Install (or clear, with `None`) the process-wide thread-count override.
/// Takes precedence over `TANGLED_THREADS` and detected parallelism.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::SeqCst);
}

/// The effective worker count: override → `TANGLED_THREADS` → available
/// parallelism → 1. Always at least 1.
pub fn thread_count() -> usize {
    let overridden = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if overridden > 0 {
        return overridden;
    }
    if let Ok(text) = std::env::var(THREADS_ENV) {
        if let Ok(n) = text.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Split a master seed into a per-unit sub-seed.
///
/// SplitMix64 finalizer over the master seed and the unit index with
/// golden-ratio spacing: statistically independent streams, stable across
/// platforms, and — crucially — a pure function of `(seed, index)`, so a
/// unit draws the same stream no matter which thread runs it.
pub fn split_seed(seed: u64, index: u64) -> u64 {
    use tangled_crypto::hash::{mix64, GOLDEN_GAMMA};
    mix64(seed.wrapping_add(GOLDEN_GAMMA.wrapping_mul(index.wrapping_add(1))))
}

/// A fixed-width scoped-thread pool.
///
/// The pool holds no threads between calls; each primitive spawns scoped
/// workers for its duration. That keeps the layer allocation-free at rest
/// and dependency-free (no channels, no work stealing) while still
/// saturating the machine for the coarse-grained shards the pipeline uses.
#[derive(Debug, Clone, Copy)]
pub struct ExecPool {
    threads: usize,
}

impl ExecPool {
    /// A pool at the effective width of [`thread_count`].
    pub fn current() -> ExecPool {
        ExecPool::with_threads(thread_count())
    }

    /// A pool with an explicit width (minimum 1).
    pub fn with_threads(threads: usize) -> ExecPool {
        ExecPool {
            threads: threads.max(1),
        }
    }

    /// The pool width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Map `f` over `items`, returning results in item order.
    ///
    /// `f(i, &items[i])` must be a pure function of its arguments (plus any
    /// shared memo whose values are pure in their keys) — under that
    /// contract the output vector is identical at any pool width. With one
    /// thread this is a plain sequential loop on the calling thread.
    pub fn par_map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        // Pool telemetry goes to the metrics registry only: call counts and
        // widths are scheduling facts, which the deterministic trace log
        // must never observe.
        tangled_obs::registry::add("exec.par_map.calls", 1);
        tangled_obs::registry::add("exec.par_map.items", items.len() as u64);
        tangled_obs::registry::gauge_set("exec.pool.width", self.threads as i64);
        if self.threads == 1 || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
        }

        let workers = self.threads.min(items.len());
        let chunk = items.len().div_ceil(workers);
        let mut blocks: Vec<Vec<R>> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                let start = w * chunk;
                let end = ((w + 1) * chunk).min(items.len());
                if start >= end {
                    break;
                }
                let f = &f;
                handles.push(scope.spawn(move || {
                    items[start..end]
                        .iter()
                        .enumerate()
                        .map(|(off, item)| f(start + off, item))
                        .collect::<Vec<R>>()
                }));
            }
            for handle in handles {
                blocks.push(handle.join().expect("exec worker panicked"));
            }
        });
        let mut out = Vec::with_capacity(items.len());
        for block in blocks {
            out.extend(block);
        }
        out
    }

    /// Run `shard_fn(0..shards)` across the pool and fold the results with
    /// `merge` in ascending shard order.
    ///
    /// The fold order is the whole point: an accumulator built this way
    /// observes shard results exactly as the sequential loop would, so
    /// order-sensitive merges (ledgers, appends) stay byte-identical.
    pub fn par_shard_reduce<R, A, F, M>(
        &self,
        shards: usize,
        shard_fn: F,
        mut acc: A,
        mut merge: M,
    ) -> A
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
        M: FnMut(&mut A, R),
    {
        let results = self.par_map_indexed(&(0..shards).collect::<Vec<usize>>(), |_, &s| {
            shard_fn(s)
        });
        for r in results {
            merge(&mut acc, r);
        }
        acc
    }
}

/// A sensible fixed shard count for slicing `len` units of work: enough
/// shards that any pool width ≤ 64 stays busy, few enough that per-shard
/// overhead is negligible. Shard boundaries are a function of `len` alone
/// (never of the pool width), so per-shard derived state — sub-RNGs,
/// latency samples — is stable across thread counts.
pub fn fixed_shard_count(len: usize) -> usize {
    len.clamp(1, 64)
}

/// The contiguous index range of shard `s` of `shards` over `len` units.
/// Ranges are maximally even: the first `len % shards` shards take one
/// extra unit.
pub fn shard_range(len: usize, shards: usize, s: usize) -> std::ops::Range<usize> {
    let shards = shards.max(1);
    let base = len / shards;
    let extra = len % shards;
    let start = s * base + s.min(extra);
    let width = base + usize::from(s < extra);
    start..(start + width).min(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_at_any_width() {
        let items: Vec<u64> = (0..1_000).collect();
        let f = |i: usize, &x: &u64| split_seed(x, i as u64) % 1_000;
        let sequential = ExecPool::with_threads(1).par_map_indexed(&items, f);
        for threads in [2, 3, 4, 8, 16, 64] {
            let parallel = ExecPool::with_threads(threads).par_map_indexed(&items, f);
            assert_eq!(sequential, parallel, "width {threads} diverged");
        }
    }

    #[test]
    fn par_map_preserves_index_order() {
        let items: Vec<usize> = (0..97).collect();
        let out = ExecPool::with_threads(7).par_map_indexed(&items, |i, &x| {
            assert_eq!(i, x, "closure sees the item's true index");
            i * 2
        });
        assert_eq!(out, (0..97).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_degenerate_inputs() {
        let empty: Vec<u32> = Vec::new();
        let out = ExecPool::with_threads(8).par_map_indexed(&empty, |_, &x| x);
        assert!(out.is_empty());
        let one = [41u32];
        assert_eq!(
            ExecPool::with_threads(8).par_map_indexed(&one, |_, &x| x + 1),
            vec![42]
        );
    }

    #[test]
    fn shard_reduce_merges_in_order() {
        // Order-sensitive accumulator: concatenation detects any reorder.
        let fold = |threads: usize| {
            ExecPool::with_threads(threads).par_shard_reduce(
                10,
                |s| format!("[{s}]"),
                String::new(),
                |acc: &mut String, part| acc.push_str(&part),
            )
        };
        let want = "[0][1][2][3][4][5][6][7][8][9]";
        assert_eq!(fold(1), want);
        assert_eq!(fold(4), want);
        assert_eq!(fold(32), want);
    }

    #[test]
    fn split_seed_is_pure_and_spreads() {
        assert_eq!(split_seed(2014, 7), split_seed(2014, 7));
        assert_ne!(split_seed(2014, 7), split_seed(2014, 8));
        assert_ne!(split_seed(2014, 7), split_seed(2015, 7));
        // No short cycles over a window of indices.
        let seen: std::collections::HashSet<u64> =
            (0..10_000).map(|i| split_seed(66_000_000, i)).collect();
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn shard_ranges_partition_exactly() {
        for len in [0usize, 1, 5, 64, 65, 1_000, 15_970] {
            let shards = fixed_shard_count(len.max(1));
            let mut covered = 0usize;
            for s in 0..shards {
                let r = shard_range(len, shards, s);
                assert_eq!(r.start, covered, "len {len} shard {s} contiguous");
                covered = r.end;
            }
            assert_eq!(covered, len, "len {len} fully covered");
        }
    }

    #[test]
    fn thread_count_prefers_override() {
        set_thread_override(Some(3));
        assert_eq!(thread_count(), 3);
        set_thread_override(None);
        assert!(thread_count() >= 1);
    }
}
