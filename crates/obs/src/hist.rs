//! Atomic log₂-bucketed histogram.
//!
//! Recording goes through `&self` with relaxed atomics, so the exec pool
//! and the server workers can observe into a shared histogram without a
//! lock.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets; bucket 39 reaches ~12 days in microseconds,
/// far beyond any sample the pipeline produces.
const BUCKETS: usize = 40;

/// Log₂-bucketed histogram over `u64` samples (typically microseconds).
///
/// Bucket `i` covers `[2^i, 2^(i+1))`; bucket 0 also absorbs zero.
/// Recording is a single relaxed atomic increment, so histograms can be
/// shared freely across threads. Totals are exact; only the per-bucket
/// resolution is approximate (one power of two).
pub struct Log2Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
}

impl Default for Log2Histogram {
    fn default() -> Log2Histogram {
        Log2Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
        }
    }
}

impl Clone for Log2Histogram {
    fn clone(&self) -> Log2Histogram {
        let out = Log2Histogram::default();
        for (dst, src) in out.buckets.iter().zip(&self.buckets) {
            dst.store(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        out.count
            .store(self.count.load(Ordering::Relaxed), Ordering::Relaxed);
        out
    }
}

impl std::fmt::Debug for Log2Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Log2Histogram")
            .field("count", &self.count())
            .field("p50", &self.percentile(50))
            .field("p99", &self.percentile(99))
            .finish()
    }
}

impl Log2Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Log2Histogram {
        Log2Histogram::default()
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        let bucket = (64 - value.leading_zeros()).saturating_sub(1) as usize;
        self.buckets[bucket.min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The lower bound of the bucket holding the `p`-th percentile
    /// sample, `p` in `0..=100`. Zero when empty.
    pub fn percentile(&self, p: u8) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        // Rank of the percentile sample, 1-based, ceil(p/100 * count).
        let rank = ((p as u64) * count).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_track_buckets() {
        let h = Log2Histogram::new();
        assert_eq!(h.percentile(50), 0, "empty histogram");
        // 99 fast samples (~4 µs), one slow (~4096 µs).
        for _ in 0..99 {
            h.record(4);
        }
        h.record(4096);
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(50), 4);
        assert_eq!(h.percentile(99), 4);
        assert_eq!(h.percentile(100), 4096);
    }

    #[test]
    fn extremes_stay_in_range() {
        let h = Log2Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.percentile(100), 1u64 << 39);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Log2Histogram::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..1_000u64 {
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4_000);
    }

    #[test]
    fn clone_snapshots_counts() {
        let h = Log2Histogram::new();
        h.record(100);
        let snap = h.clone();
        h.record(100);
        assert_eq!(snap.count(), 1);
        assert_eq!(h.count(), 2);
    }
}
