//! Concurrent log-bucketed histogram over `u64` values.
//!
//! Buckets by magnitude: four sub-buckets per power of two, 256 fixed buckets
//! covering `1 ..= u64::MAX` (for nanoseconds, ≈ 584 years). Every record is
//! two relaxed atomic adds — no locks, no allocation — so a histogram costs
//! nanoseconds next to a model forward. Quantiles are estimated as the
//! midpoint of the bucket holding the ranked sample, which bounds the error
//! at the bucket width (~±12%).

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per octave (power of two). Four gives ~±12% bucket width.
pub(crate) const SUBS_PER_OCTAVE: usize = 4;
/// Total buckets: covers the full `u64` range.
pub(crate) const NBUCKETS: usize = 64 * SUBS_PER_OCTAVE;

/// Concurrent log-bucketed histogram of `u64` samples (typically
/// nanoseconds, but unitless by design — batch sizes and byte counts bucket
/// just as well).
pub struct Histogram {
    counts: Box<[AtomicU64; NBUCKETS]>,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        let counts: Vec<AtomicU64> = (0..NBUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            counts: counts.try_into().map_err(|_| ()).unwrap(),
            sum: AtomicU64::new(0),
        }
    }

    /// Bucket index of a value: octave (floor log₂) plus the next two
    /// mantissa bits. Public so tests can pin the documented boundaries.
    pub fn bucket(v: u64) -> usize {
        if v == 0 {
            return 0;
        }
        let exp = 63 - v.leading_zeros() as usize;
        let frac = if exp >= 2 {
            ((v >> (exp - 2)) & 0b11) as usize
        } else {
            0
        };
        (exp * SUBS_PER_OCTAVE + frac).min(NBUCKETS - 1)
    }

    /// Lower edge of a bucket. Public so tests can pin the documented
    /// boundaries.
    pub fn bucket_floor(idx: usize) -> u64 {
        let exp = idx / SUBS_PER_OCTAVE;
        let frac = (idx % SUBS_PER_OCTAVE) as u64;
        if exp >= 64 {
            return u64::MAX;
        }
        let base = 1u64 << exp;
        base + (base / SUBS_PER_OCTAVE as u64) * frac
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.counts[Self::bucket(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of recorded samples (wrapping on overflow, like the adds).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Integer mean of recorded samples (zero when empty). Integer division
    /// deliberately: serving code reports nanosecond means and a fractional
    /// nanosecond is noise.
    pub fn mean(&self) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        self.sum() / n
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), estimated as the midpoint of the
    /// bucket holding the `⌈q·n⌉`-th smallest sample. Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                // Midpoint of [floor, next floor) — the bucket's own span.
                let lo = Self::bucket_floor(i);
                let hi = Self::bucket_floor(i + 1).max(lo + 1);
                return lo + (hi - lo) / 2;
            }
        }
        0 // unreachable: rank ≤ n
    }

    /// Serialize count, sum, mean, and standard quantiles as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
            self.count(),
            self.sum(),
            self.mean(),
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_floors_are_monotone_and_bracket_every_value() {
        let mut prev = 0;
        for i in 0..NBUCKETS {
            let lo = Histogram::bucket_floor(i);
            assert!(lo >= prev, "bucket {i} floor regressed");
            prev = lo;
        }
        for v in [1u64, 2, 3, 5, 100, 999, 1_000_000, u64::MAX / 2, u64::MAX] {
            let b = Histogram::bucket(v);
            assert!(Histogram::bucket_floor(b) <= v, "v={v} bucket={b}");
        }
    }

    // The documented boundary layout: within octave `e ≥ 2`, the four
    // sub-bucket floors are 2^e, 2^e·5/4, 2^e·3/2, 2^e·7/4.
    #[test]
    fn sub_bucket_floors_match_documented_layout() {
        for exp in 2..62usize {
            let base = 1u64 << exp;
            for frac in 0..SUBS_PER_OCTAVE as u64 {
                let idx = exp * SUBS_PER_OCTAVE + frac as usize;
                assert_eq!(
                    Histogram::bucket_floor(idx),
                    base + (base / 4) * frac,
                    "exp={exp} frac={frac}"
                );
            }
        }
    }

    #[test]
    fn quantiles_land_on_bucket_midpoints() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(1_000_000); // 1 ms
        }
        // 1_000_000 lands in bucket 79 = [917_504, 1_048_576): midpoint 983_040.
        let b = Histogram::bucket(1_000_000);
        assert_eq!(b, 79);
        let lo = Histogram::bucket_floor(b);
        let hi = Histogram::bucket_floor(b + 1);
        assert_eq!((lo, hi), (917_504, 1_048_576));
        let mid = lo + (hi - lo) / 2;
        assert_eq!(mid, 983_040);
        assert_eq!(h.quantile(0.5), mid);
        assert_eq!(h.quantile(1.0), mid);
    }

    // Mixed magnitudes (the serving latency shape: a fast bulk and a slow
    // tail): each quantile lands in its own sample's bucket.
    #[test]
    fn quantiles_of_mixed_magnitudes_are_within_bucket_resolution() {
        let h = Histogram::new();
        // 100 samples at 1 ms, 10 at 10 ms, 1 at 100 ms (in ns).
        for (n, v) in [(100, 1_000_000u64), (10, 10_000_000), (1, 100_000_000)] {
            for _ in 0..n {
                h.record(v);
            }
        }
        assert_eq!(h.count(), 111);
        assert!((800_000..2_000_000).contains(&h.quantile(0.50)));
        assert!((8_000_000..20_000_000).contains(&h.quantile(0.99)));
        assert!((80_000_000..200_000_000).contains(&h.quantile(1.0)));
        assert!(h.mean() > 1_000_000);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let h = Histogram::new();
        h.record(42);
        let b = Histogram::bucket(42);
        let lo = Histogram::bucket_floor(b);
        let hi = Histogram::bucket_floor(b + 1);
        let mid = lo + (hi - lo) / 2;
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), mid, "q={q}");
        }
        assert_eq!(h.mean(), 42);
    }

    #[test]
    fn concurrent_records_lose_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 1..=1000u64 {
                        h.record(i);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
        assert_eq!(h.sum(), 4 * 1000 * 1001 / 2);
    }
}
