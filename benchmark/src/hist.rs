//! A log-bucket histogram of nanosecond durations: exact below 128 ns,
//! 128 sub-buckets per octave above (under 0.8 % bucket width), fixed
//! memory, no allocation while recording.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Octaves above the exact range: values up to 2^47 ns (~39 h).
const OCTAVES: usize = 40;
const BUCKETS: usize = SUB * (OCTAVES + 1);

/// See the module docs.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

fn index_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let e = 63 - ns.leading_zeros();
    let shift = e - SUB_BITS;
    let m = ((ns >> shift) as usize) & (SUB - 1);
    ((((e - SUB_BITS + 1) as usize) << SUB_BITS) | m).min(BUCKETS - 1)
}

/// `(lowest value, width)` of bucket `idx`.
fn bucket_of(idx: usize) -> (u64, u64) {
    if idx < SUB {
        return (idx as u64, 1);
    }
    let shift = (idx >> SUB_BITS) as u32 - 1;
    let m = (idx & (SUB - 1)) as u64;
    ((SUB as u64 + m) << shift, 1 << shift)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        self.counts[index_of(ns)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Forgets every sample.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// The nearest-rank percentile `q` in `0.0..=1.0`, in nanoseconds:
    /// the sample of rank `ceil(q·n)` is located in its bucket and,
    /// where the bucket is wider than 1 ns, placed inside it by its
    /// rank among the bucket's samples (the `k`-th of `c` samples sits
    /// at `low + width·(k − ½)/c`). `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            let c = u64::from(c);
            if seen + c >= rank {
                let (low, width) = bucket_of(idx);
                if width == 1 {
                    return Some(low as f64);
                }
                let k = (rank - seen) as f64;
                return Some(low as f64 + width as f64 * (k - 0.5) / c as f64);
            }
            seen += c;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.len(), 100);
        assert_eq!(h.percentile(0.50), Some(50.0));
        assert_eq!(h.percentile(0.90), Some(90.0));
        assert_eq!(h.percentile(0.99), Some(99.0));
        assert_eq!(h.percentile(1.0), Some(100.0));
        assert_eq!(h.percentile(0.0), Some(1.0));
    }

    #[test]
    fn wide_buckets_place_a_sample_by_its_rank() {
        // 1000 = (128 + 122) << 2: bucket [1000, 1004), width 4.
        assert_eq!(bucket_of(index_of(1000)), (1000, 4));
        assert_eq!(index_of(1003), index_of(1000));
        assert_ne!(index_of(1004), index_of(1000));
        let mut h = Histogram::new();
        for _ in 0..4 {
            h.record(1001);
        }
        // rank ceil(0.5·4) = 2 of 4 in the bucket: 1000 + 4·1.5/4.
        assert_eq!(h.percentile(0.5), Some(1001.5));
        // 90 samples at ~75 us, 10 at ~1 ms: p50 and p90 stay in the
        // 75 us bucket, p99 moves to the slow one.
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(75_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let (low, width) = bucket_of(index_of(75_000));
        let p50 = h.percentile(0.5).unwrap();
        assert!(p50 >= low as f64 && p50 < (low + width) as f64);
        assert!(width as f64 / low as f64 <= 1.0 / 128.0);
        let p99 = h.percentile(0.99).unwrap();
        assert!((p99 / 1e6 - 1.0).abs() < 0.01, "{p99}");
    }

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut next = 0u64;
        for idx in 0..SUB * 20 {
            let (low, width) = bucket_of(idx);
            assert_eq!(low, next, "bucket {idx}");
            assert_eq!(index_of(low), idx);
            assert_eq!(index_of(low + width - 1), idx);
            next = low + width;
        }
        assert_eq!(index_of(u64::MAX), BUCKETS - 1);
    }
}
