//! Fixed-size log-linear latency histogram.
//!
//! Values below [`SUB`] land in exact buckets. Above that, each power of
//! two is split into [`SUB`] equal sub-buckets, so a recorded value is
//! known to within `1/SUB` of itself (the bucket midpoint is reported,
//! halving that again). The bucket array has a fixed size (15.5 KiB)
//! whatever the sample count, and percentiles are not quantised to
//! powers of two the way a log2 histogram quantises them.

/// Sub-buckets per power of two (a power of two itself).
pub const SUB: u64 = 64;
const SUB_BITS: u32 = SUB.trailing_zeros();
/// Values at or above `2^MAX_BITS` ns (about 69 seconds) share the top
/// bucket.
const MAX_BITS: u32 = 36;
const BUCKETS: usize = ((MAX_BITS - SUB_BITS + 1) as usize) * SUB as usize;

/// A percentile read from a histogram, with the number of samples it
/// was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at the percentile (bucket midpoint).
    pub value: u64,
    /// Samples in the histogram.
    pub samples: u64,
}

/// A log-linear histogram of `u64` samples (nanoseconds, in practice).
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64]>,
    total: u64,
    sum: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
            sum: 0,
        }
    }

    fn bucket(v: u64) -> usize {
        let v = v.min((1u64 << MAX_BITS) - 1);
        if v < SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        let mantissa = v >> shift; // in [SUB, 2*SUB)
        (SUB * (u64::from(shift) + 1) + (mantissa - SUB)) as usize
    }

    /// The midpoint of bucket `b`'s value range.
    fn value_of(b: usize) -> u64 {
        let b = b as u64;
        if b < SUB {
            return b;
        }
        let shift = b / SUB - 1;
        let low = (SUB + b % SUB) << shift;
        low + ((1u64 << shift) - 1) / 2
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
        self.sum += u128::from(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all samples (exact, not bucketed).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Forget every sample.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.sum = 0;
    }

    /// Add `other`'s samples to this histogram.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// The `q`-quantile (`0 < q < 1`): the value of the sample at rank
    /// `ceil(q * count)` in sorted order, to within the bucket width.
    /// `None` unless at least ten samples lie beyond that rank, so a
    /// reported tail always rests on more than a handful of samples.
    pub fn percentile(&self, q: f64) -> Option<Percentile> {
        assert!(q > 0.0 && q < 1.0, "quantile must lie in (0, 1)");
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        if self.total < rank + 10 {
            return None;
        }
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Percentile {
                    value: Self::value_of(b),
                    samples: self.total,
                });
            }
        }
        unreachable!("rank {rank} lies within {} samples", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_contain_their_values() {
        let mut prev = 0;
        for v in (0..1_000_000u64)
            .step_by(7)
            .chain([1 << (MAX_BITS - 1), (1 << MAX_BITS) - 1])
        {
            let b = Hist::bucket(v);
            assert!(b >= prev, "bucket order broken at {v}");
            prev = b;
            let mid = Hist::value_of(b);
            let err = mid.abs_diff(v) as f64 / v.max(1) as f64;
            assert!(err <= 1.0 / SUB as f64, "value {v} read back as {mid}");
        }
        assert!(Hist::bucket(u64::MAX) < BUCKETS);
    }
}
