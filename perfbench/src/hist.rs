//! Log-linear latency histogram with bounded relative bucket error.
//!
//! Values are nanoseconds. Below `2^SUB_BITS` every value has its own
//! bucket; above it each power-of-two octave is split into `2^SUB_BITS`
//! equal buckets, so a bucket is at most `2^-SUB_BITS` (1.6 %) of its
//! lower edge wide and a reported bucket midpoint is within 0.8 % of
//! any sample in it. Values from `2^MAX_BITS` ns (about 69 s) up share
//! the top bucket; the exact maximum is kept beside it. Memory is fixed
//! at construction (8 KB), whatever the run length.
//!
//! Requests that failed are recorded with [`Hist::record_miss`]: they
//! rank above every timed sample, so a percentile that lands on them
//! reads as infinite — a failed request misses every latency limit.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const MAX_BITS: u32 = 36;
const BUCKETS: usize = ((MAX_BITS - SUB_BITS + 1) as usize) << SUB_BITS;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    timed: u64,
    misses: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            timed: 0,
            misses: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v >> MAX_BITS != 0 {
        return BUCKETS - 1;
    }
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let octave = u64::from(shift + 1);
    ((octave << SUB_BITS) + ((v >> shift) & (SUB - 1))) as usize
}

/// `[low, high]` of the values that land in bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, i);
    }
    let shift = (i >> SUB_BITS) - 1;
    let low = (SUB + (i & (SUB - 1))) << shift;
    (low, low + ((1 << shift) - 1))
}

impl Hist {
    pub fn record_ns(&mut self, ns: u64) {
        let c = &mut self.counts[index(ns)];
        *c = c.saturating_add(1);
        self.timed += 1;
        self.sum_ns += u128::from(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    pub fn record(&mut self, d: std::time::Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn record_miss(&mut self) {
        self.misses += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
        self.timed += other.timed;
        self.misses += other.misses;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Samples recorded, misses included.
    pub fn count(&self) -> u64 {
        self.timed + self.misses
    }

    pub fn mean_ns(&self) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        self.sum_ns as f64 / self.timed as f64
    }

    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Nearest-rank `q`-quantile in nanoseconds: the midpoint of the
    /// bucket holding the `ceil(q * n)`-th smallest sample, clamped to
    /// the exact extremes. Infinite when that sample is a miss; 0 when
    /// empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        if rank > self.timed {
            return f64::INFINITY;
        }
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                if i == BUCKETS - 1 {
                    return self.max_ns as f64;
                }
                let (lo, hi) = bounds(i);
                let mid = (lo as f64 + hi as f64) / 2.0;
                return mid.clamp(self.min_ns as f64, self.max_ns as f64);
            }
        }
        self.max_ns as f64
    }

    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic stand-in for a random source, so the tests need
    /// no dependency.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn every_value_lies_in_its_bucket_and_buckets_are_narrow() {
        let mut s = 7;
        let mut values: Vec<u64> = (0..200_000)
            .map(|_| splitmix(&mut s) >> (splitmix(&mut s) % 64))
            .collect();
        values.extend([0, 1, SUB - 1, SUB, SUB + 1, (1 << MAX_BITS) - 1]);
        for v in values.into_iter().filter(|v| v >> MAX_BITS == 0) {
            let i = index(v);
            assert!(i < BUCKETS, "{v} -> {i}");
            let (lo, hi) = bounds(i);
            assert!(lo <= v && v <= hi, "{v} outside bucket {i} [{lo}, {hi}]");
            let width = (hi - lo) as f64 + 1.0;
            assert!(width <= 1.0 || width / lo as f64 <= 1.0 / SUB as f64 + 1e-12);
        }
    }

    #[test]
    fn huge_values_share_the_top_bucket_and_keep_their_maximum() {
        let mut h = Hist::default();
        h.record_ns(u64::MAX);
        h.record_ns(1 << 40);
        assert_eq!(index(u64::MAX), BUCKETS - 1);
        assert_eq!(h.quantile_ns(1.0), u64::MAX as f64);
        assert!(h.quantile_ns(0.5) >= (1u64 << MAX_BITS) as f64);
    }

    #[test]
    fn reported_value_is_within_three_percent_of_the_sample() {
        for v in [
            1u64,
            63,
            64,
            65,
            1_000,
            12_345,
            999_999,
            80_000_000,
            3_000_000_000,
        ] {
            let mut h = Hist::default();
            h.record_ns(v);
            h.record_ns(v + v / 50);
            let got = h.quantile_ns(0.5);
            assert!((got - v as f64).abs() <= 0.03 * v as f64, "{v}: {got}");
        }
    }

    #[test]
    fn percentiles_match_exact_nearest_rank_within_bucket_error() {
        let mut s = 11;
        let mut h = Hist::default();
        let mut exact = Vec::new();
        for _ in 0..50_000 {
            // Log-uniform over 1 µs .. 100 ms, like latency samples.
            let u = (splitmix(&mut s) >> 11) as f64 / (1u64 << 53) as f64;
            let v = (1e3 * 1e5f64.powf(u)) as u64;
            h.record_ns(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * exact.len() as f64).ceil() as usize).max(1);
            let want = exact[rank - 1] as f64;
            let got = h.quantile_ns(q);
            assert!((got - want).abs() <= 0.03 * want, "q={q}: {got} vs {want}");
        }
        assert_eq!(h.quantile_ns(1.0), *exact.last().unwrap() as f64);
    }

    #[test]
    fn misses_rank_above_every_sample_and_merge_adds_up() {
        let mut h = Hist::default();
        for v in 1..=98 {
            h.record_ns(v * 1_000);
        }
        h.record_miss();
        h.record_miss();
        assert_eq!(h.count(), 100);
        assert!(h.quantile_ns(0.98).is_finite());
        assert!(h.quantile_ns(0.99).is_infinite());
        let mut other = Hist::default();
        other.record_ns(5);
        other.merge(&h);
        assert_eq!(other.count(), 101);
        assert_eq!(other.quantile_ns(0.0), 5.0);
        assert_eq!(Hist::default().quantile_ns(0.5), 0.0);
    }
}
