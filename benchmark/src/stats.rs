//! Order statistics, the digest and the seeded shuffle the harness uses.
//! Nothing here knows about the engines.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// On an empty slice: every caller reports a median of at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// so `compare` and the driver agree on what a spread is. A single sample
/// is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    [cut(1), cut(2), cut(3)]
}

/// The tail of a timing sample: the highest of the usual percentiles that
/// still has at least ten samples beyond it, with the sample count it was
/// taken from. Fewer than twenty samples support nothing above the median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile reported (50 when the sample supports no higher one).
    pub percentile: f64,
    /// Value at that percentile (nearest rank).
    pub value: f64,
    /// Samples the percentile was taken from.
    pub samples: usize,
}

/// See [`Tail`]. `None` for an empty sample.
pub fn tail(values: &[f64]) -> Option<Tail> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // In per mille, so that the rank arithmetic is exact. Nearest rank: the
    // smallest value with at least that share of the sample at or below it.
    let rank = |per_mille: usize| (n * per_mille).div_ceil(1000).clamp(1, n);
    let per_mille = [999, 990, 950, 900, 750]
        .into_iter()
        .find(|&p| n - rank(p) >= 10)
        .unwrap_or(500);
    let (percentile, rank) = (per_mille as f64 / 10.0, rank(per_mille));
    Some(Tail {
        percentile,
        value: v[rank - 1],
        samples: n,
    })
}

/// FNV-1a over `bytes`: the digest of a run's deterministic output.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64: the harness's only random source, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose whole sequence is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let sample = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 19 samples: not even p75 leaves ten beyond it.
        let t = tail(&sample(19)).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (50.0, 10.0, 19));
        // 30 samples support nothing above the median either (p75 leaves 7).
        assert_eq!(tail(&sample(30)).unwrap().percentile, 50.0);
        // 40 samples: p75 leaves exactly ten.
        let t = tail(&sample(40)).unwrap();
        assert_eq!((t.percentile, t.value), (75.0, 30.0));
        // 216 samples (one sim-sweep pass): p95 leaves ten, p99 only two.
        let t = tail(&sample(216)).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (95.0, 206.0, 216));
        assert_eq!(tail(&sample(1000)).unwrap().percentile, 99.0);
        assert_eq!(tail(&sample(10_000)).unwrap().percentile, 99.9);
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn digest_is_fnv1a() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let shuffled = |seed| {
            let mut v: Vec<u32> = (0..50).collect();
            SplitMix64::new(seed).shuffle(&mut v);
            v
        };
        assert_eq!(shuffled(1), shuffled(1));
        assert_ne!(shuffled(1), shuffled(2));
        let mut sorted = shuffled(3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
