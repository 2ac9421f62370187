//! Deterministic random number generation and statistical distributions.
//!
//! The simulator needs several non-uniform distributions (lognormal node
//! capacities, Zipf stream popularity, exponential inter-arrivals,
//! empirical CDFs fitted to figures in the paper). Rather than pulling an
//! extra dependency, this module implements a small, well-tested
//! xoshiro256** generator plus the handful of samplers we need.

use serde::{Deserialize, Serialize};

/// A deterministic xoshiro256** pseudo-random generator.
///
/// All simulator randomness flows through this type, seeded from a single
/// `u64`, so every experiment is reproducible bit-for-bit.
///
/// Equality compares the full generator state: two generators are equal
/// exactly when every future draw agrees. Sharded world execution uses
/// this to pin the no-RNG contract of parallel handlers — a worker gives
/// each handler a sentinel generator and asserts it is returned
/// untouched.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derives an independent child generator; useful for giving each
    /// simulated entity its own stream so entity counts do not perturb
    /// one another's randomness.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Returns the next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // Use the top 53 bits for a uniformly distributed mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.f64() * (hi - lo)
    }

    /// Returns a uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire's multiply-shift rejection method for unbiased bounded ints.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Samples a standard normal via the Box–Muller transform.
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0) by nudging u1 away from zero.
        let u1 = self.f64().max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Samples a lognormal: `exp(N(mu, sigma))`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Samples an exponential with the given mean (`1/lambda`).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = self.f64().max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }
}

/// A Zipf distribution over ranks `1..=n` with exponent `s`.
///
/// Used for stream popularity: a handful of streams attract the bulk of
/// the viewers, with a long tail of small rooms — the regime in which
/// RLive's multi-substream fan-out pays off.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution for `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero ranks");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Returns `true` if the distribution has exactly one rank.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Samples a zero-based rank (0 is the most popular).
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.f64();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("CDF is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Probability mass of the zero-based rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        let lo = if k == 0 { 0.0 } else { self.cdf[k - 1] };
        self.cdf[k] - lo
    }
}

/// An empirical distribution fitted from `(value, cumulative_probability)`
/// anchor points, sampled by inverse-transform with linear interpolation.
///
/// We use this to reproduce the distributions the paper reports only as
/// figures — e.g. best-effort node capacity (Fig 1b), lifespan (Fig 2c)
/// and retransmission latency (Fig 3b).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmpiricalCdf {
    /// Strictly increasing values.
    values: Vec<f64>,
    /// Matching cumulative probabilities, increasing, ending at 1.0.
    probs: Vec<f64>,
}

impl EmpiricalCdf {
    /// Builds a CDF from anchor points.
    ///
    /// Points are sorted by value; probabilities must be non-decreasing
    /// after the sort and the final probability is forced to 1.0.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two points are provided or probabilities are
    /// not in `[0, 1]` and non-decreasing.
    pub fn from_points(points: &[(f64, f64)]) -> Self {
        assert!(points.len() >= 2, "need at least two anchor points");
        let mut pts: Vec<(f64, f64)> = points.to_vec();
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite values"));
        let mut values = Vec::with_capacity(pts.len());
        let mut probs = Vec::with_capacity(pts.len());
        let mut last_p = 0.0;
        for (v, p) in pts {
            assert!((0.0..=1.0).contains(&p), "probability out of range");
            assert!(p >= last_p, "probabilities must be non-decreasing");
            last_p = p;
            values.push(v);
            probs.push(p);
        }
        if let Some(last) = probs.last_mut() {
            *last = 1.0;
        }
        EmpiricalCdf { values, probs }
    }

    /// Samples a value by inverse transform with linear interpolation.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        self.quantile(rng.f64())
    }

    /// Returns the `q`-quantile (`q` clamped to `[0, 1]`).
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        if q <= self.probs[0] {
            return self.values[0];
        }
        for i in 1..self.probs.len() {
            if q <= self.probs[i] {
                let (p0, p1) = (self.probs[i - 1], self.probs[i]);
                let (v0, v1) = (self.values[i - 1], self.values[i]);
                let w = if p1 > p0 { (q - p0) / (p1 - p0) } else { 1.0 };
                return v0 + w * (v1 - v0);
            }
        }
        *self.values.last().expect("non-empty")
    }

    /// Evaluates the CDF at `x` with linear interpolation.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= self.values[0] {
            return if x < self.values[0] {
                0.0
            } else {
                self.probs[0]
            };
        }
        for i in 1..self.values.len() {
            if x <= self.values[i] {
                let (v0, v1) = (self.values[i - 1], self.values[i]);
                let (p0, p1) = (self.probs[i - 1], self.probs[i]);
                let w = if v1 > v0 { (x - v0) / (v1 - v0) } else { 1.0 };
                return p0 + w * (p1 - p0);
            }
        }
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::new(7);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_bounded_and_covers() {
        let mut rng = SimRng::new(9);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::new(11);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::new(13);
        let n = 50_000;
        let mean = (0..n).map(|_| rng.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn lognormal_positive() {
        let mut rng = SimRng::new(17);
        for _ in 0..1_000 {
            assert!(rng.lognormal(0.0, 1.5) > 0.0);
        }
    }

    #[test]
    fn zipf_rank_ordering() {
        let zipf = Zipf::new(100, 1.0);
        let mut rng = SimRng::new(23);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // Most popular rank should dominate rank 50 by roughly 50x.
        assert!(counts[0] > counts[49] * 20);
        // PMF sums to ~1.
        let total: f64 = (0..100).map(|k| zipf.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empirical_cdf_quantiles() {
        let cdf = EmpiricalCdf::from_points(&[(0.0, 0.0), (10.0, 0.5), (100.0, 1.0)]);
        assert!((cdf.quantile(0.5) - 10.0).abs() < 1e-9);
        assert!((cdf.quantile(0.25) - 5.0).abs() < 1e-9);
        assert!((cdf.quantile(0.75) - 55.0).abs() < 1e-9);
        assert!((cdf.cdf(10.0) - 0.5).abs() < 1e-9);
        assert_eq!(cdf.cdf(-1.0), 0.0);
        assert_eq!(cdf.cdf(1000.0), 1.0);
    }

    #[test]
    fn empirical_cdf_sampling_matches_anchors() {
        let cdf = EmpiricalCdf::from_points(&[(1.0, 0.0), (2.0, 0.5), (4.0, 1.0)]);
        let mut rng = SimRng::new(31);
        let n = 20_000;
        let below2 = (0..n).filter(|_| cdf.sample(&mut rng) <= 2.0).count();
        let frac = below2 as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(37);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fork_decorrelates() {
        let mut parent = SimRng::new(41);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..32).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }
}
