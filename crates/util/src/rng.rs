//! Deterministic pseudo-random number generation.
//!
//! A self-contained xoshiro256\*\* generator seeded through SplitMix64. All
//! randomized components in the workspace (Monte-Carlo simulation, synthetic
//! data generation, trivalency assignment, perturbation) take an explicit
//! [`Rng`] or a `u64` seed so that every experiment is reproducible
//! bit-for-bit, independent of platform or process layout.

/// xoshiro256\*\* pseudo-random number generator.
///
/// Period 2^256 − 1, passes BigCrush; the reference generator of Blackman &
/// Vigna. Not cryptographically secure — it drives simulations, not secrets.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed (expanded with SplitMix64).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Rng { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Uniform integer in `[0, bound)`. `bound` must be nonzero.
    ///
    /// Uses Lemire's multiply-shift rejection method (unbiased).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` index in `[0, bound)`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Exponentially distributed sample with the given mean (`mean > 0`).
    #[inline]
    pub fn exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Inverse CDF; 1 - f64() is in (0, 1], so ln is finite.
        -mean * (1.0 - self.f64()).ln()
    }

    /// Poisson-distributed sample with the given mean (Knuth's method;
    /// intended for small λ — cost is O(λ)).
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        debug_assert!(lambda >= 0.0);
        if lambda <= 0.0 {
            return 0;
        }
        let limit = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.f64();
            if p <= limit {
                return k;
            }
            k += 1;
        }
    }

    /// Standard normal sample (Box–Muller; one of the pair is discarded to
    /// keep the generator stateless beyond its 256-bit core).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = 1.0 - self.f64();
        let u2 = self.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Reservoir-samples `k` distinct indices from `[0, n)`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        let mut reservoir: Vec<usize> = (0..k).collect();
        for i in k..n {
            let j = self.index(i + 1);
            if j < k {
                reservoir[j] = i;
            }
        }
        reservoir
    }
}

/// Zipf-distributed integer sampler over `{1, …, n}` with exponent `s`.
///
/// Built once (O(n) table) and sampled in O(log n) by binary-searching the
/// CDF. Propagation-trace sizes and initiator counts in real logs are
/// heavy-tailed, which this reproduces in the synthetic generator.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a sampler over `{1, …, n}` with exponent `s ≥ 0`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf support must be nonempty");
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

    /// Draws a sample in `{1, …, n}`.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) | Err(i) => (i + 1).min(self.cdf.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut rng = Rng::seed_from_u64(42);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut rng = Rng::seed_from_u64(3);
        let mut counts = [0usize; 7];
        for _ in 0..70_000 {
            counts[rng.below(7) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as i64 - 10_000).abs() < 600, "counts = {counts:?}");
        }
    }

    #[test]
    fn exp_has_requested_mean() {
        let mut rng = Rng::seed_from_u64(11);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.exp(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn poisson_mean_and_degenerate_cases() {
        let mut rng = Rng::seed_from_u64(17);
        let n = 30_000;
        let mean: f64 = (0..n).map(|_| rng.poisson(2.5) as f64).sum::<f64>() / n as f64;
        assert!((mean - 2.5).abs() < 0.05, "mean = {mean}");
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::seed_from_u64(13);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.2, "var = {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = Rng::seed_from_u64(9);
        let picked = rng.sample_indices(1000, 50);
        assert_eq!(picked.len(), 50);
        let set: std::collections::HashSet<_> = picked.iter().collect();
        assert_eq!(set.len(), 50);
        assert!(picked.iter().all(|&i| i < 1000));
    }

    #[test]
    fn sample_indices_clamps_k() {
        let mut rng = Rng::seed_from_u64(9);
        assert_eq!(rng.sample_indices(3, 10).len(), 3);
    }

    #[test]
    fn zipf_is_heavy_headed() {
        let zipf = Zipf::new(100, 2.0);
        let mut rng = Rng::seed_from_u64(21);
        let mut ones = 0;
        let n = 10_000;
        for _ in 0..n {
            let s = zipf.sample(&mut rng);
            assert!((1..=100).contains(&s));
            if s == 1 {
                ones += 1;
            }
        }
        // P(1) = 1/zeta_100(2) ≈ 0.62 for s=2.
        assert!(ones > n / 2, "ones = {ones}");
    }
}
