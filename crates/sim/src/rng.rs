//! Deterministic random number generation for simulations.
//!
//! Every experiment run is seeded explicitly so results are reproducible; the
//! experiment harness derives per-repetition seeds from a base seed, exactly
//! like the paper repeats each configuration 20 times.
//!
//! The generator is a self-contained xoshiro256++ seeded through SplitMix64.
//! It has a stable output stream across platforms and Rust versions (no
//! external crates, no hash randomisation), so golden-value tests do not
//! depend on the host.

/// A seeded, reproducible random number generator (xoshiro256++).
#[derive(Clone, Debug)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

#[inline]
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { state, seed }
    }

    /// Derives an independent child generator; `stream` distinguishes
    /// subsystems (e.g. workload generation vs. placement decisions) so adding
    /// randomness in one place does not perturb the others.
    pub fn derive(&self, stream: u64) -> SimRng {
        SimRng::new(self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniformly random index in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample an index from an empty range");
        // Lemire-style widening multiply avoids modulo bias for all practical
        // range sizes while staying branch-light on the hot path.
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Samples a uniform value in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        // 53 high-quality bits map exactly onto the f64 mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` of returning true.
    pub fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        let p = p.clamp(0.0, 1.0);
        if p >= 1.0 {
            return true;
        }
        self.unit() < p
    }

    /// Samples from an exponential distribution with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0);
        // 1 - unit() lies in (0, 1], so the logarithm is always finite.
        -mean * (1.0 - self.unit()).ln()
    }

    /// Samples from a bounded Pareto distribution (shape `alpha`, bounds
    /// `[lo, hi]`), the classic heavy-tailed model for MapReduce job sizes.
    pub fn bounded_pareto(&mut self, alpha: f64, lo: f64, hi: f64) -> f64 {
        assert!(alpha > 0.0 && lo > 0.0 && hi > lo);
        let u = self.unit();
        let la = lo.powf(alpha);
        let ha = hi.powf(alpha);
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
    }

    /// Picks a uniformly random element of a slice, or `None` if it is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let idx = self.index(items.len());
            Some(&items[idx])
        }
    }

    /// Fisher–Yates shuffle of a mutable slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should diverge");
    }

    #[test]
    fn derived_streams_are_independent_but_deterministic() {
        let base = SimRng::new(7);
        let mut c1 = base.derive(1);
        let mut c2 = base.derive(1);
        let mut c3 = base.derive(2);
        assert_eq!(c1.next_u64(), c2.next_u64());
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn unit_and_chance_bounds() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn index_is_in_range_and_covers_the_range() {
        let mut r = SimRng::new(5);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let i = r.index(8);
            seen[i] = true;
        }
        assert!(
            seen.iter().all(|s| *s),
            "all indices should occur: {seen:?}"
        );
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SimRng::new(11);
        let n = 20_000;
        let mean = 5.0;
        let total: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let empirical = total / n as f64;
        assert!(
            (empirical - mean).abs() < 0.25,
            "empirical mean {empirical}"
        );
    }

    #[test]
    fn bounded_pareto_respects_bounds() {
        let mut r = SimRng::new(17);
        for _ in 0..5000 {
            let x = r.bounded_pareto(1.1, 1.0, 1000.0);
            assert!(
                (1.0..=1000.0 + 1e-6).contains(&x),
                "sample {x} escaped the bounds"
            );
        }
    }

    #[test]
    fn pick_and_shuffle() {
        let mut r = SimRng::new(19);
        let empty: [u32; 0] = [];
        assert!(r.pick(&empty).is_none());
        let items = [1, 2, 3];
        assert!(items.contains(r.pick(&items).unwrap()));
        let mut v: Vec<u32> = (0..100).collect();
        let orig = v.clone();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig, "shuffle must be a permutation");
        assert_ne!(v, orig, "shuffle of 100 elements should not be identity");
    }
}
