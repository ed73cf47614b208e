//! The benchmark's own seeded generator (splitmix64). Request contents,
//! weight seeds, the traced replay subset and the checked samples are pure
//! functions of `--seed`; the program under test only ever sees the
//! generated values.

/// A splitmix64 stream.
pub struct Rng(u64);

impl Rng {
    /// The stream `stream` of seed `seed`: distinct streams of one seed
    /// are independent, and equal arguments give equal streams.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-0.5, 0.5)`: inside the Q4.12 range with headroom, so
    /// functional outputs stay comparable against the f32 reference.
    pub fn value(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32 / (1u64 << 24) as f32) - 0.5
    }

    pub fn values(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.value()).collect()
    }

    /// `k` distinct indices below `n`, ascending.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        let k = k.min(n);
        for i in 0..k {
            let j = i + (self.next_u64() % (n - i) as u64) as usize;
            all.swap(i, j);
        }
        let mut picked = all[..k].to_vec();
        picked.sort_unstable();
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::Rng;

    #[test]
    fn streams_repeat_and_differ() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c = Rng::new(7, 2).next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
    }

    #[test]
    fn sample_is_distinct_sorted_and_in_range() {
        let s = Rng::new(3, 0).sample(50, 10);
        assert_eq!(s.len(), 10);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.iter().all(|&i| i < 50));
    }
}
