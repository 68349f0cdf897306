//! The benchmark's own input generation (the `bench` layer): a seeded
//! SplitMix64 stream, a YCSB-style Zipfian key generator, and the op-mix
//! draw.  Every input of a run derives from `--seed`, so the same seed gives
//! the same key and op sequence on every worker.

/// SplitMix64: one add and three xor-shift-multiplies per draw.
pub struct Rng(u64);

impl Rng {
    /// A stream for one (`seed`, `stream`) pair; distinct streams of one seed
    /// (the workers, the prefill) are decorrelated through the mixer.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5851_f42d_4c95_7f2d))))
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, n)` by widening multiply (Lemire), no division.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The SplitMix64 finalizer; also the value stamp of a key.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Zipfian ranks over `[0, n)` (Gray et al., "Quickly generating
/// billion-record synthetic databases", as used by YCSB): rank 0 is the
/// hottest key.  Set-up is one O(n) pass for `zeta(n)`.
pub struct Zipf {
    n: f64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(
            n >= 2 && theta > 0.0 && theta < 1.0,
            "Zipf needs n >= 2 and 0 < theta < 1"
        );
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let nf = n as f64;
        Zipf {
            n: nf,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / nf).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n as u64 - 1)
    }
}

/// How keys are drawn from `[0, range)`.
pub enum KeyDist {
    Uniform,
    Zipf(Zipf),
}

/// One operation of the closed loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Read,
    Insert,
    Remove,
    Scan,
}

/// Op-mix percentages; they sum to 100.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub read: u64,
    pub insert: u64,
    pub remove: u64,
    pub scan: u64,
}

impl Mix {
    #[inline]
    pub fn draw(&self, rng: &mut Rng) -> Op {
        debug_assert_eq!(self.read + self.insert + self.remove + self.scan, 100);
        let r = rng.below(100);
        if r < self.read {
            Op::Read
        } else if r < self.read + self.insert {
            Op::Insert
        } else if r < self.read + self.insert + self.remove {
            Op::Remove
        } else {
            Op::Scan
        }
    }
}

/// A worker's input stream: op type plus key.
pub struct KeyGen<'a> {
    rng: Rng,
    range: u64,
    dist: &'a KeyDist,
    mix: Mix,
}

impl<'a> KeyGen<'a> {
    pub fn new(seed: u64, stream: u64, range: u64, dist: &'a KeyDist, mix: Mix) -> Self {
        KeyGen {
            rng: Rng::new(seed, stream),
            range,
            dist,
            mix,
        }
    }

    #[inline]
    pub fn key(&mut self) -> u64 {
        match self.dist {
            KeyDist::Uniform => self.rng.below(self.range),
            KeyDist::Zipf(z) => z.sample(&mut self.rng),
        }
    }

    #[inline]
    pub fn next(&mut self) -> (Op, u64) {
        let op = self.mix.draw(&mut self.rng);
        (op, self.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> Vec<(Op, u64)> {
        let dist = KeyDist::Uniform;
        let mix = Mix {
            read: 50,
            insert: 25,
            remove: 25,
            scan: 0,
        };
        let mut g = KeyGen::new(seed, 0, 1 << 20, &dist, mix);
        (0..1000).map(|_| g.next()).collect()
    }

    #[test]
    fn same_seed_same_sequence_different_seed_differs() {
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
        let (mut a, mut b) = (Rng::new(7, 0), Rng::new(7, 1));
        assert_ne!(
            (0..16).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..16).map(|_| b.next_u64()).collect::<Vec<_>>(),
            "worker streams of one seed must differ"
        );
    }

    #[test]
    fn op_mix_proportions_hold() {
        let mix = Mix {
            read: 30,
            insert: 10,
            remove: 10,
            scan: 50,
        };
        let mut rng = Rng::new(42, 3);
        let n = 1_000_000;
        let mut counts = [0u64; 4];
        for _ in 0..n {
            counts[mix.draw(&mut rng) as usize] += 1;
        }
        for (got, want) in counts.iter().zip([30.0, 10.0, 10.0, 50.0]) {
            let pct = 100.0 * *got as f64 / n as f64;
            assert!((pct - want).abs() < 0.3, "share {pct:.2}% vs {want}%");
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let n = 65_536;
        let z = Zipf::new(n, 0.99);
        let mut rng = Rng::new(1, 0);
        let draws = 200_000;
        let mut hot = 0;
        for _ in 0..draws {
            let k = z.sample(&mut rng);
            assert!(k < n);
            hot += u64::from(k < 64);
        }
        // theta = 0.99 puts roughly 40% of the mass on the hottest 0.1%.
        let share = hot as f64 / draws as f64;
        assert!(share > 0.3 && share < 0.6, "hot share {share}");
    }

    #[test]
    fn uniform_below_stays_in_range() {
        let mut rng = Rng::new(9, 9);
        assert!((0..10_000).all(|_| rng.below(1024) < 1024));
    }
}
