//! Seeded operation streams.

/// SplitMix64: a small, fast generator whose stream is a pure function
/// of its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `(seed, client, phase)`: every client of every
    /// measured phase draws its own reproducible stream.
    pub fn stream(seed: u64, client: usize, phase: u64) -> Rng {
        let mut r = Rng(seed ^ 0x9E37_79B9_7F4A_7C15);
        let a = r.next_u64() ^ (client as u64).wrapping_mul(0xA076_1D64_78BD_642F);
        let mut r = Rng(a);
        let b = r.next_u64() ^ phase.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        Rng(b)
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n >= 1`; multiply-shift, bias below 2^-32
    /// for the sizes used here).
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform percentage roll in `0..100`.
    #[inline]
    pub fn percent(&mut self) -> u32 {
        self.below(100) as u32
    }
}
