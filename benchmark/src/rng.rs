//! Deterministic random numbers and the inputs digest.
//!
//! Own copies (not `sqlshare-bench`'s) so that edits to `crates/bench`
//! cannot move the benchmark's inputs.

/// xorshift64* — small, fast, and reproducible from a seed.
pub struct XorShift(u64);

impl XorShift {
    /// A generator for one named sub-stream of `seed`, so that adding a
    /// draw to one part of a workload does not shift every other part.
    pub fn new(seed: u64, stream: u64) -> XorShift {
        // splitmix64 over (seed, stream): never zero after the `| 1`.
        let mut z = seed
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over every generated op and every uploaded byte. Two runs
/// whose digests differ did not run the same inputs and are not
/// comparable.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Length terminator: ("ab","c") and ("a","bc") must differ.
        self.0 ^= bytes.len() as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
