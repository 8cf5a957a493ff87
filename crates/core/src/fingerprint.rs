//! Stable content fingerprints for the sweep engine's result cache.
//!
//! The harness memoizes finished experiment cells on disk, keyed by a
//! fingerprint of everything that determines the cell's result: the
//! simulator configuration, the built kernel, the workload inputs, and
//! a schema version. The hash must therefore be **stable across
//! processes and builds** — `std::hash` explicitly is not (SipHash
//! with random keys), so this module implements 64-bit FNV-1a, whose
//! output is fixed by the algorithm alone.
//!
//! Collisions are a non-issue at this scale: a paper regeneration is a
//! few thousand cells against a 64-bit space, and a collision merely
//! serves a stale result that the determinism tests would catch.
//!
//! [`WordHash`] is the in-memory companion for hashing many words fast:
//! the model checker's state dedup key. It is just as deterministic
//! (fixed constants, no random keys) but absorbs a whole `u64` per
//! multiply instead of a byte, and its values are never written to disk
//! or compared across versions, so it is free to differ from FNV.

/// Incremental 64-bit FNV-1a hasher.
///
/// ```
/// use sbrp_core::fingerprint::Fingerprint;
///
/// let mut fp = Fingerprint::new();
/// fp.write_str("figure6");
/// fp.write_u64(4096);
/// let a = fp.finish();
///
/// // Same input, same hash — in any process, on any platform.
/// let mut fp2 = Fingerprint::new();
/// fp2.write_str("figure6");
/// fp2.write_u64(4096);
/// assert_eq!(a, fp2.finish());
/// assert_eq!(Fingerprint::hex(a).len(), 16);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// Creates a hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fingerprint { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a string, length-prefixed so `("ab","c")` and
    /// `("a","bc")` hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs an `f64` via its bit pattern (exact, not rounded).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The 64-bit digest.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }

    /// Fixed-width lowercase-hex rendering of a digest — the cache's
    /// file-name form.
    #[must_use]
    pub fn hex(digest: u64) -> String {
        format!("{digest:016x}")
    }
}

/// Word-at-a-time 64-bit hasher for in-memory dedup keys.
///
/// Each word is folded into the state with one 64×64→128-bit multiply
/// by a fixed odd constant, xoring the two halves of the product (the
/// "folded multiply" of wyhash and foldhash). Unlike [`Fingerprint`],
/// which pays eight dependent multiplies per word, this costs one; a
/// one-bit change in any word moves about half the output bits.
///
/// The output depends only on the words written and their order, so it
/// is reproducible across runs, processes and `--jobs` values. It is
/// not a stable on-disk format: cache keys and golden digests use
/// [`Fingerprint`].
///
/// ```
/// use sbrp_core::fingerprint::WordHash;
///
/// let digest = |words: &[u64]| {
///     let mut h = WordHash::new();
///     for &w in words {
///         h.write_u64(w);
///     }
///     h.finish()
/// };
/// assert_eq!(digest(&[1, 2]), digest(&[1, 2]));
/// assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
/// assert_ne!(digest(&[0]), digest(&[0, 0]));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct WordHash {
    state: u64,
}

/// Initial state (the fractional digits of π), so leading zero words
/// are not absorbed into a zero state.
const WORD_SEED: u64 = 0x243f_6a88_85a3_08d3;
/// Odd multiplier (2⁶⁴ divided by the golden ratio).
const WORD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

impl Default for WordHash {
    fn default() -> Self {
        Self::new()
    }
}

impl WordHash {
    /// Creates a hasher at its fixed seed.
    #[must_use]
    pub fn new() -> Self {
        WordHash { state: WORD_SEED }
    }

    /// Absorbs one word.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        let product = u128::from(self.state ^ v) * u128::from(WORD_MUL);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }

    /// The 64-bit digest.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_fnv1a_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        let digest = |s: &str| {
            let mut fp = Fingerprint::new();
            fp.write_bytes(s.as_bytes());
            fp.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn length_prefix_separates_concatenations() {
        let mut a = Fingerprint::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fingerprint::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn word_hash_is_fixed_and_order_sensitive() {
        let digest = |words: &[u64]| {
            let mut h = WordHash::new();
            for &w in words {
                h.write_u64(w);
            }
            h.finish()
        };
        // Pinned: the value depends on the constants alone.
        assert_eq!(digest(&[]), WORD_SEED);
        assert_eq!(digest(&[7, 8]), digest(&[7, 8]));
        assert_ne!(digest(&[7, 8]), digest(&[8, 7]));
        // A one-bit change anywhere moves about half the output bits.
        let base = digest(&[1, 2, 3, 4]);
        for (i, bit) in [(0, 0), (1, 63), (2, 31), (3, 17)] {
            let mut words = [1u64, 2, 3, 4];
            words[i] ^= 1 << bit;
            let flipped = (digest(&words) ^ base).count_ones();
            assert!(
                (12..=52).contains(&flipped),
                "word {i} bit {bit}: {flipped}"
            );
        }
    }

    #[test]
    fn hex_is_fixed_width() {
        assert_eq!(Fingerprint::hex(0), "0000000000000000");
        assert_eq!(Fingerprint::hex(u64::MAX), "ffffffffffffffff");
    }
}
