//! FNV-1a, 64-bit: the one byte hasher behind replay fingerprints,
//! stream shard placement and resident-dataset content ids.
//!
//! Every digest it feeds is pinned by a golden test, so the constants and
//! the byte order of [`Fnv1a::write_u64`] never change.

/// The standard FNV-1a-64 offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a-64 hash state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the standard offset basis.
    pub const fn new() -> Fnv1a {
        Fnv1a(OFFSET_BASIS)
    }

    /// A hasher starting from `basis` instead of the standard one.
    pub const fn with_basis(basis: u64) -> Fnv1a {
        Fnv1a(basis)
    }

    /// Folds in one byte.
    pub fn write_u8(&mut self, byte: u8) {
        self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(PRIME);
    }

    /// Folds in `bytes` in order.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Folds in `v` as its eight little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds in the bit pattern of `v`.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The digest so far.
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// FNV-1a-64 of `bytes` at the standard basis.
pub fn hash(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn words_hash_as_their_little_endian_bytes() {
        let mut h = Fnv1a::new();
        h.write_u64(0x0102_0304_0506_0708);
        assert_eq!(h.finish(), hash(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }
}
