//! The stable content digest behind every store key.
//!
//! 128-bit FNV-1a over a tagged field stream. FNV is **not**
//! cryptographic — nothing here defends against an adversary crafting
//! collisions — but it is tiny, dependency-free, endian-stable and has
//! a fixed published parameterisation, which is what a *reproducible*
//! cache key needs: the same artifact must digest to the same key on
//! every platform and in every future build, or a store written today
//! silently goes cold tomorrow.
//!
//! Every typed write is prefixed with a one-byte field tag, and
//! variable-length fields with their length, so field streams can never
//! alias each other (`"ab", "c"` digests differently from `"a", "bc"`,
//! and a `u64` can never collide with eight `u8`s).

use std::fmt;

/// FNV-1a 128-bit offset basis (the published standard parameter).
const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime (2^88 + 2^8 + 0x3b).
const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

/// An incremental 128-bit FNV-1a hasher with typed, tagged writes.
///
/// ```
/// use fbist_store::Digest;
///
/// let mut d = Digest::new("example");
/// d.u64(42);
/// d.str("hello");
/// let a = d.finish();
/// // same field stream, same digest — always
/// let mut d = Digest::new("example");
/// d.u64(42);
/// d.str("hello");
/// assert_eq!(a, d.finish());
/// ```
#[derive(Debug, Clone)]
pub struct Digest {
    state: u128,
}

impl Digest {
    /// Starts a digest under a domain name — two digests of identical
    /// fields under different domains never collide by construction.
    pub fn new(domain: &str) -> Digest {
        let mut d = Digest { state: OFFSET };
        d.raw(domain.as_bytes());
        d.raw(&[0xD0]);
        d
    }

    fn raw(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(PRIME);
        }
    }

    fn tagged(&mut self, tag: u8, bytes: &[u8]) {
        self.raw(&[tag]);
        self.raw(bytes);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.tagged(0x01, &[v]);
    }

    /// A `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.tagged(0x02, &v.to_le_bytes());
    }

    /// A `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.tagged(0x03, &v.to_le_bytes());
    }

    /// A `usize`, widened to `u64` so 32- and 64-bit builds agree.
    pub fn usize(&mut self, v: usize) {
        self.tagged(0x04, &(v as u64).to_le_bytes());
    }

    /// A bool.
    pub fn bool(&mut self, v: bool) {
        self.tagged(0x05, &[u8::from(v)]);
    }

    /// A length-prefixed string.
    pub fn str(&mut self, v: &str) {
        self.tagged(0x07, &(v.len() as u64).to_le_bytes());
        self.raw(v.as_bytes());
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.tagged(0x08, &(v.len() as u64).to_le_bytes());
        self.raw(v);
    }

    /// A length-prefixed `u64` slice.
    pub fn u64_slice(&mut self, v: &[u64]) {
        self.tagged(0x09, &(v.len() as u64).to_le_bytes());
        for &x in v {
            self.raw(&x.to_le_bytes());
        }
    }

    /// Finishes, returning the 16 digest bytes.
    pub fn finish(self) -> DigestBytes {
        DigestBytes(self.state.to_le_bytes())
    }
}

/// A finished 16-byte digest — the content-address half of a store key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DigestBytes(pub [u8; 16]);

impl DigestBytes {
    /// Lower-case hex, 32 characters — the on-disk file stem.
    pub fn to_hex(self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.0 {
            use fmt::Write;
            write!(s, "{b:02x}").expect("writing hex to a String cannot fail");
        }
        s
    }
}

impl fmt::Display for DigestBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector_is_stable() {
        // pin the digest of a tiny field stream so an accidental change to
        // the hash parameters or tagging scheme fails loudly: a silent
        // change would orphan every artifact ever written
        let mut d = Digest::new("pin");
        d.u64(1);
        d.str("x");
        let hex = d.finish().to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(hex, "98100510379b82862a5e82f7a75c884f");
    }

    #[test]
    fn domains_separate() {
        let mut a = Digest::new("a");
        a.u64(7);
        let mut b = Digest::new("b");
        b.u64(7);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn adjacent_fields_cannot_alias() {
        let mut a = Digest::new("t");
        a.str("ab");
        a.str("c");
        let mut b = Digest::new("t");
        b.str("a");
        b.str("bc");
        assert_ne!(a.finish(), b.finish());
        let mut a = Digest::new("t");
        a.u8(1);
        a.u8(2);
        let mut b = Digest::new("t");
        b.u32(0x0201);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn slice_length_is_hashed() {
        let mut a = Digest::new("t");
        a.u64_slice(&[0, 0]);
        let mut b = Digest::new("t");
        b.u64_slice(&[0, 0, 0]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hex_is_lower_and_fixed_width() {
        let d = Digest::new("t").finish();
        let hex = d.to_hex();
        assert_eq!(hex.len(), 32);
        assert!(hex
            .chars()
            .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
        assert_eq!(d.to_string(), hex);
    }
}
