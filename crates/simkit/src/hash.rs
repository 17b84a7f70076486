//! The workspace's two deterministic, dependency-free hash primitives.
//!
//! - [`fnv1a`]: streaming FNV-1a-64, the byte-identity digest behind
//!   every determinism witness (engine transcripts, trace exports,
//!   broker table digests) and the label hash that seeds per-target
//!   fault streams.
//! - [`mix64`]: the SplitMix64 output function, the bit mixer behind
//!   [`DetRng`](crate::DetRng) seeding, trace ids and retry jitter.

/// FNV-1a-64 offset basis: the digest of no bytes, and the state every
/// [`fnv1a`] fold starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// SplitMix64's increment (the 64-bit golden ratio).
pub(crate) const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folds `bytes` into the running FNV-1a-64 state `h`. Folding two
/// slices in turn equals folding their concatenation.
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// SplitMix64's output for state `x`: `x` advanced by the golden
/// gamma, then finalised.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(mix64(0), 0xe220_a839_7b1d_cdaf);
    }
}
