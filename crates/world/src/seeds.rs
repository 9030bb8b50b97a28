//! Deterministic seed derivation.
//!
//! Every stochastic component in the workspace takes a seed; deriving them
//! ad hoc (`master + 7`, `master * 31 + i`) invites collisions where two
//! components accidentally share a random stream and become correlated.
//! [`derive()`] hashes a master seed with a stream label into an independent
//! 64-bit seed (FNV-1a, good enough for stream separation — this is not a
//! cryptographic domain separator).
//!
//! # Examples
//!
//! ```
//! use pmware_world::seeds;
//!
//! let master = 2014;
//! let radio = seeds::derive(master, "radio");
//! let agents = seeds::derive(master, "agents");
//! assert_ne!(radio, agents);
//! // Deterministic:
//! assert_eq!(radio, seeds::derive(master, "radio"));
//! ```

/// Derives an independent seed for `stream` from a master seed.
pub fn derive(master: u64, stream: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for byte in master.to_le_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(PRIME);
    }
    for byte in stream.as_bytes() {
        hash ^= *byte as u64;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Derives an indexed seed (e.g. one per participant) for `stream`.
pub fn derive_indexed(master: u64, stream: &str, index: u64) -> u64 {
    derive(derive(master, stream), &index.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn streams_are_independent() {
        let master = 42;
        let a = derive(master, "alpha");
        let b = derive(master, "beta");
        assert_ne!(a, b);
        assert_ne!(derive(1, "alpha"), derive(2, "alpha"));
    }

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(derive(7, "x"), derive(7, "x"));
        assert_eq!(derive_indexed(7, "x", 3), derive_indexed(7, "x", 3));
    }

    #[test]
    fn indexed_seeds_do_not_collide_in_practice() {
        let mut seen = HashSet::new();
        for master in 0..20u64 {
            for i in 0..50u64 {
                assert!(
                    seen.insert(derive_indexed(master, "participant", i)),
                    "collision at master={master} i={i}"
                );
            }
        }
    }

    #[test]
    fn label_prefixes_do_not_alias() {
        // "ab" + c vs "a" + "bc" style aliasing.
        assert_ne!(derive(0, "abc"), derive(0, "ab"));
        assert_ne!(derive_indexed(0, "s", 12), derive_indexed(0, "s1", 2));
    }
}
