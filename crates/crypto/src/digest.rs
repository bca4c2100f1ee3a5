//! Deterministic 64-bit message digests.
//!
//! Protocol messages are summarised by a domain-separated 64-bit digest: the
//! workspace's one word mixer ([`lumiere_types::hash::mix`]) folds each
//! field, one multiply per 64-bit word, and [`lumiere_types::hash::finish`]
//! ends it. Sixty-four bits is plenty for a simulation (collisions would
//! require ~2³² distinct statements per run) and keeps every certificate
//! `Copy`. The digest models spread, not a PRF: it is unkeyed, and inputs
//! that collide can be computed.

use lumiere_types::hash;
use lumiere_types::wire::{put_u64, Reader, Wire, WireError};
use std::fmt;

/// Finalised digest value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DigestValue(pub u64);

impl DigestValue {
    /// Raw 64-bit value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

/// Wire form: the 64-bit value (8 bytes).
impl Wire for DigestValue {
    fn encoded_len(&self) -> usize {
        8
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.0);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u64("DigestValue").map(DigestValue)
    }
}

impl fmt::Display for DigestValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Incremental digest builder with domain separation.
///
/// Every method is a `const fn`, so a domain's prefix is a constant: the
/// domain string is mixed once, at compile time, and each digest starts
/// from the result.
///
/// ```
/// use lumiere_crypto::Digest;
/// const VOTE: Digest = Digest::new(b"vote");
/// let a = VOTE.push_i64(3).push_u64(9).finish();
/// let b = VOTE.push_i64(3).push_u64(9).finish();
/// let c = VOTE.push_u64(9).push_i64(3).finish();
/// assert_eq!(a, b);
/// assert_ne!(a, c); // order matters
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    state: u64,
}

impl Digest {
    /// Starts a digest in the given domain (e.g. `b"view-msg"`). Distinct
    /// domains never collide for the same field sequence.
    pub const fn new(domain: &[u8]) -> Self {
        let mut d = Digest { state: hash::SEED };
        d.mix_bytes(domain);
        d.mix_u64(0x00d0_aa11_5e9a_7a7e);
        d
    }

    const fn mix_u64(&mut self, value: u64) {
        self.state = hash::mix(self.state, value);
    }

    /// Zero-padded 8-byte words, then the length, so field boundaries
    /// matter.
    const fn mix_bytes(&mut self, bytes: &[u8]) {
        self.state = hash::mix_bytes(self.state, bytes);
        self.mix_u64(bytes.len() as u64);
    }

    /// Appends an unsigned 64-bit field.
    #[must_use]
    pub const fn push_u64(mut self, value: u64) -> Self {
        self.mix_u64(value);
        self
    }

    /// Appends a signed 64-bit field.
    #[must_use]
    pub const fn push_i64(mut self, value: i64) -> Self {
        self.mix_u64(value as u64);
        self
    }

    /// Appends a byte-string field.
    #[must_use]
    pub const fn push_bytes(mut self, bytes: &[u8]) -> Self {
        self.mix_bytes(bytes);
        self
    }

    /// Finalises the digest.
    pub const fn finish(self) -> DigestValue {
        DigestValue(hash::finish(self.state))
    }
}

/// The domain of [`combine`].
const COMBINE: Digest = Digest::new(b"combine");

/// Convenience helper: hash two 64-bit values (used for chaining block
/// hashes and combining partial signatures).
pub fn combine(a: u64, b: u64) -> u64 {
    COMBINE.push_u64(a).push_u64(b).finish().0
}

/// A one-entry memo of a digest function: the last key asked for and its
/// digest.
///
/// A leader's quorum of votes for one block reaches it together, so a
/// leader that keeps the last digest derives it once per block, not once
/// per vote. A different key replaces the entry.
#[derive(Debug, Clone)]
pub struct LastDigest<K> {
    of: fn(K) -> DigestValue,
    last: Option<(K, DigestValue)>,
}

impl<K: Copy + PartialEq> LastDigest<K> {
    /// An empty memo of `of`.
    pub fn new(of: fn(K) -> DigestValue) -> Self {
        LastDigest { of, last: None }
    }

    /// `of(key)`, computed only when `key` is not the last key asked for.
    pub fn get(&mut self, key: K) -> DigestValue {
        match self.last {
            Some((last, digest)) if last == key => digest,
            _ => {
                let digest = (self.of)(key);
                self.last = Some((key, digest));
                digest
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumiere_types::hash::IdSet;
    use proptest::prelude::*;

    #[test]
    fn identical_inputs_give_identical_digests() {
        let a = Digest::new(b"x").push_i64(1).push_u64(2).finish();
        let b = Digest::new(b"x").push_i64(1).push_u64(2).finish();
        assert_eq!(a, b);
    }

    #[test]
    fn domains_separate() {
        let a = Digest::new(b"x").push_i64(1).finish();
        let b = Digest::new(b"y").push_i64(1).finish();
        assert_ne!(a, b);
    }

    #[test]
    fn field_boundaries_matter() {
        let a = Digest::new(b"x")
            .push_bytes(b"ab")
            .push_bytes(b"c")
            .finish();
        let b = Digest::new(b"x")
            .push_bytes(b"a")
            .push_bytes(b"bc")
            .finish();
        assert_ne!(a, b);
    }

    #[test]
    fn nearby_integers_spread_out() {
        let mut seen = IdSet::default();
        for i in 0..10_000i64 {
            seen.insert(Digest::new(b"spread").push_i64(i).finish().as_u64());
        }
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn the_const_domain_is_the_run_time_one() {
        assert_eq!(COMBINE, Digest::new(std::hint::black_box(b"combine")));
    }

    #[test]
    fn combine_is_order_sensitive() {
        assert_ne!(combine(1, 2), combine(2, 1));
        assert_eq!(combine(7, 9), combine(7, 9));
    }

    #[test]
    fn the_last_digest_is_the_functions_and_is_computed_once_per_key_run() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        fn of(x: i64) -> DigestValue {
            CALLS.fetch_add(1, Ordering::Relaxed);
            Digest::new(b"last").push_i64(x).finish()
        }
        let reference = |x: i64| Digest::new(b"last").push_i64(x).finish();
        let mut memo = LastDigest::new(of);
        for x in [3, 3, 3, 4, 3, -1, -1, 4] {
            assert_eq!(memo.get(x), reference(x));
        }
        // One computation per run of equal keys: 3, 4, 3, -1, 4.
        assert_eq!(CALLS.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn display_is_hex() {
        let d = DigestValue(0xabcd);
        assert_eq!(d.to_string(), "000000000000abcd");
    }

    proptest! {
        #[test]
        fn digest_is_deterministic(domain in proptest::collection::vec(any::<u8>(), 0..16),
                                    fields in proptest::collection::vec(any::<i64>(), 0..8)) {
            let mut a = Digest::new(&domain);
            let mut b = Digest::new(&domain);
            for &f in &fields {
                a = a.push_i64(f);
                b = b.push_i64(f);
            }
            prop_assert_eq!(a.finish(), b.finish());
        }

        #[test]
        fn different_last_field_changes_digest(prefix in proptest::collection::vec(any::<i64>(), 0..6),
                                               x in any::<i64>(), y in any::<i64>()) {
            prop_assume!(x != y);
            let mut a = Digest::new(b"p");
            let mut b = Digest::new(b"p");
            for &f in &prefix {
                a = a.push_i64(f);
                b = b.push_i64(f);
            }
            prop_assert_ne!(a.push_i64(x).finish(), b.push_i64(y).finish());
        }
    }
}
