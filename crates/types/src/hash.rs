//! The one mixer behind every hash table and every modelled digest in the
//! workspace.
//!
//! The tables dedup integers the protocol produced — transaction ids, block
//! hashes, views, `(node, instant)` wake pairs — so what they need from a
//! hash is spread, not a PRF over arbitrary bytes. [`mix`] folds one 64-bit
//! word into a state with one 64×64→128-bit multiply whose halves are xored
//! (the wyhash/foldhash construction), and [`finish`] folds once more, so
//! both the low bits hashbrown picks a bucket with and the top seven it tags
//! the bucket with depend on every input bit. [`IdHasher`] is that pair as
//! a [`Hasher`]: a derived `Hash` of any integer of up to 64 bits, and of
//! any struct or tuple of them, takes [`IdHasher::write_u64`] directly.
//!
//! The same two functions build the simulated authenticators:
//! `lumiere_crypto::Digest` (statement digests, signature tags, block
//! hashes) and [`crate::Batch::digest64`] fold their fields with [`mix`]
//! from a fixed seed and end with [`finish`]. Those are `const fn`s, so a
//! digest domain is a compile-time constant.
//!
//! Each table ([`IdState::default`]) gets its own random key: a per-thread
//! seed drawn once from std's `RandomState`, advanced by a counter, as std
//! advances its own keys. A peer that does not know a table's key cannot pick
//! ids that collide in it. The fold is not a PRF like SipHash, and a modelled
//! digest, unkeyed, promises only spread: collisions can be computed, as
//! they could for the FNV-1a and splitmix chain it replaced.
//! `docs/RUNTIME.md` ("Hostile input") states what that does and does not
//! promise.

use std::cell::Cell;
use std::hash::{BuildHasher, Hasher, RandomState};

/// The multiplier each word is folded with.
const FOLD: u64 = 0x2d35_8dcc_aa6c_78a5;
/// The multiplier [`finish`] folds the state with.
const FINISH: u64 = 0x8bb8_4b93_962e_acc9;
/// The state an unkeyed modelled digest starts from: the first 64 bits of
/// π's fraction. Any fixed nonzero word serves; zero would hash the empty
/// input to zero.
pub const SEED: u64 = 0x243f_6a88_85a3_08d3;
/// What each new table's key advances by (odd, so keys repeat only after
/// 2⁶⁴ tables on one thread).
const KEY_STEP: u64 = 0x9e37_79b9_7f4a_7c15;

/// The xor of the high and low halves of the 128-bit product `x · k`.
#[inline]
const fn fold(x: u64, k: u64) -> u64 {
    let product = x as u128 * k as u128;
    (product as u64) ^ ((product >> 64) as u64)
}

/// Folds `word` into `state`: one multiply per 64-bit word.
#[inline]
pub const fn mix(state: u64, word: u64) -> u64 {
    fold(state ^ word, FOLD)
}

/// Folds `bytes` into `state` as little-endian 8-byte words, the last one
/// zero-padded: bytes that spell an integer fold as the integer does.
pub const fn mix_bytes(mut state: u64, mut bytes: &[u8]) -> u64 {
    while let Some((word, rest)) = bytes.split_first_chunk::<8>() {
        state = mix(state, u64::from_le_bytes(*word));
        bytes = rest;
    }
    if !bytes.is_empty() {
        let mut word = [0u8; 8];
        word.split_at_mut(bytes.len()).0.copy_from_slice(bytes);
        state = mix(state, u64::from_le_bytes(word));
    }
    state
}

/// The final fold of a state, so every output bit depends on every input
/// bit.
#[inline]
pub const fn finish(state: u64) -> u64 {
    fold(state, FINISH)
}

thread_local! {
    /// The key the next table built on this thread takes.
    static NEXT_KEY: Cell<u64> = Cell::new(RandomState::new().build_hasher().finish());
}

/// A keyed [`BuildHasher`]: every table built with [`IdState::default`]
/// hashes under a key of its own.
#[derive(Clone)]
pub struct IdState {
    key: u64,
}

impl Default for IdState {
    fn default() -> Self {
        let key = NEXT_KEY.with(|next| next.replace(next.get().wrapping_add(KEY_STEP)));
        IdState { key }
    }
}

impl std::fmt::Debug for IdState {
    /// Does not print the key.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IdState").finish_non_exhaustive()
    }
}

impl BuildHasher for IdState {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher { state: self.key }
    }
}

/// The hasher an [`IdState`] builds: one fold per 64-bit word written.
/// Not `Debug`: before its first write, its state is the table's key.
#[derive(Clone)]
pub struct IdHasher {
    state: u64,
}

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.state = mix(self.state, x);
    }

    /// Little-endian 8-byte words, the last one zero-padded: bytes that
    /// spell an integer hash as the integer does.
    fn write(&mut self, bytes: &[u8]) {
        self.state = mix_bytes(self.state, bytes);
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(x.into());
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.write_u64(x.into());
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(x.into());
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        finish(self.state)
    }
}

/// A `HashMap` hashed by [`IdState`]: build it with `IdMap::default()`.
#[allow(clippy::disallowed_types)]
pub type IdMap<K, V> = std::collections::HashMap<K, V, IdState>;

/// A `HashSet` hashed by [`IdState`]: build it with `IdSet::default()`.
#[allow(clippy::disallowed_types)]
pub type IdSet<K> = std::collections::HashSet<K, IdState>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TxId;
    use std::hash::Hash;

    #[test]
    fn the_const_mixer_is_the_run_time_one() {
        const WORDS: u64 = finish(mix(mix(SEED, 7), u64::MAX));
        const BYTES: u64 = mix_bytes(SEED, b"eleven byte");
        use std::hint::black_box;
        let (seed, max) = (black_box(SEED), black_box(u64::MAX));
        assert_eq!(WORDS, finish(mix(mix(seed, black_box(7)), max)));
        assert_eq!(BYTES, mix_bytes(seed, black_box(b"eleven byte")));
    }

    #[test]
    fn fresh_states_hash_one_id_differently() {
        let (a, b) = (IdState::default(), IdState::default());
        assert_ne!(a.hash_one(TxId::new(7)), b.hash_one(TxId::new(7)));
        assert_eq!(a.hash_one(TxId::new(7)), a.clone().hash_one(TxId::new(7)));
    }

    #[test]
    fn bytes_hash_as_the_integer_they_spell() {
        let state = IdState::default();
        for x in [0, 1, 0xdead_beef, 1 << 63, u64::MAX] {
            let mut bytes = state.build_hasher();
            bytes.write(&x.to_le_bytes());
            let mut word = state.build_hasher();
            word.write_u64(x);
            assert_eq!(bytes.finish(), word.finish(), "{x:#x}");
            assert_eq!(state.hash_one(TxId::new(x)), word.finish());
        }
        // A short tail is one zero-padded word.
        let mut tail = state.build_hasher();
        tail.write(&[0xab, 0xcd]);
        assert_eq!(tail.finish(), state.hash_one(0xcdab_u16));
    }

    /// Buckets filled out of `keys.len()` (hashbrown's low bits), and
    /// whether every top-7-bit tag occurs.
    fn spread<T: Hash>(state: &IdState, keys: &[T]) -> (f64, bool) {
        let buckets = keys.len() as u64;
        assert!(buckets.is_power_of_two());
        let mut filled = IdSet::default();
        let mut tags = [false; 128];
        for key in keys {
            let h = state.hash_one(key);
            filled.insert(h & (buckets - 1));
            tags[(h >> 57) as usize] = true;
        }
        (
            filled.len() as f64 / buckets as f64,
            tags.iter().all(|&t| t),
        )
    }

    /// 4 096 keys of each shape the tables see fill at least 60 % of 4 096
    /// buckets (63.2 % is what a random function fills) and every tag,
    /// under each of 20 fresh keys. Folding without `finish`'s second fold
    /// fails: strided ids then fill 38 %.
    #[test]
    fn every_id_family_spreads_like_a_random_hash() {
        const KEYS: u64 = 4_096;
        let sequential: Vec<u64> = (0..KEYS).collect();
        let strided: Vec<(u32, Vec<u64>)> = (0..=52)
            .map(|k| (k, (0..KEYS).map(|i| i << k).collect()))
            .collect();
        // The live driver's ids: the node id above bit 40, a counter below.
        let driver: Vec<u64> = (0..KEYS).map(|i| ((i % 16 + 1) << 40) | (i / 16)).collect();
        // The simulator's wake pairs: 16 nodes at instants 1 ms apart.
        let wakes: Vec<(usize, i64)> = (0..KEYS)
            .map(|i| ((i % 16) as usize, (i / 16) as i64 * 1_000))
            .collect();
        let mut worst = 1.0f64;
        for _ in 0..20 {
            let state = IdState::default();
            let mut check = |family: &str, (fill, all_tags): (f64, bool)| {
                worst = worst.min(fill);
                assert!(fill >= 0.60, "{family}: {:.1} % of buckets", 100.0 * fill);
                assert!(all_tags, "{family}: a top-7-bit tag never occurs");
            };
            check("sequential", spread(&state, &sequential));
            for (k, ids) in &strided {
                check(&format!("i << {k}"), spread(&state, ids));
            }
            check("driver", spread(&state, &driver));
            check("wakes", spread(&state, &wakes));
        }
        eprintln!("worst bucket fill: {:.1} %", 100.0 * worst);
    }
}
