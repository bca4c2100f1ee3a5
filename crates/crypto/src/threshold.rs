//! Threshold signatures: a constant-size aggregate proof plus a fixed-width
//! signer bitmap, with processor-count quorum tallies.

use crate::digest::DigestValue;
use crate::signature::Signature;
use lumiere_types::wire::{put_u32, put_u64, Reader, Wire, WireError};
use lumiere_types::{Error, ProcessId, Result, StakeTable};
use std::fmt;

/// A fixed-width bitmap identifying the distinct signers of an aggregate.
///
/// The bitmap always spans the *whole* system: `⌈n/64⌉` 64-bit words for an
/// `n`-processor system, regardless of how many signers actually
/// contributed. Its wire footprint is therefore a function of `n` alone
/// (`n/8` bytes, rounded up to a word), which is what makes aggregated
/// certificates constant-size in the number of *signers* and only
/// logarithmically heavier than `O(κ)` in practice.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SignerBitmap {
    words: Vec<u64>,
}

impl SignerBitmap {
    /// An empty bitmap sized for an `n`-processor system.
    pub fn new(n: usize) -> Self {
        SignerBitmap {
            words: vec![0; n.div_ceil(64).max(1)],
        }
    }

    /// Number of processor slots the bitmap can represent (`64 ·` words).
    pub fn capacity(&self) -> usize {
        64 * self.words.len()
    }

    /// Marks `id` as a signer. Returns `true` if the bit was newly set,
    /// `false` if `id` was already present.
    ///
    /// # Panics
    ///
    /// Panics if `id` is beyond the bitmap's capacity; callers range-check
    /// signers against the system size before setting bits.
    pub fn set(&mut self, id: ProcessId) -> bool {
        let (word, bit) = (id.as_usize() / 64, id.as_usize() % 64);
        let mask = 1u64 << bit;
        let fresh = self.words[word] & mask == 0;
        self.words[word] |= mask;
        fresh
    }

    /// Whether `id`'s bit is set.
    pub fn contains(&self, id: ProcessId) -> bool {
        let (word, bit) = (id.as_usize() / 64, id.as_usize() % 64);
        self.words.get(word).is_some_and(|w| w & (1u64 << bit) != 0)
    }

    /// Number of set bits (distinct signers).
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the set bits as [`ProcessId`]s in ascending order, visiting
    /// only the set bits.
    pub fn iter(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(ProcessId::new(i * 64 + bit))
            })
        })
    }

    /// The raw bitmap words (low processor ids in the low bits of word 0).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Wire form: `u32` word count (at least 1, as [`SignerBitmap::new`]
/// guarantees), then the words.
impl Wire for SignerBitmap {
    fn encoded_len(&self) -> usize {
        4 + 8 * self.words.len()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u32(out, self.words.len() as u32);
        for &word in &self.words {
            put_u64(out, word);
        }
    }

    fn decode(r: &mut Reader<'_>) -> std::result::Result<Self, WireError> {
        let count = r.count("SignerBitmap", 8)?;
        if count == 0 {
            return Err(WireError::BadCount {
                what: "SignerBitmap",
                count: 0,
                have: r.remaining(),
            });
        }
        let mut words = Vec::with_capacity(count);
        for _ in 0..count {
            words.push(r.u64("SignerBitmap.word")?);
        }
        Ok(SignerBitmap { words })
    }
}

/// Partial signatures from distinct signers of an `n`-processor system, in
/// arrival order: the set a quorum is collected in, and whose
/// [`as_slice`](Self::as_slice) [`ThresholdSignature::aggregate`] takes.
///
/// Membership is one [`SignerBitmap`] bit per processor, so the set costs
/// `n/8` bytes (rounded up to a word) plus one entry per signer. The first
/// copy from a signer is kept. Aggregation XORs the tags of distinct
/// signers, so any arrival order yields the identical certificate.
#[derive(Debug, Clone)]
pub struct PartialSet {
    n: usize,
    signers: SignerBitmap,
    partials: Vec<Signature>,
}

impl PartialSet {
    /// An empty set for an `n`-processor system.
    pub fn new(n: usize) -> Self {
        PartialSet {
            n,
            signers: SignerBitmap::new(n),
            partials: Vec::new(),
        }
    }

    /// Adds `signature` and returns whether it was added: a repeat from a
    /// signer already present, or a signer outside the system (id `≥ n`),
    /// is refused.
    pub fn insert(&mut self, signature: Signature) -> bool {
        let fresh = signature.signer().as_usize() < self.n && self.signers.set(signature.signer());
        if fresh {
            self.partials.push(signature);
        }
        fresh
    }

    /// Number of distinct signers held.
    pub fn len(&self) -> usize {
        self.partials.len()
    }

    /// Whether no signature is held.
    pub fn is_empty(&self) -> bool {
        self.partials.is_empty()
    }

    /// The signatures held, in arrival order.
    pub fn as_slice(&self) -> &[Signature] {
        &self.partials
    }
}

/// A (simulated) threshold signature: a constant-size aggregate proof plus a
/// fixed-width [`SignerBitmap`] identifying the contributing signers.
///
/// The protocols use two thresholds: `f+1` (view certificates, TCs) and
/// `2f+1` (quorum certificates, epoch certificates), both counts of distinct
/// processors out of a [`StakeTable`]'s `n`. The threshold is re-checked
/// at verification time by [`crate::SharedAggregate::verify`], so a
/// certificate built for a lower threshold cannot be passed off as a higher
/// one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ThresholdSignature {
    digest: DigestValue,
    signers: SignerBitmap,
    proof: u64,
}

impl ThresholdSignature {
    /// Aggregates partial signatures over `digest` into a threshold
    /// signature for the system described by `stakes`.
    ///
    /// Duplicate signers are collapsed. The aggregation succeeds only if at
    /// least `threshold` *distinct* signers contributed.
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownProcess`] if a partial names a signer outside the
    ///   table's `n` processors.
    /// * [`Error::InsufficientSigners`] if fewer than `threshold` distinct
    ///   signers are present.
    pub fn aggregate(
        digest: DigestValue,
        partials: &[Signature],
        stakes: &StakeTable,
        threshold: usize,
    ) -> Result<Self> {
        let mut signers = SignerBitmap::new(stakes.n());
        let mut proof = 0u64;
        for sig in partials {
            let id = sig.signer();
            if id.as_usize() >= stakes.n() {
                return Err(Error::UnknownProcess { id });
            }
            if signers.set(id) {
                proof ^= sig.tag();
            }
        }
        let count = signers.count();
        if count < threshold {
            return Err(Error::InsufficientSigners {
                got: count,
                need: threshold,
            });
        }
        Ok(ThresholdSignature {
            digest,
            signers,
            proof,
        })
    }

    /// The digest the signature covers.
    pub fn digest(&self) -> DigestValue {
        self.digest
    }

    /// The fixed-width bitmap of contributing signers.
    pub fn bitmap(&self) -> &SignerBitmap {
        &self.signers
    }

    /// The distinct contributing signers, materialized in ascending order.
    pub fn signers(&self) -> Vec<ProcessId> {
        self.signers.iter().collect()
    }

    /// Number of distinct contributing signers.
    pub fn signer_count(&self) -> usize {
        self.signers.count()
    }

    /// The aggregate proof value.
    pub fn proof(&self) -> u64 {
        self.proof
    }
}

/// Wire form: `digest: u64`, `proof: u64`, then the signer bitmap — the
/// simulated content (16 bytes + bitmap), not the 32 + 48 bytes a real
/// digest and aggregate are modelled at by
/// [`Authenticator::bytes`](crate::Authenticator::bytes).
impl Wire for ThresholdSignature {
    fn encoded_len(&self) -> usize {
        8 + 8 + self.signers.encoded_len()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.digest.encode_into(out);
        put_u64(out, self.proof);
        self.signers.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> std::result::Result<Self, WireError> {
        Ok(ThresholdSignature {
            digest: DigestValue::decode(r)?,
            proof: r.u64("ThresholdSignature.proof")?,
            signers: SignerBitmap::decode(r)?,
        })
    }
}

impl fmt::Display for ThresholdSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tsig({} signers over {})",
            self.signers.count(),
            self.digest
        )
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // the uncached check is what is tested here
mod tests {
    use super::*;
    use crate::digest::Digest;
    use crate::keys::keygen;
    use proptest::prelude::*;

    fn digest(x: i64) -> DigestValue {
        Digest::new(b"t").push_i64(x).finish()
    }

    fn uniform(n: usize) -> StakeTable {
        StakeTable::uniform(n)
    }

    #[test]
    fn aggregation_requires_enough_distinct_signers() {
        let (keys, _) = keygen(4, 1);
        let d = digest(1);
        let one = vec![keys[0].sign(d)];
        assert!(ThresholdSignature::aggregate(d, &one, &uniform(4), 2).is_err());
        let dup = vec![keys[0].sign(d), keys[0].sign(d)];
        assert!(ThresholdSignature::aggregate(d, &dup, &uniform(4), 2).is_err());
        let two = vec![keys[0].sign(d), keys[1].sign(d)];
        let tsig = ThresholdSignature::aggregate(d, &two, &uniform(4), 2).unwrap();
        assert_eq!(tsig.signer_count(), 2);
    }

    #[test]
    fn bitmap_aggregate_verifies_against_the_pki() {
        let (keys, pki) = keygen(7, 1);
        let d = digest(3);
        let partials: Vec<_> = keys.iter().take(5).map(|k| k.sign(d)).collect();
        let tsig = ThresholdSignature::aggregate(d, &partials, &uniform(7), 5).unwrap();
        assert!(pki.verify_aggregate(&tsig, d, &uniform(7), 5).is_ok());
        // The bitmap spans the whole system, not just the signers.
        assert_eq!(tsig.bitmap().capacity(), 64);
        assert_eq!(tsig.bitmap().words().len(), 1);
        assert!(tsig.bitmap().contains(ProcessId::new(0)));
        assert!(!tsig.bitmap().contains(ProcessId::new(5)));
    }

    #[test]
    fn flipped_bitmap_bit_fails_verification() {
        let (keys, pki) = keygen(7, 1);
        let d = digest(4);
        let partials: Vec<_> = keys.iter().take(5).map(|k| k.sign(d)).collect();
        let mut tsig = ThresholdSignature::aggregate(d, &partials, &uniform(7), 5).unwrap();
        // Claim processor 6 also signed: the recomputed aggregate no longer
        // matches the proof.
        tsig.signers.words[0] ^= 1 << 6;
        assert_eq!(tsig.signer_count(), 6);
        assert!(pki.verify_aggregate(&tsig, d, &uniform(7), 5).is_err());
        // Dropping a genuine signer (count still meets the threshold after
        // flipping one extra on, one off) also breaks the proof.
        let mut tsig = ThresholdSignature::aggregate(d, &partials, &uniform(7), 4).unwrap();
        tsig.signers.words[0] ^= 1 << 0;
        assert!(pki.verify_aggregate(&tsig, d, &uniform(7), 4).is_err());
    }

    #[test]
    fn tampered_proof_fails_verification() {
        let (keys, pki) = keygen(4, 1);
        let d = digest(5);
        let partials: Vec<_> = keys.iter().take(3).map(|k| k.sign(d)).collect();
        let mut tsig = ThresholdSignature::aggregate(d, &partials, &uniform(4), 3).unwrap();
        tsig.proof ^= 1;
        assert!(pki.verify_aggregate(&tsig, d, &uniform(4), 3).is_err());
    }

    /// The error for a tampered proof names the lowest set bit, whichever
    /// word holds it and whatever order the partials came in.
    #[test]
    fn tampered_proof_names_the_lowest_signer() {
        let n = 200;
        let (keys, pki) = keygen(n, 4);
        let d = digest(12);
        for signers in [
            vec![130usize, 0, 64],
            vec![199, 70, 3],
            vec![150, 127, 69, 64],
        ] {
            let partials: Vec<_> = signers.iter().map(|&i| keys[i].sign(d)).collect();
            let count = signers.len();
            let mut tsig = ThresholdSignature::aggregate(d, &partials, &uniform(n), count).unwrap();
            assert!(pki.verify_aggregate(&tsig, d, &uniform(n), count).is_ok());
            tsig.proof ^= 1 << 17;
            let lowest = *signers.iter().min().unwrap();
            assert_eq!(
                pki.verify_aggregate(&tsig, d, &uniform(n), count),
                Err(Error::InvalidSignature {
                    signer: ProcessId::new(lowest)
                })
            );
        }
    }

    /// The walk `SignerBitmap::iter` replaced: all 64 bits of every word
    /// tested in turn.
    fn bit_filter(bitmap: &SignerBitmap) -> Vec<usize> {
        bitmap
            .words()
            .iter()
            .enumerate()
            .flat_map(|(i, &word)| {
                (0..64)
                    .filter(move |bit| word & (1u64 << bit) != 0)
                    .map(move |bit| i * 64 + bit)
            })
            .collect()
    }

    fn ids(bitmap: &SignerBitmap) -> Vec<usize> {
        bitmap.iter().map(|p| p.as_usize()).collect()
    }

    #[test]
    fn iter_visits_the_set_bits_of_edge_words_in_order() {
        let edges = [
            0u64,
            1,
            1 << 63,
            (1 << 63) | 1,
            u64::MAX,
            0x0123_4567_89ab_cdef,
        ];
        for len in 1..=3 {
            for combo in 0..edges.len().pow(len as u32) {
                let words: Vec<u64> = (0..len)
                    .map(|k| edges[combo / edges.len().pow(k as u32) % edges.len()])
                    .collect();
                let bitmap = SignerBitmap { words };
                assert_eq!(ids(&bitmap), bit_filter(&bitmap), "{bitmap:?}");
            }
        }
    }

    #[test]
    fn signer_set_is_reported_in_order() {
        let (keys, _) = keygen(5, 9);
        let d = digest(2);
        let partials = vec![keys[3].sign(d), keys[0].sign(d), keys[4].sign(d)];
        let tsig = ThresholdSignature::aggregate(d, &partials, &uniform(5), 3).unwrap();
        let ids: Vec<_> = tsig.signers().iter().map(|p| p.as_usize()).collect();
        assert_eq!(ids, vec![0, 3, 4]);
        assert!(tsig.to_string().contains("3 signers"));
    }

    #[test]
    fn a_partial_set_aggregates_alike_in_any_arrival_order() {
        let n = 130;
        let (keys, pki) = keygen(n, 5);
        let d = digest(9);
        let quorum = 2 * ((n - 1) / 3) + 1;
        let mut order: Vec<usize> = (0..n).collect();
        let mut in_order = PartialSet::new(n);
        for &i in &order {
            assert!(in_order.insert(keys[i].sign(d)));
        }
        // A seeded shuffle, then every signer a second time.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut shuffled = PartialSet::new(n);
        for &i in order.iter().chain(&order) {
            shuffled.insert(keys[i].sign(d));
        }
        assert_eq!((in_order.len(), shuffled.len()), (n, n));
        assert_ne!(in_order.as_slice(), shuffled.as_slice());
        let a = ThresholdSignature::aggregate(d, in_order.as_slice(), &uniform(n), quorum);
        let b = ThresholdSignature::aggregate(d, shuffled.as_slice(), &uniform(n), quorum);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(pki
            .verify_aggregate(&a.unwrap(), d, &uniform(n), quorum)
            .is_ok());
    }

    #[test]
    fn a_partial_set_refuses_repeats_and_ids_outside_the_system() {
        let (keys, _) = keygen(70, 2);
        let d = digest(10);
        let mut set = PartialSet::new(7);
        assert!(set.is_empty());
        assert!(set.insert(keys[3].sign(d)));
        let before = ThresholdSignature::aggregate(d, set.as_slice(), &uniform(7), 1).unwrap();
        // A repeat, even one carrying another tag, leaves the set alone.
        assert!(!set.insert(keys[3].sign(d)));
        assert!(!set.insert(Signature::new(ProcessId::new(3), 1)));
        // Ids past `n`, inside the bitmap's word and past it, are refused.
        for id in [7, 63, 64, 69] {
            assert!(!set.insert(keys[id].sign(d)));
        }
        assert!(!set.insert(Signature::new(ProcessId::new(u32::MAX as usize), 0)));
        assert_eq!(set.len(), 1);
        let after = ThresholdSignature::aggregate(d, set.as_slice(), &uniform(7), 1).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn unknown_signers_cannot_join_an_aggregate() {
        let (keys, _) = keygen(8, 3);
        let d = digest(6);
        // Sign with keys from a larger system, aggregate against a smaller
        // table: the out-of-range signer is rejected outright.
        let partials: Vec<_> = keys.iter().skip(2).take(3).map(|k| k.sign(d)).collect();
        assert!(matches!(
            ThresholdSignature::aggregate(d, &partials, &uniform(4), 3),
            Err(Error::UnknownProcess { .. })
        ));
        // A signer past the bitmap's one word is rejected too, before its
        // bit could be set.
        let (keys, _) = keygen(80, 3);
        let partials = vec![keys[0].sign(d), keys[70].sign(d)];
        assert_eq!(
            ThresholdSignature::aggregate(d, &partials, &uniform(4), 1),
            Err(Error::UnknownProcess {
                id: ProcessId::new(70)
            })
        );
    }

    #[test]
    fn wire_round_trips_multi_word_bitmaps_and_guards_the_word_count() {
        let d = digest(8);
        for n in [4usize, 64, 65, 200] {
            let (keys, pki) = keygen(n, 1);
            let quorum = 2 * ((n - 1) / 3) + 1;
            let partials: Vec<_> = keys.iter().rev().take(quorum).map(|k| k.sign(d)).collect();
            let tsig = ThresholdSignature::aggregate(d, &partials, &uniform(n), quorum).unwrap();
            let mut bytes = Vec::new();
            tsig.encode_into(&mut bytes);
            assert_eq!(bytes.len(), tsig.encoded_len());
            assert_eq!(bytes.len(), 8 + 8 + 4 + 8 * n.div_ceil(64));
            let back = ThresholdSignature::decode_exact(&bytes).unwrap();
            assert_eq!(back, tsig);
            assert!(pki.verify_aggregate(&back, d, &uniform(n), quorum).is_ok());
            // The word count sits after digest and proof. Zero words and
            // more words than bytes remain are both rejected up front.
            for hostile in [0u32, u32::MAX] {
                let mut bad = bytes.clone();
                bad[16..20].copy_from_slice(&hostile.to_le_bytes());
                assert!(matches!(
                    ThresholdSignature::decode_exact(&bad),
                    Err(WireError::BadCount {
                        what: "SignerBitmap",
                        ..
                    })
                ));
            }
        }
    }

    proptest! {
        #[test]
        fn any_quorum_of_honest_partials_verifies(n in 4usize..20, seed in 0u64..50, pick in any::<u64>()) {
            let (keys, pki) = keygen(n, seed);
            let f = (n - 1) / 3;
            let quorum = 2 * f + 1;
            let d = digest(seed as i64);
            // pick a pseudo-random subset of exactly `quorum` signers
            let mut chosen: Vec<usize> = (0..n).collect();
            // deterministic shuffle driven by `pick`
            let mut state = pick | 1;
            for i in (1..chosen.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let j = (state >> 33) as usize % (i + 1);
                chosen.swap(i, j);
            }
            let partials: Vec<_> = chosen.iter().take(quorum).map(|&i| keys[i].sign(d)).collect();
            let tsig = ThresholdSignature::aggregate(d, &partials, &uniform(n), quorum).unwrap();
            prop_assert!(pki.verify_aggregate(&tsig, d, &uniform(n), quorum).is_ok());
            // and it never verifies against a different digest
            prop_assert!(pki.verify_aggregate(&tsig, digest(seed as i64 + 1), &uniform(n), quorum).is_err());
            // the bitmap round-trips the chosen subset exactly
            let mut expected: Vec<usize> = chosen.iter().take(quorum).copied().collect();
            expected.sort_unstable();
            let got: Vec<usize> = tsig.bitmap().iter().map(|p| p.as_usize()).collect();
            prop_assert_eq!(got, expected);
        }

        /// `iter` equals the bit filter on random 1–3-word bitmaps whose
        /// words are drawn empty, all ones, with both end bits forced on, or
        /// uniformly.
        #[test]
        fn iter_matches_the_bit_filter(
            drawn in proptest::collection::vec((0u8..4, any::<u64>()), 1..4),
        ) {
            let words = drawn
                .iter()
                .map(|&(kind, w)| match kind {
                    0 => 0,
                    1 => u64::MAX,
                    2 => w | 1 | (1 << 63),
                    _ => w,
                })
                .collect();
            let bitmap = SignerBitmap { words };
            prop_assert_eq!(ids(&bitmap), bit_filter(&bitmap));
            prop_assert_eq!(ids(&bitmap).len(), bitmap.count());
        }
    }
}
