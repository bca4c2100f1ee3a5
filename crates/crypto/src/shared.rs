//! The handle every certificate holds its threshold signature through.

use crate::digest::DigestValue;
use crate::keys::Pki;
use crate::threshold::ThresholdSignature;
use lumiere_types::wire::{Reader, Wire, WireError};
use lumiere_types::{Memo, Result, StakeTable};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A threshold signature in one shared allocation, which remembers the
/// check it passed.
///
/// `clone` is a reference bump: a certificate's copies in `high_qc`, in a
/// proposal's justify and in every notification share one allocation. In
/// the simulator all `n` replicas are handed the same message, so all `n`
/// check the same allocation against the same key table, and that check is
/// a pure function of the two. [`SharedAggregate::verify`] runs it once:
/// the first success records its key (the key table's fingerprint, the
/// digest, `n` and the threshold) in the allocation's [`Memo`], and a later
/// call with exactly that key returns `Ok` without walking the signers.
///
/// A decoded handle is a new allocation with an empty memo, so a live node
/// still checks every copy it receives. A failure is never recorded, so
/// every error is recomputed and returned as [`Pki::verify_aggregate`]
/// returns it. Equality, `Debug` and the wire form are the signature's own;
/// two handles on one allocation compare equal without reading it.
#[derive(Clone, PartialEq, Eq)]
pub struct SharedAggregate(Arc<Memo<ThresholdSignature, CheckKey>>);

/// Everything a check depends on besides the (immutable) signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CheckKey {
    pki: u64,
    digest: DigestValue,
    n: usize,
    threshold: usize,
}

impl SharedAggregate {
    /// Verifies the aggregate over `digest` against `pki`, `stakes` and
    /// `threshold`, as [`Pki::verify_aggregate`] does, at most once per
    /// allocation and key.
    ///
    /// A recorded key holds the digest a successful check compared equal to
    /// the signature's, so a hit implies the digest matches.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Pki::verify_aggregate`].
    pub fn verify(
        &self,
        pki: &Pki,
        digest: DigestValue,
        stakes: &StakeTable,
        threshold: usize,
    ) -> Result<()> {
        let key = CheckKey {
            pki: pki.fingerprint(),
            digest,
            n: stakes.n(),
            threshold,
        };
        if self.0.memo().get() == Some(&key) {
            return Ok(());
        }
        #[allow(clippy::disallowed_methods)] // the one memoised call site
        pki.verify_aggregate(self, digest, stakes, threshold)?;
        // The memo keeps the first key that passed; under any other key the
        // check is recomputed every time.
        let _ = self.0.memo().set(key);
        Ok(())
    }
}

impl From<ThresholdSignature> for SharedAggregate {
    fn from(tsig: ThresholdSignature) -> Self {
        SharedAggregate(Arc::new(Memo::new(tsig)))
    }
}

impl Deref for SharedAggregate {
    type Target = ThresholdSignature;

    fn deref(&self) -> &ThresholdSignature {
        &self.0
    }
}

impl fmt::Debug for SharedAggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Wire form: the threshold signature's.
impl Wire for SharedAggregate {
    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> std::result::Result<Self, WireError> {
        Memo::decode(r).map(|memo| SharedAggregate(Arc::new(memo)))
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // the uncached check is the reference here
mod tests {
    use super::*;
    use crate::digest::Digest;
    use crate::keys::keygen;
    use lumiere_types::Error;

    fn digest(x: i64) -> DigestValue {
        Digest::new(b"shared").push_i64(x).finish()
    }

    /// A 5-of-7 aggregate over `digest(1)` under `keygen(7, seed)`.
    fn five_of_seven(seed: u64) -> (Pki, SharedAggregate) {
        let (keys, pki) = keygen(7, seed);
        let d = digest(1);
        let partials: Vec<_> = keys.iter().take(5).map(|k| k.sign(d)).collect();
        let tsig = ThresholdSignature::aggregate(d, &partials, &StakeTable::uniform(7), 5).unwrap();
        (pki, tsig.into())
    }

    #[test]
    fn a_memo_never_answers_for_another_key_table_or_threshold() {
        let (pki, agg) = five_of_seven(3);
        let (_, other) = keygen(7, 4);
        let uniform = StakeTable::uniform(7);
        let d = digest(1);
        assert!(agg.0.memo().get().is_none(), "a new handle is unchecked");
        assert_eq!(agg.verify(&pki, d, &uniform, 5), Ok(()));
        let key = *agg.0.memo().get().expect("a success is recorded");
        for _ in 0..3 {
            // Each answer is the uncached check's, and none moves the memo.
            for (table, threshold) in [(&other, 5), (&pki, 6), (&other, 4), (&pki, 4)] {
                assert_eq!(
                    agg.verify(table, d, &uniform, threshold),
                    table.verify_aggregate(&agg, d, &uniform, threshold),
                );
            }
            assert_eq!(
                agg.verify(&pki, digest(2), &uniform, 5),
                pki.verify_aggregate(&agg, digest(2), &uniform, 5)
            );
            assert!(agg.verify(&other, d, &uniform, 5).is_err());
            assert!(agg.verify(&pki, d, &uniform, 6).is_err());
            assert_eq!(agg.0.memo().get(), Some(&key));
        }
    }

    #[test]
    fn a_decoded_copy_starts_unchecked_and_looks_the_same() {
        let (pki, agg) = five_of_seven(3);
        let unchecked = agg.clone();
        assert_eq!(
            agg.verify(&pki, digest(1), &StakeTable::uniform(7), 5),
            Ok(())
        );
        assert!(
            unchecked.0.memo().get().is_some(),
            "a clone shares the memo"
        );
        let mut bytes = Vec::new();
        agg.encode_into(&mut bytes);
        let copy = SharedAggregate::decode_exact(&bytes).unwrap();
        assert!(copy.0.memo().get().is_none());
        assert_eq!(copy, agg);
        assert_eq!(format!("{copy:?}"), format!("{:?}", *agg));
        assert_eq!(format!("{copy:#?}"), format!("{agg:#?}"));
        assert_eq!(copy.encoded_len(), bytes.len());
    }

    #[test]
    fn a_forged_aggregate_shared_by_eight_handles_fails_every_check() {
        let (pki, agg) = five_of_seven(3);
        let mut bytes = Vec::new();
        agg.encode_into(&mut bytes);
        bytes[8] ^= 1; // the proof's low bit
        let forged = SharedAggregate::decode_exact(&bytes).unwrap();
        let handles = vec![forged; 8];
        for _ in 0..3 {
            for handle in &handles {
                assert!(matches!(
                    handle.verify(&pki, digest(1), &StakeTable::uniform(7), 5),
                    Err(Error::InvalidSignature { .. })
                ));
            }
        }
        assert!(handles[0].0.memo().get().is_none());
    }
}
