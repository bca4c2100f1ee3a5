//! The handles a broadcast's authenticators travel in: one shared
//! allocation per signature or certificate, which remembers the check it
//! passed.

use crate::digest::{Digest, DigestValue};
use crate::keys::Pki;
use crate::signature::Signature;
use crate::threshold::ThresholdSignature;
use lumiere_types::wire::{Reader, Wire, WireError};
use lumiere_types::{Memo, Result, StakeTable, View};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// What a certificate states: its kind (the domain its digest is computed
/// in), its view and, for a quorum certificate, the block.
///
/// The digest a certificate is signed over is a pure function of its
/// statement, [`Statement::digest`], so a memo keyed by the statement
/// answers without computing the digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Statement {
    domain: Digest,
    view: View,
    block: Option<u64>,
}

impl Statement {
    /// `view` in `domain`: what a view, epoch, timeout or wish certificate
    /// states.
    pub const fn new(domain: Digest, view: View) -> Self {
        Statement {
            domain,
            view,
            block: None,
        }
    }

    /// `block` in `view`, in `domain`: what a quorum certificate states.
    pub const fn for_block(domain: Digest, view: View, block: u64) -> Self {
        Statement {
            domain,
            view,
            block: Some(block),
        }
    }

    /// The digest signed for this statement: the domain, then the view,
    /// then the block if there is one.
    pub fn digest(&self) -> DigestValue {
        let digest = self.domain.push_i64(self.view.as_i64());
        match self.block {
            Some(block) => digest.push_u64(block),
            None => digest,
        }
        .finish()
    }
}

/// A value in one shared allocation, which remembers the check it passed.
///
/// `clone` is a reference bump, so every copy of a message, certificate or
/// notification shares one allocation. In the simulator all `n` replicas
/// are handed the same message, so all `n` check the same allocation, and
/// that check is a pure function of the value and its key `K` (the key
/// table's fingerprint, and whatever else the check reads). The first
/// success records its key in the allocation's [`Memo`], and a later check
/// with exactly that key returns `Ok` without running.
///
/// A decoded handle is a new allocation with an empty memo, so a live node
/// still checks every copy it receives. A failure is never recorded, so
/// every error is recomputed and returned as the uncached check returns it.
/// Equality, `Debug` and the wire form are the value's own; two handles on
/// one allocation compare equal without reading it.
#[derive(Clone, PartialEq, Eq)]
pub struct Shared<T, K>(Arc<Memo<T, K>>);

/// A certificate's threshold signature, checked through
/// [`SharedAggregate::verify`]: the recorded key is the key table's
/// fingerprint, the certificate's [`Statement`], `n` and the threshold, so
/// a hit computes no digest and walks no signers.
pub type SharedAggregate = Shared<ThresholdSignature, AggregateKey>;

/// A broadcast's single signature, checked through
/// [`SharedSignature::verify`]: the recorded key is the key table's
/// fingerprint and the message's [`Statement`], so a hit computes neither
/// digest nor tag. Whether the signer is the sender is not part of the
/// check; the caller compares the two on every copy.
pub type SharedSignature = Shared<Signature, SignatureKey>;

/// Everything an aggregate's check depends on besides the (immutable)
/// signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregateKey {
    pki: u64,
    statement: Statement,
    n: usize,
    threshold: usize,
}

/// Everything a signature's check depends on besides the (immutable)
/// signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignatureKey {
    pki: u64,
    statement: Statement,
}

impl<T, K: PartialEq> Shared<T, K> {
    /// `Ok` if `key` is the recorded one; otherwise runs `check` and, if it
    /// passes, records `key`. The memo keeps the first key that passed;
    /// under any other key the check runs every time.
    fn check_once(&self, key: K, check: impl FnOnce(&T) -> Result<()>) -> Result<()> {
        if self.0.memo().get() == Some(&key) {
            return Ok(());
        }
        check(&self.0)?;
        let _ = self.0.memo().set(key);
        Ok(())
    }
}

impl SharedAggregate {
    /// Verifies the aggregate over `statement`'s digest against `pki`,
    /// `stakes` and `threshold`, as [`Pki::verify_aggregate`] does, at most
    /// once per allocation and key.
    ///
    /// A recorded key holds a statement whose digest a successful check
    /// compared equal to the signature's, so a hit implies the digest
    /// matches; the digest is computed only on a miss.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Pki::verify_aggregate`].
    pub fn verify(
        &self,
        pki: &Pki,
        statement: Statement,
        stakes: &StakeTable,
        threshold: usize,
    ) -> Result<()> {
        let key = AggregateKey {
            pki: pki.fingerprint(),
            statement,
            n: stakes.n(),
            threshold,
        };
        self.check_once(key, |tsig| {
            #[allow(clippy::disallowed_methods)] // the one memoised call site
            pki.verify_aggregate(tsig, statement.digest(), stakes, threshold)
        })
    }
}

impl SharedSignature {
    /// Verifies the signature over `statement`'s digest against `pki`, as
    /// [`Pki::verify`] does, at most once per allocation and key. As for a
    /// [`SharedAggregate`], the digest is computed only on a miss.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Pki::verify`].
    pub fn verify(&self, pki: &Pki, statement: Statement) -> Result<()> {
        let key = SignatureKey {
            pki: pki.fingerprint(),
            statement,
        };
        self.check_once(key, |signature| pki.verify(signature, statement.digest()))
    }
}

impl<T, K> From<T> for Shared<T, K> {
    fn from(value: T) -> Self {
        Shared(Arc::new(Memo::new(value)))
    }
}

impl<T, K> Deref for Shared<T, K> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: fmt::Debug, K> fmt::Debug for Shared<T, K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Wire form: the value's.
impl<T: Wire, K> Wire for Shared<T, K> {
    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> std::result::Result<Self, WireError> {
        Memo::decode(r).map(|memo| Shared(Arc::new(memo)))
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // the uncached check is the reference here
mod tests {
    use super::*;
    use crate::keys::keygen;
    use lumiere_types::{Error, ProcessId};

    const SHARED: Digest = Digest::new(b"shared");

    fn statement(x: i64) -> Statement {
        Statement::new(SHARED, View::new(x))
    }

    fn digest(x: i64) -> DigestValue {
        statement(x).digest()
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
    fn a_statement_digests_its_domain_view_and_block_in_that_order() {
        let view = View::new(-3);
        assert_eq!(
            Statement::new(SHARED, view).digest(),
            SHARED.push_i64(-3).finish()
        );
        assert_eq!(
            Statement::for_block(SHARED, view, 0xabc).digest(),
            SHARED.push_i64(-3).push_u64(0xabc).finish()
        );
        assert_ne!(
            Statement::new(Digest::new(b"other"), view).digest(),
            Statement::new(SHARED, view).digest()
        );
    }

    #[test]
    fn a_memo_never_answers_for_another_key_table_or_threshold() {
        let (pki, agg) = five_of_seven(3);
        let (_, other) = keygen(7, 4);
        let uniform = StakeTable::uniform(7);
        let d = digest(1);
        assert!(agg.0.memo().get().is_none(), "a new handle is unchecked");
        assert_eq!(agg.verify(&pki, statement(1), &uniform, 5), Ok(()));
        let key = *agg.0.memo().get().expect("a success is recorded");
        for _ in 0..3 {
            // Each answer is the uncached check's, and none moves the memo.
            for (table, threshold) in [(&other, 5), (&pki, 6), (&other, 4), (&pki, 4)] {
                assert_eq!(
                    agg.verify(table, statement(1), &uniform, threshold),
                    table.verify_aggregate(&agg, d, &uniform, threshold),
                );
            }
            assert_eq!(
                agg.verify(&pki, statement(2), &uniform, 5),
                pki.verify_aggregate(&agg, digest(2), &uniform, 5)
            );
            assert!(agg.verify(&other, statement(1), &uniform, 5).is_err());
            assert!(agg.verify(&pki, statement(1), &uniform, 6).is_err());
            assert_eq!(agg.0.memo().get(), Some(&key));
        }
    }

    /// The memo is keyed by the statement, not the digest: a certificate
    /// sharing a checked allocation but naming another view, block or kind
    /// is checked again, and fails on the digest.
    #[test]
    fn a_checked_aggregate_under_another_statement_is_checked_again() {
        let (keys, pki) = keygen(7, 3);
        let uniform = StakeTable::uniform(7);
        let vote = Digest::new(b"vote");
        let stated = Statement::for_block(vote, View::new(4), 0xabc);
        let d = stated.digest();
        let partials: Vec<_> = keys.iter().take(5).map(|k| k.sign(d)).collect();
        let agg = SharedAggregate::from(
            ThresholdSignature::aggregate(d, &partials, &uniform, 5).unwrap(),
        );
        assert_eq!(agg.verify(&pki, stated, &uniform, 5), Ok(()));
        let key = *agg.0.memo().get().expect("a success is recorded");
        let moved = agg.clone();
        for other in [
            Statement::for_block(vote, View::new(5), 0xabc),
            Statement::for_block(vote, View::new(4), 0xabd),
            Statement::new(vote, View::new(4)),
            Statement::for_block(SHARED, View::new(4), 0xabc),
        ] {
            assert!(matches!(
                moved.verify(&pki, other, &uniform, 5),
                Err(Error::DigestMismatch { .. })
            ));
        }
        assert_eq!(moved.0.memo().get(), Some(&key));
        assert_eq!(moved.verify(&pki, stated, &uniform, 5), Ok(()));
    }

    /// A checked handle's clone shares its memo, while a decoded copy and a
    /// fresh `From` of its value start empty. Each looks like the plain
    /// value: `==`, `Debug` and the wire bytes.
    fn clones_share_and_copies_start_unchecked<T, K>(checked: &Shared<T, K>)
    where
        T: Wire + fmt::Debug + PartialEq + Clone,
        K: PartialEq + Clone,
    {
        assert!(
            checked.clone().0.memo().get().is_some(),
            "a clone shares the memo"
        );
        let (mut bytes, mut plain) = (Vec::new(), Vec::new());
        checked.encode_into(&mut bytes);
        (**checked).encode_into(&mut plain);
        assert_eq!(bytes, plain);
        assert_eq!(checked.encoded_len(), bytes.len());
        let decoded = Shared::<T, K>::decode_exact(&bytes).unwrap();
        let fresh = Shared::<T, K>::from((**checked).clone());
        for copy in [&decoded, &fresh] {
            assert!(copy.0.memo().get().is_none());
            assert_eq!(copy, checked);
            assert_eq!(format!("{copy:?}"), format!("{:?}", **checked));
            assert_eq!(format!("{copy:#?}"), format!("{:#?}", **checked));
        }
    }

    #[test]
    fn a_decoded_copy_starts_unchecked_and_looks_the_same() {
        let (pki, agg) = five_of_seven(3);
        assert_eq!(
            agg.verify(&pki, statement(1), &StakeTable::uniform(7), 5),
            Ok(())
        );
        clones_share_and_copies_start_unchecked(&agg);
        let (pki, sig) = signed(3);
        assert_eq!(sig.verify(&pki, statement(1)), Ok(()));
        clones_share_and_copies_start_unchecked(&sig);
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
                    handle.verify(&pki, statement(1), &StakeTable::uniform(7), 5),
                    Err(Error::InvalidSignature { .. })
                ));
            }
        }
        assert!(handles[0].0.memo().get().is_none());
    }

    /// Processor 2's signature over `digest(1)` under `keygen(7, seed)`.
    fn signed(seed: u64) -> (Pki, SharedSignature) {
        let (keys, pki) = keygen(7, seed);
        (pki, keys[2].sign(digest(1)).into())
    }

    #[test]
    fn a_signature_memo_never_answers_for_another_key_table_or_statement() {
        let (pki, sig) = signed(3);
        let (_, other) = keygen(7, 4);
        // The same seed's keys, but processor 2 is not among them.
        let (_, fewer) = keygen(2, 3);
        let kind = Statement::new(Digest::new(b"other"), View::new(1));
        assert!(sig.0.memo().get().is_none(), "a new handle is unchecked");
        assert_eq!(sig.verify(&pki, statement(1)), Ok(()));
        let key = *sig.0.memo().get().expect("a success is recorded");
        for _ in 0..3 {
            // Each answer is the uncached check's, and none moves the memo.
            for (table, stated) in [
                (&other, statement(1)),
                (&fewer, statement(1)),
                (&pki, statement(2)),
                (&pki, kind),
                (&other, statement(2)),
            ] {
                assert_eq!(
                    sig.verify(table, stated),
                    table.verify(&sig, stated.digest())
                );
                assert!(sig.verify(table, stated).is_err());
            }
            assert_eq!(sig.0.memo().get(), Some(&key));
        }
        assert_eq!(sig.verify(&pki, statement(1)), Ok(()));
    }

    #[test]
    fn a_failed_signature_check_is_never_recorded() {
        let (pki, sig) = signed(3);
        let forged = SharedSignature::from(Signature::new(sig.signer(), sig.tag() ^ 1));
        let unknown = SharedSignature::from(Signature::new(ProcessId::new(9), sig.tag()));
        for _ in 0..3 {
            assert_eq!(
                forged.verify(&pki, statement(1)),
                Err(Error::InvalidSignature {
                    signer: ProcessId::new(2)
                })
            );
            assert_eq!(
                unknown.verify(&pki, statement(1)),
                Err(Error::UnknownProcess {
                    id: ProcessId::new(9)
                })
            );
            // A valid signature checked under the wrong statement first.
            assert!(sig.verify(&pki, statement(2)).is_err());
        }
        assert!(forged.0.memo().get().is_none());
        assert!(unknown.0.memo().get().is_none());
        assert!(sig.0.memo().get().is_none());
    }
}
