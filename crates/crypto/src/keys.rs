//! Key material and the simulated PKI.

use crate::digest::{Digest, DigestValue};
use crate::signature::Signature;
use crate::threshold::ThresholdSignature;
use lumiere_types::{Error, ProcessId, Result, StakeTable};
use std::sync::Arc;

/// Secret signing key held by one processor.
///
/// In the simulated scheme the "secret" is a 64-bit scalar derived from the
/// keygen seed. The key holds the `SignerState` that scalar leads to — the
/// same entry the [`Pki`] retains to recompute and verify keyed hashes (this
/// plays the role of the public-key relation) — so signing is one mix of the
/// signed digest. Like the `Pki`, a key is never serialized: every node
/// re-derives it from `(n, seed)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyPair {
    id: ProcessId,
    state: SignerState,
}

impl KeyPair {
    /// The identifier of the processor owning this key.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Signs a digest, producing a partial signature attributable to this
    /// processor.
    pub fn sign(&self, digest: DigestValue) -> Signature {
        Signature::new(self.id, self.state.tag(digest))
    }
}

/// The simulated public-key infrastructure: can verify any processor's
/// signatures and aggregate threshold signatures.
///
/// The key table is shared: every clone — one per engine and one per
/// pacemaker in a simulated cluster — points at the table [`keygen`] built,
/// so a cluster holds one table, not `2n`. A `Pki` is never serialized
/// (every node re-derives it from `(n, seed)`), so it has no serde form.
///
/// An entry is the signer's `SignerState`: the tag digest with the domain
/// and the secret already mixed in, which is a one-to-one image of the
/// secret. Checking a tag is then one mix of the signed digest, not three.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pki {
    signers: Arc<[SignerState]>,
    fingerprint: u64,
}

impl Pki {
    /// Number of registered processors.
    pub fn n(&self) -> usize {
        self.signers.len()
    }

    /// Verifies a single signature over `digest`.
    ///
    /// This is the uncached check. A broadcast's signature is checked
    /// through [`SharedSignature::verify`](crate::SharedSignature::verify),
    /// which runs it once per shared allocation, key table and digest.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownProcess`] if the signer is not registered and
    /// [`Error::InvalidSignature`] if the keyed tag does not verify.
    pub fn verify(&self, sig: &Signature, digest: DigestValue) -> Result<()> {
        let signer = self
            .signers
            .get(sig.signer().as_usize())
            .ok_or(Error::UnknownProcess { id: sig.signer() })?;
        if sig.tag() == signer.tag(digest) {
            Ok(())
        } else {
            Err(Error::InvalidSignature {
                signer: sig.signer(),
            })
        }
    }

    /// Verifies an aggregate against the public keys named by its signer
    /// bitmap: the aggregate proof is recomputed over exactly the bitmap's
    /// set bits, and the distinct-signer count is re-checked against
    /// `threshold`. Signers are looked up in this key table; `stakes` is not
    /// read.
    ///
    /// This is the uncached check, one tag per signer on every call. A
    /// certificate is checked through
    /// [`SharedAggregate::verify`](crate::SharedAggregate::verify), which
    /// runs it once per shared allocation and key table; the root
    /// `clippy.toml` bars every other caller in the workspace.
    ///
    /// # Errors
    ///
    /// In the order they are checked:
    ///
    /// * [`Error::DigestMismatch`] if the signature covers a different
    ///   digest than the one being verified (before any signer is visited).
    /// * [`Error::InsufficientSigners`] if the bitmap is empty or carries
    ///   fewer than `threshold` set bits.
    /// * [`Error::UnknownProcess`] if a set bit names an unregistered
    ///   processor.
    /// * [`Error::InvalidSignature`] if the recomputed aggregate proof does
    ///   not match (a bitmap bit was flipped or the proof was forged); it
    ///   names the lowest signer.
    pub fn verify_aggregate(
        &self,
        tsig: &ThresholdSignature,
        digest: DigestValue,
        _stakes: &StakeTable,
        threshold: usize,
    ) -> Result<()> {
        if tsig.digest() != digest {
            return Err(Error::DigestMismatch {
                claimed: tsig.digest().as_u64(),
                computed: digest.as_u64(),
            });
        }
        let count = tsig.signer_count();
        let lowest = match tsig.bitmap().iter().next() {
            Some(lowest) if count >= threshold => lowest,
            // An empty bitmap falls short of every threshold, zero included.
            _ => {
                return Err(Error::InsufficientSigners {
                    got: count,
                    need: threshold.max(1),
                })
            }
        };
        let mut proof = 0u64;
        for signer in tsig.bitmap().iter() {
            let state = self
                .signers
                .get(signer.as_usize())
                .ok_or(Error::UnknownProcess { id: signer })?;
            proof ^= state.tag(digest);
        }
        if proof == tsig.proof() {
            Ok(())
        } else {
            Err(Error::InvalidSignature { signer: lowest })
        }
    }

    /// One mix of the `(seed, n)` [`keygen`] built this table from: two
    /// tables with the same fingerprint hold the same keys. It is what the
    /// memos of a [`SharedAggregate`](crate::SharedAggregate) and a
    /// [`SharedSignature`](crate::SharedSignature) name the key table by.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// The domain of [`keygen`]'s secrets.
const KEYGEN: Digest = Digest::new(b"keygen");

/// The domain of a key table's fingerprint.
const PKI: Digest = Digest::new(b"pki");

/// Generates key material for an `n`-processor system from a seed.
///
/// The same `(n, seed)` pair always yields the same keys, keeping simulations
/// reproducible.
///
/// ```
/// use lumiere_crypto::keygen;
/// let (keys, pki) = keygen(4, 7);
/// assert_eq!(keys.len(), 4);
/// assert_eq!(pki.n(), 4);
/// ```
pub fn keygen(n: usize, seed: u64) -> (Vec<KeyPair>, Pki) {
    // Every secret shares the seed's mix; processor `i`'s adds `i`.
    let seeded = KEYGEN.push_u64(seed);
    let keys: Vec<KeyPair> = (0..n)
        .map(|i| KeyPair {
            id: ProcessId::new(i),
            state: SignerState::of(seeded.push_u64(i as u64).finish().as_u64()),
        })
        .collect();
    let signers = keys.iter().map(|k| k.state).collect();
    let fingerprint = PKI.push_u64(seed).push_u64(n as u64).finish().as_u64();
    (
        keys,
        Pki {
            signers,
            fingerprint,
        },
    )
}

/// The tag digest of one signer after its domain and secret are mixed in:
/// everything about a tag that does not depend on what is being signed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SignerState(Digest);

/// The domain every signature tag is computed in.
const SIG: Digest = Digest::new(b"sig");

impl SignerState {
    fn of(secret: u64) -> Self {
        SignerState(SIG.push_u64(secret))
    }

    /// The signer's tag over `digest`.
    fn tag(&self, digest: DigestValue) -> u64 {
        self.0.push_u64(digest.as_u64()).finish().as_u64()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // the uncached check is what is tested here
mod tests {
    use super::*;
    use lumiere_types::wire::Wire;

    fn digest(x: i64) -> DigestValue {
        Digest::new(b"test").push_i64(x).finish()
    }

    /// The tag as it was computed before the per-signer state was kept:
    /// domain, secret and digest mixed on every call.
    fn keyed_tag(secret: u64, digest: DigestValue) -> u64 {
        Digest::new(b"sig")
            .push_u64(secret)
            .push_u64(digest.as_u64())
            .finish()
            .as_u64()
    }

    #[test]
    fn the_const_domains_are_the_run_time_ones() {
        assert_eq!(SIG, Digest::new(std::hint::black_box(b"sig")));
        assert_eq!(KEYGEN, Digest::new(std::hint::black_box(b"keygen")));
        assert_eq!(PKI, Digest::new(std::hint::black_box(b"pki")));
    }

    #[test]
    fn cached_signer_state_gives_the_two_mix_tag() {
        let (keys, pki) = keygen(16, 9);
        for (i, (key, state)) in keys.iter().zip(pki.signers.iter()).enumerate() {
            for x in [0, 1, -1, i64::MAX, 0x5eed] {
                let d = digest(x);
                let secret = KEYGEN.push_u64(9).push_u64(i as u64).finish().as_u64();
                let reference = keyed_tag(secret, d);
                assert_eq!(state.tag(d), reference);
                assert_eq!(key.sign(d).tag(), reference);
                assert!(pki.verify(&key.sign(d), d).is_ok());
            }
        }
    }

    #[test]
    fn signatures_verify_under_the_right_digest() {
        let (keys, pki) = keygen(4, 1);
        let d = digest(10);
        let sig = keys[2].sign(d);
        assert!(pki.verify(&sig, d).is_ok());
        assert!(pki.verify(&sig, digest(11)).is_err());
    }

    #[test]
    fn signatures_are_not_transferable_between_signers() {
        let (keys, pki) = keygen(4, 1);
        let d = digest(10);
        let sig = keys[2].sign(d);
        let forged = Signature::new(ProcessId::new(3), sig.tag());
        assert_eq!(
            pki.verify(&forged, d),
            Err(Error::InvalidSignature {
                signer: ProcessId::new(3)
            })
        );
    }

    #[test]
    fn unknown_signer_is_rejected() {
        let (keys, pki) = keygen(4, 1);
        let d = digest(1);
        let sig = Signature::new(ProcessId::new(9), keys[0].sign(d).tag());
        assert!(matches!(
            pki.verify(&sig, d),
            Err(Error::UnknownProcess { .. })
        ));
    }

    #[test]
    fn keygen_is_deterministic_and_seed_sensitive() {
        let (a, _) = keygen(4, 5);
        let (b, _) = keygen(4, 5);
        let (c, _) = keygen(4, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn clones_share_one_key_table() {
        let (_, pki) = keygen(128, 1);
        let copy = pki.clone();
        assert!(Arc::ptr_eq(&pki.signers, &copy.signers));
        assert_eq!(pki, copy);
        assert_ne!(pki, keygen(128, 2).1);
    }

    #[test]
    fn threshold_verification_round_trips() {
        let (keys, pki) = keygen(7, 3);
        let d = digest(99);
        let partials: Vec<_> = keys.iter().take(5).map(|k| k.sign(d)).collect();
        let stakes = StakeTable::uniform(7);
        let tsig = ThresholdSignature::aggregate(d, &partials, &stakes, 5).unwrap();
        assert!(pki.verify_aggregate(&tsig, d, &stakes, 5).is_ok());
        assert!(pki.verify_aggregate(&tsig, d, &stakes, 6).is_err());
        assert!(matches!(
            pki.verify_aggregate(&tsig, digest(98), &stakes, 5),
            Err(Error::DigestMismatch { .. })
        ));
    }

    /// The wire form of an aggregate: digest, proof, then the bitmap words.
    fn decoded(digest: DigestValue, proof: u64, words: &[u64]) -> ThresholdSignature {
        let mut bytes = Vec::new();
        digest.encode_into(&mut bytes);
        bytes.extend_from_slice(&proof.to_le_bytes());
        bytes.extend_from_slice(&(words.len() as u32).to_le_bytes());
        for word in words {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        ThresholdSignature::decode_exact(&bytes).unwrap()
    }

    /// Regression: an aggregate naming nobody passed the count check under
    /// a zero threshold and then panicked naming its lowest signer.
    #[test]
    fn an_aggregate_naming_no_signer_is_rejected_without_a_panic() {
        let (_, pki) = keygen(4, 1);
        let d = digest(3);
        let empty = decoded(d, 1, &[0]);
        for threshold in [0, 1, 3] {
            assert_eq!(
                pki.verify_aggregate(&empty, d, &StakeTable::uniform(4), threshold),
                Err(Error::InsufficientSigners {
                    got: 0,
                    need: threshold.max(1)
                })
            );
        }
    }

    /// The digest is compared before any signer is visited, so an aggregate
    /// over another digest costs O(1) whatever its bitmap names.
    #[test]
    fn a_wrong_digest_is_rejected_before_the_signer_walk() {
        let (_, pki) = keygen(4, 1);
        let d = digest(5);
        // Signers 0, 1, 2 and 100; the walk fails on 100, which this
        // four-processor table does not know.
        let unknown = decoded(d, 7, &[0b111, 1 << 36]);
        assert_eq!(
            pki.verify_aggregate(&unknown, d, &StakeTable::uniform(4), 3),
            Err(Error::UnknownProcess {
                id: ProcessId::new(100)
            })
        );
        assert_eq!(
            pki.verify_aggregate(&unknown, digest(6), &StakeTable::uniform(4), 3),
            Err(Error::DigestMismatch {
                claimed: d.as_u64(),
                computed: digest(6).as_u64(),
            })
        );
    }
}
