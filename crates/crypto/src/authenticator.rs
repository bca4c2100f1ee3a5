//! What authenticates a message, and what that costs.
//!
//! Every message carries at most one authenticator: nothing (genesis
//! certificates, client submissions), one signature, or one aggregate. The
//! paper's communication measures are functions of that alone, so they are
//! computed here once — under the aggregated representation and under the
//! naive per-signer signature vector it replaces — and every message type
//! only names its authenticator.

use crate::signature::Signature;
use crate::threshold::ThresholdSignature;
use crate::{DIGEST_SIZE_BYTES, SIGNATURE_SIZE_BYTES};
use lumiere_types::wire::Wire;

/// The signature or certificate a message carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Authenticator<'a> {
    /// Unsigned: the genesis certificate, client traffic.
    None,
    /// One signer's signature.
    Signature(&'a Signature),
    /// A threshold signature: digest, aggregate proof and signer bitmap.
    Aggregate(&'a ThresholdSignature),
}

impl Authenticator<'_> {
    /// Modelled bytes with real cryptography: 48 for a signature; for an
    /// aggregate, the 32-byte digest, the 48-byte proof and `8·⌈n/64⌉`
    /// bitmap bytes — a function of `n`, constant in the signer count.
    pub fn bytes(&self) -> usize {
        match self {
            Authenticator::None => 0,
            Authenticator::Signature(_) => SIGNATURE_SIZE_BYTES,
            Authenticator::Aggregate(t) => {
                DIGEST_SIZE_BYTES + SIGNATURE_SIZE_BYTES + 8 * t.bitmap().words().len()
            }
        }
    }

    /// Modelled bytes if the aggregate were a naive signature vector: the
    /// digest plus one signature per signer, `Θ(signers)`.
    pub fn naive_bytes(&self) -> usize {
        match self {
            Authenticator::Aggregate(t) => {
                DIGEST_SIZE_BYTES + SIGNATURE_SIZE_BYTES * t.signer_count()
            }
            other => other.bytes(),
        }
    }

    /// Verifications a receiver performs: one per signature or aggregate.
    pub fn verify_ops(&self) -> u64 {
        u64::from(!matches!(self, Authenticator::None))
    }

    /// Verifications under naive signature vectors: one per signer.
    pub fn naive_verify_ops(&self) -> u64 {
        match self {
            Authenticator::Aggregate(t) => t.signer_count() as u64,
            other => other.verify_ops(),
        }
    }

    /// Bytes the simulated authenticator occupies in a frame (12 for a
    /// signature, `20 + 8·⌈n/64⌉` for an aggregate): `bytes()` minus this
    /// is what real cryptography would add to the frame.
    pub fn encoded_len(&self) -> usize {
        match self {
            Authenticator::None => 0,
            Authenticator::Signature(s) => s.encoded_len(),
            Authenticator::Aggregate(t) => t.encoded_len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::Digest;
    use crate::keys::keygen;
    use lumiere_types::{ProcessId, StakeTable};

    #[test]
    fn aggregate_bytes_are_constant_in_signers_and_step_with_n() {
        let d = Digest::new(b"t").push_i64(7).finish();
        for (n, words) in [(4usize, 1usize), (64, 1), (65, 2), (200, 4)] {
            let (keys, _) = keygen(n, 1);
            let small = (n - 1) / 3 + 1;
            let mut seen = Vec::new();
            for signers in [small, n] {
                let partials: Vec<_> = keys.iter().take(signers).map(|k| k.sign(d)).collect();
                let tsig =
                    ThresholdSignature::aggregate(d, &partials, &StakeTable::uniform(n), small)
                        .unwrap();
                let auth = Authenticator::Aggregate(&tsig);
                seen.push(auth.bytes());
                assert_eq!(auth.bytes(), 80 + 8 * words);
                assert_eq!(auth.naive_bytes(), 32 + 48 * signers);
                assert_eq!(
                    (auth.verify_ops(), auth.naive_verify_ops()),
                    (1, signers as u64)
                );
                // Real cryptography widens the 8-byte digest and proof.
                assert_eq!(auth.bytes() - auth.encoded_len(), 60);
            }
            assert_eq!(seen[0], seen[1], "constant in the signer count");
        }
        let sig = Signature::new(ProcessId::new(0), 1);
        let auth = Authenticator::Signature(&sig);
        assert_eq!(
            (auth.bytes(), auth.naive_bytes(), auth.encoded_len()),
            (48, 48, 12)
        );
        assert_eq!((auth.verify_ops(), auth.naive_verify_ops()), (1, 1));
        let none = Authenticator::None;
        assert_eq!(
            (none.bytes(), none.naive_bytes(), none.encoded_len()),
            (0, 0, 0)
        );
        assert_eq!((none.verify_ops(), none.naive_verify_ops()), (0, 0));
    }
}
