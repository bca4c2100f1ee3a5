//! Quorum certificates.

use crate::block::{BlockHash, GENESIS_HASH};
use lumiere_crypto::{
    Authenticator, Digest, DigestValue, Pki, SharedAggregate, Signature, Statement,
    ThresholdSignature,
};
use lumiere_types::wire::{put_u64, Reader, Wire, WireError};
use lumiere_types::{Error, Params, Result, View};
use std::fmt;

/// A quorum certificate: a `2f+1` threshold signature over `(view, block)`
/// testifying that a quorum completed the view's instructions for that block.
///
/// The genesis certificate (for the genesis block, sentinel view) carries no
/// threshold signature and is accepted by construction.
///
/// The threshold signature is a [`SharedAggregate`], made where the
/// certificate is aggregated or decoded, so `clone` — into `high_qc`, a
/// proposal's justify, every notification — is a reference bump, and the
/// replicas sharing one allocation check it once between them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuorumCert {
    view: View,
    block_hash: BlockHash,
    tsig: Option<SharedAggregate>,
}

/// The domain of [`QuorumCert::vote_digest`].
const VOTE: Digest = Digest::new(b"vote");

impl QuorumCert {
    /// The certificate vouching for the genesis block.
    pub fn genesis() -> Self {
        QuorumCert {
            view: View::SENTINEL,
            block_hash: GENESIS_HASH,
            tsig: None,
        }
    }

    /// Digest that replicas sign when voting for `(view, block_hash)`.
    pub fn vote_digest(view: View, block_hash: BlockHash) -> DigestValue {
        Self::statement(view, block_hash).digest()
    }

    /// What a vote for `(view, block_hash)`, and so a certificate of such
    /// votes, states.
    fn statement(view: View, block_hash: BlockHash) -> Statement {
        Statement::for_block(VOTE, view, block_hash)
    }

    /// Aggregates `2f+1` vote signatures into a quorum certificate,
    /// counting distinct signers among the processors of
    /// [`Params::stakes`].
    ///
    /// # Errors
    ///
    /// Returns an error if a signer is not one of the `n` processors or
    /// fewer than `2f+1` distinct signers contributed.
    pub fn aggregate(
        view: View,
        block_hash: BlockHash,
        votes: &[Signature],
        params: &Params,
    ) -> Result<Self> {
        let digest = Self::vote_digest(view, block_hash);
        let tsig = ThresholdSignature::aggregate(digest, votes, &params.stakes(), params.quorum())?;
        Ok(QuorumCert {
            view,
            block_hash,
            tsig: Some(tsig.into()),
        })
    }

    /// The view this certificate completes.
    pub fn view(&self) -> View {
        self.view
    }

    /// The certified block.
    pub fn block_hash(&self) -> BlockHash {
        self.block_hash
    }

    /// Whether this is the genesis certificate.
    pub fn is_genesis(&self) -> bool {
        self.tsig.is_none()
    }

    /// Verifies the certificate against the PKI and the quorum threshold.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] for a malformed genesis certificate,
    /// otherwise whatever threshold verification reports (bad signers,
    /// insufficient signers, wrong digest).
    pub fn verify(&self, pki: &Pki, params: &Params) -> Result<()> {
        match &self.tsig {
            None => {
                if self.view == View::SENTINEL && self.block_hash == GENESIS_HASH {
                    Ok(())
                } else {
                    Err(Error::Protocol(
                        "non-genesis certificate without threshold signature".into(),
                    ))
                }
            }
            Some(tsig) => tsig.verify(
                pki,
                Self::statement(self.view, self.block_hash),
                &params.stakes(),
                params.quorum(),
            ),
        }
    }

    /// The threshold signature, or nothing for genesis.
    pub fn authenticator(&self) -> Authenticator<'_> {
        self.tsig
            .as_deref()
            .map_or(Authenticator::None, Authenticator::Aggregate)
    }
}

/// Wire form: `view: i64`, `block_hash: u64`, then a presence tag — `0`
/// for the unsigned genesis certificate, `1` followed by the threshold
/// signature otherwise.
impl Wire for QuorumCert {
    fn encoded_len(&self) -> usize {
        8 + 8 + 1 + self.tsig.as_deref().map_or(0, Wire::encoded_len)
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.view.encode_into(out);
        put_u64(out, self.block_hash);
        match &self.tsig {
            None => out.push(0),
            Some(tsig) => {
                out.push(1);
                tsig.encode_into(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> std::result::Result<Self, WireError> {
        Ok(QuorumCert {
            view: View::decode(r)?,
            block_hash: r.u64("QuorumCert.block_hash")?,
            tsig: match r.tag("QuorumCert.tsig")? {
                0 => None,
                1 => Some(SharedAggregate::decode(r)?),
                tag => {
                    return Err(WireError::UnknownTag {
                        what: "QuorumCert.tsig",
                        tag,
                    })
                }
            },
        })
    }
}

impl fmt::Display for QuorumCert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_genesis() {
            write!(f, "QC[genesis]")
        } else {
            write!(f, "QC[{} block {:016x}]", self.view, self.block_hash)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumiere_crypto::keygen;
    use lumiere_types::Duration;

    fn setup(n: usize) -> (Vec<lumiere_crypto::KeyPair>, Pki, Params) {
        let params = Params::new(n, Duration::from_millis(10));
        let (keys, pki) = keygen(n, 1);
        (keys, pki, params)
    }

    #[test]
    fn the_const_domain_is_the_run_time_one() {
        assert_eq!(VOTE, Digest::new(std::hint::black_box(b"vote")));
    }

    /// A 5-of-7 certificate for block `0xabc` in view 4.
    fn certificate(keys: &[lumiere_crypto::KeyPair], params: &Params) -> QuorumCert {
        let view = View::new(4);
        let digest = QuorumCert::vote_digest(view, 0xabc);
        let votes: Vec<_> = keys.iter().take(5).map(|k| k.sign(digest)).collect();
        QuorumCert::aggregate(view, 0xabc, &votes, params).unwrap()
    }

    fn wire(qc: &QuorumCert) -> Vec<u8> {
        let mut bytes = Vec::new();
        qc.encode_into(&mut bytes);
        bytes
    }

    #[test]
    fn clones_share_the_signature_and_decoding_makes_one() {
        let (keys, pki, params) = setup(7);
        let qc = certificate(&keys, &params);
        let shared = |a: &QuorumCert, b: &QuorumCert| match (a.tsig.as_deref(), b.tsig.as_deref()) {
            (Some(x), Some(y)) => std::ptr::eq(x, y),
            _ => false,
        };
        assert!(shared(&qc, &qc.clone()));
        let decoded = QuorumCert::decode_exact(&wire(&qc)).unwrap();
        assert!(!shared(&qc, &decoded), "a decoded copy is its own");
        assert_eq!(decoded, qc, "and equal field by field");
        assert!(decoded.verify(&pki, &params).is_ok());
    }

    /// A checked certificate and an unchecked (decoded) copy of it read the
    /// same in every form an action-stream pin or a frame is made of.
    #[test]
    fn a_checked_and_an_unchecked_copy_look_the_same() {
        let (keys, pki, params) = setup(7);
        let checked = certificate(&keys, &params);
        let unchecked = QuorumCert::decode_exact(&wire(&checked)).unwrap();
        assert!(checked.verify(&pki, &params).is_ok());
        assert_eq!(format!("{checked:?}"), format!("{unchecked:?}"));
        assert_eq!(format!("{checked:#?}"), format!("{unchecked:#?}"));
        assert_eq!(wire(&checked), wire(&unchecked));
        assert_eq!(checked, unchecked);
    }

    /// The in-process channel mesh hands one broadcast's clones, and so one
    /// shared certificate, to several node threads at once; each thread
    /// gets its own key table's answer.
    #[test]
    fn threads_sharing_a_certificate_each_get_their_own_tables_answer() {
        let (keys, pki, params) = setup(7);
        let (_, wrong) = keygen(7, 2);
        let qc = certificate(&keys, &params);
        std::thread::scope(|s| {
            for t in 0..8 {
                let (table, valid) = if t % 2 == 0 {
                    (&pki, true)
                } else {
                    (&wrong, false)
                };
                let (qc, params) = (&qc, &params);
                s.spawn(move || {
                    for _ in 0..500 {
                        assert_eq!(qc.clone().verify(table, params).is_ok(), valid);
                    }
                });
            }
        });
    }

    #[test]
    fn genesis_verifies() {
        let (_, pki, params) = setup(4);
        assert!(QuorumCert::genesis().verify(&pki, &params).is_ok());
        assert!(QuorumCert::genesis().is_genesis());
        assert_eq!(QuorumCert::genesis().authenticator(), Authenticator::None);
    }

    #[test]
    fn quorum_of_votes_produces_verifying_qc() {
        let (keys, pki, params) = setup(7);
        let view = View::new(4);
        let digest = QuorumCert::vote_digest(view, 0xabc);
        let votes: Vec<_> = keys.iter().take(5).map(|k| k.sign(digest)).collect();
        let qc = QuorumCert::aggregate(view, 0xabc, &votes, &params).unwrap();
        assert!(qc.verify(&pki, &params).is_ok());
        assert_eq!(qc.view(), view);
        assert_eq!(qc.block_hash(), 0xabc);
        assert_eq!(qc.authenticator().naive_verify_ops(), 5, "one per signer");
        assert!(qc.to_string().contains("v4"));
    }

    #[test]
    fn too_few_votes_are_rejected() {
        let (keys, _, params) = setup(7);
        let view = View::new(4);
        let digest = QuorumCert::vote_digest(view, 0xabc);
        let votes: Vec<_> = keys.iter().take(4).map(|k| k.sign(digest)).collect();
        assert!(QuorumCert::aggregate(view, 0xabc, &votes, &params).is_err());
    }

    #[test]
    fn votes_for_a_different_block_do_not_aggregate_into_a_valid_qc() {
        let (keys, pki, params) = setup(4);
        let view = View::new(2);
        let digest_other = QuorumCert::vote_digest(view, 0xdead);
        let votes: Vec<_> = keys.iter().take(3).map(|k| k.sign(digest_other)).collect();
        // Aggregating them while claiming block 0xabc yields a certificate
        // whose threshold signature covers the wrong digest.
        let tsig =
            ThresholdSignature::aggregate(digest_other, &votes, &params.stakes(), 3).unwrap();
        let qc = QuorumCert {
            view,
            block_hash: 0xabc,
            tsig: Some(tsig.into()),
        };
        assert!(qc.verify(&pki, &params).is_err());
    }

    #[test]
    fn digest_mismatch_names_both_digests() {
        // Regression: this used to surface as a view-mismatch error with the
        // same view in both fields, which named neither the claimed nor the
        // recomputed digest and pointed at the wrong kind of corruption.
        let (keys, pki, params) = setup(4);
        let view = View::new(2);
        let digest_other = QuorumCert::vote_digest(view, 0xdead);
        let votes: Vec<_> = keys.iter().take(3).map(|k| k.sign(digest_other)).collect();
        let tsig =
            ThresholdSignature::aggregate(digest_other, &votes, &params.stakes(), 3).unwrap();
        let qc = QuorumCert {
            view,
            block_hash: 0xabc,
            tsig: Some(tsig.into()),
        };
        let claimed_digest = QuorumCert::vote_digest(view, 0xdead).as_u64();
        let computed_digest = QuorumCert::vote_digest(view, 0xabc).as_u64();
        assert_eq!(
            qc.verify(&pki, &params),
            Err(Error::DigestMismatch {
                claimed: claimed_digest,
                computed: computed_digest,
            })
        );
    }

    #[test]
    fn forged_genesis_like_cert_is_rejected() {
        let (_, pki, params) = setup(4);
        let qc = QuorumCert {
            view: View::new(3),
            block_hash: 0x1,
            tsig: None,
        };
        assert!(qc.verify(&pki, &params).is_err());
    }
}
