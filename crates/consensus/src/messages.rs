//! Wire messages of the underlying SMR substrate.

use crate::block::{Block, BlockHash};
use crate::qc::QuorumCert;
use lumiere_crypto::{Signature, SIGNATURE_SIZE_BYTES};
use lumiere_types::wire::{put_u64, Reader, Wire, WireError};
use lumiere_types::View;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Messages exchanged by the underlying protocol within a view.
///
/// Per-variant size: `Vote` is `O(κ)` — two integers and one signature
/// (48 bytes). `Proposal` and `NewQc` embed a [`QuorumCert`] whose
/// threshold signature is a constant-size aggregate proof plus a
/// fixed-width signer bitmap: `O(κ + n/8)` — 32 digest bytes, 48 proof
/// bytes and `8·⌈n/64⌉` bitmap bytes, independent of the signer count.
/// Before aggregation the same certificate would cost `Θ(signers)` — one
/// 48-byte signature per contributing signer, i.e. `2f+1` signatures for a
/// quorum ([`ConsensusMessage::naive_auth_bytes`] still reports that cost
/// for comparison). `Proposal` additionally carries its transaction
/// payload. [`ConsensusMessage::wire_size`] reports the actual per-variant
/// cost.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConsensusMessage {
    /// Leader's proposal for its view.
    Proposal(Block),
    /// A replica's vote for `(view, block)`, sent to the leader.
    Vote {
        /// View being voted in.
        view: View,
        /// Block being voted for.
        block_hash: BlockHash,
        /// The voter's signature over the vote digest.
        signature: Signature,
    },
    /// Leader's announcement of a freshly formed quorum certificate.
    NewQc(QuorumCert),
}

impl ConsensusMessage {
    /// The view this message pertains to.
    pub fn view(&self) -> View {
        match self {
            ConsensusMessage::Proposal(block) => block.view(),
            ConsensusMessage::Vote { view, .. } => *view,
            ConsensusMessage::NewQc(qc) => qc.view(),
        }
    }

    /// Nominal wire size in bytes, computed per variant from the actual
    /// content: votes carry one signature; proposals and QC announcements
    /// carry their full embedded certificate (plus, for proposals, the
    /// transaction payload), so certificate bytes are never under-counted
    /// as a single bare signature.
    pub fn wire_size(&self) -> usize {
        match self {
            // hash + parent + height + view + proposer + payload + justify QC
            ConsensusMessage::Proposal(b) => {
                8 + 8 + 8 + 8 + 4 + b.payload().bytes() as usize + b.justify().wire_size()
            }
            ConsensusMessage::Vote { .. } => 8 + 8 + SIGNATURE_SIZE_BYTES,
            ConsensusMessage::NewQc(qc) => qc.wire_size(),
        }
    }

    /// Authenticator bytes carried by this message with the aggregated
    /// certificate representation: signatures, aggregate proofs, covered
    /// digests and signer bitmaps (headers and payload excluded).
    pub fn auth_bytes(&self) -> usize {
        match self {
            ConsensusMessage::Proposal(b) => b.justify().auth_bytes(),
            ConsensusMessage::Vote { .. } => SIGNATURE_SIZE_BYTES,
            ConsensusMessage::NewQc(qc) => qc.auth_bytes(),
        }
    }

    /// Authenticator bytes the same message would carry if certificates
    /// were naive per-signer signature vectors (`Θ(signers)` per
    /// certificate).
    pub fn naive_auth_bytes(&self) -> usize {
        match self {
            ConsensusMessage::Proposal(b) => b.justify().naive_auth_bytes(),
            ConsensusMessage::Vote { .. } => SIGNATURE_SIZE_BYTES,
            ConsensusMessage::NewQc(qc) => qc.naive_auth_bytes(),
        }
    }

    /// Number of signature verifications a receiver performs for this
    /// message with aggregated certificates: one per bare signature, one
    /// per aggregate proof (0 for the unsigned genesis certificate).
    pub fn verify_ops(&self) -> u64 {
        match self {
            ConsensusMessage::Proposal(b) => u64::from(!b.justify().is_genesis()),
            ConsensusMessage::Vote { .. } => 1,
            ConsensusMessage::NewQc(qc) => u64::from(!qc.is_genesis()),
        }
    }

    /// Verifications the same message would require with naive signature
    /// vectors: one per contributing signer of each certificate.
    pub fn naive_verify_ops(&self) -> u64 {
        match self {
            ConsensusMessage::Proposal(b) => b.justify().signer_count() as u64,
            ConsensusMessage::Vote { .. } => 1,
            ConsensusMessage::NewQc(qc) => qc.signer_count() as u64,
        }
    }

    /// Short human-readable kind tag (used in traces).
    pub fn kind(&self) -> &'static str {
        match self {
            ConsensusMessage::Proposal(_) => "proposal",
            ConsensusMessage::Vote { .. } => "vote",
            ConsensusMessage::NewQc(_) => "new-qc",
        }
    }
}

/// Wire form: a 1-byte tag — `0` `Proposal`, `1` `Vote`, `2` `NewQc` — then
/// the variant's fields in declaration order.
impl Wire for ConsensusMessage {
    fn encoded_len(&self) -> usize {
        1 + match self {
            ConsensusMessage::Proposal(block) => block.encoded_len(),
            ConsensusMessage::Vote { signature, .. } => 8 + 8 + signature.encoded_len(),
            ConsensusMessage::NewQc(qc) => qc.encoded_len(),
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            ConsensusMessage::Proposal(block) => {
                out.push(0);
                block.encode_into(out);
            }
            ConsensusMessage::Vote {
                view,
                block_hash,
                signature,
            } => {
                out.push(1);
                view.encode_into(out);
                put_u64(out, *block_hash);
                signature.encode_into(out);
            }
            ConsensusMessage::NewQc(qc) => {
                out.push(2);
                qc.encode_into(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.tag("ConsensusMessage")? {
            0 => Block::decode(r).map(ConsensusMessage::Proposal),
            1 => Ok(ConsensusMessage::Vote {
                view: View::decode(r)?,
                block_hash: r.u64("Vote.block_hash")?,
                signature: Signature::decode(r)?,
            }),
            2 => QuorumCert::decode(r).map(ConsensusMessage::NewQc),
            tag => Err(WireError::UnknownTag {
                what: "ConsensusMessage",
                tag,
            }),
        }
    }
}

impl fmt::Display for ConsensusMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.kind(), self.view())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumiere_types::ProcessId;

    #[test]
    fn views_are_reported_per_variant() {
        let b = Block::genesis();
        assert_eq!(ConsensusMessage::Proposal(b).view(), View::SENTINEL);
        let v = ConsensusMessage::Vote {
            view: View::new(3),
            block_hash: 1,
            signature: Signature::new(ProcessId::new(0), 0),
        };
        assert_eq!(v.view(), View::new(3));
        assert_eq!(v.kind(), "vote");
        assert_eq!(
            ConsensusMessage::NewQc(QuorumCert::genesis()).view(),
            View::SENTINEL
        );
    }

    #[test]
    fn wire_sizes_reflect_per_variant_content() {
        // Votes are one signature plus two integers; genesis certificates
        // carry no threshold signature (1 byte for the absent-option tag).
        let vote = ConsensusMessage::Vote {
            view: View::new(1),
            block_hash: 2,
            signature: Signature::new(ProcessId::new(0), 0),
        };
        assert_eq!(vote.wire_size(), 8 + 8 + SIGNATURE_SIZE_BYTES);
        assert_eq!(
            ConsensusMessage::NewQc(QuorumCert::genesis()).wire_size(),
            8 + 8 + 1
        );
        // A genesis proposal is header + empty payload + genesis justify.
        assert_eq!(
            ConsensusMessage::Proposal(Block::genesis()).wire_size(),
            8 + 8 + 8 + 8 + 4 + (8 + 8 + 1)
        );
        for m in [
            ConsensusMessage::Proposal(Block::genesis()),
            vote,
            ConsensusMessage::NewQc(QuorumCert::genesis()),
        ] {
            assert!(m.wire_size() > 0);
            assert!(!m.to_string().is_empty());
        }
    }

    #[test]
    fn certificate_bytes_are_not_undercounted() {
        use lumiere_crypto::keygen;
        use lumiere_types::{Duration, Params};

        let params = Params::new(7, Duration::from_millis(10));
        let (keys, _) = keygen(7, 3);
        let view = View::new(2);
        let digest = QuorumCert::vote_digest(view, 0xabc);
        let votes: Vec<_> = keys.iter().take(5).map(|k| k.sign(digest)).collect();
        let qc = QuorumCert::aggregate(view, 0xabc, &votes, &params).unwrap();
        // view + block hash + (digest + aggregate proof + one bitmap word
        // for n = 7): constant in the signer count.
        assert_eq!(
            ConsensusMessage::NewQc(qc.clone()).wire_size(),
            8 + 8 + (32 + 48 + 8)
        );
        // The aggregated authenticator is flat while the naive signature
        // vector pays per signer.
        let msg = ConsensusMessage::NewQc(qc.clone());
        assert_eq!(msg.auth_bytes(), 32 + 48 + 8);
        assert_eq!(msg.naive_auth_bytes(), 32 + 48 * 5);
        assert_eq!(msg.verify_ops(), 1);
        assert_eq!(msg.naive_verify_ops(), 5);
        // A proposal's justify contributes its full certificate size too.
        let block = Block::new(
            0xabc,
            1,
            View::new(3),
            ProcessId::new(0),
            lumiere_types::Batch::empty(),
            qc.clone(),
        );
        let proposal = ConsensusMessage::Proposal(block);
        assert_eq!(proposal.wire_size(), 8 + 8 + 8 + 8 + 4 + qc.wire_size());
        assert_eq!(proposal.auth_bytes(), qc.auth_bytes());
        assert_eq!(proposal.naive_auth_bytes(), qc.naive_auth_bytes());
        assert_eq!(proposal.verify_ops(), 1);
        assert_eq!(proposal.naive_verify_ops(), 5);
    }

    #[test]
    fn genesis_certificates_carry_no_authenticator() {
        let m = ConsensusMessage::NewQc(QuorumCert::genesis());
        assert_eq!(m.auth_bytes(), 0);
        assert_eq!(m.naive_auth_bytes(), 0);
        assert_eq!(m.verify_ops(), 0);
        assert_eq!(m.naive_verify_ops(), 0);
        let p = ConsensusMessage::Proposal(Block::genesis());
        assert_eq!(p.auth_bytes(), 0);
        assert_eq!(p.verify_ops(), 0);
        let vote = ConsensusMessage::Vote {
            view: View::new(1),
            block_hash: 2,
            signature: Signature::new(ProcessId::new(0), 0),
        };
        assert_eq!(vote.auth_bytes(), SIGNATURE_SIZE_BYTES);
        assert_eq!(vote.naive_auth_bytes(), SIGNATURE_SIZE_BYTES);
        assert_eq!(vote.verify_ops(), 1);
        assert_eq!(vote.naive_verify_ops(), 1);
    }
}
