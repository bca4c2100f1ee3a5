//! Wire messages of the underlying SMR substrate.

use crate::block::{Block, BlockHash};
use crate::qc::QuorumCert;
use lumiere_crypto::{Authenticator, Signature};
use lumiere_types::wire::{put_u64, Reader, Wire, WireError};
use lumiere_types::View;
use std::fmt;

/// Messages exchanged by the underlying protocol within a view.
#[derive(Debug, Clone, PartialEq, Eq)]
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

    /// What signs the message: the vote's signature, or the embedded
    /// certificate's (a proposal's `justify`).
    pub fn authenticator(&self) -> Authenticator<'_> {
        match self {
            ConsensusMessage::Proposal(b) => b.justify().authenticator(),
            ConsensusMessage::Vote { signature, .. } => Authenticator::Signature(signature),
            ConsensusMessage::NewQc(qc) => qc.authenticator(),
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
    fn genesis_certificates_carry_no_authenticator() {
        use lumiere_crypto::keygen;
        use lumiere_types::{Duration, Params};

        let m = ConsensusMessage::NewQc(QuorumCert::genesis());
        assert_eq!(m.authenticator(), Authenticator::None);
        let p = ConsensusMessage::Proposal(Block::genesis());
        assert_eq!(p.authenticator(), Authenticator::None);
        let signature = Signature::new(ProcessId::new(0), 0);
        let vote = ConsensusMessage::Vote {
            view: View::new(1),
            block_hash: 2,
            signature,
        };
        assert_eq!(vote.authenticator(), Authenticator::Signature(&signature));
        // A signed certificate is named by the announcement and by every
        // proposal it justifies.
        let params = Params::new(7, Duration::from_millis(10));
        let (keys, _) = keygen(7, 3);
        let digest = QuorumCert::vote_digest(View::new(2), 0xabc);
        let votes: Vec<_> = keys.iter().take(5).map(|k| k.sign(digest)).collect();
        let qc = QuorumCert::aggregate(View::new(2), 0xabc, &votes, &params).unwrap();
        let block = Block::new(
            0xabc,
            1,
            View::new(3),
            ProcessId::new(0),
            lumiere_types::Batch::empty(),
            qc.clone(),
        );
        assert!(matches!(qc.authenticator(), Authenticator::Aggregate(_)));
        assert_eq!(
            ConsensusMessage::Proposal(block).authenticator(),
            qc.authenticator()
        );
        assert_eq!(
            ConsensusMessage::NewQc(qc.clone()).authenticator(),
            qc.authenticator()
        );
        for m in [m, p, vote] {
            assert!(!m.to_string().is_empty());
        }
    }
}
