//! The protocol's wire message: one enum for everything a node puts on the
//! network, regardless of which transport carries it.
//!
//! This type used to live inside the simulator (as `SimMessage`); it moved
//! here when the protocol was lifted out of the simulator so that the same
//! messages can travel through the discrete-event network, an in-process
//! channel mesh, or real TCP sockets. The simulator re-exports it under its
//! old name.

use lumiere_consensus::ConsensusMessage;
use lumiere_core::messages::PacemakerMessage;
use lumiere_crypto::Authenticator;
use lumiere_types::wire::{Reader, Wire, WireError};
use lumiere_types::{Transaction, View};
use std::fmt;

/// A message travelling between processors: a pacemaker
/// (view-synchronization) message, an underlying-protocol message, or a
/// client transaction submission being forwarded into a mempool.
///
/// Crosses the TCP mesh in its binary [`Wire`] form (see [`crate::codec`]),
/// its one encoding:
///
/// ```
/// use lumiere_runtime::WireMessage;
/// use lumiere_types::{Transaction, TxId, Wire};
/// let msg = WireMessage::Submit(Transaction::new(TxId::new(7)));
/// let mut bytes = Vec::new();
/// msg.encode_into(&mut bytes);
/// assert_eq!(WireMessage::decode_exact(&bytes).unwrap(), msg);
/// ```
///
/// It has no serde form, so no report or trace can carry a second one:
///
/// ```compile_fail,E0277
/// use lumiere_runtime::WireMessage;
/// use lumiere_types::{Transaction, TxId, Wire};
/// let msg = WireMessage::Submit(Transaction::new(TxId::new(7)));
/// let _ = serde::json::to_string(&msg);
/// let mut bytes = Vec::new();
/// msg.encode_into(&mut bytes);
/// assert_eq!(WireMessage::decode_exact(&bytes).unwrap(), msg);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMessage {
    /// A view-synchronization message.
    Pacemaker(PacemakerMessage),
    /// An underlying-protocol (HotStuff) message.
    Consensus(ConsensusMessage),
    /// A client transaction submitted into the recipient's mempool.
    Submit(Transaction),
}

impl WireMessage {
    /// Short kind tag for metrics and traces.
    pub fn kind(&self) -> &'static str {
        match self {
            WireMessage::Pacemaker(m) => m.kind(),
            WireMessage::Consensus(m) => m.kind(),
            WireMessage::Submit(_) => "submit",
        }
    }

    /// The view the message pertains to (`View::SENTINEL` for client
    /// traffic, which is view-agnostic).
    pub fn view(&self) -> View {
        match self {
            WireMessage::Pacemaker(m) => m.view(),
            WireMessage::Consensus(m) => m.view(),
            WireMessage::Submit(_) => View::SENTINEL,
        }
    }

    /// Whether this message belongs to a heavy epoch synchronization.
    pub fn is_heavy_sync(&self) -> bool {
        matches!(self, WireMessage::Pacemaker(m) if m.is_heavy_sync())
    }

    /// What signs the message (nothing for client traffic): the one fact
    /// every cost figure below derives from.
    pub fn authenticator(&self) -> Authenticator<'_> {
        match self {
            WireMessage::Pacemaker(m) => m.authenticator(),
            WireMessage::Consensus(m) => m.authenticator(),
            WireMessage::Submit(_) => Authenticator::None,
        }
    }

    /// Modelled wire size in bytes: the frame's content (`encoded_len()`)
    /// plus the declared transaction bodies the frame omits, with the
    /// simulated authenticator widened to real cryptography's size (+36 per
    /// signature, +60 per aggregate).
    pub fn wire_size(&self) -> usize {
        let bodies = match self {
            WireMessage::Submit(tx) => tx.size as usize,
            WireMessage::Consensus(ConsensusMessage::Proposal(b)) => b.payload().bytes() as usize,
            _ => 0,
        };
        let auth = self.authenticator();
        self.encoded_len() + bodies + auth.bytes() - auth.encoded_len()
    }

    /// Authenticator bytes with aggregated certificates.
    pub fn auth_bytes(&self) -> usize {
        self.authenticator().bytes()
    }

    /// Authenticator bytes with naive per-signer signature vectors.
    pub fn naive_auth_bytes(&self) -> usize {
        self.authenticator().naive_bytes()
    }

    /// Signature verifications the receiver performs.
    pub fn verify_ops(&self) -> u64 {
        self.authenticator().verify_ops()
    }

    /// Verifications with naive signature vectors.
    pub fn naive_verify_ops(&self) -> u64 {
        self.authenticator().naive_verify_ops()
    }
}

/// Wire form: a 1-byte tag — `0` `Pacemaker`, `1` `Consensus`, `2`
/// `Submit` — then the inner message.
impl Wire for WireMessage {
    fn encoded_len(&self) -> usize {
        1 + match self {
            WireMessage::Pacemaker(m) => m.encoded_len(),
            WireMessage::Consensus(m) => m.encoded_len(),
            WireMessage::Submit(tx) => tx.encoded_len(),
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WireMessage::Pacemaker(m) => {
                out.push(0);
                m.encode_into(out);
            }
            WireMessage::Consensus(m) => {
                out.push(1);
                m.encode_into(out);
            }
            WireMessage::Submit(tx) => {
                out.push(2);
                tx.encode_into(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.tag("WireMessage")? {
            0 => PacemakerMessage::decode(r).map(WireMessage::Pacemaker),
            1 => ConsensusMessage::decode(r).map(WireMessage::Consensus),
            2 => Transaction::decode(r).map(WireMessage::Submit),
            tag => Err(WireError::UnknownTag {
                what: "WireMessage",
                tag,
            }),
        }
    }
}

impl fmt::Display for WireMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireMessage::Pacemaker(m) => write!(f, "pm:{m}"),
            WireMessage::Consensus(m) => write!(f, "cons:{m}"),
            WireMessage::Submit(tx) => write!(f, "tx:{}", tx.id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumiere_core::certs::view_msg_digest;
    use lumiere_crypto::keygen;

    #[test]
    fn kind_view_and_heavy_sync_delegate() {
        let (keys, _) = keygen(4, 0);
        let v = View::new(3);
        let pm = WireMessage::Pacemaker(PacemakerMessage::EpochViewMsg {
            view: v,
            signature: keys[0].sign(view_msg_digest(v)).into(),
        });
        assert_eq!(pm.kind(), "epoch-view-msg");
        assert_eq!(pm.view(), v);
        assert!(pm.is_heavy_sync());
        assert!(pm.to_string().starts_with("pm:"));
        let cons = WireMessage::Consensus(ConsensusMessage::NewQc(
            lumiere_consensus::QuorumCert::genesis(),
        ));
        assert!(!cons.is_heavy_sync());
        assert_eq!(cons.kind(), "new-qc");
        assert!(cons.to_string().starts_with("cons:"));
        let submit =
            WireMessage::Submit(lumiere_types::Transaction::new(lumiere_types::TxId::new(9)));
        assert_eq!(submit.kind(), "submit");
        assert_eq!(submit.view(), View::SENTINEL);
        assert!(!submit.is_heavy_sync());
        assert!(submit.to_string().starts_with("tx:"));
    }
}
