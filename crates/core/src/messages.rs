//! Wire messages exchanged by pacemakers.

use crate::certs::{EpochCert, TimeoutCert, ViewCert, WishCert};
use lumiere_crypto::{Authenticator, SharedSignature, Signature};
use lumiere_types::wire::{Reader, Wire, WireError};
use lumiere_types::View;
use std::fmt;

/// Messages used by the view-synchronization protocols.
///
/// One enum covers every protocol in the workspace (Lumiere, Basic Lumiere,
/// LP22, Fever, Cogsworth/NK20, naive quadratic) so the simulator can route
/// them uniformly; each protocol only sends and reacts to the variants its
/// specification defines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacemakerMessage {
    /// "I have entered initial view `v`" — sent to `lead(v)` (Fever, Basic
    /// Lumiere, Lumiere).
    ViewMsg {
        /// The initial view entered.
        view: View,
        /// The sender's signature over [`crate::certs::view_msg_digest`].
        signature: Signature,
    },
    /// "I wish to enter epoch view `v`" — broadcast to all (LP22, Basic
    /// Lumiere, Lumiere).
    EpochViewMsg {
        /// The epoch view.
        view: View,
        /// The sender's signature over [`crate::certs::epoch_view_digest`],
        /// shared by every recipient's copy and checked once between them.
        signature: SharedSignature,
    },
    /// A view certificate broadcast by `lead(v)`.
    ViewCert(ViewCert),
    /// An explicitly relayed epoch certificate (used by LP22-style relaying;
    /// Lumiere assembles ECs locally from broadcast epoch-view messages).
    EpochCert(EpochCert),
    /// A relayed timeout certificate (diagnostic / baseline use).
    TimeoutCert(TimeoutCert),
    /// Cogsworth / NK20: "I wish to advance to view `v`" — sent to a
    /// prospective leader.
    Wish {
        /// The view the sender wishes to enter.
        view: View,
        /// Signature over [`crate::certs::wish_digest`].
        signature: Signature,
    },
    /// Cogsworth / NK20: a leader's aggregated synchronization certificate
    /// for view `v`, broadcast to all.
    SyncCert(WishCert),
    /// Naive quadratic pacemaker: a view-timeout announcement broadcast to
    /// all processors.
    Timeout {
        /// The view that timed out (the sender wants to enter `view + 1`).
        view: View,
        /// Signature over [`crate::certs::timeout_digest`].
        signature: Signature,
    },
}

impl PacemakerMessage {
    /// The view the message refers to.
    pub fn view(&self) -> View {
        match self {
            PacemakerMessage::ViewMsg { view, .. }
            | PacemakerMessage::EpochViewMsg { view, .. }
            | PacemakerMessage::Wish { view, .. }
            | PacemakerMessage::Timeout { view, .. } => *view,
            PacemakerMessage::ViewCert(c) => c.view(),
            PacemakerMessage::EpochCert(c) => c.view(),
            PacemakerMessage::TimeoutCert(c) => c.view(),
            PacemakerMessage::SyncCert(c) => c.view(),
        }
    }

    /// Short kind tag for traces and metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            PacemakerMessage::ViewMsg { .. } => "view-msg",
            PacemakerMessage::EpochViewMsg { .. } => "epoch-view-msg",
            PacemakerMessage::ViewCert(_) => "view-cert",
            PacemakerMessage::EpochCert(_) => "epoch-cert",
            PacemakerMessage::TimeoutCert(_) => "timeout-cert",
            PacemakerMessage::Wish { .. } => "wish",
            PacemakerMessage::SyncCert(_) => "sync-cert",
            PacemakerMessage::Timeout { .. } => "timeout",
        }
    }

    /// Whether this message is part of a *heavy* (all-to-all) epoch
    /// synchronization.
    pub fn is_heavy_sync(&self) -> bool {
        matches!(
            self,
            PacemakerMessage::EpochViewMsg { .. } | PacemakerMessage::EpochCert(_)
        )
    }

    /// What signs the message: the sender's signature, or the carried
    /// certificate's threshold signature.
    pub fn authenticator(&self) -> Authenticator<'_> {
        match self {
            PacemakerMessage::ViewMsg { signature, .. }
            | PacemakerMessage::Wish { signature, .. }
            | PacemakerMessage::Timeout { signature, .. } => Authenticator::Signature(signature),
            PacemakerMessage::EpochViewMsg { signature, .. } => Authenticator::Signature(signature),
            PacemakerMessage::ViewCert(c) => c.authenticator(),
            PacemakerMessage::EpochCert(c) => c.authenticator(),
            PacemakerMessage::TimeoutCert(c) => c.authenticator(),
            PacemakerMessage::SyncCert(c) => c.authenticator(),
        }
    }
}

/// Wire form: a 1-byte tag in declaration order — `0` `ViewMsg`, `1`
/// `EpochViewMsg`, `2` `ViewCert`, `3` `EpochCert`, `4` `TimeoutCert`, `5`
/// `Wish`, `6` `SyncCert`, `7` `Timeout` — then `view: i64` + signature for
/// the bare-signature variants (a shared signature's form is the plain
/// one's), or the certificate.
impl Wire for PacemakerMessage {
    fn encoded_len(&self) -> usize {
        1 + match self {
            PacemakerMessage::ViewMsg { signature, .. }
            | PacemakerMessage::Wish { signature, .. }
            | PacemakerMessage::Timeout { signature, .. } => 8 + signature.encoded_len(),
            PacemakerMessage::EpochViewMsg { signature, .. } => 8 + signature.encoded_len(),
            PacemakerMessage::ViewCert(c) => c.encoded_len(),
            PacemakerMessage::EpochCert(c) => c.encoded_len(),
            PacemakerMessage::TimeoutCert(c) => c.encoded_len(),
            PacemakerMessage::SyncCert(c) => c.encoded_len(),
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut signed = |tag: u8, view: &View, signature: &Signature| {
            out.push(tag);
            view.encode_into(out);
            signature.encode_into(out);
        };
        match self {
            PacemakerMessage::ViewMsg { view, signature } => signed(0, view, signature),
            PacemakerMessage::EpochViewMsg { view, signature } => signed(1, view, signature),
            PacemakerMessage::ViewCert(c) => {
                out.push(2);
                c.encode_into(out);
            }
            PacemakerMessage::EpochCert(c) => {
                out.push(3);
                c.encode_into(out);
            }
            PacemakerMessage::TimeoutCert(c) => {
                out.push(4);
                c.encode_into(out);
            }
            PacemakerMessage::Wish { view, signature } => signed(5, view, signature),
            PacemakerMessage::SyncCert(c) => {
                out.push(6);
                c.encode_into(out);
            }
            PacemakerMessage::Timeout { view, signature } => signed(7, view, signature),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        fn signed<S: Wire>(r: &mut Reader<'_>) -> Result<(View, S), WireError> {
            Ok((View::decode(r)?, S::decode(r)?))
        }
        Ok(match r.tag("PacemakerMessage")? {
            0 => {
                let (view, signature) = signed(r)?;
                PacemakerMessage::ViewMsg { view, signature }
            }
            1 => {
                let (view, signature) = signed(r)?;
                PacemakerMessage::EpochViewMsg { view, signature }
            }
            2 => PacemakerMessage::ViewCert(ViewCert::decode(r)?),
            3 => PacemakerMessage::EpochCert(EpochCert::decode(r)?),
            4 => PacemakerMessage::TimeoutCert(TimeoutCert::decode(r)?),
            5 => {
                let (view, signature) = signed(r)?;
                PacemakerMessage::Wish { view, signature }
            }
            6 => PacemakerMessage::SyncCert(WishCert::decode(r)?),
            7 => {
                let (view, signature) = signed(r)?;
                PacemakerMessage::Timeout { view, signature }
            }
            tag => {
                return Err(WireError::UnknownTag {
                    what: "PacemakerMessage",
                    tag,
                })
            }
        })
    }
}

impl fmt::Display for PacemakerMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.kind(), self.view())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certs::{view_msg_digest, ViewCert};
    use lumiere_crypto::keygen;
    use lumiere_types::{Duration, Params, ProcessId};

    #[test]
    fn view_accessor_covers_all_variants() {
        let params = Params::new(4, Duration::from_millis(1));
        let (keys, _) = keygen(4, 0);
        let v = View::new(6);
        let sigs: Vec<_> = keys
            .iter()
            .take(2)
            .map(|k| k.sign(view_msg_digest(v)))
            .collect();
        let vc = ViewCert::aggregate(v, &sigs, &params).unwrap();
        let msgs = vec![
            PacemakerMessage::ViewMsg {
                view: v,
                signature: keys[0].sign(view_msg_digest(v)),
            },
            PacemakerMessage::ViewCert(vc),
            PacemakerMessage::Timeout {
                view: v,
                signature: keys[0].sign(view_msg_digest(v)),
            },
            PacemakerMessage::Wish {
                view: v,
                signature: keys[0].sign(view_msg_digest(v)),
            },
        ];
        for m in msgs {
            assert_eq!(m.view(), v);
            match (&m, m.authenticator()) {
                (PacemakerMessage::ViewCert(c), auth) => assert_eq!(auth, c.authenticator()),
                (_, auth) => assert!(matches!(auth, Authenticator::Signature(_))),
            }
            assert!(!m.kind().is_empty());
            assert!(m.to_string().contains("v6"));
        }
    }

    #[test]
    fn heavy_sync_classification() {
        let (keys, _) = keygen(4, 0);
        let v = View::new(0);
        let heavy = PacemakerMessage::EpochViewMsg {
            view: v,
            signature: keys[0].sign(view_msg_digest(v)).into(),
        };
        let light = PacemakerMessage::ViewMsg {
            view: v,
            signature: keys[0].sign(view_msg_digest(v)),
        };
        assert!(heavy.is_heavy_sync());
        assert!(!light.is_heavy_sync());
        let _ = ProcessId::new(0);
    }
}
