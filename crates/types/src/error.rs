//! Error types shared across the workspace.

use crate::id::ProcessId;
use std::fmt;

/// Convenience alias for results using [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by protocol components.
///
/// Protocol state machines in this workspace are written to *reject* invalid
/// inputs (bad signatures, malformed certificates, stale messages) rather
/// than panic, so that Byzantine inputs injected by the simulator are handled
/// gracefully.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A signature failed verification.
    InvalidSignature {
        /// The claimed signer.
        signer: ProcessId,
    },
    /// A threshold certificate carried fewer distinct signers than required.
    InsufficientSigners {
        /// Number of distinct signers present.
        got: usize,
        /// Number of distinct signers required.
        need: usize,
    },
    /// A certificate's threshold signature covers a different digest than
    /// the one recomputed from the certificate's own claimed contents.
    DigestMismatch {
        /// Digest value the certificate's signature claims to cover.
        claimed: u64,
        /// Digest value recomputed from the certificate's fields.
        computed: u64,
    },
    /// A message referenced an unknown processor.
    UnknownProcess {
        /// The offending identifier.
        id: ProcessId,
    },
    /// Generic protocol violation with a description.
    Protocol(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidSignature { signer } => {
                write!(f, "invalid signature claimed by {signer}")
            }
            Error::InsufficientSigners { got, need } => {
                write!(f, "certificate has {got} signers but needs {need}")
            }
            Error::DigestMismatch { claimed, computed } => {
                write!(
                    f,
                    "certificate signature covers digest {claimed:#018x} but its contents hash to {computed:#018x}"
                )
            }
            Error::UnknownProcess { id } => write!(f, "unknown processor {id}"),
            Error::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_useful_messages() {
        let e = Error::InvalidSignature {
            signer: ProcessId::new(2),
        };
        assert!(e.to_string().contains("p2"));
        let e = Error::InsufficientSigners { got: 2, need: 5 };
        assert!(e.to_string().contains("2"));
        assert!(e.to_string().contains("5"));
        let e = Error::DigestMismatch {
            claimed: 0xab,
            computed: 0xcd,
        };
        assert!(e.to_string().contains("0x00000000000000ab"));
        assert!(e.to_string().contains("0x00000000000000cd"));
        let e = Error::Protocol("bad".into());
        assert!(e.to_string().contains("bad"));
        let e = Error::UnknownProcess {
            id: ProcessId::new(9),
        };
        assert!(e.to_string().contains("p9"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<Error>();
    }
}
