//! Single-signer signatures.

use lumiere_types::wire::{put_u64, Reader, Wire, WireError};
use lumiere_types::ProcessId;
use std::fmt;

/// A (simulated) signature by a single processor over a digest.
///
/// The signature is attributable: it carries the signer's identifier, and the
/// [`crate::Pki`] checks the keyed tag against that identifier's secret, so a
/// tag copied from one signer cannot be replayed under another identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    signer: ProcessId,
    tag: u64,
}

impl Signature {
    /// Constructs a signature from its parts. Normally produced via
    /// [`crate::KeyPair::sign`]; exposed so the simulator can inject
    /// malformed signatures when modelling Byzantine behaviour.
    pub fn new(signer: ProcessId, tag: u64) -> Self {
        Signature { signer, tag }
    }

    /// The claimed signer.
    pub fn signer(&self) -> ProcessId {
        self.signer
    }

    /// The keyed tag.
    pub fn tag(&self) -> u64 {
        self.tag
    }
}

/// Wire form: `signer: u32`, `tag: u64` (12 bytes) — the simulated
/// signature's content, not the 48 bytes a real one is modelled at.
impl Wire for Signature {
    fn encoded_len(&self) -> usize {
        4 + 8
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.signer.encode_into(out);
        put_u64(out, self.tag);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Signature {
            signer: ProcessId::decode(r)?,
            tag: r.u64("Signature.tag")?,
        })
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sig({}, {:016x})", self.signer, self.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_return_parts() {
        let s = Signature::new(ProcessId::new(3), 0xdead);
        assert_eq!(s.signer(), ProcessId::new(3));
        assert_eq!(s.tag(), 0xdead);
        assert!(s.to_string().contains("p3"));
    }

    #[test]
    fn wire_round_trip() {
        let s = Signature::new(ProcessId::new(3), 0xdead);
        let mut bytes = Vec::new();
        s.encode_into(&mut bytes);
        assert_eq!(bytes.len(), s.encoded_len());
        assert_eq!(Signature::decode_exact(&bytes).unwrap(), s);
        assert!(Signature::decode_exact(&bytes[..11]).is_err());
    }

    #[test]
    fn equality_includes_both_fields() {
        assert_eq!(
            Signature::new(ProcessId::new(1), 5),
            Signature::new(ProcessId::new(1), 5)
        );
        assert_ne!(
            Signature::new(ProcessId::new(1), 5),
            Signature::new(ProcessId::new(2), 5)
        );
        assert_ne!(
            Signature::new(ProcessId::new(1), 5),
            Signature::new(ProcessId::new(1), 6)
        );
    }
}
