//! Simulated cryptography substrate for the Lumiere reproduction.
//!
//! The paper assumes a signature scheme, a PKI and a threshold signature
//! scheme (Boneh–Lynn–Shacham / Shoup-style) producing `O(κ)`-size aggregate
//! signatures of `f+1`-of-`n` or `2f+1`-of-`n` processors. For a
//! deterministic, dependency-free, laptop-scale reproduction we substitute a
//! **simulated** scheme based on keyed 64-bit hashes:
//!
//! * every processor holds a secret scalar known also to the [`Pki`]
//!   (standing in for the public-key verification relation),
//! * a [`Signature`] over a [`DigestValue`] is a keyed hash of the digest
//!   under the signer's secret,
//! * a [`ThresholdSignature`] aggregates the partial signatures of distinct
//!   signers into a single constant-size proof plus a fixed-width
//!   [`SignerBitmap`] (`⌈n/64⌉` words) naming the contributors, held by
//!   every certificate through one [`SharedAggregate`] handle that checks a
//!   shared allocation once per key table (an epoch-view broadcast's single
//!   signature travels the same way, in a [`SharedSignature`]), and
//! * quorum tallies count distinct processors out of a
//!   [`StakeTable`](lumiere_types::StakeTable)'s `n`, the paper's `f+1`
//!   and `2f+1` thresholds exactly.
//!
//! The substitution preserves exactly the properties the protocols rely on:
//! unforgeability *within the simulation* (honest code never signs on behalf
//! of another processor; the verifier recomputes the keyed hashes over
//! exactly the bitmap's set bits), distinct signer counting, constant-size
//! certificates for message-size accounting, and the `f+1` / `2f+1`
//! aggregation thresholds. It is **not** cryptographically secure and must
//! never be used outside the simulator; `docs/CERTIFICATES.md`, "The
//! simulated scheme", gives the rationale and the sizes charged.
//!
//! # Paper mapping
//!
//! Section 2's cryptographic assumptions: the PKI and threshold signature
//! setup every protocol of Table 1 presumes, and the `O(κ)` certificate
//! size that makes the paper's per-message accounting (every message a
//! constant number of hashes/signatures) meaningful in the simulator's
//! communication measures.
//!
//! # Example
//!
//! ```
//! use lumiere_crypto::{keygen, Digest, SharedAggregate, Statement, ThresholdSignature};
//! use lumiere_types::{ProcessId, StakeTable, View};
//!
//! let (keys, pki) = keygen(4, 42);
//! let stakes = StakeTable::uniform(4);
//! const VIEW_MSG: Digest = Digest::new(b"view-msg");
//! let statement = Statement::new(VIEW_MSG, View::new(7));
//! let digest = statement.digest();
//! let partials: Vec<_> = keys.iter().map(|k| k.sign(digest)).collect();
//! let tsig = ThresholdSignature::aggregate(digest, &partials, &stakes, 3).unwrap();
//! let cert = SharedAggregate::from(tsig);
//! assert!(cert.verify(&pki, statement, &stakes, 3).is_ok());
//! assert!(cert.clone().verify(&pki, statement, &stakes, 3).is_ok()); // a memo hit
//! assert!(cert.bitmap().contains(ProcessId::new(0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod authenticator;
pub mod digest;
pub mod keys;
pub mod shared;
pub mod signature;
pub mod threshold;

pub use authenticator::Authenticator;
pub use digest::{Digest, DigestValue, LastDigest};
pub use keys::{keygen, KeyPair, Pki};
pub use shared::{SharedAggregate, SharedSignature, Statement};
pub use signature::Signature;
pub use threshold::{PartialSet, SignerBitmap, ThresholdSignature};

/// Nominal size in bytes of a single signature or threshold signature
/// (`O(κ)` with κ = 32 bytes), used by [`Authenticator`]'s cost model.
pub const SIGNATURE_SIZE_BYTES: usize = 48;

/// Nominal size in bytes of a hash / digest value.
pub const DIGEST_SIZE_BYTES: usize = 32;
