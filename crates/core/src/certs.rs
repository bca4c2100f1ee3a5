//! Certificates assembled from pacemaker messages.
//!
//! * [`ViewCert`] (VC) — `f+1` *view `v`* messages aggregated by `lead(v)`
//!   (Sections 3.3–4).
//! * [`EpochCert`] (EC) — `2f+1` *epoch view `v`* messages (Sections 3.2–4).
//!   In Lumiere the EC is assembled locally from broadcast epoch-view
//!   messages; LP22-style protocols may also relay it explicitly.
//! * [`TimeoutCert`] (TC) — `f+1` *epoch view `v`* messages (Section 3.5):
//!   evidence that at least one honest processor did not observe the success
//!   criterion, prompting others to contribute epoch-view messages.
//! * [`WishCert`] — `f+1` wish messages aggregated by a prospective leader in
//!   the Cogsworth / NK20 relay baselines.

use lumiere_crypto::{
    Authenticator, Digest, DigestValue, Pki, SharedAggregate, Signature, Statement,
    ThresholdSignature,
};
use lumiere_types::wire::{Reader, Wire, WireError};
use lumiere_types::{Params, Result, View};

const VIEW_MSG: Digest = Digest::new(b"view-msg");

/// Digest signed by a processor wishing to tell `lead(v)` it entered initial
/// view `v`.
pub fn view_msg_digest(view: View) -> DigestValue {
    Statement::new(VIEW_MSG, view).digest()
}

const EPOCH_VIEW: Digest = Digest::new(b"epoch-view");

/// What a processor wishing to enter epoch view `v` signs.
pub fn epoch_view_statement(view: View) -> Statement {
    Statement::new(EPOCH_VIEW, view)
}

/// Digest signed by a processor wishing to enter epoch view `v`.
pub fn epoch_view_digest(view: View) -> DigestValue {
    epoch_view_statement(view).digest()
}

const WISH: Digest = Digest::new(b"wish");

/// Digest signed by a processor asking to advance to view `v` in the relay
/// (Cogsworth / NK20) baselines.
pub fn wish_digest(view: View) -> DigestValue {
    Statement::new(WISH, view).digest()
}

const TIMEOUT: Digest = Digest::new(b"timeout");

/// Digest signed by a processor reporting a timeout of view `v` in the naive
/// quadratic pacemaker.
pub fn timeout_digest(view: View) -> DigestValue {
    Statement::new(TIMEOUT, view).digest()
}

macro_rules! certificate {
    ($(#[$doc:meta])* $name:ident, $domain:ident, $threshold:ident) => {
        $(#[$doc])*
        ///
        /// The threshold signature is a [`SharedAggregate`]: `clone` is a
        /// reference bump, and the replicas sharing one allocation check it
        /// once between them.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct $name {
            view: View,
            tsig: SharedAggregate,
        }

        impl $name {
            /// Aggregates signatures over the certificate's digest for `view`,
            /// counting distinct signers among the processors of
            /// [`Params::stakes`].
            ///
            /// # Errors
            ///
            /// Fails if a signer is not one of the `n` processors or fewer
            /// than the required number of distinct signers contributed.
            pub fn aggregate(view: View, sigs: &[Signature], params: &Params) -> Result<Self> {
                let tsig = ThresholdSignature::aggregate(
                    Statement::new($domain, view).digest(),
                    sigs,
                    &params.stakes(),
                    params.$threshold(),
                )?;
                Ok(Self {
                    view,
                    tsig: tsig.into(),
                })
            }

            /// The view the certificate refers to.
            pub fn view(&self) -> View {
                self.view
            }

            /// The threshold signature.
            pub fn authenticator(&self) -> Authenticator<'_> {
                Authenticator::Aggregate(&self.tsig)
            }

            /// Verifies the certificate against the PKI and its threshold.
            ///
            /// # Errors
            ///
            /// Propagates signature/threshold verification failures.
            pub fn verify(&self, pki: &Pki, params: &Params) -> Result<()> {
                self.tsig.verify(
                    pki,
                    Statement::new($domain, self.view),
                    &params.stakes(),
                    params.$threshold(),
                )
            }
        }

        /// Wire form: `view: i64`, then the threshold signature.
        impl Wire for $name {
            fn encoded_len(&self) -> usize {
                8 + self.tsig.encoded_len()
            }

            fn encode_into(&self, out: &mut Vec<u8>) {
                self.view.encode_into(out);
                self.tsig.encode_into(out);
            }

            fn decode(r: &mut Reader<'_>) -> std::result::Result<Self, WireError> {
                Ok(Self {
                    view: View::decode(r)?,
                    tsig: SharedAggregate::decode(r)?,
                })
            }
        }
    };
}

certificate!(
    /// View certificate: `f+1` view-`v` messages aggregated by the leader of
    /// the initial view `v`.
    ViewCert,
    VIEW_MSG,
    small_quorum
);

certificate!(
    /// Epoch certificate: `2f+1` epoch-view-`v` messages; entering epoch view
    /// `v` on its evidence keeps consistency across the epoch change.
    EpochCert,
    EPOCH_VIEW,
    quorum
);

certificate!(
    /// Timeout certificate: `f+1` epoch-view-`v` messages; proves at least
    /// one *honest* processor did not see the success criterion, so everyone
    /// must contribute to the epoch change (Section 3.5).
    TimeoutCert,
    EPOCH_VIEW,
    small_quorum
);

certificate!(
    /// Wish certificate used by the relay-based baselines: `f+1` wish
    /// messages for view `v` aggregated by a prospective leader.
    WishCert,
    WISH,
    small_quorum
);

/// `cert` as a peer would forge it: the low bit of the aggregate proof
/// flipped on the wire (view: 8 bytes, covered digest: 8, then the proof).
#[cfg(test)]
pub(crate) fn forged<C: Wire>(cert: &C) -> C {
    let mut bytes = Vec::new();
    cert.encode_into(&mut bytes);
    bytes[16] ^= 1;
    C::decode_exact(&bytes).expect("a flipped proof bit still decodes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumiere_crypto::keygen;
    use lumiere_types::Duration;

    fn setup() -> (Vec<lumiere_crypto::KeyPair>, Pki, Params) {
        let params = Params::new(7, Duration::from_millis(10));
        let (keys, pki) = keygen(7, 2);
        (keys, pki, params)
    }

    #[test]
    fn the_const_domains_are_the_run_time_ones() {
        let at_run_time = |domain: &[u8]| Digest::new(std::hint::black_box(domain));
        assert_eq!(VIEW_MSG, at_run_time(b"view-msg"));
        assert_eq!(EPOCH_VIEW, at_run_time(b"epoch-view"));
        assert_eq!(WISH, at_run_time(b"wish"));
        assert_eq!(TIMEOUT, at_run_time(b"timeout"));
    }

    #[test]
    fn view_cert_needs_f_plus_one() {
        let (keys, pki, params) = setup();
        let v = View::new(4);
        let sigs: Vec<_> = keys
            .iter()
            .take(2)
            .map(|k| k.sign(view_msg_digest(v)))
            .collect();
        assert!(ViewCert::aggregate(v, &sigs, &params).is_err());
        let sigs: Vec<_> = keys
            .iter()
            .take(3)
            .map(|k| k.sign(view_msg_digest(v)))
            .collect();
        let vc = ViewCert::aggregate(v, &sigs, &params).unwrap();
        assert_eq!(vc.view(), v);
        assert_eq!(vc.authenticator().naive_verify_ops(), 3, "one per signer");
        assert!(vc.verify(&pki, &params).is_ok());
    }

    #[test]
    fn epoch_cert_needs_quorum_but_timeout_cert_needs_f_plus_one() {
        let (keys, pki, params) = setup();
        let v = View::new(70);
        let sigs: Vec<_> = keys
            .iter()
            .take(3)
            .map(|k| k.sign(epoch_view_digest(v)))
            .collect();
        assert!(EpochCert::aggregate(v, &sigs, &params).is_err());
        let tc = TimeoutCert::aggregate(v, &sigs, &params).unwrap();
        assert!(tc.verify(&pki, &params).is_ok());
        let sigs: Vec<_> = keys
            .iter()
            .take(5)
            .map(|k| k.sign(epoch_view_digest(v)))
            .collect();
        let ec = EpochCert::aggregate(v, &sigs, &params).unwrap();
        assert!(ec.verify(&pki, &params).is_ok());
    }

    #[test]
    fn certificates_do_not_verify_for_other_views() {
        let (keys, pki, params) = setup();
        let v = View::new(2);
        let sigs: Vec<_> = keys
            .iter()
            .take(3)
            .map(|k| k.sign(view_msg_digest(v)))
            .collect();
        let mut vc = ViewCert::aggregate(v, &sigs, &params).unwrap();
        vc.view = View::new(3);
        assert!(vc.verify(&pki, &params).is_err());
    }

    #[test]
    fn wish_cert_round_trips() {
        let (keys, pki, params) = setup();
        let v = View::new(9);
        let sigs: Vec<_> = keys
            .iter()
            .take(3)
            .map(|k| k.sign(wish_digest(v)))
            .collect();
        let wc = WishCert::aggregate(v, &sigs, &params).unwrap();
        assert!(wc.verify(&pki, &params).is_ok());
        assert_eq!(wc.view(), v);
    }

    #[test]
    fn digests_are_domain_separated() {
        let v = View::new(5);
        let digests = [
            view_msg_digest(v),
            epoch_view_digest(v),
            wish_digest(v),
            timeout_digest(v),
        ];
        for i in 0..digests.len() {
            for j in 0..digests.len() {
                if i != j {
                    assert_ne!(digests[i], digests[j]);
                }
            }
        }
    }

    #[test]
    fn signatures_from_wrong_domain_do_not_aggregate_into_valid_certs() {
        let (keys, pki, params) = setup();
        let v = View::new(6);
        // Processors signed *wish* digests; an adversary tries to pass them
        // off as view messages.
        let sigs: Vec<_> = keys
            .iter()
            .take(3)
            .map(|k| k.sign(wish_digest(v)))
            .collect();
        let forged = ViewCert {
            view: v,
            tsig: ThresholdSignature::aggregate(wish_digest(v), &sigs, &params.stakes(), 3)
                .unwrap()
                .into(),
        };
        assert!(forged.verify(&pki, &params).is_err());
    }

    #[test]
    fn digest_mismatch_names_both_digests() {
        // Regression: the macro used to report this as a view mismatch with
        // identical `expected` and `found` views, saying nothing about the
        // digests that actually disagreed.
        let (keys, pki, params) = setup();
        let v = View::new(6);
        let sigs: Vec<_> = keys
            .iter()
            .take(3)
            .map(|k| k.sign(wish_digest(v)))
            .collect();
        let forged = ViewCert {
            view: v,
            tsig: ThresholdSignature::aggregate(wish_digest(v), &sigs, &params.stakes(), 3)
                .unwrap()
                .into(),
        };
        assert_eq!(
            forged.verify(&pki, &params),
            Err(lumiere_types::Error::DigestMismatch {
                claimed: wish_digest(v).as_u64(),
                computed: view_msg_digest(v).as_u64(),
            })
        );
    }

    fn wire<C: Wire>(cert: &C) -> Vec<u8> {
        let mut bytes = Vec::new();
        cert.encode_into(&mut bytes);
        bytes
    }

    /// A checked `cert` and an unchecked (decoded) copy of it read the same
    /// in every form an action-stream pin or a frame is made of; a forgery
    /// of it, made before any check and shared by eight handles, fails
    /// every check on every handle.
    fn memo_is_invisible_and_forgeries_always_fail<C>(cert: C, verify: impl Fn(&C) -> bool)
    where
        C: Wire + Clone + std::fmt::Debug + PartialEq,
    {
        let unchecked = C::decode_exact(&wire(&cert)).unwrap();
        assert!(verify(&cert));
        assert_eq!(format!("{cert:?}"), format!("{unchecked:?}"));
        assert_eq!(format!("{cert:#?}"), format!("{unchecked:#?}"));
        assert!(format!("{cert:?}").contains(", tsig: ThresholdSignature { digest: "));
        assert_eq!(wire(&cert), wire(&unchecked));
        assert!(cert == unchecked);
        let handles = vec![forged(&cert); 8];
        for _ in 0..3 {
            for handle in &handles {
                assert!(!verify(handle));
            }
        }
        assert!(verify(&unchecked));
    }

    #[test]
    fn every_certificate_type_hides_its_memo_and_fails_a_shared_forgery() {
        let (keys, pki, params) = setup();
        let v = View::new(8);
        let signed = |digest: DigestValue, count: usize| -> Vec<Signature> {
            keys.iter().take(count).map(|k| k.sign(digest)).collect()
        };
        let sigs = signed(view_msg_digest(v), 3);
        memo_is_invisible_and_forgeries_always_fail(
            ViewCert::aggregate(v, &sigs, &params).unwrap(),
            |c| c.verify(&pki, &params).is_ok(),
        );
        let sigs = signed(epoch_view_digest(v), 5);
        memo_is_invisible_and_forgeries_always_fail(
            EpochCert::aggregate(v, &sigs, &params).unwrap(),
            |c| c.verify(&pki, &params).is_ok(),
        );
        memo_is_invisible_and_forgeries_always_fail(
            TimeoutCert::aggregate(v, &sigs, &params).unwrap(),
            |c| c.verify(&pki, &params).is_ok(),
        );
        let sigs = signed(wish_digest(v), 3);
        memo_is_invisible_and_forgeries_always_fail(
            WishCert::aggregate(v, &sigs, &params).unwrap(),
            |c| c.verify(&pki, &params).is_ok(),
        );
    }
}
