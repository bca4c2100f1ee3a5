//! What every pacemaker remembers per view: facts about views this
//! processor reached, one bit each, in a [`ViewLedger`]; and the f+1 or 2f+1
//! signed messages it collects into a certificate, in one [`SigPool`] per
//! message class.
//!
//! A ledger record exists only for views this processor's clock or a
//! verified certificate has reached (see [`ViewWindow`]); a view a single
//! peer names is only ever read there. What a peer can name on its own goes
//! into a pool, where a far-future view costs one entry.

use lumiere_crypto::Signature;
use lumiere_types::view::ViewWindow;
use lumiere_types::{ProcessId, View};
use std::collections::BTreeMap;

/// One fact a pacemaker records about a view: a bit of a [`ViewLedger`]
/// record. Flags combine with `|`.
pub type Flag = u16;

/// This processor sent its view message for the view.
pub const SENT_VIEW_MSG: Flag = 1 << 0;
/// This processor broadcast its epoch-view message for the view.
pub const SENT_EPOCH_MSG: Flag = 1 << 1;
/// This processor, as leader, aggregated the view's VC.
pub const FORMED_VC: Flag = 1 << 2;
/// A VC for the view has been formed or verified.
pub const SEEN_VC: Flag = 1 << 3;
/// A TC (f+1 epoch-view messages) for the view has been seen.
pub const SEEN_TC: Flag = 1 << 4;
/// An EC (2f+1 epoch-view messages) for the view has been seen.
pub const SEEN_EC: Flag = 1 << 5;
/// A QC for the view has been acted on.
pub const OBSERVED_QC: Flag = 1 << 6;
/// The clock reached this epoch view and paused (or synchronized) there.
pub const EPOCH_PAUSE_TAKEN: Flag = 1 << 7;
/// The clock reached this initial view and entered it.
pub const INITIAL_TRIGGER_FIRED: Flag = 1 << 8;
/// A QC for the view is in its epoch's success tally.
pub const TALLIED_QC: Flag = 1 << 9;
/// This processor broadcast its timeout message for the view.
pub const SENT_TIMEOUT: Flag = 1 << 10;
/// This processor, as relay leader, aggregated the view's wish certificate.
pub const FORMED_SYNC: Flag = 1 << 11;

/// One [`Flag`] record per view, from view 0, reached by offset.
#[derive(Debug, Clone)]
pub struct ViewLedger(ViewWindow<Flag>);

impl Default for ViewLedger {
    fn default() -> Self {
        ViewLedger(ViewWindow::new(0))
    }
}

impl ViewLedger {
    /// Whether any of `flag` is set for `view`. A read: safe on any view a
    /// peer names.
    #[inline]
    pub fn has(&self, view: View, flag: Flag) -> bool {
        self.0.get(view.as_i64()).is_some_and(|f| f & flag != 0)
    }

    /// Sets `flag` for `view` and returns whether it was clear before;
    /// refuses (returns `false`) below the base. Extends the record run: only
    /// for views reached by this processor's clock or a verified certificate.
    #[inline]
    pub fn mark(&mut self, view: View, flag: Flag) -> bool {
        let Some(f) = self.0.get_or_insert(view.as_i64()) else {
            return false;
        };
        let fresh = *f & flag == 0;
        *f |= flag;
        fresh
    }

    /// A certificate's intake: a view already marked `flag` is refused
    /// without a check; otherwise `verify` runs, and only a certificate that
    /// passes marks the view, so a forgery cannot use it up. Returns whether
    /// the certificate was admitted.
    pub fn admit(&mut self, view: View, flag: Flag, verify: impl FnOnce() -> bool) -> bool {
        !self.has(view, flag) && verify() && self.mark(view, flag)
    }

    /// Records held: every view from the base to the highest one marked.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no view has been marked yet.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Signed per-view messages of one class, by view then sender: at most one
/// entry per (view, sender), whatever view a sender names.
#[derive(Debug, Clone, Default)]
pub struct SigPool(BTreeMap<View, BTreeMap<ProcessId, Signature>>);

impl SigPool {
    /// Adds `from`'s signature for `view` (replacing an earlier one) and
    /// returns how many senders the view now holds.
    #[inline]
    pub fn add(&mut self, view: View, from: ProcessId, signature: Signature) -> usize {
        let senders = self.0.entry(view).or_default();
        senders.insert(from, signature);
        senders.len()
    }

    /// The signatures held for `view`, in sender order.
    pub fn signatures(&self, view: View) -> Vec<Signature> {
        let senders = self.0.get(&view);
        senders.map_or_else(Vec::new, |s| s.values().copied().collect())
    }

    /// Signatures held across every view.
    pub fn entries(&self) -> usize {
        self.0.values().map(BTreeMap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certs::view_msg_digest;
    use lumiere_crypto::keygen;

    #[test]
    fn admit_never_verifies_a_marked_view() {
        let mut views = ViewLedger::default();
        assert!(views.mark(View::new(3), SEEN_EC));
        let mut checks = 0;
        let mut verify = || {
            checks += 1;
            true
        };
        assert!(!views.admit(View::new(3), SEEN_EC, &mut verify));
        // Another flag of the same view is its own question.
        assert!(views.admit(View::new(3), SEEN_TC, &mut verify));
        assert!(!views.admit(View::new(3), SEEN_TC, &mut verify));
        assert_eq!(checks, 1);
    }

    #[test]
    fn a_failed_check_leaves_the_flag_clear_for_the_genuine_certificate() {
        let mut views = ViewLedger::default();
        let v = View::new(6);
        assert!(!views.admit(v, SEEN_VC, || false));
        assert!(!views.has(v, SEEN_VC));
        // Nothing was recorded for the forgery: not even a record.
        assert!(views.is_empty());
        assert!(views.admit(v, SEEN_VC, || true));
        assert!(views.has(v, SEEN_VC));
        assert!(!views.has(v, FORMED_VC | OBSERVED_QC));
    }

    #[test]
    fn mark_refuses_views_below_the_base() {
        let mut views = ViewLedger::default();
        for v in [-1, -2, i64::MIN].map(View::new) {
            assert!(!views.mark(v, OBSERVED_QC));
            assert!(!views.has(v, OBSERVED_QC));
            assert!(!views.admit(v, SEEN_VC, || true));
        }
        assert!(views.is_empty());
        // Reads of far views never grow the ledger.
        assert!(!views.has(View::new(i64::MAX), OBSERVED_QC));
        assert_eq!(views.len(), 0);
        assert!(views.mark(View::new(2), OBSERVED_QC));
        assert!(!views.mark(View::new(2), OBSERVED_QC));
        assert_eq!(views.len(), 3);
    }

    #[test]
    fn a_pool_holds_one_entry_per_view_and_sender() {
        let (keys, _) = keygen(4, 0);
        let mut pool = SigPool::default();
        let far = View::new(i64::MAX - 1);
        for v in [View::new(0), far] {
            for (k, sender) in keys.iter().zip(1..) {
                let sig = k.sign(view_msg_digest(v));
                assert_eq!(pool.add(v, k.id(), sig), sender);
                // A second copy from the same sender replaces the first.
                assert_eq!(pool.add(v, k.id(), sig), sender);
            }
        }
        assert_eq!(pool.entries(), 8);
        let signers: Vec<ProcessId> = pool.signatures(far).iter().map(|s| s.signer()).collect();
        assert_eq!(signers, keys.iter().map(|k| k.id()).collect::<Vec<_>>());
        assert!(pool.signatures(View::new(1)).is_empty());
    }
}
