//! What every pacemaker remembers per view: facts about views this
//! processor reached, one bit each, in the [`ViewLedger`] its
//! [`Processor`](crate::pacemaker::Processor) holds; the f+1 or 2f+1 signed
//! messages it aggregates into a certificate, in one [`SigPool`] per message
//! class (view messages in a [`ViewMsgs`](crate::pacemaker::ViewMsgs),
//! wishes in the relay's own pool); and, for the classes it only counts,
//! who sent one, in a [`SenderPool`] (epoch-view messages in an
//! [`EpochMsgs`](crate::pacemaker::EpochMsgs), timeouts in the naive
//! pacemaker's own pool).
//!
//! A ledger record exists only for views this processor's clock or a
//! verified certificate has reached (see [`ViewWindow`]); a view a single
//! peer names is only ever read there. What a peer can name on its own goes
//! into a pool, where a far-future view costs one map entry plus one signer
//! bitmap of n/8 bytes, rounded up to a word: 8 B at n = 4, 512 B at
//! n = 4096. Per sender a pool stores one bit per view (and, in a
//! [`SigPool`], the signature itself).

use lumiere_crypto::{PartialSet, Signature, SignerBitmap};
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

/// Signed per-view messages of one class that a certificate is aggregated
/// from: one [`PartialSet`] per view, so at most one signature per (view,
/// sender), whatever view a sender names. Fed only signatures that were
/// already verified, so the first copy kept is the one a later copy would
/// have been.
#[derive(Debug, Clone)]
pub struct SigPool {
    n: usize,
    views: BTreeMap<View, PartialSet>,
}

impl SigPool {
    /// An empty pool for an `n`-processor system.
    pub fn new(n: usize) -> Self {
        SigPool {
            n,
            views: BTreeMap::new(),
        }
    }

    /// Adds `signature` for `view` and returns how many senders the view
    /// now holds. A repeat from the same signer, or a signer id `≥ n`, leaves
    /// the pool as it was.
    #[inline]
    pub fn add(&mut self, view: View, signature: Signature) -> usize {
        if signature.signer().as_usize() >= self.n {
            return self.views.get(&view).map_or(0, PartialSet::len);
        }
        let senders = self
            .views
            .entry(view)
            .or_insert_with(|| PartialSet::new(self.n));
        senders.insert(signature);
        senders.len()
    }

    /// The signatures held for `view`, in arrival order.
    pub fn signatures(&self, view: View) -> &[Signature] {
        self.views.get(&view).map_or(&[], PartialSet::as_slice)
    }

    /// Signatures held across every view.
    pub fn entries(&self) -> usize {
        self.views.values().map(PartialSet::len).sum()
    }
}

/// Senders of one per-view message class that is counted but never
/// aggregated (epoch-view and timeout messages), by view: one bit per
/// processor, and how many bits are set.
#[derive(Debug, Clone)]
pub struct SenderPool {
    n: usize,
    views: BTreeMap<View, (SignerBitmap, usize)>,
}

impl SenderPool {
    /// An empty pool for an `n`-processor system.
    pub fn new(n: usize) -> Self {
        SenderPool {
            n,
            views: BTreeMap::new(),
        }
    }

    /// Records that `from` sent its (verified) message for `view` and
    /// returns how many distinct senders the view now holds. A repeat, or an
    /// id `≥ n`, leaves the count as it was.
    #[inline]
    pub fn add(&mut self, view: View, from: ProcessId) -> usize {
        if from.as_usize() >= self.n {
            return self.views.get(&view).map_or(0, |&(_, count)| count);
        }
        let (senders, count) = self
            .views
            .entry(view)
            .or_insert_with(|| (SignerBitmap::new(self.n), 0));
        if senders.set(from) {
            *count += 1;
        }
        *count
    }

    /// Senders held across every view.
    pub fn entries(&self) -> usize {
        self.views.values().map(|&(_, count)| count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certs::{view_msg_digest, ViewCert};
    use lumiere_crypto::keygen;
    use lumiere_types::{Duration, Params};

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
        let mut pool = SigPool::new(4);
        let mut senders = SenderPool::new(4);
        let far = View::new(i64::MAX - 1);
        for v in [View::new(0), far] {
            for (k, count) in keys.iter().zip(1..) {
                let sig = k.sign(view_msg_digest(v));
                assert_eq!(pool.add(v, sig), count);
                assert_eq!(senders.add(v, k.id()), count);
                // A second copy from the same sender changes nothing.
                assert_eq!(pool.add(v, sig), count);
                assert_eq!(senders.add(v, k.id()), count);
            }
        }
        assert_eq!((pool.entries(), senders.entries()), (8, 8));
        let signers: Vec<ProcessId> = pool.signatures(far).iter().map(|s| s.signer()).collect();
        assert_eq!(signers, keys.iter().map(|k| k.id()).collect::<Vec<_>>());
        assert!(pool.signatures(View::new(1)).is_empty());
    }

    /// The senders of `n` in a seeded shuffle.
    fn shuffled(n: usize, seed: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        order
    }

    #[test]
    fn arrival_order_and_repeats_leave_the_certificate_alone() {
        let n = 100;
        let params = Params::new(n, Duration::from_millis(10));
        let (keys, _) = keygen(n, 3);
        let v = View::new(12);
        let sig = |i: usize| keys[i].sign(view_msg_digest(v));
        for seed in [1, 7, 42] {
            let (mut in_order, mut mixed) = (SigPool::new(n), SigPool::new(n));
            for i in 0..n {
                in_order.add(v, sig(i));
            }
            for i in shuffled(n, seed) {
                mixed.add(v, sig(i));
            }
            assert_ne!(in_order.signatures(v), mixed.signatures(v));
            let a = ViewCert::aggregate(v, in_order.signatures(v), &params);
            let b = ViewCert::aggregate(v, mixed.signatures(v), &params);
            assert_eq!(a, b);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            // Every sender again: neither the count nor the certificate moves.
            for i in shuffled(n, seed + 1) {
                assert_eq!(mixed.add(v, sig(i)), n);
            }
            assert_eq!(ViewCert::aggregate(v, mixed.signatures(v), &params), a);
        }
    }

    #[test]
    fn pools_refuse_ids_outside_the_system_without_a_panic() {
        let (keys, _) = keygen(70, 1);
        let v = View::new(3);
        let (mut pool, mut senders) = (SigPool::new(7), SenderPool::new(7));
        // Nothing held yet: an outsider creates no record.
        assert_eq!(pool.add(v, keys[7].sign(view_msg_digest(v))), 0);
        assert_eq!(senders.add(v, ProcessId::new(7)), 0);
        assert_eq!((pool.entries(), senders.entries()), (0, 0));
        assert_eq!(pool.add(v, keys[2].sign(view_msg_digest(v))), 1);
        assert_eq!(senders.add(v, ProcessId::new(2)), 1);
        for id in [7, 63, 64, 69] {
            assert_eq!(pool.add(v, keys[id].sign(view_msg_digest(v))), 1);
            assert_eq!(senders.add(v, ProcessId::new(id)), 1);
        }
        let max = ProcessId::new(u32::MAX as usize);
        assert_eq!(pool.add(v, Signature::new(max, 0)), 1);
        assert_eq!(senders.add(v, max), 1);
        assert_eq!((pool.entries(), senders.entries()), (1, 1));
    }
}
