//! A value beside one remembered fact about it.
//!
//! The simulator hands all `n` replicas one shared allocation of a block, a
//! certificate's signature or a broadcast's signature, and each replica
//! checks it. A check is a pure function of the immutable value (and of the
//! key table and the statement it runs against), so its result can live in
//! the allocation and be computed once. [`Memo`] is that allocation's
//! contents: the value and a [`OnceLock`] for the result. Its users are a
//! block's well-formedness and `lumiere_crypto`'s `SharedAggregate` and
//! `SharedSignature`.

use crate::wire::{Reader, Wire, WireError};
use std::fmt;
use std::ops::Deref;
use std::sync::OnceLock;

/// `value` and a memo of a pure function of it.
///
/// The memo is invisible: `Debug`, equality and the wire form are the
/// value's own. It is only ever read for the allocation it was computed on —
/// a clone (including the one `Arc::make_mut` makes) and a decoded copy both
/// start with an empty memo, and [`Memo::value_mut`] empties it — so what
/// the memo answers was computed from exactly the value beside it.
pub struct Memo<T, M> {
    value: T,
    memo: OnceLock<M>,
}

impl<T, M> Memo<T, M> {
    /// `value` with an empty memo.
    pub fn new(value: T) -> Self {
        Memo {
            value,
            memo: OnceLock::new(),
        }
    }

    /// The memo: empty until a caller records what it computed from the
    /// value.
    pub fn memo(&self) -> &OnceLock<M> {
        &self.memo
    }

    /// The value, for a caller about to change it; the memo is emptied.
    pub fn value_mut(&mut self) -> &mut T {
        self.memo.take();
        &mut self.value
    }
}

impl<T, M> Deref for Memo<T, M> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T: Clone, M> Clone for Memo<T, M> {
    fn clone(&self) -> Self {
        Memo::new(self.value.clone())
    }
}

impl<T: PartialEq, M> PartialEq for Memo<T, M> {
    fn eq(&self, other: &Self) -> bool {
        self.value == other.value
    }
}

impl<T: Eq, M> Eq for Memo<T, M> {}

impl<T: fmt::Debug, M> fmt::Debug for Memo<T, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.value, f)
    }
}

/// Wire form: the value's.
impl<T: Wire, M> Wire for Memo<T, M> {
    fn encoded_len(&self) -> usize {
        self.value.encoded_len()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.value.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        T::decode(r).map(Memo::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::{Batch, Transaction, TxId};

    fn checked() -> Memo<Batch, u64> {
        let memo = Memo::new(Batch {
            txs: vec![Transaction::sized(TxId::new(7), 64)],
        });
        memo.memo().set(memo.digest64()).unwrap();
        memo
    }

    #[test]
    fn every_copy_starts_empty_and_mutation_empties_the_memo() {
        let mut memo = checked();
        let mut bytes = Vec::new();
        memo.encode_into(&mut bytes);
        let copies = [memo.clone(), Memo::decode_exact(&bytes).unwrap()];
        for copy in &copies {
            assert_eq!(copy.memo().get(), None);
            assert_eq!(copy, &memo);
        }
        memo.value_mut().txs.clear();
        assert_eq!(memo.memo().get(), None);
    }

    #[test]
    fn every_form_is_the_values_own() {
        let memo = checked();
        let batch: &Batch = &memo;
        assert_eq!(format!("{memo:?}"), format!("{batch:?}"));
        assert_eq!(format!("{memo:#?}"), format!("{batch:#?}"));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        memo.encode_into(&mut a);
        batch.encode_into(&mut b);
        assert_eq!(a, b);
        assert_eq!(memo.encoded_len(), batch.encoded_len());
    }
}
