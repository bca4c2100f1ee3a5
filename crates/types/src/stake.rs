//! Stake tables: the system size certificate tallies count against.
//!
//! The paper's quorums are counted in *processors* (`f+1`, `2f+1` of `n`),
//! so a [`StakeTable`] names `n` and nothing else: certificate aggregation
//! and verification count distinct signers and reject any signer outside
//! the `n` processors. It is `O(1)` to build, so
//! [`Params::stakes`](crate::Params::stakes) is cheap on the hot
//! certificate-aggregation paths at every system size, and it is never
//! serialized: certificates on the wire carry no stake data.

/// The processors a certificate's signers are counted among.
///
/// # Example
///
/// ```
/// use lumiere_types::StakeTable;
///
/// let stakes = StakeTable::uniform(4);
/// assert_eq!(stakes.n(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StakeTable {
    n: usize,
}

impl StakeTable {
    /// A table of `n` processors, each counting once towards a quorum.
    pub fn uniform(n: usize) -> Self {
        StakeTable { n }
    }

    /// Number of processors covered by the table.
    pub fn n(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_tables_reproduce_processor_counts() {
        let t = StakeTable::uniform(7);
        assert_eq!(t.n(), 7);
        assert_eq!(t, StakeTable::uniform(7));
        assert_ne!(t, StakeTable::uniform(8));
    }
}
