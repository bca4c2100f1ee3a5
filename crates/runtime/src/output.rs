//! The runtime's output buffer: everything a processor asks its host to do
//! after handling one event.

use crate::message::WireMessage;
use lumiere_consensus::{Block, QuorumCert};
use lumiere_types::{ProcessId, Time, TxId, View};

/// Everything a processor wants its host (simulator event loop, live node
/// driver) to do after handling an event.
///
/// Hosts own one scratch instance and reuse it across events, so
/// steady-state stepping allocates nothing once the buffers have grown to
/// their working size. A handler appends to the buffer and expects it empty.
/// The simulator's runner leaves it so by draining every class it applies,
/// with no [`clear`](RuntimeOutput::clear) between events; the live driver
/// drains the classes it acts on and clears the rest after each flush.
#[derive(Debug, Default)]
pub struct RuntimeOutput {
    /// Point-to-point sends.
    pub sends: Vec<(ProcessId, WireMessage)>,
    /// Broadcasts (to every other processor).
    pub broadcasts: Vec<WireMessage>,
    /// Requested wake-up times.
    pub wakes: Vec<Time>,
    /// QCs this processor formed as leader (for the latency metric).
    pub qcs_formed: Vec<QuorumCert>,
    /// Heights of blocks newly committed by this processor.
    pub commits: Vec<u64>,
    /// Ids of the transactions carried by newly committed blocks, in commit
    /// order (hosts turn these into end-to-end latency samples).
    pub committed_txs: Vec<TxId>,
    /// The newly committed blocks themselves, in commit order (handles, not
    /// copies). `commits` and `committed_txs` are their heights and their
    /// transaction ids; a host that sees the same block committed by many
    /// processors (the simulator) keys on the block instead, and accounts
    /// its transactions once.
    pub committed_blocks: Vec<Block>,
    /// Views entered by this processor.
    pub entered_views: Vec<View>,
    /// Epoch views for which this processor started heavy synchronization.
    pub heavy_syncs: Vec<View>,
    /// How many events were suppressed because a [`Gates`](crate::Gates)
    /// component was closed while producing this output. Always zero for
    /// honest processors (live deployments run fully open); the simulator's
    /// adversary harness folds non-zero counts into its coverage
    /// fingerprint.
    pub gated_events: u32,
}

impl RuntimeOutput {
    /// Empties every buffer while keeping its capacity, so one instance can
    /// be reused across events without reallocating. The live driver calls
    /// it after each flush; the simulator's runner never does, since
    /// applying an output already leaves every class empty.
    pub fn clear(&mut self) {
        self.sends.clear();
        self.broadcasts.clear();
        self.wakes.clear();
        self.qcs_formed.clear();
        self.commits.clear();
        self.committed_txs.clear();
        self.committed_blocks.clear();
        self.entered_views.clear();
        self.heavy_syncs.clear();
        self.gated_events = 0;
    }

    /// Whether the output carries no effects at all.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
            && self.broadcasts.is_empty()
            && self.wakes.is_empty()
            && self.qcs_formed.is_empty()
            && self.commits.is_empty()
            && self.committed_txs.is_empty()
            && self.committed_blocks.is_empty()
            && self.entered_views.is_empty()
            && self.heavy_syncs.is_empty()
            && self.gated_events == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_keeps_capacity_and_empties_everything() {
        let mut out = RuntimeOutput {
            wakes: vec![Time::ZERO],
            commits: vec![1, 2],
            gated_events: 3,
            ..RuntimeOutput::default()
        };
        assert!(!out.is_empty());
        let cap = out.commits.capacity();
        out.clear();
        assert!(out.is_empty());
        assert_eq!(out.commits.capacity(), cap);
        // Every field `clear` empties counts toward `is_empty`, the
        // committed blocks included.
        out.committed_blocks.push(Block::genesis());
        assert!(!out.is_empty());
        out.clear();
        assert!(out.is_empty());
    }
}
