//! The transport boundary: how wire messages move between processors.
//!
//! A [`Transport`] is one node's handle onto a message-passing mesh. Three
//! backends implement the same contract:
//!
//! * the discrete-event simulator (`lumiere-sim`), where delivery times are
//!   chosen by the partial-synchrony network adversary in virtual time;
//! * the in-process [`channel mesh`](crate::channel), where every node is a
//!   thread and messages travel through `std::sync::mpsc` channels;
//! * the [`TCP mesh`](crate::tcp), where every node is an OS process and
//!   messages travel as length-prefixed binary frames (see [`crate::codec`]).
//!
//! # Contract
//!
//! * Delivery is at-most-once per send, unordered across peers; the protocol
//!   layer tolerates duplicates, reordering and loss (partial synchrony).
//! * Sending to a crashed or disconnected peer is **not** an error — a BFT
//!   protocol must keep running while `f` peers are unreachable. Errors are
//!   reserved for local, fatal failures of the transport itself.
//! * [`Transport::recv_timeout`] blocks the calling thread up to the given
//!   wall-clock timeout; `Ok(None)` means the timeout elapsed quietly.

use crate::message::WireMessage;
use lumiere_types::ProcessId;
use std::time::Duration as WallDuration;

/// A fatal, local transport failure (the mesh itself broke — not a peer).
#[derive(Debug)]
pub struct TransportError(pub String);

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transport error: {}", self.0)
    }
}

impl std::error::Error for TransportError {}

/// One node's handle onto a message-passing mesh (see the module docs for
/// the contract and the three backends).
pub trait Transport: Send {
    /// The local processor's identifier.
    fn local_id(&self) -> ProcessId;

    /// Cluster size (total number of processors, this one included).
    fn cluster_size(&self) -> usize;

    /// Sends a message to one peer. Unreachable peers are skipped silently.
    fn send(&mut self, to: ProcessId, msg: &WireMessage) -> Result<(), TransportError>;

    /// Sends a message to every other processor.
    fn broadcast(&mut self, msg: &WireMessage) -> Result<(), TransportError> {
        for to in ProcessId::all(self.cluster_size()) {
            if to != self.local_id() {
                self.send(to, msg)?;
            }
        }
        Ok(())
    }

    /// Waits up to `timeout` for the next inbound message. `Ok(None)` means
    /// the timeout elapsed without traffic.
    fn recv_timeout(
        &mut self,
        timeout: WallDuration,
    ) -> Result<Option<(ProcessId, WireMessage)>, TransportError>;

    /// Releases transport resources (threads, sockets). Idempotent; called
    /// by drivers on shutdown. Dropping the transport must also clean up.
    fn shutdown(&mut self) {}
}
