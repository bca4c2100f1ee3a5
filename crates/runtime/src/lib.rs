//! The Lumiere protocol runtime: the consensus stack lifted out of the
//! simulator, runnable on any transport.
//!
//! Historically the pacemaker + HotStuff stepping logic lived inside
//! `lumiere-sim`, so the only way to run the protocol was under the
//! discrete-event simulator. This crate inverts that relationship:
//!
//! * [`ProtocolRuntime`] is the protocol side of the boundary — a state
//!   machine stepped by events (`boot` / `wake` / `deliver`) that emits its
//!   effects into a [`RuntimeOutput`] buffer (sends, broadcasts, wake-up
//!   requests, commits).
//! * [`Transport`] is the world side — how wire messages actually move.
//!   Three backends implement it: the simulator's virtual network (in
//!   `lumiere-sim`, which now *hosts* runtimes instead of owning the
//!   protocol), an in-process [`channel mesh`](channel_mesh) of threads, and
//!   a real [`TCP mesh`](TcpTransport) of OS processes speaking
//!   length-prefixed binary [frames](codec).
//! * [`driver`] is the real-time event loop gluing the two together for the
//!   live backends; the `lumiere-node` binary wraps it behind a
//!   [config file](NodeConfig).
//!
//! The adversary subsystem lives on this side of the boundary too: the
//! [`adversary`] module holds the strategy machinery ([`StrategyKind`],
//! [`AdversarySchedule`]); a corrupted processor is a [`ProtocolRuntime`]
//! built [`with_strategy`](ProtocolRuntime::with_strategy), which gates and
//! rewrites its own events (the simulator builds one per corrupted
//! processor, and `lumiere-node --strategy` builds one for a live process);
//! and [`FaultedTransport`] applies an [`AdversarySchedule`]'s per-edge
//! delay rules to any transport in wall time, so a live node runs the same
//! schedule JSON the simulator does (`lumiere-node --schedule`). Either way
//! it is the same protocol code down to event ordering — which is what
//! makes the simulator's Table 1 numbers and the live cluster's behavior
//! commensurable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod channel;
pub mod codec;
pub mod config;
pub mod delay;
pub mod driver;
pub mod fault;
pub mod message;
pub mod output;
pub mod protocol;
pub mod runtime;
pub mod tcp;
pub mod transport;

pub use adversary::{
    AdversarySchedule, Corruption, DelayRule, EdgeClass, MsgClass, ProtocolObs, Strategy,
    StrategyCtx, StrategyKind,
};
pub use channel::{channel_mesh, ChannelTransport};
pub use codec::{
    decode_frame, encode_frame, encode_frame_into, read_frame, write_frame, CodecError,
    MAX_FRAME_BYTES,
};
pub use config::{ConfigError, NodeConfig, PeerConfig};
pub use delay::DelayModel;
pub use driver::{
    commit_stall, liveness_envelope, spawn as spawn_driver, DriverHandle, DriverOptions,
    DriverSummary, Stall,
};
pub use fault::FaultedTransport;
pub use message::WireMessage;
pub use output::RuntimeOutput;
pub use protocol::{build_runtime, build_runtime_with, ProtocolKind};
pub use runtime::{ConsensusRuntime, Gates, ProtocolRuntime};
pub use tcp::{TcpMeshConfig, TcpTransport};
pub use transport::{Transport, TransportError};
