//! Core identifiers, time representation, view/epoch arithmetic and protocol
//! parameters shared by every crate in the Lumiere reproduction.
//!
//! The types in this crate are deliberately small, `Copy` where possible, and
//! free of protocol logic: they exist so that the crypto substrate, the
//! consensus engine, the pacemakers and the simulator all agree on what a
//! *processor*, a *view*, an *epoch* and a *point in simulated time* are.
//!
//! # Paper mapping
//!
//! Section 2 of the paper (the model): `n` processors of which `f < n/3` may
//! be Byzantine ([`Params`]), views `v` with clock time `c_v = Γ·v` and the
//! sentinel view `-1` of Algorithm 1 ([`View`]), epochs as contiguous view
//! batches ([`Epoch`], [`view::EpochLayout`]), the known delay bound Δ and
//! partial-synchrony GST ([`Duration`], [`Time`]). All simulated time is
//! integer microseconds, so every measurement in the Table 1 reports is
//! exact.
//!
//! # Example
//!
//! ```
//! use lumiere_types::{Params, ProcessId, View, Duration};
//!
//! let params = Params::new(7, Duration::from_millis(50));
//! assert_eq!(params.f, 2);
//! assert_eq!(params.quorum(), 5);
//! assert!(params.gamma() > Duration::ZERO);
//! let v = View::new(12);
//! assert!(v.is_initial());
//! assert_eq!(ProcessId::new(3).as_usize(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod hash;
pub mod id;
pub mod memo;
pub mod params;
pub mod slash;
pub mod stake;
pub mod time;
pub mod tx;
pub mod view;
pub mod wire;

pub use error::{Error, Result};
pub use id::ProcessId;
pub use memo::Memo;
pub use params::{Params, DEFAULT_VIEW_ROUNDS};
pub use slash::SlashEvidence;
pub use stake::StakeTable;
pub use time::{Duration, Time, TimeRange};
pub use tx::{Batch, Transaction, TxId};
pub use view::{Epoch, View};
pub use wire::{Reader, Wire, WireError};
