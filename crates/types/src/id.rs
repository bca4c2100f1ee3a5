//! Processor identifiers.

use crate::wire::{put_u32, Reader, Wire, WireError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a processor (replica) in the system.
///
/// Processors are numbered `0..n`. The identifier is used both for addressing
/// (point-to-point sends in the simulator) and for leader-schedule arithmetic.
///
/// # Example
///
/// ```
/// use lumiere_types::ProcessId;
/// let p = ProcessId::new(4);
/// assert_eq!(p.as_usize(), 4);
/// assert_eq!(format!("{p}"), "p4");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcessId(u32);

impl ProcessId {
    /// Creates a new processor identifier from its index.
    pub fn new(index: usize) -> Self {
        ProcessId(index as u32)
    }

    /// Returns the identifier as a `usize` index, suitable for indexing
    /// per-processor tables.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// Returns the identifier as a raw `u32`.
    pub fn as_u32(self) -> u32 {
        self.0
    }

    /// Iterator over all processor identifiers of an `n`-processor system.
    ///
    /// ```
    /// use lumiere_types::ProcessId;
    /// let all: Vec<_> = ProcessId::all(4).collect();
    /// assert_eq!(all.len(), 4);
    /// assert_eq!(all[0], ProcessId::new(0));
    /// ```
    pub fn all(n: usize) -> impl Iterator<Item = ProcessId> {
        (0..n).map(ProcessId::new)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Wire form: the raw `u32` index (4 bytes).
impl Wire for ProcessId {
    fn encoded_len(&self) -> usize {
        4
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u32(out, self.0);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u32("ProcessId").map(ProcessId)
    }
}

impl From<usize> for ProcessId {
    fn from(value: usize) -> Self {
        ProcessId::new(value)
    }
}

impl From<ProcessId> for usize {
    fn from(value: ProcessId) -> Self {
        value.as_usize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_usize() {
        for i in 0..100 {
            let p = ProcessId::new(i);
            assert_eq!(p.as_usize(), i);
            assert_eq!(usize::from(p), i);
            assert_eq!(ProcessId::from(i), p);
        }
    }

    #[test]
    fn ordering_matches_index_ordering() {
        assert!(ProcessId::new(1) < ProcessId::new(2));
        assert!(ProcessId::new(7) > ProcessId::new(0));
    }

    #[test]
    fn all_enumerates_exactly_n() {
        let ids: Vec<_> = ProcessId::all(7).collect();
        assert_eq!(ids.len(), 7);
        assert_eq!(ids.last().copied(), Some(ProcessId::new(6)));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(ProcessId::new(12).to_string(), "p12");
    }
}
