//! The simulator's event queue.
//!
//! Since the scale PR the queue is a **calendar queue** (a ring of
//! fixed-width time buckets plus an overflow heap) rather than one global
//! [`BinaryHeap`]: pushing an event becomes an O(1) append into the bucket
//! covering its delivery tick, and popping sorts only the small bucket that
//! is currently being drained. The old heap survives in this module's tests
//! as `HeapQueue`, the oracle for the property test that pins the calendar
//! queue to identical delivery order (`same order as the old BinaryHeap on
//! random schedules`).
//!
//! The bucket being drained is a [`VecDeque`] sorted **ascending** by
//! `(time, seq)`: the next event pops from the front, and a push that sorts
//! before the front — in practice a broadcast group put back for its next
//! recipient — is a `push_front` with no search. Any other push into that
//! bucket binary-searches and inserts, and `VecDeque::insert` shifts
//! whichever side of the insertion point is shorter.
//!
//! # Symbolic broadcasts
//!
//! A broadcast to `n − 1` recipients used to cost `n − 1` queue entries; at
//! `n = 4096` a single proposal put four thousand entries on the wheel. The
//! queue now stores a broadcast **symbolically**
//! ([`EventQueue::push_broadcast`]): one group entry per honesty class
//! carrying the shared [`Arc<SimMessage>`], lazily expanded into
//! per-recipient [`Event::Deliver`]s as it pops. The trick that keeps this
//! exact is that adversary delay rules key on *honesty class*, message class
//! and send-time window — never on an individual recipient id — so a
//! broadcast has at most two distinct delay models (honest recipients,
//! corrupted recipients). RNG-free models (`Fixed`, `AdversarialMax`) give
//! every class member the same delivery instant ([`ClassDelay::At`]) and
//! stay symbolic; jittery models draw per-recipient randomness and are
//! expanded eagerly at push time ([`ClassDelay::Jittered`]) so the RNG
//! stream matches eager delivery exactly.
//!
//! A broadcast reserves one contiguous block of sequence numbers (recipient
//! id `r` gets `base + 1 + rank(r)`, ranks skipping the sender), exactly the
//! sequence numbers eager per-recipient pushes would have consumed — so the
//! global `(time, seq)` delivery order is *identical* to eager expansion,
//! byte for byte. The property tests in this module hold symbolic pops
//! against an eagerly-expanded `HeapQueue` on random schedules.
//!
//! # Group runs
//!
//! The runner does not pop a group one copy at a time. `take_due` hands it
//! the group whole, as a `Run` positioned at its next recipient; the runner
//! delivers from the borrowed message and asks `take_member` for the next
//! recipient, which it grants while that recipient still sorts before
//! everything queued. A copy then costs no `Arc` clone or drop and no
//! re-queue; the group goes back on the queue (`put_back`) only when another
//! entry comes first. [`EventQueue::pop`] is the same code one copy at a
//! time.

use lumiere_types::{ProcessId, Time, Transaction};
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// A message travelling through the simulated network (re-exported from
/// `lumiere-runtime`; the simulator's historical name for the wire message).
/// The simulated network carries exactly the frames a live TCP cluster
/// would.
pub use lumiere_runtime::WireMessage as SimMessage;

/// An event scheduled for execution at a point in simulated time.
///
/// Deliveries carry the message behind an [`Arc`] so a broadcast to `n − 1`
/// recipients shares one allocation instead of cloning the (potentially
/// QC-carrying) message per recipient.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Start a processor.
    Boot {
        /// The processor to start.
        node: ProcessId,
    },
    /// Deliver a message to a processor.
    Deliver {
        /// The recipient.
        to: ProcessId,
        /// The original sender.
        from: ProcessId,
        /// The message (shared between the recipients of a broadcast).
        message: Arc<SimMessage>,
    },
    /// Fire a wake-up previously requested by a processor's pacemaker.
    Wake {
        /// The processor to wake.
        node: ProcessId,
    },
    /// An open-loop client transaction arriving at the cluster (see
    /// [`WorkloadConfig`](crate::workload::WorkloadConfig)); the runner
    /// offers it to every processor's mempool.
    Arrival {
        /// The arriving transaction.
        tx: Transaction,
    },
    /// Periodic metrics sampling (honest clock gap).
    Sample,
}

/// The delivery rule for one honesty class of a broadcast's recipients.
///
/// Adversary delay rules match on honesty class, message class and send
/// window — never on individual recipient ids — so one broadcast resolves to
/// at most two of these (honest recipients, corrupted recipients).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassDelay {
    /// Every recipient of the class is delivered at exactly this instant
    /// (RNG-free delay models: `Fixed`, `AdversarialMax`). The class stays
    /// symbolic: one queue entry, expanded lazily at pop time.
    At(Time),
    /// Each recipient of the class draws its own delay (`Uniform` jitter).
    /// The class is expanded eagerly at push time, in ascending recipient-id
    /// order, so the RNG stream matches eager per-recipient delivery.
    Jittered,
}

/// The symbolic remainder of a broadcast to one honesty class: the shared
/// message plus a cursor over the class members still awaiting delivery.
#[derive(Debug)]
struct BroadcastGroup {
    from: ProcessId,
    message: Arc<SimMessage>,
    /// Per-processor honesty, shared with the runner (index = id).
    honesty: Arc<Vec<bool>>,
    /// Which honesty class this group delivers to.
    to_honest: bool,
    /// Sequence-number base: recipient id `r` owns `base + 1 + rank(r)`.
    base: u64,
    /// The next class member to deliver (always valid while queued).
    next: usize,
}

impl BroadcastGroup {
    /// The sequence number reserved for the next recipient.
    fn seq(&self) -> u64 {
        broadcast_seq(self.base, self.from, self.next)
    }

    /// The first class member with id strictly greater than `r`.
    fn member_after(&self, r: usize) -> Option<usize> {
        ((r + 1)..self.honesty.len())
            .find(|&id| id != self.from.as_usize() && self.honesty[id] == self.to_honest)
    }
}

/// What a queue slot holds: a single event, or the symbolic remainder of a
/// broadcast (expanded one [`Event::Deliver`] per pop).
#[derive(Debug)]
enum Payload {
    One(Event),
    Group(BroadcastGroup),
}

#[derive(Debug)]
struct Scheduled {
    at: Time,
    seq: u64,
    payload: Payload,
}

/// An entry of the batch being delivered, taken off the queue by
/// [`EventQueue::take_due`].
#[derive(Debug)]
pub(crate) enum Taken {
    /// A single event.
    One(Event),
    /// A symbolic broadcast group, whole.
    Run(Run),
}

/// A symbolic broadcast group off the queue, positioned at the recipient it
/// delivers next. Its message is borrowed per copy, never cloned.
#[derive(Debug)]
pub(crate) struct Run {
    at: Time,
    group: BroadcastGroup,
}

impl Run {
    /// The sender.
    pub(crate) fn from(&self) -> ProcessId {
        self.group.from
    }

    /// The recipient of the current copy.
    pub(crate) fn to(&self) -> ProcessId {
        ProcessId::new(self.group.next)
    }

    /// The broadcast message.
    pub(crate) fn message(&self) -> &SimMessage {
        &self.group.message
    }

    /// Moves on to the next class member; `false` once every member has had
    /// its copy.
    pub(crate) fn step(&mut self) -> bool {
        match self.group.member_after(self.group.next) {
            Some(next) => {
                self.group.next = next;
                true
            }
            None => false,
        }
    }

    /// The current recipient's place in the delivery order.
    fn key(&self) -> (i64, u64) {
        (self.at.as_micros(), self.group.seq())
    }
}

impl Scheduled {
    /// The total order of delivery: time, ties broken by insertion order.
    fn key(&self) -> (i64, u64) {
        (self.at.as_micros(), self.seq)
    }
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other.key().cmp(&self.key())
    }
}

/// Finds the first recipient of `to_honest` class (ascending id, skipping
/// `from`), shared by both queues' broadcast paths.
fn first_member(honesty: &[bool], from: ProcessId, to_honest: bool) -> Option<usize> {
    (0..honesty.len()).find(|&id| id != from.as_usize() && honesty[id] == to_honest)
}

/// The sequence number eager expansion would give recipient `r` of a
/// broadcast whose first reserved seq is `base + 1`.
fn broadcast_seq(base: u64, from: ProcessId, r: usize) -> u64 {
    let rank = if r < from.as_usize() { r } else { r - 1 };
    base + 1 + rank as u64
}

/// Width of one calendar bucket in microseconds. A power of two near 1 ms:
/// network delays in the experiments are 1–40 ms, so consecutive events land
/// a handful of buckets apart and bucket scans stay short.
const BUCKET_WIDTH_MICROS: i64 = 1 << 10;

/// Number of buckets on the ring. With 1024 µs buckets this covers a ~268 ms
/// horizon; anything scheduled further out (epoch-boundary wake-ups, crash
/// recovery rejoins) waits in the overflow heap and is pulled onto the ring
/// as the cursor approaches it.
const NUM_BUCKETS: usize = 256;

/// A deterministic time-ordered event queue (ties broken by insertion
/// order), implemented as a calendar queue.
///
/// Three tiers, by distance from the drain cursor:
///
/// * `current` — the bucket being drained, a deque sorted ascending by
///   `(time, seq)`: the next event pops from the front in O(1), and so does
///   a push that sorts before the front;
/// * `wheel` — a ring of `NUM_BUCKETS` unsorted buckets of
///   `BUCKET_WIDTH_MICROS` each (push is an O(1) append; a bucket is
///   sorted once, when the cursor reaches it, and its buffer becomes
///   `current`: the spent `current` buffer waits in `spare` for the next
///   slot to take a first entry, so only non-empty slots hold memory);
/// * `overflow` — a heap for events beyond the ring horizon (rare: only
///   far-future wake-ups land here).
///
/// Events pushed at or before the drain cursor (the simulator schedules at
/// `now` frequently) are pushed onto the front of `current` when they sort
/// before it and insertion-sorted into it otherwise, which preserves
/// the global `(time, seq)` delivery order for arbitrary push/pop
/// interleavings — see `wheel_matches_heap_on_random_schedules`.
///
/// Broadcasts are stored symbolically (see the module docs and
/// [`EventQueue::push_broadcast`]): [`len`](EventQueue::len) counts
/// *logical* pending events, which exceeds the number of physical queue
/// slots whenever a broadcast group is pending.
#[derive(Debug)]
pub struct EventQueue {
    current: VecDeque<Scheduled>,
    wheel: Vec<Vec<Scheduled>>,
    /// Emptied buffers with capacity, for wheel slots that have none.
    spare: Vec<Vec<Scheduled>>,
    /// Absolute index (time / bucket width) of the bucket drained into
    /// `current`; ring slot `b % NUM_BUCKETS` holds absolute bucket `b` for
    /// `base < b < base + NUM_BUCKETS`.
    base: i64,
    wheel_len: usize,
    overflow: BinaryHeap<Scheduled>,
    seq: u64,
    /// Logical pending-event count (a broadcast group counts its remaining
    /// recipients, not its single physical slot).
    len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            current: VecDeque::new(),
            wheel: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
            base: 0,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
            len: 0,
        }
    }
}

fn bucket_of(at: Time) -> i64 {
    at.as_micros().div_euclid(BUCKET_WIDTH_MICROS)
}

/// The ring slot of absolute bucket `bucket`.
fn slot_of(bucket: i64) -> usize {
    bucket.rem_euclid(NUM_BUCKETS as i64) as usize
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at time `at`.
    pub fn push(&mut self, at: Time, event: Event) {
        self.seq += 1;
        self.len += 1;
        let entry = Scheduled {
            at,
            seq: self.seq,
            payload: Payload::One(event),
        };
        self.route(entry);
    }

    /// Schedules a broadcast from `from` to every other processor in O(1)
    /// queue space per RNG-free honesty class.
    ///
    /// Recipients are the ids of `honesty` other than `from`; each belongs
    /// to the honest or corrupted class and is delivered per that class's
    /// [`ClassDelay`]. Constant-time classes become one symbolic group entry
    /// each, lazily expanded at pop time; jittered classes are expanded
    /// eagerly here, invoking `jitter` in ascending id order (exactly the
    /// order eager delivery draws its RNG). The broadcast reserves the same
    /// contiguous sequence-number block eager expansion would consume, so
    /// delivery order is identical to eager per-recipient pushes.
    pub fn push_broadcast<F>(
        &mut self,
        from: ProcessId,
        message: Arc<SimMessage>,
        honesty: &Arc<Vec<bool>>,
        honest: ClassDelay,
        corrupt: ClassDelay,
        mut jitter: F,
    ) where
        F: FnMut(ProcessId) -> Time,
    {
        let n = honesty.len();
        if n <= 1 {
            return;
        }
        let base = self.seq;
        self.seq += (n - 1) as u64;
        self.len += n - 1;
        // Jittered recipients expand eagerly, in one ascending-id pass so a
        // run with two jittered classes draws RNG in global id order.
        for id in 0..n {
            if id == from.as_usize() {
                continue;
            }
            let class = if honesty[id] { honest } else { corrupt };
            if let ClassDelay::Jittered = class {
                let to = ProcessId::new(id);
                let entry = Scheduled {
                    at: jitter(to),
                    seq: broadcast_seq(base, from, id),
                    payload: Payload::One(Event::Deliver {
                        to,
                        from,
                        message: Arc::clone(&message),
                    }),
                };
                self.route(entry);
            }
        }
        // Constant-delay classes stay symbolic: one group entry per class,
        // keyed to its first member's reserved seq.
        for (to_honest, class) in [(true, honest), (false, corrupt)] {
            if let ClassDelay::At(at) = class {
                if let Some(first) = first_member(honesty, from, to_honest) {
                    let group = BroadcastGroup {
                        from,
                        message: Arc::clone(&message),
                        honesty: Arc::clone(honesty),
                        to_honest,
                        base,
                        next: first,
                    };
                    self.put_back(Run { at, group });
                }
            }
        }
    }

    /// Places an entry into the tier matching its distance from the cursor.
    fn route(&mut self, entry: Scheduled) {
        let bucket = bucket_of(entry.at);
        if bucket <= self.base {
            // At (or before) the bucket being drained. An entry that sorts
            // before the front goes on the front with no search; any other
            // is insertion-sorted into place.
            let key = entry.key();
            match self.current.front() {
                Some(front) if front.key() < key => {
                    let pos = self.current.partition_point(|e| e.key() < key);
                    self.current.insert(pos, entry);
                }
                _ => self.current.push_front(entry),
            }
        } else if bucket < self.base + NUM_BUCKETS as i64 {
            let slot = &mut self.wheel[slot_of(bucket)];
            if slot.capacity() == 0 {
                if let Some(spare) = self.spare.pop() {
                    *slot = spare;
                }
            }
            slot.push(entry);
            self.wheel_len += 1;
        } else {
            self.overflow.push(entry);
        }
    }

    /// Fills an empty `current` from the next non-empty bucket, if any.
    fn fill_current(&mut self) {
        while self.current.is_empty() {
            if self.wheel_len == 0 {
                // Everything pending is beyond the ring: jump the cursor to
                // the earliest overflow bucket instead of scanning a long
                // run of empty buckets.
                let Some(first) = self.overflow.peek() else {
                    return;
                };
                self.base = self.base.max(bucket_of(first.at) - 1);
            }
            self.advance();
        }
    }

    /// The timestamp of the next event without popping it.
    pub fn peek_time(&mut self) -> Option<Time> {
        self.fill_current();
        self.current.front().map(|entry| entry.at)
    }

    /// Takes the next entry off the queue if `due` accepts its time and seq.
    fn take_front(&mut self, due: impl FnOnce(Time, u64) -> bool) -> Option<(Time, Payload)> {
        self.fill_current();
        let front = self.current.front()?;
        if !due(front.at, front.seq) {
            return None;
        }
        let entry = self.current.pop_front()?;
        self.len -= 1;
        Some((entry.at, entry.payload))
    }

    /// Pops the earliest event, if any. A pending broadcast group yields its
    /// next recipient's [`Event::Deliver`] and goes back on the queue at the
    /// following member's reserved sequence number.
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        let (at, payload) = self.take_front(|_, _| true)?;
        let event = match payload {
            Payload::One(event) => event,
            Payload::Group(group) => {
                let event = Event::Deliver {
                    to: ProcessId::new(group.next),
                    from: group.from,
                    message: Arc::clone(&group.message),
                };
                let mut run = Run { at, group };
                if run.step() {
                    self.put_back(run);
                }
                event
            }
        };
        Some((at, event))
    }

    /// The last sequence number handed out. Every entry queued now holds a
    /// seq at or below it; every later push gets a larger one.
    pub(crate) fn last_seq(&self) -> u64 {
        self.seq
    }

    /// Takes the next entry if it is due at `at` with a seq at or below
    /// `limit`. A broadcast group comes off whole, at its next recipient,
    /// which counts as taken.
    pub(crate) fn take_due(&mut self, at: Time, limit: u64) -> Option<Taken> {
        let (_, payload) = self.take_front(|t, seq| t == at && seq <= limit)?;
        Some(match payload {
            Payload::One(event) => Taken::One(event),
            Payload::Group(group) => Taken::Run(Run { at, group }),
        })
    }

    /// Takes `run`'s current recipient if its seq is at or below `limit` and
    /// it still sorts before every queued entry. Only `current` needs
    /// checking, without moving the cursor: `run` came off `current`, so
    /// whatever waits on the wheel or in overflow is in a later bucket.
    pub(crate) fn take_member(&mut self, run: &Run, limit: u64) -> bool {
        let key = run.key();
        let due = key.1 <= limit && self.current.front().is_none_or(|front| key < front.key());
        self.len -= usize::from(due);
        due
    }

    /// Queues `run` again at its current recipient.
    pub(crate) fn put_back(&mut self, run: Run) {
        self.route(Scheduled {
            at: run.at,
            seq: run.group.seq(),
            payload: Payload::Group(run.group),
        });
    }

    /// Moves the cursor to the next bucket, draining it into `current` and
    /// pulling newly-in-horizon overflow entries onto the ring.
    fn advance(&mut self) {
        self.base += 1;
        loop {
            let Some(next) = self.overflow.peek_mut() else {
                break;
            };
            if bucket_of(next.at) >= self.base + NUM_BUCKETS as i64 {
                break;
            }
            // In horizon now; lands in a ring slot or (for `base` itself)
            // directly in `current`.
            let entry = PeekMut::pop(next);
            self.route(entry);
        }
        let slot = &mut self.wheel[slot_of(self.base)];
        if slot.is_empty() {
            return;
        }
        self.wheel_len -= slot.len();
        if self.current.is_empty() {
            // The slot's buffer becomes `current`; the spent one is kept for
            // the next slot that takes an entry.
            let drained = VecDeque::from(std::mem::take(slot));
            let spent = Vec::from(std::mem::replace(&mut self.current, drained));
            if spent.capacity() > 0 {
                self.spare.push(spent);
            }
        } else {
            self.current.extend(slot.drain(..));
        }
        self.current
            .make_contiguous()
            .sort_unstable_by_key(Scheduled::key);
    }

    /// Number of pending **logical** events (broadcast groups count their
    /// remaining recipients).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of physical queue slots currently allocated (a symbolic
    /// broadcast group occupies one regardless of remaining recipients).
    /// Exposed for the space-bound tests.
    pub fn physical_len(&self) -> usize {
        self.current.len() + self.wheel_len + self.overflow.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original `BinaryHeap` event queue, kept as the reference
    /// implementation: a deterministic time-ordered queue (ties broken by
    /// insertion order). [`EventQueue`] must deliver in exactly this order; the
    /// property test in this module holds the two against each other on random
    /// schedules.
    ///
    /// `push_broadcast` here expands **eagerly** (one entry per recipient),
    /// making the heap the oracle for the calendar queue's symbolic broadcast
    /// representation too.
    #[derive(Debug, Default)]
    struct HeapQueue {
        heap: BinaryHeap<Scheduled>,
        seq: u64,
    }

    impl HeapQueue {
        /// Creates an empty queue.
        fn new() -> Self {
            Self::default()
        }

        /// Schedules `event` at time `at`.
        fn push(&mut self, at: Time, event: Event) {
            self.seq += 1;
            self.heap.push(Scheduled {
                at,
                seq: self.seq,
                payload: Payload::One(event),
            });
        }

        /// Schedules a broadcast from `from` to every other processor, expanded
        /// eagerly: recipients in ascending id order, each delivered per its
        /// honesty class (`jitter` is invoked, in id order, only for recipients
        /// of a [`ClassDelay::Jittered`] class). Reference semantics for
        /// [`EventQueue::push_broadcast`].
        fn push_broadcast<F>(
            &mut self,
            from: ProcessId,
            message: Arc<SimMessage>,
            honesty: &Arc<Vec<bool>>,
            honest: ClassDelay,
            corrupt: ClassDelay,
            mut jitter: F,
        ) where
            F: FnMut(ProcessId) -> Time,
        {
            for id in 0..honesty.len() {
                if id == from.as_usize() {
                    continue;
                }
                let class = if honesty[id] { honest } else { corrupt };
                let to = ProcessId::new(id);
                let at = match class {
                    ClassDelay::At(t) => t,
                    ClassDelay::Jittered => jitter(to),
                };
                self.push(
                    at,
                    Event::Deliver {
                        to,
                        from,
                        message: Arc::clone(&message),
                    },
                );
            }
        }

        /// Pops the earliest event, if any.
        fn pop(&mut self) -> Option<(Time, Event)> {
            self.heap.pop().map(|s| match s.payload {
                Payload::One(event) => (s.at, event),
                Payload::Group(_) => unreachable!("HeapQueue expands broadcasts eagerly"),
            })
        }

        /// Number of pending events.
        fn len(&self) -> usize {
            self.heap.len()
        }

        fn peek_time(&self) -> Option<Time> {
            self.heap.peek().map(|s| s.at)
        }

        /// Whether the next event belongs to the batch at `at` with seqs
        /// up to `limit` (the runner's batch rule, one event at a time).
        fn due(&self, at: Time, limit: u64) -> bool {
            self.heap
                .peek()
                .is_some_and(|s| s.at == at && s.seq <= limit)
        }
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_millis(5), Event::Sample);
        q.push(
            Time::from_millis(1),
            Event::Boot {
                node: ProcessId::new(0),
            },
        );
        q.push(
            Time::from_millis(3),
            Event::Wake {
                node: ProcessId::new(1),
            },
        );
        let order: Vec<i64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_micros() / 1000)
            .collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(
            Time::from_millis(1),
            Event::Boot {
                node: ProcessId::new(0),
            },
        );
        q.push(
            Time::from_millis(1),
            Event::Boot {
                node: ProcessId::new(1),
            },
        );
        q.push(
            Time::from_millis(1),
            Event::Boot {
                node: ProcessId::new(2),
            },
        );
        let nodes: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Boot { node } => node.as_usize(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(nodes, vec![0, 1, 2]);
    }

    #[test]
    fn len_and_is_empty_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Time::ZERO, Event::Sample);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_go_through_the_overflow_heap() {
        let mut q = EventQueue::new();
        // Well beyond the ring horizon (~268 ms).
        q.push(Time::from_millis(30_000), Event::Sample);
        q.push(
            Time::from_millis(1),
            Event::Boot {
                node: ProcessId::new(0),
            },
        );
        q.push(Time::from_millis(90_000), Event::Sample);
        assert_eq!(q.len(), 3);
        let times: Vec<i64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_micros())
            .collect();
        assert_eq!(
            times,
            vec![
                Time::from_millis(1).as_micros(),
                Time::from_millis(30_000).as_micros(),
                Time::from_millis(90_000).as_micros()
            ]
        );
    }

    #[test]
    fn pushes_at_the_drain_cursor_are_delivered_in_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_millis(10), Event::Sample);
        q.push(Time::from_millis(20), Event::Sample);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, Time::from_millis(10));
        // Push at exactly the popped time (the simulator wakes nodes "now")
        // and earlier than the next pending event: it must pop next.
        q.push(
            Time::from_millis(10),
            Event::Wake {
                node: ProcessId::new(3),
            },
        );
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, Time::from_millis(10));
        assert!(matches!(e, Event::Wake { node } if node.as_usize() == 3));
        assert_eq!(q.pop().unwrap().0, Time::from_millis(20));
    }

    fn msg() -> Arc<SimMessage> {
        use lumiere_types::TxId;
        Arc::new(SimMessage::Submit(Transaction::new(TxId::new(7))))
    }

    /// honesty[i] = (i % 3 != 2): nodes 2, 5, 8, … corrupted.
    fn mixed_honesty(n: usize) -> Arc<Vec<bool>> {
        Arc::new((0..n).map(|i| i % 3 != 2).collect())
    }

    #[test]
    fn symbolic_broadcast_costs_one_slot_per_class() {
        let n = 1000;
        let honesty = mixed_honesty(n);
        let mut q = EventQueue::new();
        q.push_broadcast(
            ProcessId::new(0),
            msg(),
            &honesty,
            ClassDelay::At(Time::from_millis(5)),
            ClassDelay::At(Time::from_millis(10)),
            |_| unreachable!("no jittered class"),
        );
        assert_eq!(q.len(), n - 1, "logical length counts every recipient");
        assert!(
            q.physical_len() <= 2,
            "constant-delay broadcast must stay symbolic, found {} slots",
            q.physical_len()
        );
    }

    #[test]
    fn symbolic_broadcast_expands_in_id_order_with_class_delays() {
        let n = 7;
        let honesty = mixed_honesty(n); // 2 and 5 corrupted
        let mut q = EventQueue::new();
        q.push_broadcast(
            ProcessId::new(3),
            msg(),
            &honesty,
            ClassDelay::At(Time::from_millis(1)),
            ClassDelay::At(Time::from_millis(2)),
            |_| unreachable!(),
        );
        let order: Vec<(i64, usize)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| match e {
                Event::Deliver { to, from, .. } => {
                    assert_eq!(from, ProcessId::new(3));
                    (t.as_micros() / 1000, to.as_usize())
                }
                _ => unreachable!(),
            })
            .collect();
        // Honest recipients (0, 1, 4, 6) at 1 ms in id order, then the
        // corrupted ones (2, 5) at 2 ms.
        assert_eq!(order, vec![(1, 0), (1, 1), (1, 4), (1, 6), (2, 2), (2, 5)]);
    }

    #[test]
    fn jittered_class_expands_eagerly_in_id_order() {
        let n = 6;
        let honesty = mixed_honesty(n); // 2 and 5 corrupted
        let mut drawn = Vec::new();
        let mut q = EventQueue::new();
        q.push_broadcast(
            ProcessId::new(0),
            msg(),
            &honesty,
            ClassDelay::Jittered,
            ClassDelay::At(Time::from_millis(9)),
            |to| {
                drawn.push(to.as_usize());
                Time::from_millis(1 + to.as_usize() as i64)
            },
        );
        assert_eq!(drawn, vec![1, 3, 4], "jitter drawn in ascending id order");
        assert_eq!(q.len(), n - 1);
    }

    /// Interleaves unicast pushes, symbolic broadcasts and pops on both
    /// queues and asserts identical event sequences — the oracle for the
    /// "symbolic == eager, byte for byte" claim at the queue level.
    fn drain_with_broadcasts(
        n: usize,
        ops: &[(i64, usize, bool)], // (time µs, node, is_broadcast)
        honesty: &Arc<Vec<bool>>,
        honest: ClassDelay,
        corrupt: ClassDelay,
    ) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        for &(at_micros, node, is_broadcast) in ops {
            let at = Time::from_micros(at_micros);
            let from = ProcessId::new(node % n);
            if is_broadcast {
                // Deterministic per-recipient jitter (stands in for the
                // runner's RNG draw; both queues must invoke it on the same
                // recipients in the same order).
                let jitter =
                    |to: ProcessId| Time::from_micros(at_micros + 1 + (to.as_usize() as i64 * 7));
                wheel.push_broadcast(from, msg(), honesty, honest, corrupt, jitter);
                heap.push_broadcast(from, msg(), honesty, honest, corrupt, jitter);
            } else {
                let event = Event::Boot { node: from };
                wheel.push(at, event.clone());
                heap.push(at, event);
            }
        }
        loop {
            assert_eq!(wheel.len(), heap.len(), "logical lengths diverged");
            let a = wheel.pop();
            let b = heap.pop();
            assert_eq!(a, b, "wheel and heap disagreed");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn broadcasts_interleave_with_unicasts_like_the_eager_heap() {
        let n = 9;
        let honesty = mixed_honesty(n);
        let ops: Vec<(i64, usize, bool)> = (0..40)
            .map(|i| ((i as i64) * 311 % 5000, i, i % 3 == 0))
            .collect();
        drain_with_broadcasts(
            n,
            &ops,
            &honesty,
            ClassDelay::At(Time::from_millis(3)),
            ClassDelay::At(Time::from_millis(4)),
        );
    }

    /// Drains both queues fully and compares the exact event sequence.
    fn drain_both(schedule: &[(i64, usize)]) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        for &(at_micros, node) in schedule {
            let at = Time::from_micros(at_micros);
            let event = Event::Boot {
                node: ProcessId::new(node),
            };
            wheel.push(at, event.clone());
            heap.push(at, event);
        }
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            assert_eq!(a, b, "wheel and heap disagreed");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn a_run_delivers_every_copy_from_the_borrowed_message() {
        let n = 65;
        let honesty = Arc::new(vec![true; n]);
        let message = msg();
        let at = Time::from_millis(1);
        let mut q = EventQueue::new();
        let class = ClassDelay::At(at);
        q.push_broadcast(
            ProcessId::new(0),
            Arc::clone(&message),
            &honesty,
            class,
            class,
            |_| unreachable!(),
        );
        assert_eq!(q.peek_time(), Some(at));
        let limit = q.last_seq();
        let Some(Taken::Run(mut run)) = q.take_due(at, limit) else {
            panic!("a symbolic broadcast comes off the queue as a run");
        };
        let mut recipients = Vec::new();
        loop {
            assert_eq!(Arc::strong_count(&message), 2, "copy to {}", run.to());
            assert_eq!(*run.message(), *message);
            recipients.push(run.to().as_usize());
            if !run.step() {
                break;
            }
            assert!(q.take_member(&run, limit));
        }
        assert_eq!(recipients, (1..n).collect::<Vec<_>>());
        assert!(q.is_empty());
        drop(run);
        assert_eq!(Arc::strong_count(&message), 1);
    }

    /// Schedules one broadcast of kind `kind` at `at` into both queues:
    /// 0 both classes at `at` (their reserved seqs interleave), 1 honest
    /// jittered — even ids at `at` itself, among the corrupted class's
    /// copies — and corrupted at `at`, 2 the corrupted class one bucket
    /// later.
    fn broadcast_both(
        wheel: &mut EventQueue,
        heap: &mut HeapQueue,
        honesty: &Arc<Vec<bool>>,
        kind: u8,
        from: ProcessId,
        at: Time,
        tag: u64,
    ) {
        use lumiere_types::TxId;
        let message = Arc::new(SimMessage::Submit(Transaction::new(TxId::new(tag))));
        let (honest, corrupt) = match kind % 3 {
            0 => (ClassDelay::At(at), ClassDelay::At(at)),
            1 => (ClassDelay::Jittered, ClassDelay::At(at)),
            _ => (
                ClassDelay::At(at),
                ClassDelay::At(at + lumiere_types::Duration::from_micros(BUCKET_WIDTH_MICROS)),
            ),
        };
        let jitter = |to: ProcessId| {
            let id = to.as_usize() as i64;
            at + lumiere_types::Duration::from_micros(id % 2 * id * 97)
        };
        wheel.push_broadcast(from, Arc::clone(&message), honesty, honest, corrupt, jitter);
        heap.push_broadcast(from, message, honesty, honest, corrupt, jitter);
    }

    /// Drains `wheel` the way the runner does — batch by batch, each group
    /// delivered as a run — and `heap` one event at a time under the same
    /// batch rule, asserting the same copies in the same order and the same
    /// logical length after every copy. Batch `i` takes its budget and seq
    /// cut (limit = last seq − cut) from `cuts[i % len]`, budget 0 meaning
    /// none. Copy `k` then pushes `reacts[k]` at its own instant: 1 a wake,
    /// 2–4 a broadcast of kind 0–2.
    fn drain_in_runs(
        wheel: &mut EventQueue,
        heap: &mut HeapQueue,
        honesty: &Arc<Vec<bool>>,
        cuts: &[(u64, u64)],
        reacts: &[u8],
    ) {
        let n = honesty.len();
        let mut copies = 0usize;
        let mut batches = 0usize;
        let mut stalled = false;
        let mut copy = |at, limit, got, wheel: &mut EventQueue, heap: &mut HeapQueue| {
            assert!(heap.due(at, limit), "the run went past its batch");
            let want = heap.pop();
            assert_eq!(Some((at, got)), want, "run and heap disagreed");
            assert_eq!(wheel.len(), heap.len(), "logical lengths diverged");
            let from = ProcessId::new(copies % n);
            match reacts.get(copies).copied().unwrap_or(0) {
                0 => {}
                1 => {
                    wheel.push(at, Event::Wake { node: from });
                    heap.push(at, Event::Wake { node: from });
                }
                kind => broadcast_both(
                    wheel,
                    heap,
                    honesty,
                    kind - 2,
                    from,
                    at,
                    1_000 + copies as u64,
                ),
            }
            copies += 1;
        };
        while let Some(at) = wheel.peek_time() {
            assert_eq!(Some(at), heap.peek_time());
            // A batch that took nothing is followed by an uncut one.
            let (budget, cut) = if stalled {
                (0, 0)
            } else {
                cuts[batches % cuts.len()]
            };
            batches += 1;
            let budget = if budget == 0 { u64::MAX } else { budget };
            let limit = wheel.last_seq().saturating_sub(cut);
            assert_eq!(wheel.last_seq(), heap.seq);
            let mut taken = 0;
            while taken < budget {
                match wheel.take_due(at, limit) {
                    None => break,
                    Some(Taken::One(event)) => {
                        taken += 1;
                        copy(at, limit, event, wheel, heap);
                    }
                    Some(Taken::Run(mut run)) => loop {
                        taken += 1;
                        let event = Event::Deliver {
                            to: run.to(),
                            from: run.from(),
                            message: Arc::clone(&run.group.message),
                        };
                        copy(at, limit, event, wheel, heap);
                        if !run.step() {
                            break;
                        }
                        if taken == budget || !wheel.take_member(&run, limit) {
                            wheel.put_back(run);
                            break;
                        }
                    },
                }
            }
            assert!(
                taken == budget || !heap.due(at, limit),
                "the run ended its batch early"
            );
            stalled = taken == 0;
        }
        assert!(heap.pop().is_none(), "the heap kept events the wheel lost");
    }

    proptest! {
        /// Group runs hold to the eager heap: random schedules of wakes and
        /// broadcasts on a 256 µs grid, so instants collide, where a batch
        /// can hold both honesty classes of one broadcast (interleaved
        /// reserved seqs), jittered copies among a symbolic class's, and
        /// pushes made at the run's own instant in mid-run; batches are cut
        /// by random budgets and seq limits, inside groups too. Fails if a
        /// run keeps going without comparing against the front of
        /// `current`, if `take_member` ignores the seq limit, or if a run
        /// miscounts `len`.
        #[test]
        fn group_runs_match_the_eager_heap(
            n in 3usize..12,
            stride in 2usize..5,
            ops in proptest::collection::vec((0u8..4, 0i64..6, 0usize..12), 1..24),
            cuts in proptest::collection::vec((0u64..5, 0u64..4), 1..8),
            reacts in proptest::collection::vec(0u8..5, 0..48),
        ) {
            let honesty: Arc<Vec<bool>> =
                Arc::new((0..n).map(|i| i % stride != stride - 1).collect());
            let mut wheel = EventQueue::new();
            let mut heap = HeapQueue::new();
            for (tag, &(kind, step, x)) in ops.iter().enumerate() {
                let at = Time::from_micros(step * (BUCKET_WIDTH_MICROS / 4));
                let node = ProcessId::new(x % n);
                if kind == 3 {
                    wheel.push(at, Event::Wake { node });
                    heap.push(at, Event::Wake { node });
                } else {
                    broadcast_both(&mut wheel, &mut heap, &honesty, kind, node, at, tag as u64);
                }
            }
            drain_in_runs(&mut wheel, &mut heap, &honesty, &cuts, &reacts);
        }

        /// The calendar queue delivers in exactly the order of the old
        /// `BinaryHeap` on random schedules: random times (spanning several
        /// ring laps and the overflow horizon), random interleaving of
        /// pushes and pops.
        #[test]
        fn wheel_matches_heap_on_random_schedules(
            times in proptest::collection::vec(0i64..800_000, 0..120),
        ) {
            let schedule: Vec<(i64, usize)> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| (t, i % 7))
                .collect();
            drain_both(&schedule);
        }

        /// Interleaved push/pop sessions (pushes never travel into the
        /// past of the drain cursor further than the simulator itself
        /// would: each batch schedules at or after the last popped time,
        /// like deliveries scheduled from `now`).
        #[test]
        fn wheel_matches_heap_with_interleaved_pops(
            batches in proptest::collection::vec(
                (proptest::collection::vec(0i64..400_000, 1..20), 1usize..12),
                1..8,
            ),
        ) {
            let mut wheel = EventQueue::new();
            let mut heap = HeapQueue::new();
            let mut node = 0usize;
            let mut last_popped = 0i64;
            for (offsets, pops) in &batches {
                for &offset in offsets {
                    let at = Time::from_micros(last_popped + offset);
                    let event = Event::Boot { node: ProcessId::new(node % 11) };
                    node += 1;
                    wheel.push(at, event.clone());
                    heap.push(at, event);
                }
                for _ in 0..*pops {
                    let a = wheel.pop();
                    let b = heap.pop();
                    assert_eq!(a, b, "wheel and heap disagreed mid-drain");
                    if let Some((t, _)) = a {
                        last_popped = t.as_micros();
                    }
                }
                assert_eq!(wheel.len(), heap.len());
            }
        }

        /// A crowded bucket being drained: every push falls within two
        /// buckets of the last popped instant, on a 256 µs grid so instants
        /// collide, with pops interleaved. Pushes then land at the front of
        /// `current` (before everything pending), in its middle and at its
        /// back, and a broadcast whose two classes share an instant
        /// re-queues its groups both as the minimum and behind the other
        /// class's entry at that instant.
        #[test]
        fn wheel_matches_heap_in_a_crowded_current_bucket(
            ops in proptest::collection::vec((0u8..5, 0i64..9, 0usize..9), 1..60),
        ) {
            let n = 9;
            let honesty = mixed_honesty(n);
            let mut wheel = EventQueue::new();
            let mut heap = HeapQueue::new();
            let mut last_popped = 0i64;
            fn pop_both(wheel: &mut EventQueue, heap: &mut HeapQueue, last: &mut i64) -> bool {
                let a = wheel.pop();
                let b = heap.pop();
                assert_eq!(a, b, "wheel and heap disagreed mid-drain");
                if let Some((t, _)) = a {
                    *last = t.as_micros();
                }
                a.is_some()
            }
            for &(kind, step, x) in &ops {
                let at = Time::from_micros(last_popped + step * (BUCKET_WIDTH_MICROS / 4));
                match kind {
                    0 | 1 => {
                        let event = Event::Wake { node: ProcessId::new(x) };
                        wheel.push(at, event.clone());
                        heap.push(at, event);
                    }
                    2 => {
                        let from = ProcessId::new(x);
                        let class = ClassDelay::At(at);
                        wheel.push_broadcast(from, msg(), &honesty, class, class, |_| unreachable!());
                        heap.push_broadcast(from, msg(), &honesty, class, class, |_| unreachable!());
                    }
                    _ => {
                        for _ in 0..x {
                            pop_both(&mut wheel, &mut heap, &mut last_popped);
                        }
                    }
                }
                assert_eq!(wheel.len(), heap.len());
            }
            while pop_both(&mut wheel, &mut heap, &mut last_popped) {}
        }

        /// Symbolic broadcast groups pop in exactly the order of eager
        /// per-recipient expansion: random mixes of unicasts and broadcasts
        /// across random honesty maps and class delays (including jittered
        /// classes, whose deterministic stand-in "RNG" both queues must
        /// consume identically).
        #[test]
        fn symbolic_broadcasts_match_eager_expansion(
            n in 2usize..24,
            corrupt_stride in 2usize..6,
            ops in proptest::collection::vec(
                (0i64..300_000, 0usize..24, any::<bool>()),
                1..30,
            ),
            honest_ms in 1i64..40,
            corrupt_ms in 1i64..40,
            honest_jitters in any::<bool>(),
        ) {
            let honesty: Arc<Vec<bool>> =
                Arc::new((0..n).map(|i| i % corrupt_stride != corrupt_stride - 1).collect());
            let honest = if honest_jitters {
                ClassDelay::Jittered
            } else {
                ClassDelay::At(Time::from_millis(honest_ms))
            };
            let corrupt = ClassDelay::At(Time::from_millis(corrupt_ms));
            drain_with_broadcasts(n, &ops, &honesty, honest, corrupt);
        }
    }
}
