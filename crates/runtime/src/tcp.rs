//! The TCP transport backend: a real socket mesh between OS processes.
//!
//! No async runtime is involved (the build environment is offline, so no
//! tokio): the mesh is a classic thread-per-peer event loop. Each node
//!
//! * binds a listener and runs an **accept thread** (non-blocking accept,
//!   polled every few milliseconds so shutdown is prompt);
//! * spawns one **reader thread** per inbound connection, which first reads
//!   a 4-byte big-endian handshake naming the dialing peer, then decodes
//!   length-prefixed binary frames (see [`crate::codec`]) into a shared
//!   inbox channel;
//! * **dials** every peer with bounded retries (peers boot in any order) and
//!   keeps the outbound stream as its write half to that peer.
//!
//! Every pair of nodes is thus connected by two simplex TCP streams, one per
//! direction — no connection-direction tie-breaking needed. A write failure
//! marks the peer dead and is otherwise ignored: a BFT cluster must keep
//! running while `f` peers are unreachable. Dead peers are **redialed
//! lazily on send** (rate-limited, with a short per-attempt timeout): when a
//! killed process is restarted on the same address, the survivors' next
//! sends re-establish the outbound streams and replay the handshake, which
//! is what lets the restarted node's own [`TcpTransport::connect`] barrier
//! complete mid-epoch.
//!
//! Inbound connections are only trusted after a valid handshake: an id out
//! of range or claiming to be the local node closes the connection without
//! counting toward the mesh barrier (a garbage-spewing or mis-addressed
//! dialer cannot wedge the cluster, and frames are capped and parsed
//! defensively — see [`crate::codec`]).

use crate::codec::{encode_frame_into, read_frame};
use crate::message::WireMessage;
use crate::transport::{Transport, TransportError};
use lumiere_types::ProcessId;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration as WallDuration, Instant};

/// How often blocked I/O loops (accept, idle reads) re-check the stop flag.
const POLL_INTERVAL: WallDuration = WallDuration::from_millis(25);

/// Interval between redial attempts while a peer is still booting.
const DIAL_RETRY: WallDuration = WallDuration::from_millis(50);

/// Minimum gap between redial attempts to a dead peer (rate limit so a
/// down peer costs at most one short dial per interval, not one per send).
const REDIAL_INTERVAL: WallDuration = WallDuration::from_millis(250);

/// Per-attempt timeout when redialing a dead peer; kept short so a send to
/// a still-down peer never stalls the event loop noticeably.
const REDIAL_TIMEOUT: WallDuration = WallDuration::from_millis(100);

/// Configuration of one node's view of the TCP mesh.
#[derive(Debug, Clone)]
pub struct TcpMeshConfig {
    /// The local processor id.
    pub id: ProcessId,
    /// Cluster size.
    pub n: usize,
    /// The local listen address (`host:port`).
    pub listen: String,
    /// Peer addresses, one `(id, host:port)` pair per remote processor.
    pub peers: Vec<(ProcessId, String)>,
    /// How long to keep dialing/waiting for the full mesh before giving up.
    pub connect_timeout: WallDuration,
}

/// One node's handle onto the TCP mesh.
#[derive(Debug)]
pub struct TcpTransport {
    id: ProcessId,
    n: usize,
    inbox: Receiver<(ProcessId, WireMessage)>,
    /// Outbound write halves, indexed by peer id (`None` = local slot or a
    /// peer that died).
    writers: Vec<Option<TcpStream>>,
    /// Peer addresses, indexed by peer id (`None` = local slot), kept for
    /// lazy redial of dead peers.
    peer_addrs: Vec<Option<String>>,
    /// Last redial attempt per peer (rate limiting).
    last_redial: Vec<Option<Instant>>,
    /// The frame being sent: encoded once per `send`/`broadcast` and
    /// written to every recipient from here, so sending allocates nothing
    /// once the buffer has grown to the largest frame seen.
    scratch: Vec<u8>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl TcpTransport {
    /// Boots this node's corner of the mesh: binds, accepts, dials every
    /// peer, and blocks until the full mesh is up (all outbound streams
    /// connected **and** `n − 1` inbound handshakes received) or
    /// `connect_timeout` elapses.
    pub fn connect(cfg: TcpMeshConfig) -> Result<TcpTransport, TransportError> {
        if cfg.peers.len() != cfg.n - 1 {
            return Err(TransportError(format!(
                "expected {} peer addresses for an n = {} mesh, got {}",
                cfg.n - 1,
                cfg.n,
                cfg.peers.len()
            )));
        }
        let listener = TcpListener::bind(&cfg.listen)
            .map_err(|e| TransportError(format!("cannot bind {}: {e}", cfg.listen)))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| TransportError(format!("cannot set listener non-blocking: {e}")))?;
        let stop = Arc::new(AtomicBool::new(false));
        let (inbox_tx, inbox_rx) = channel();
        let inbound = Arc::new(AtomicUsize::new(0));
        let accept_thread = spawn_acceptor(
            listener,
            inbox_tx,
            Arc::clone(&stop),
            Arc::clone(&inbound),
            cfg.id,
            cfg.n,
        );

        // Dial every peer (they boot in any order, so retry until deadline).
        let deadline = Instant::now() + cfg.connect_timeout;
        let mut writers: Vec<Option<TcpStream>> = (0..cfg.n).map(|_| None).collect();
        for (peer, addr) in &cfg.peers {
            let stream = dial(addr, deadline).map_err(|e| {
                stop.store(true, Ordering::SeqCst);
                TransportError(format!("cannot reach peer {peer} at {addr}: {e}"))
            })?;
            let _ = stream.set_nodelay(true);
            let mut stream = stream;
            stream
                .write_all(&(cfg.id.as_usize() as u32).to_be_bytes())
                .map_err(|e| {
                    stop.store(true, Ordering::SeqCst);
                    TransportError(format!("handshake to peer {peer} failed: {e}"))
                })?;
            writers[peer.as_usize()] = Some(stream);
        }

        // Barrier: wait for the inbound half of the mesh too, so the caller
        // can boot the protocol knowing nobody's first broadcast is lost.
        while inbound.load(Ordering::SeqCst) < cfg.n - 1 {
            if Instant::now() >= deadline {
                stop.store(true, Ordering::SeqCst);
                return Err(TransportError(format!(
                    "only {} of {} inbound connections arrived within the connect timeout",
                    inbound.load(Ordering::SeqCst),
                    cfg.n - 1
                )));
            }
            std::thread::sleep(POLL_INTERVAL);
        }

        let mut peer_addrs: Vec<Option<String>> = (0..cfg.n).map(|_| None).collect();
        for (peer, addr) in &cfg.peers {
            peer_addrs[peer.as_usize()] = Some(addr.clone());
        }
        Ok(TcpTransport {
            id: cfg.id,
            n: cfg.n,
            inbox: inbox_rx,
            writers,
            peer_addrs,
            last_redial: (0..cfg.n).map(|_| None).collect(),
            scratch: Vec::new(),
            stop,
            threads: vec![accept_thread],
        })
    }

    /// Attempts to re-establish the outbound stream to a dead peer: one
    /// short, rate-limited dial plus the 4-byte handshake. Failure is
    /// silent — the peer is simply still down; the next send past the rate
    /// limit tries again. This is what heals the mesh around a killed and
    /// restarted process.
    fn try_redial(&mut self, to: ProcessId) {
        let idx = to.as_usize();
        let Some(addr) = self.peer_addrs[idx].as_deref() else {
            return;
        };
        let now = Instant::now();
        if let Some(last) = self.last_redial[idx] {
            if now.duration_since(last) < REDIAL_INTERVAL {
                return;
            }
        }
        self.last_redial[idx] = Some(now);
        let Ok(mut resolved) = addr.to_socket_addrs() else {
            return;
        };
        let Some(sock_addr) = resolved.next() else {
            return;
        };
        let Ok(mut stream) = TcpStream::connect_timeout(&sock_addr, REDIAL_TIMEOUT) else {
            return;
        };
        let _ = stream.set_nodelay(true);
        if stream
            .write_all(&(self.id.as_usize() as u32).to_be_bytes())
            .is_err()
        {
            return;
        }
        self.writers[idx] = Some(stream);
    }

    /// Encodes `msg` into the scratch buffer as one frame.
    fn stage(&mut self, msg: &WireMessage) {
        self.scratch.clear();
        encode_frame_into(msg, &mut self.scratch);
    }

    /// Writes the staged frame to one peer (a single `write_all`, so frames
    /// never interleave on a stream), redialing it first if it is dead.
    fn write_staged(&mut self, to: ProcessId) {
        if self.writers[to.as_usize()].is_none() {
            self.try_redial(to);
        }
        let slot = &mut self.writers[to.as_usize()];
        if let Some(stream) = slot {
            if stream.write_all(&self.scratch).is_err() {
                // The peer died mid-write. Mark it dead and move on: the
                // protocol keeps running with the live quorum, and the next
                // send past the rate limit redials (a restarted process on
                // the same address rejoins this way).
                *slot = None;
            }
        }
    }
}

fn dial(addr: &str, deadline: Instant) -> Result<TcpStream, String> {
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(format!("gave up dialing: {e}"));
                }
                std::thread::sleep(DIAL_RETRY);
            }
        }
    }
}

fn spawn_acceptor(
    listener: TcpListener,
    inbox: Sender<(ProcessId, WireMessage)>,
    stop: Arc<AtomicBool>,
    inbound: Arc<AtomicUsize>,
    local: ProcessId,
    n: usize,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut readers = Vec::new();
        while !stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
                    readers.push(spawn_reader(
                        stream,
                        inbox.clone(),
                        Arc::clone(&stop),
                        Arc::clone(&inbound),
                        local,
                        n,
                    ));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(_) => break,
            }
        }
        for reader in readers {
            let _ = reader.join();
        }
    })
}

fn spawn_reader(
    stream: TcpStream,
    inbox: Sender<(ProcessId, WireMessage)>,
    stop: Arc<AtomicBool>,
    inbound: Arc<AtomicUsize>,
    local: ProcessId,
    n: usize,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        // Handshake: 4-byte big-endian id of the dialing peer. An id out of
        // range, or one claiming to be this very node, is a corrupt or
        // forged handshake: close the connection without counting it toward
        // the mesh barrier.
        let mut reader = Interruptible {
            stream,
            stop: &stop,
        };
        let mut id_bytes = [0u8; 4];
        if reader.read_exact(&mut id_bytes).is_err() {
            return;
        }
        let claimed = u32::from_be_bytes(id_bytes) as usize;
        if claimed >= n || claimed == local.as_usize() {
            let _ = reader.stream.shutdown(std::net::Shutdown::Both);
            return;
        }
        let from = ProcessId::new(claimed);
        inbound.fetch_add(1, Ordering::SeqCst);
        loop {
            match read_frame(&mut reader) {
                Ok(msg) => {
                    if inbox.send((from, msg)).is_err() {
                        return; // local inbox gone: transport dropped
                    }
                }
                Err(_) => return, // peer closed, stream corrupt, or stopping
            }
        }
    })
}

/// A `Read` over an inbound stream that treats read timeouts as
/// opportunities to check the stop flag rather than as errors, so the one
/// frame reader ([`read_frame`]) is interruptible at any byte boundary.
struct Interruptible<'a> {
    stream: TcpStream,
    stop: &'a AtomicBool,
}

impl Read for Interruptible<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return Err(std::io::ErrorKind::ConnectionAborted.into());
            }
            match self.stream.read(buf) {
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                done => return done,
            }
        }
    }
}

impl Transport for TcpTransport {
    fn local_id(&self) -> ProcessId {
        self.id
    }

    fn cluster_size(&self) -> usize {
        self.n
    }

    fn send(&mut self, to: ProcessId, msg: &WireMessage) -> Result<(), TransportError> {
        self.stage(msg);
        self.write_staged(to);
        Ok(())
    }

    /// Encodes once and writes the same bytes to every peer.
    fn broadcast(&mut self, msg: &WireMessage) -> Result<(), TransportError> {
        self.stage(msg);
        for to in ProcessId::all(self.n) {
            if to != self.id {
                self.write_staged(to);
            }
        }
        Ok(())
    }

    fn recv_timeout(
        &mut self,
        timeout: WallDuration,
    ) -> Result<Option<(ProcessId, WireMessage)>, TransportError> {
        match self.inbox.recv_timeout(timeout) {
            Ok(pair) => Ok(Some(pair)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Ok(None),
        }
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for writer in self.writers.iter_mut() {
            if let Some(stream) = writer.take() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}
