//! TCP transport: real sockets driven by a single-threaded readiness
//! reactor. A [`TcpTransport`] owns **no long-lived thread** — every accept,
//! read, decode and write happens on the thread that calls it (the node's
//! event loop), inside [`Transport::send`], [`Transport::broadcast`],
//! [`Transport::recv_timeout`] and [`Transport::shutdown`].
//!
//! Topology: every node listens on one address and dials each peer lazily on
//! first send. The sender identity travels inside each frame (see
//! [`crate::frame`]), so connection direction is irrelevant to the protocol
//! and node restarts need no handshake state. Outbound connections are
//! write-only, accepted connections are read-only.
//!
//! * **Receive.** `recv_timeout` returns already-decoded frames from a local
//!   queue; only when that is empty does it wait — one `ppoll(2)` over the
//!   listener, every accepted socket and any write-blocked outbound socket
//!   (nanosecond timeout: the event loop asks for 200 µs waits and sub-ms
//!   timers). Readable sockets are read once into a per-connection buffer
//!   and decoded with a cursor; the consumed prefix is dropped once per read.
//!   Because sockets are read only when the local queue is empty, inbound
//!   backpressure is TCP's own: a slow node stops reading, its peers'
//!   sockets block, and *their* bounded outbound queues shed.
//! * **Send.** Frames are encoded on the caller (a broadcast exactly once,
//!   the bytes shared by every recipient) and written nonblocking straight
//!   to the socket when the peer has nothing queued — an idle connection
//!   pays one `write` per frame and no wake-up. Only what the socket did
//!   not take is queued; the backlog is flushed with `write_vectored`
//!   (up to `MAX_IOV` frames per syscall) when `ppoll` reports the socket
//!   writable again. Both paths are counted (`flushes_idle` /
//!   `flushes_full` in [`TransportStats`]).
//! * **Connect.** Dialing happens on a short-lived connector thread so the
//!   reactor never blocks in `connect`; while one is in flight the poll wait
//!   is capped at 1 ms so its result is noticed promptly. Frames queued for
//!   an unreachable peer **survive** (capped-backoff retry) — only per-peer
//!   queue overflow sheds, newest first, keeping memory bounded and shed
//!   order deterministic. On a broken connection a half-written head frame
//!   is the only loss.
//!
//! The container this repository builds in has no crates.io access, so
//! tokio/mio/libc cannot be used; readiness is a hand-rolled `ppoll(2)` on
//! Linux (elsewhere: a sub-millisecond sleep, then try every socket — all of
//! them are nonblocking, so spurious readiness is harmless).

use crate::frame::FrameCodec;
use crate::transport::{warn_drop, Transport, TransportStats, DEFAULT_QUEUE_CAPACITY};
use prestige_types::Actor;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A complete, encoded wire frame waiting in one or more peer queues.
type SharedFrame = Arc<[u8]>;

/// Initial reconnect backoff; doubles per failure up to [`MAX_BACKOFF`].
const INITIAL_BACKOFF: Duration = Duration::from_millis(50);
/// Reconnect backoff cap.
const MAX_BACKOFF: Duration = Duration::from_secs(2);
/// Most frames coalesced into one `write_vectored` call.
const MAX_IOV: usize = 64;
/// Upper bound on one poll wait while a connector thread is in flight, so
/// its result is picked up within a millisecond.
const CONNECT_POLL: Duration = Duration::from_millis(1);
/// Bytes asked of a readable socket per `read`.
const READ_CHUNK: usize = 64 * 1024;
/// How long `shutdown` keeps flushing queued frames to connected peers.
const SHUTDOWN_FLUSH: Duration = Duration::from_millis(50);
/// Largest buffer capacity kept for reuse once emptied (1 MiB), so one huge
/// frame (a sync response, say) cannot pin its memory for the endpoint's
/// lifetime.
const MAX_RETAINED_CAPACITY: usize = 1024 * 1024;

/// Configuration of a TCP endpoint.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Address to accept peer connections on.
    pub listen: SocketAddr,
    /// Addresses of every peer this node may send to.
    pub peers: HashMap<Actor, SocketAddr>,
    /// Per-peer outbound queue capacity (frames).
    pub queue_capacity: usize,
    /// Frame codec (wire version and max-frame guard).
    pub codec: FrameCodec,
}

impl TcpConfig {
    /// A config with default queue capacity and codec.
    pub fn new(listen: SocketAddr, peers: HashMap<Actor, SocketAddr>) -> Self {
        TcpConfig {
            listen,
            peers,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            codec: FrameCodec::new(),
        }
    }
}

/// An accepted (read-only) connection.
struct Inbound {
    stream: TcpStream,
    /// Bytes received but not yet decoded: at most one incomplete frame
    /// between reads.
    buf: Vec<u8>,
    /// Cleared on EOF, I/O error or a corrupt stream; the connection is
    /// dropped at the end of the poll round.
    open: bool,
}

/// Outbound state of one configured peer.
struct Peer {
    actor: Actor,
    addr: SocketAddr,
    /// Established nonblocking connection, if any.
    stream: Option<TcpStream>,
    /// Frames the socket has not taken yet, oldest first. Empty whenever the
    /// connection keeps up.
    queue: VecDeque<SharedFrame>,
    /// Bytes of `queue[0]` already written (a partial write).
    partial: usize,
    /// A connector thread is in flight.
    connecting: bool,
    /// Current reconnect backoff.
    backoff: Duration,
    /// Earliest next connect attempt.
    retry_at: Instant,
    /// The socket returned `WouldBlock`; flush again once `ppoll` reports it
    /// writable.
    blocked: bool,
}

/// What a connector thread reports back.
type Dialed = (usize, std::io::Result<TcpStream>);

/// A TCP endpoint implementing [`Transport`] for any serde-encodable message
/// type. See the module docs for the reactor design.
pub struct TcpTransport<M: serde::Serialize + serde::Deserialize + Send + 'static> {
    me: Actor,
    config: TcpConfig,
    stats: Arc<TransportStats>,
    /// `None` once shut down.
    listener: Option<TcpListener>,
    inbound: Vec<Inbound>,
    peers: Vec<Peer>,
    /// Position of each configured peer in `peers`.
    peer_index: HashMap<Actor, usize>,
    /// Decoded frames not yet returned by `recv_timeout`.
    ready: VecDeque<(Actor, M)>,
    /// Connector threads report here.
    dialed_tx: Sender<Dialed>,
    dialed_rx: Receiver<Dialed>,
    /// Frame encode buffer reused across sends; dropped instead of kept
    /// once it outgrows [`MAX_RETAINED_CAPACITY`].
    scratch: Vec<u8>,
    /// Scratch space every socket is read into.
    chunk: Box<[u8]>,
    /// Reused `ppoll` argument array.
    pollfds: Vec<poll::PollFd>,
}

impl<M: serde::Serialize + serde::Deserialize + Send + 'static> TcpTransport<M> {
    /// Binds `config.listen` and returns the endpoint. Outbound connections
    /// are established lazily on first send to each peer.
    pub fn bind(me: Actor, config: TcpConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(config.listen)?;
        Self::new(me, listener, config)
    }

    /// An endpoint on an already-bound listener with the default queue
    /// capacity and codec. A launcher that binds every node's listener
    /// before starting any node gives each peer a complete address map with
    /// nobody's first connect refused.
    pub fn from_listener(
        me: Actor,
        listener: TcpListener,
        peers: HashMap<Actor, SocketAddr>,
    ) -> std::io::Result<Self> {
        let config = TcpConfig::new(listener.local_addr()?, peers);
        Self::new(me, listener, config)
    }

    fn new(me: Actor, listener: TcpListener, mut config: TcpConfig) -> std::io::Result<Self> {
        // Record the OS-assigned address so port-0 binds are discoverable.
        config.listen = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let now = Instant::now();
        let peers: Vec<Peer> = config
            .peers
            .iter()
            .map(|(&actor, &addr)| Peer {
                actor,
                addr,
                stream: None,
                queue: VecDeque::new(),
                partial: 0,
                connecting: false,
                backoff: INITIAL_BACKOFF,
                retry_at: now,
                blocked: false,
            })
            .collect();
        let peer_index = peers
            .iter()
            .enumerate()
            .map(|(i, p)| (p.actor, i))
            .collect();
        let (dialed_tx, dialed_rx) = channel();
        Ok(TcpTransport {
            me,
            config,
            stats: Arc::new(TransportStats::default()),
            listener: Some(listener),
            inbound: Vec::new(),
            peers,
            peer_index,
            ready: VecDeque::new(),
            dialed_tx,
            dialed_rx,
            scratch: Vec::new(),
            chunk: vec![0u8; READ_CHUNK].into_boxed_slice(),
            pollfds: Vec::new(),
        })
    }

    /// The actual bound listen address (the OS-assigned port when the
    /// config requested port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.config.listen
    }

    /// Counts a send towards `to` and decides whether it may be queued:
    /// `None` (dropped, counted, warned) for an unknown peer or a full queue.
    fn admit(&mut self, to: Actor) -> Option<usize> {
        self.stats.sent.fetch_add(1, Ordering::Relaxed);
        let Some(&index) = self.peer_index.get(&to) else {
            self.drop_outbound(to, "no address configured");
            return None;
        };
        // Bounded backpressure: shed the *newest* frame when the peer's
        // backlog is at capacity.
        if self.peers[index].queue.len() >= self.config.queue_capacity {
            self.drop_outbound(to, "outbound queue full");
            return None;
        }
        Some(index)
    }

    fn drop_outbound(&self, to: Actor, reason: &str) {
        let total = self.stats.note_drop(to);
        warn_drop(&self.stats, self.me, to, reason, total);
    }

    /// Hands one encoded frame to peer `index`: straight to the socket when
    /// nothing is queued ahead of it, else (or for whatever the socket did
    /// not take) onto the peer's queue. `shared` caches the queued copy so a
    /// broadcast allocates it at most once.
    fn transmit(&mut self, index: usize, bytes: &[u8], shared: &mut Option<SharedFrame>) {
        let peer = &mut self.peers[index];
        let mut written = 0;
        if peer.queue.is_empty() {
            if let Some(stream) = peer.stream.as_mut() {
                self.stats.flushes_idle.fetch_add(1, Ordering::Relaxed);
                match stream.write(bytes) {
                    Ok(n) => {
                        self.stats.writev_calls.fetch_add(1, Ordering::Relaxed);
                        if n == bytes.len() {
                            return;
                        }
                        written = n;
                        peer.blocked = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => peer.blocked = true,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    // Nothing of this frame is on the wire: it rides the
                    // reconnect intact.
                    Err(_) => peer.stream = None,
                }
            }
        }
        let frame = shared.get_or_insert_with(|| Arc::from(bytes));
        peer.queue.push_back(Arc::clone(frame));
        if written > 0 {
            peer.partial = written;
        }
        self.service_peer(index, Instant::now());
    }

    /// Moves peer `index`'s backlog along: dials if there is no connection
    /// (and none in flight, and the backoff has passed), flushes if the
    /// socket is not known to be full.
    fn service_peer(&mut self, index: usize, now: Instant) {
        let peer = &mut self.peers[index];
        if peer.queue.is_empty() || peer.blocked || peer.connecting {
            return;
        }
        if peer.stream.is_some() {
            self.flush_peer(index);
        } else if now >= peer.retry_at {
            peer.connecting = true;
            let (addr, dialed) = (peer.addr, self.dialed_tx.clone());
            std::thread::Builder::new()
                .name(format!("tcp-connect-{}-to-{}", self.me, peer.actor))
                .spawn(move || {
                    let stream = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
                    let _ = dialed.send((index, stream));
                })
                .expect("spawn connector thread");
        }
    }

    /// Collects finished connector threads: a new connection is flushed at
    /// once, a failure schedules the retry.
    fn reap_dialed(&mut self) {
        while let Ok((index, result)) = self.dialed_rx.try_recv() {
            // A connector that outlived `shutdown` finds no peer to report to.
            let Some(peer) = self.peers.get_mut(index) else {
                continue;
            };
            peer.connecting = false;
            match result.and_then(|s| s.set_nonblocking(true).map(|()| s)) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    peer.stream = Some(stream);
                    peer.backoff = INITIAL_BACKOFF;
                    self.flush_peer(index);
                }
                Err(_) => {
                    peer.retry_at = Instant::now() + peer.backoff;
                    peer.backoff = (peer.backoff * 2).min(MAX_BACKOFF);
                }
            }
        }
    }

    /// Writes as much of peer `index`'s queue as the socket accepts,
    /// coalescing up to [`MAX_IOV`] frames per `write_vectored` syscall.
    fn flush_peer(&mut self, index: usize) {
        let peer = &mut self.peers[index];
        let Some(stream) = peer.stream.as_mut() else {
            return;
        };
        match peer.queue.len() {
            0 => return,
            1 => self.stats.flushes_idle.fetch_add(1, Ordering::Relaxed),
            _ => self.stats.flushes_full.fetch_add(1, Ordering::Relaxed),
        };
        peer.blocked = false;
        while !peer.queue.is_empty() {
            let mut slices: Vec<IoSlice> = Vec::with_capacity(peer.queue.len().min(MAX_IOV));
            slices.push(IoSlice::new(&peer.queue[0][peer.partial..]));
            for frame in peer.queue.iter().skip(1).take(MAX_IOV - 1) {
                slices.push(IoSlice::new(frame));
            }
            let iov = slices.len();
            match stream.write_vectored(&slices) {
                Ok(mut written) => {
                    self.stats.writev_calls.fetch_add(1, Ordering::Relaxed);
                    if iov > 1 {
                        self.stats
                            .frames_coalesced
                            .fetch_add(iov as u64, Ordering::Relaxed);
                    }
                    // Retire fully written frames; remember the offset into a
                    // partially written head.
                    while written > 0 {
                        let head_left = peer.queue[0].len() - peer.partial;
                        if written >= head_left {
                            written -= head_left;
                            peer.partial = 0;
                            peer.queue.pop_front();
                        } else {
                            peer.partial += written;
                            written = 0;
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    // Socket buffer full: park until `ppoll` reports
                    // writability.
                    peer.blocked = true;
                    return;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Broken connection. A half-written head frame is torn on
                    // the wire and must not be resumed on a fresh connection;
                    // it is the only frame lost — the rest of the queue rides
                    // the reconnect.
                    peer.stream = None;
                    peer.retry_at = Instant::now();
                    if peer.partial > 0 {
                        peer.partial = 0;
                        peer.queue.pop_front();
                        let to = peer.actor;
                        self.drop_outbound(to, "connection broken");
                    }
                    return;
                }
            }
        }
    }

    /// One reactor round: collect connector results, move every backlog
    /// along, then wait up to `wait` for the listener, any accepted socket
    /// or any write-blocked outbound socket, and serve whatever is ready.
    /// Decoded frames land in `self.ready`.
    fn poll_once(&mut self, now: Instant, mut wait: Duration) {
        self.reap_dialed();
        for index in 0..self.peers.len() {
            self.service_peer(index, now);
            let peer = &self.peers[index];
            if peer.connecting {
                wait = wait.min(CONNECT_POLL);
            } else if !peer.queue.is_empty() && peer.stream.is_none() {
                wait = wait.min(peer.retry_at.saturating_duration_since(now));
            }
        }

        // Poll set: [listener] ++ accepted sockets ++ write-blocked peers.
        let mut fds = std::mem::take(&mut self.pollfds);
        fds.clear();
        fds.extend(
            self.listener
                .iter()
                .map(|l| poll::PollFd::new(l, poll::POLLIN)),
        );
        let first_inbound = fds.len();
        fds.extend(
            self.inbound
                .iter()
                .map(|c| poll::PollFd::new(&c.stream, poll::POLLIN)),
        );
        let first_blocked = fds.len();
        // (`blocked` implies a connection: only a flush sets or clears it.)
        let blocked = self.peers.iter().filter(|p| p.blocked);
        fds.extend(
            blocked
                .filter_map(|p| p.stream.as_ref())
                .map(|s| poll::PollFd::new(s, poll::POLLOUT)),
        );
        self.stats.poll_calls.fetch_add(1, Ordering::Relaxed);
        if poll::wait(&mut fds, wait) > 0 {
            for slot in 0..self.inbound.len() {
                if fds[first_inbound + slot].ready() {
                    self.read_inbound(slot);
                }
            }
            // Reads do not touch peers, and a flush changes only its own
            // peer, so the blocked peers still line up with the poll set.
            let mut fd = first_blocked;
            for index in 0..self.peers.len() {
                if self.peers[index].blocked {
                    if fds[fd].ready() {
                        self.flush_peer(index);
                    }
                    fd += 1;
                }
            }
            self.inbound.retain(|c| c.open);
            if first_inbound == 1 && fds[0].ready() {
                self.accept_pending();
            }
        }
        self.pollfds = fds;
    }

    /// Accepts every connection waiting on the listener.
    fn accept_pending(&mut self) {
        let Some(listener) = &self.listener else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_ok() {
                        self.inbound.push(Inbound {
                            stream,
                            buf: Vec::new(),
                            open: true,
                        });
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock: backlog drained
            }
        }
    }

    /// Reads accepted connection `slot` once and decodes every complete
    /// frame it now holds.
    fn read_inbound(&mut self, slot: usize) {
        let conn = &mut self.inbound[slot];
        self.stats.read_calls.fetch_add(1, Ordering::Relaxed);
        match conn.stream.read(&mut self.chunk) {
            Ok(0) => conn.open = false, // peer closed
            Ok(n) => {
                conn.buf.extend_from_slice(&self.chunk[..n]);
                let mut cursor = 0;
                loop {
                    match self.config.codec.decode::<M>(&conn.buf[cursor..]) {
                        Ok(Some((from, message, used))) => {
                            cursor += used;
                            self.ready.push_back((from, message));
                        }
                        Ok(None) => break, // need more bytes
                        Err(_) => {
                            // Corrupt stream: drop this connection only.
                            conn.open = false;
                            break;
                        }
                    }
                }
                conn.buf.drain(..cursor);
                if conn.buf.is_empty() && conn.buf.capacity() > MAX_RETAINED_CAPACITY {
                    conn.buf = Vec::new();
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(_) => conn.open = false,
        }
    }

    /// Puts the encode buffer back for the next send, unless one huge frame
    /// grew it past [`MAX_RETAINED_CAPACITY`].
    fn keep_scratch(&mut self, buf: Vec<u8>) {
        if buf.capacity() <= MAX_RETAINED_CAPACITY {
            self.scratch = buf;
        }
    }
}

impl<M: serde::Serialize + serde::Deserialize + Send + 'static> Transport<M> for TcpTransport<M> {
    fn me(&self) -> Actor {
        self.me
    }

    fn send(&mut self, to: Actor, message: M) {
        let Some(index) = self.admit(to) else {
            return;
        };
        let mut buf = std::mem::take(&mut self.scratch);
        match self.config.codec.encode_into(self.me, &message, &mut buf) {
            Ok(()) => self.transmit(index, &buf, &mut None),
            // Oversize payload: counted, never silent.
            Err(_) => self.drop_outbound(to, "frame encoding failed"),
        }
        self.keep_scratch(buf);
    }

    fn broadcast(&mut self, recipients: &[Actor], message: M)
    where
        M: Clone,
    {
        // Encode exactly once; every recipient's socket is written from the
        // same bytes and every queue that needs a copy shares one. This is
        // the leader→replica hot path.
        let mut buf = std::mem::take(&mut self.scratch);
        let encoded = self.config.codec.encode_into(self.me, &message, &mut buf);
        let mut shared = None;
        for &to in recipients {
            match (self.admit(to), &encoded) {
                (Some(index), Ok(())) => self.transmit(index, &buf, &mut shared),
                (Some(_), Err(_)) => self.drop_outbound(to, "frame encoding failed"),
                (None, _) => {}
            }
        }
        self.keep_scratch(buf);
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<(Actor, M)> {
        if self.ready.is_empty() {
            let mut now = Instant::now();
            let deadline = now + timeout;
            loop {
                self.poll_once(now, deadline.saturating_duration_since(now));
                now = Instant::now();
                if !self.ready.is_empty() || now >= deadline {
                    break;
                }
            }
        }
        let delivery = self.ready.pop_front()?;
        self.stats.received.fetch_add(1, Ordering::Relaxed);
        Some(delivery)
    }

    fn stats(&self) -> Arc<TransportStats> {
        Arc::clone(&self.stats)
    }

    fn shutdown(&mut self) {
        // Bounded best-effort flush of what connected peers still have
        // queued, then close every socket.
        let deadline = Instant::now() + SHUTDOWN_FLUSH;
        loop {
            let now = Instant::now();
            let draining = |p: &Peer| p.stream.is_some() && !p.queue.is_empty();
            if now >= deadline || !self.peers.iter().any(draining) {
                break;
            }
            self.poll_once(now, deadline - now);
        }
        self.listener = None;
        self.inbound.clear();
        self.peers.clear();
        self.peer_index.clear();
    }
}

impl<M: serde::Serialize + serde::Deserialize + Send + 'static> Drop for TcpTransport<M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Minimal readiness support: `ppoll(2)` on Linux, a bounded sleep
/// elsewhere. Hand-rolled because the offline build has no `libc`/`mio`.
mod poll {
    use std::time::Duration;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;

    /// `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    impl PollFd {
        #[cfg(unix)]
        pub fn new(socket: &impl std::os::unix::io::AsRawFd, events: i16) -> Self {
            PollFd {
                fd: socket.as_raw_fd(),
                events,
                revents: 0,
            }
        }

        #[cfg(not(unix))]
        pub fn new<T>(_socket: &T, events: i16) -> Self {
            PollFd {
                fd: -1,
                events,
                revents: 0,
            }
        }

        /// Readable, writable, hung up or failed: in every case the owner
        /// should try its I/O call, which reports which one it was.
        pub fn ready(&self) -> bool {
            self.revents != 0
        }
    }

    /// Waits up to `timeout` for any of `fds`; returns how many are ready.
    #[cfg(target_os = "linux")]
    pub fn wait(fds: &mut [PollFd], timeout: Duration) -> usize {
        use std::os::raw::{c_long, c_ulong, c_void};

        #[repr(C)]
        struct Timespec {
            tv_sec: c_long,
            tv_nsec: c_long,
        }
        extern "C" {
            fn ppoll(
                fds: *mut PollFd,
                nfds: c_ulong,
                timeout: *const Timespec,
                sigmask: *const c_void,
            ) -> i32;
        }

        let timeout = Timespec {
            tv_sec: timeout.as_secs().min(c_long::MAX as u64) as c_long,
            tv_nsec: timeout.subsec_nanos() as c_long,
        };
        // SAFETY: `fds` is a live, correctly sized array of repr(C) pollfd
        // structs and `timeout` a live timespec for the duration of the
        // call; `ppoll` retains neither pointer, and a null sigmask leaves
        // the signal mask alone.
        let ready = unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                &timeout,
                std::ptr::null(),
            )
        };
        ready.max(0) as usize // EINTR reads as "nothing ready": callers re-poll
    }

    /// No readiness API: sleep briefly, then let the caller try every socket.
    #[cfg(not(target_os = "linux"))]
    pub fn wait(fds: &mut [PollFd], timeout: Duration) -> usize {
        std::thread::sleep(timeout.min(Duration::from_millis(1)));
        for fd in fds.iter_mut() {
            fd.revents = fd.events;
        }
        fds.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prestige_types::{Message, ServerId, View};

    fn server(i: u32) -> Actor {
        Actor::Server(ServerId(i))
    }

    fn msg(n: u64) -> Message {
        Message::SyncReq {
            view: View(1),
            from: n,
            to: n,
        }
    }

    fn listener() -> (TcpListener, SocketAddr) {
        let listener = TcpListener::bind(SocketAddr::from(([127, 0, 0, 1], 0))).unwrap();
        let addr = listener.local_addr().unwrap();
        (listener, addr)
    }

    /// Endpoint `me` on `listener` whose only peer is `peer` at `addr`.
    fn endpoint<M>(me: u32, listener: TcpListener, peer: u32, addr: SocketAddr) -> TcpTransport<M>
    where
        M: serde::Serialize + serde::Deserialize + Send + 'static,
    {
        let peers = HashMap::from([(server(peer), addr)]);
        TcpTransport::from_listener(server(me), listener, peers).unwrap()
    }

    /// Endpoints `S0` and `S1`, each knowing the other, both listening before
    /// either sends.
    fn pair<M>() -> (TcpTransport<M>, TcpTransport<M>)
    where
        M: serde::Serialize + serde::Deserialize + Send + 'static,
    {
        let ((la, addr_a), (lb, addr_b)) = (listener(), listener());
        (endpoint(0, la, 1, addr_b), endpoint(1, lb, 0, addr_a))
    }

    /// Drives `endpoint` the way a node's event loop does until `done` holds.
    /// Conditions, not sleeps, decide every test; the deadline only turns a
    /// hang into a failure.
    fn pump_until<M>(
        endpoint: &mut TcpTransport<M>,
        what: &str,
        done: impl Fn(&TcpTransport<M>) -> bool,
    ) where
        M: serde::Serialize + serde::Deserialize + Send + 'static,
    {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !done(endpoint) {
            assert!(Instant::now() < deadline, "timed out before {what}");
            assert!(endpoint.recv_timeout(Duration::from_millis(1)).is_none());
        }
    }

    /// The next delivery at `endpoint`.
    fn recv<M>(endpoint: &mut TcpTransport<M>) -> (Actor, M)
    where
        M: serde::Serialize + serde::Deserialize + Send + 'static,
    {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            assert!(Instant::now() < deadline, "timed out before a delivery");
            if let Some(delivery) = endpoint.recv_timeout(Duration::from_millis(1)) {
                return delivery;
            }
        }
    }

    /// Pumps the sender while collecting `n` deliveries at the receiver.
    fn deliver<M>(from: &mut TcpTransport<M>, to: &mut TcpTransport<M>, n: usize) -> Vec<M>
    where
        M: serde::Serialize + serde::Deserialize + Send + 'static,
    {
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut got = Vec::new();
        while got.len() < n {
            assert!(Instant::now() < deadline, "{} of {n} arrived", got.len());
            assert!(from.recv_timeout(Duration::ZERO).is_none());
            if let Some((sender, message)) = to.recv_timeout(Duration::from_millis(1)) {
                assert_eq!(sender, from.me());
                got.push(message);
            }
        }
        got
    }

    /// A frame bigger than anything the kernel will buffer for a peer that
    /// is not reading, so sending it must take the partial-write path.
    fn big_frame() -> String {
        "x".repeat(12 * 1024 * 1024)
    }

    #[test]
    fn frames_travel_between_two_tcp_endpoints() {
        let (mut a, mut b) = pair::<Message>();
        for i in 0..10 {
            a.send(server(1), msg(i));
        }
        let got = deliver(&mut a, &mut b, 10);
        let expected: Vec<Message> = (0..10).map(msg).collect();
        assert_eq!(got, expected, "all frames must arrive in order");
        let (writev, _, idle, full) = a.stats().writer_snapshot();
        assert!(writev > 0, "writes must be counted");
        assert!(idle + full > 0, "every flush is classified idle or full");
        let stats = b.stats();
        assert!(stats.read_calls.load(Ordering::Relaxed) > 0);
        assert!(stats.poll_calls.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn idle_connection_writes_each_frame_inline() {
        let (mut a, mut b) = pair::<Message>();
        a.send(server(1), msg(0));
        assert_eq!(deliver(&mut a, &mut b, 1), vec![msg(0)]);
        // Connected and nothing queued: a send is one write on the caller,
        // with no pumping of the sender in between.
        let (writev_before, _, idle_before, _) = a.stats().writer_snapshot();
        a.send(server(1), msg(1));
        assert!(a.peers[0].queue.is_empty(), "nothing may be left queued");
        let (writev, _, idle, _) = a.stats().writer_snapshot();
        assert_eq!((writev, idle), (writev_before + 1, idle_before + 1));
        assert_eq!(recv(&mut b), (server(0), msg(1)));
    }

    #[test]
    fn frame_fed_one_byte_at_a_time_decodes_once_and_in_order() {
        let (lb, addr_b) = listener();
        let mut b: TcpTransport<Message> = endpoint(1, lb, 0, addr_b);
        let mut raw = TcpStream::connect(addr_b).unwrap();
        raw.set_nodelay(true).unwrap();
        let codec = FrameCodec::new();
        for n in [7, 8] {
            let frame = codec.encode(server(0), &msg(n)).unwrap();
            let (last, head) = frame.split_last().unwrap();
            for byte in head {
                raw.write_all(&[*byte]).unwrap();
                assert!(
                    b.recv_timeout(Duration::ZERO).is_none(),
                    "an incomplete frame must not be delivered"
                );
            }
            raw.write_all(&[*last]).unwrap();
            assert_eq!(recv(&mut b), (server(0), msg(n)));
            assert!(b.recv_timeout(Duration::ZERO).is_none(), "decoded twice");
            assert!(b.inbound[0].buf.is_empty(), "consumed bytes are dropped");
        }
    }

    #[test]
    fn frame_larger_than_the_socket_buffer_resumes_after_a_partial_write() {
        let (mut a, mut b) = pair::<String>();
        let big = big_frame();
        a.send(server(1), big.clone());
        a.send(server(1), "second".to_string());
        a.send(server(1), "third".to_string());
        // `b` is listening but nobody polls it: the kernel completes the
        // connect and takes what its buffers hold, then the socket blocks.
        pump_until(&mut a, "the socket blocks mid-frame", |a| {
            a.peers[0].blocked
        });
        assert!(a.peers[0].partial > 0, "the head frame is partly written");
        assert_eq!(a.peers[0].queue.len(), 3, "nothing overtakes the head");

        let got = deliver(&mut a, &mut b, 3);
        assert!(got[0] == big, "the big frame must arrive intact");
        assert_eq!(got[1..], ["second".to_string(), "third".to_string()]);
        assert!(a.peers[0].queue.is_empty() && !a.peers[0].blocked);
        assert_eq!(a.stats().snapshot().2, 0, "nothing may be shed");
    }

    #[test]
    fn outbound_queue_survives_peer_coming_up_late() {
        let (la, addr_a) = listener();
        let addr_b = listener().1; // released at once: nobody listens there
        let mut a: TcpTransport<Message> = endpoint(0, la, 1, addr_b);

        // Send before the peer exists: connects fail with backoff and the
        // frames survive the unreachable window (only overflow sheds).
        for i in 0..5 {
            a.send(server(1), msg(i));
        }
        pump_until(&mut a, "a connect attempt fails", |a| {
            a.peers[0].backoff > INITIAL_BACKOFF
        });
        let peers_b = HashMap::from([(server(0), addr_a)]);
        let mut b: TcpTransport<Message> =
            TcpTransport::bind(server(1), TcpConfig::new(addr_b, peers_b)).unwrap();

        a.send(server(1), msg(99));
        let got = deliver(&mut a, &mut b, 6);
        let expected: Vec<Message> = (0..5).map(msg).chain([msg(99)]).collect();
        assert_eq!(
            got, expected,
            "every queued frame must arrive, in order, once the peer is up"
        );
        assert_eq!(a.stats().snapshot().2, 0, "nothing may be shed");
    }

    #[test]
    fn broken_connection_loses_only_the_torn_head_frame() {
        let (la, _) = listener();
        let (raw_listener, addr_b) = listener();
        let mut a: TcpTransport<String> = endpoint(0, la, 1, addr_b);
        a.send(server(1), big_frame());
        a.send(server(1), "second".to_string());
        a.send(server(1), "third".to_string());
        pump_until(&mut a, "the socket blocks mid-frame", |a| {
            a.peers[0].blocked
        });
        assert!(a.peers[0].partial > 0);

        // The peer dies with the head frame half on the wire.
        drop(raw_listener.accept().unwrap());
        drop(raw_listener);
        pump_until(&mut a, "the break is noticed", |a| {
            a.stats().snapshot().2 > 0
        });
        assert_eq!(a.peers[0].queue.len(), 2, "only the torn head is dropped");
        assert_eq!(a.peers[0].partial, 0);

        // It comes back on the same address: the survivors arrive in order.
        let mut b: TcpTransport<String> =
            TcpTransport::bind(server(1), TcpConfig::new(addr_b, HashMap::new())).unwrap();
        let got = deliver(&mut a, &mut b, 2);
        assert_eq!(got, ["second".to_string(), "third".to_string()]);
        assert_eq!(a.stats().dropped_to(server(1)), 1);
        assert_eq!(a.stats().snapshot().2, 1);
    }

    #[test]
    fn send_to_unconfigured_peer_counts_as_drop() {
        let (la, _) = listener();
        let mut a: TcpTransport<Message> =
            TcpTransport::from_listener(server(0), la, HashMap::new()).unwrap();
        a.send(server(9), msg(1));
        a.broadcast(&[server(8), server(9)], msg(2));
        assert_eq!(a.stats().snapshot(), (3, 0, 3));
    }

    #[test]
    fn encode_buffer_grown_past_the_cap_is_not_kept() {
        let (la, _) = listener();
        let addr_b = listener().1; // released at once: nobody listens there
        let mut a: TcpTransport<String> = endpoint(0, la, 1, addr_b);
        a.send(server(1), "small".to_string());
        assert!(a.scratch.capacity() > 0, "a small frame's buffer is kept");

        // A frame over the cap is sent (queued) but its buffer is let go, on
        // both the unicast and the broadcast path.
        let huge = "x".repeat(2 * MAX_RETAINED_CAPACITY);
        a.send(server(1), huge.clone());
        assert!(a.scratch.capacity() <= MAX_RETAINED_CAPACITY);
        a.send(server(1), "small".to_string());
        a.broadcast(&[server(1)], huge);
        assert!(a.scratch.capacity() <= MAX_RETAINED_CAPACITY);
        assert_eq!(a.peers[0].queue.len(), 4, "every frame was queued");
    }

    #[test]
    fn overflow_sheds_newest_and_keeps_oldest() {
        let (la, addr_a) = listener();
        let addr_b = listener().1; // released at once: nobody listens there
        let peers_a = HashMap::from([(server(1), addr_b)]);
        let mut config = TcpConfig::new(addr_a, peers_a);
        config.queue_capacity = 4;
        let mut a: TcpTransport<Message> = TcpTransport::new(server(0), la, config).unwrap();

        // Nothing can drain the queue: the first `capacity` sends are kept,
        // everything after sheds at once, newest first.
        for i in 0..10 {
            a.send(server(1), msg(i));
        }
        assert_eq!(
            a.stats().snapshot(),
            (10, 0, 6),
            "exactly the overflow sheds"
        );
        assert_eq!(a.stats().dropped_to(server(1)), 6);

        // Bring the peer up: exactly the four oldest frames arrive, in
        // order, and the next frame sent follows them directly — the shed
        // ones never materialize.
        let peers_b = HashMap::from([(server(0), addr_a)]);
        let mut b: TcpTransport<Message> =
            TcpTransport::bind(server(1), TcpConfig::new(addr_b, peers_b)).unwrap();
        let expected: Vec<Message> = (0..4).map(msg).collect();
        assert_eq!(deliver(&mut a, &mut b, 4), expected);
        a.send(server(1), msg(100));
        assert_eq!(deliver(&mut a, &mut b, 1), vec![msg(100)]);
    }

    #[test]
    fn corrupt_inbound_stream_closes_that_connection_only() {
        let (mut a, mut b) = pair::<Message>();
        a.send(server(1), msg(1));
        assert_eq!(deliver(&mut a, &mut b, 1), vec![msg(1)]);

        // A second connection speaks garbage: `b` must hang up on it...
        let mut garbage = TcpStream::connect(b.local_addr()).unwrap();
        garbage.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        garbage.set_nonblocking(true).unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            assert!(Instant::now() < deadline, "garbage connection still open");
            assert!(b.recv_timeout(Duration::from_millis(1)).is_none());
            match garbage.read(&mut [0u8; 1]) {
                Ok(0) => break,
                Ok(_) => panic!("the transport never writes to an accepted socket"),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => break, // reset
            }
        }
        // ...and on nobody else.
        assert_eq!(b.inbound.len(), 1);
        a.send(server(1), msg(2));
        assert_eq!(deliver(&mut a, &mut b, 1), vec![msg(2)]);
        assert_eq!(a.stats().snapshot().2 + b.stats().snapshot().2, 0);
    }

    #[test]
    fn coalesced_wire_bytes_equal_non_coalesced_encoding() {
        // A raw listener stands in for the peer so the test can capture the
        // exact bytes on the wire.
        let (raw_listener, addr_b) = listener();
        let (la, _) = listener();
        let mut a: TcpTransport<Message> = endpoint(0, la, 1, addr_b);

        // Reference encoding: each frame alone, concatenated.
        let codec = FrameCodec::new();
        let mut expected: Vec<u8> = Vec::new();
        let messages: Vec<Message> = (0..200).map(msg).collect();
        for m in &messages {
            expected.extend_from_slice(&codec.encode(server(0), m).unwrap());
        }

        // All 200 queue behind the connect, so the first flush coalesces.
        for m in &messages {
            a.send(server(1), m.clone());
        }
        pump_until(&mut a, "the backlog is flushed", |a| {
            a.peers[0].queue.is_empty()
        });
        let (mut stream, _) = raw_listener.accept().unwrap();
        let mut wire = vec![0u8; expected.len()];
        stream.read_exact(&mut wire).unwrap();
        assert!(
            wire == expected,
            "coalesced wire bytes must equal the frame-at-a-time encoding"
        );
        let (writev, coalesced, idle, full) = a.stats().writer_snapshot();
        assert_eq!(coalesced, 200, "every frame shared a vectored write");
        assert_eq!(writev, 200u64.div_ceil(MAX_IOV as u64));
        assert_eq!((idle, full), (0, 1));
    }

    #[test]
    fn shutdown_flushes_connected_peers_and_closes_every_socket() {
        let (mut a, mut b) = pair::<String>();
        a.send(server(1), "hello".to_string());
        assert_eq!(deliver(&mut a, &mut b, 1), ["hello".to_string()]);
        b.send(server(0), "to a".to_string());
        pump_until(&mut b, "b is connected to a", |b| {
            b.peers[0].stream.is_some()
        });

        a.shutdown();
        assert!(a.listener.is_none() && a.inbound.is_empty() && a.peers.is_empty());
        // `b` sees its accepted connection from `a` close, and nothing
        // listens on `a`'s address any more.
        pump_until(&mut b, "b sees a's connection close", |b| {
            b.inbound.is_empty()
        });
        assert!(TcpStream::connect(a.local_addr()).is_err());
        a.send(server(1), "late".to_string());
        assert_eq!(a.stats().snapshot().2, 1, "a closed endpoint drops");
        assert!(a.recv_timeout(Duration::ZERO).is_none());
    }
}
