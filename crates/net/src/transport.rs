//! The transport abstraction and the in-process loopback implementation.
//!
//! A [`Transport`] moves protocol messages between [`Actor`]s. The node
//! runtime is written against this trait only, so the same cluster code runs
//! over the channel-based [`LoopbackNet`] (fast, in-process, used by
//! integration tests and CI) and the TCP transport in [`crate::tcp`]
//! (real sockets, used by the `prestige-node` binary).

use prestige_types::Actor;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default per-endpoint inbound queue capacity (messages). It is a limit,
/// not an allocation: no queue reserves memory for it up front. When a
/// queue is full the sender drops the message — BFT protocols are
/// loss-tolerant by construction (clients re-propose and complain; followers
/// sync up).
pub const DEFAULT_QUEUE_CAPACITY: usize = 16 * 1024;

/// Minimum interval between drop warnings emitted by one transport.
const DROP_WARN_INTERVAL: Duration = Duration::from_secs(1);

/// Counters shared between a transport and its observers.
#[derive(Debug, Default)]
pub struct TransportStats {
    /// Messages handed to the transport for delivery.
    pub sent: AtomicU64,
    /// Messages received and handed to the node.
    pub received: AtomicU64,
    /// Messages dropped because the destination queue was full
    /// (backpressure) or the destination was unreachable.
    pub dropped: AtomicU64,
    /// Socket writes issued by the TCP transport (one per `write` /
    /// `write_vectored` syscall). Zero on non-TCP transports.
    pub writev_calls: AtomicU64,
    /// Frames that shared a vectored write with at least one other frame —
    /// the payoff of coalescing (frames written alone count in
    /// `writev_calls` only).
    pub frames_coalesced: AtomicU64,
    /// TCP flushes of exactly one frame (idle path: the frame went to the
    /// socket the moment it was sent, protecting p50 latency).
    pub flushes_idle: AtomicU64,
    /// TCP flushes of a multi-frame backlog (loaded path: many frames per
    /// syscall, protecting throughput).
    pub flushes_full: AtomicU64,
    /// Socket reads issued by the TCP reactor (one per `read` syscall).
    pub read_calls: AtomicU64,
    /// Readiness waits issued by the TCP reactor (one per `ppoll` syscall).
    /// `(writev_calls + read_calls + poll_calls) / received` is the
    /// transport's syscalls per delivered frame.
    pub poll_calls: AtomicU64,
    /// Per-peer breakdown of outbound drops (messages we failed to deliver
    /// *to* a peer), so operators can spot a single slow or dead peer.
    per_peer_dropped: Mutex<HashMap<Actor, u64>>,
    /// Per-peer breakdown of inbound drops (messages *from* a peer that the
    /// local node shed under backpressure) — kept separate from outbound
    /// drops so "S1 is unreachable" and "we are overloaded by S1's traffic"
    /// never blur into one number.
    per_peer_inbound_dropped: Mutex<HashMap<Actor, u64>>,
    /// Timestamp of the last emitted drop warning (rate limiting).
    last_drop_warn: Mutex<Option<Instant>>,
}

impl TransportStats {
    /// Snapshot of `(sent, received, dropped)`.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.sent.load(Ordering::Relaxed),
            self.received.load(Ordering::Relaxed),
            self.dropped.load(Ordering::Relaxed),
        )
    }

    /// Snapshot of the TCP write-path counters:
    /// `(writev_calls, frames_coalesced, flushes_idle, flushes_full)`.
    pub fn writer_snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.writev_calls.load(Ordering::Relaxed),
            self.frames_coalesced.load(Ordering::Relaxed),
            self.flushes_idle.load(Ordering::Relaxed),
            self.flushes_full.load(Ordering::Relaxed),
        )
    }

    /// Records an outbound drop attributed to `peer` (a message we failed to
    /// deliver to it) and returns the peer's new drop count. Never silent:
    /// callers pair this with [`Self::should_warn`] to log at a bounded rate.
    pub fn note_drop(&self, peer: Actor) -> u64 {
        self.dropped.fetch_add(1, Ordering::Relaxed);
        let mut map = self.per_peer_dropped.lock().expect("drop map lock");
        let entry = map.entry(peer).or_insert(0);
        *entry += 1;
        *entry
    }

    /// Records an inbound drop attributed to `peer` (a message it sent that
    /// the local node shed) and returns the peer's new inbound drop count.
    pub fn note_inbound_drop(&self, peer: Actor) -> u64 {
        self.dropped.fetch_add(1, Ordering::Relaxed);
        let mut map = self.per_peer_inbound_dropped.lock().expect("drop map lock");
        let entry = map.entry(peer).or_insert(0);
        *entry += 1;
        *entry
    }

    /// Messages dropped towards `peer` so far (outbound).
    pub fn dropped_to(&self, peer: Actor) -> u64 {
        self.per_peer_dropped
            .lock()
            .expect("drop map lock")
            .get(&peer)
            .copied()
            .unwrap_or(0)
    }

    /// Messages from `peer` shed locally so far (inbound).
    pub fn dropped_from(&self, peer: Actor) -> u64 {
        self.per_peer_inbound_dropped
            .lock()
            .expect("drop map lock")
            .get(&peer)
            .copied()
            .unwrap_or(0)
    }

    /// Accumulates this endpoint's counters into `totals` (for
    /// cluster-wide transport reports).
    pub fn accumulate_into(&self, totals: &mut TransportTotals) {
        let (sent, received, dropped) = self.snapshot();
        let (writev_calls, frames_coalesced, flushes_idle, flushes_full) = self.writer_snapshot();
        totals.sent += sent;
        totals.received += received;
        totals.dropped += dropped;
        totals.writev_calls += writev_calls;
        totals.frames_coalesced += frames_coalesced;
        totals.flushes_idle += flushes_idle;
        totals.flushes_full += flushes_full;
        totals.read_calls += self.read_calls.load(Ordering::Relaxed);
        totals.poll_calls += self.poll_calls.load(Ordering::Relaxed);
    }

    /// True at most once per drop-warn interval (one second): gates
    /// drop-warning log lines so a hot loop losing thousands of messages per
    /// second emits a bounded number of them.
    pub fn should_warn(&self) -> bool {
        let mut last = self.last_drop_warn.lock().expect("warn gate lock");
        match *last {
            Some(at) if at.elapsed() < DROP_WARN_INTERVAL => false,
            _ => {
                *last = Some(Instant::now());
                true
            }
        }
    }
}

/// Cluster-wide sums of [`TransportStats`] counters, accumulated across every
/// node's endpoint with [`TransportStats::accumulate_into`]. Benchmark and
/// chaos reports serialize this to show both delivery health (sent /
/// received / dropped) and how the TCP reactor behaved (writes, coalescing,
/// idle-vs-full flushes, reads, polls). On loopback clusters the TCP
/// counters stay zero.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TransportTotals {
    /// Messages handed to transports for delivery.
    pub sent: u64,
    /// Messages received and handed to nodes.
    pub received: u64,
    /// Messages dropped (backpressure or unreachable destination).
    pub dropped: u64,
    /// `write` / `write_vectored` syscalls issued by TCP transports.
    pub writev_calls: u64,
    /// Frames that shared a vectored write with at least one other frame.
    pub frames_coalesced: u64,
    /// TCP flushes of a single frame (idle path).
    pub flushes_idle: u64,
    /// TCP flushes of a multi-frame backlog (loaded path).
    pub flushes_full: u64,
    /// `read` syscalls issued by TCP reactors.
    pub read_calls: u64,
    /// `ppoll` syscalls issued by TCP reactors.
    pub poll_calls: u64,
}

impl TransportTotals {
    /// Transport syscalls (writes + reads + polls) per delivered frame; 0
    /// when nothing was received (and on loopback clusters).
    pub fn syscalls_per_frame(&self) -> f64 {
        let syscalls = self.writev_calls + self.read_calls + self.poll_calls;
        syscalls as f64 / self.received.max(1) as f64
    }
}

/// Logs one rate-limited warning about messages dropped towards `peer`.
pub(crate) fn warn_drop(stats: &TransportStats, me: Actor, peer: Actor, reason: &str, total: u64) {
    if stats.should_warn() {
        eprintln!(
            "[prestige-net] {me}: dropping message to {peer} ({reason}); {total} total drops to this peer so far"
        );
    }
}

/// A bidirectional message channel binding one actor to the rest of the
/// cluster.
///
/// The node runtime drives a `Process` against this trait only, so the same
/// protocol code runs over loopback channels, TCP sockets, or a
/// chaos-wrapped transport injecting partitions and loss
/// ([`ChaosTransport`](crate::chaos::ChaosTransport)).
///
/// # Contract
///
/// An endpoint has one owner (the node's event loop), and its **I/O advances
/// only inside calls on it**: an implementation may accept, read, write and
/// reconnect during `send`, `broadcast`, `recv_timeout` and `shutdown`, and
/// must not rely on a thread of its own to move bytes. In return the owner
/// must keep calling [`Transport::recv_timeout`] — a queued frame, a
/// half-written one or a pending reconnect makes no progress while nobody
/// calls. [`Transport::try_recv`] is the one receive that need not advance
/// I/O: it hands out what has already arrived, so an owner that drains with
/// it must still wait in `recv_timeout` once it comes back empty.
/// Decorators (chaos, tracing) forward these methods; one that leaves
/// `try_recv` out gets the default, which is correct but pays for a
/// zero-timeout `recv_timeout`.
///
/// # Examples
///
/// ```
/// use prestige_net::transport::{LoopbackNet, Transport};
/// use prestige_types::{Actor, ServerId};
/// use std::time::Duration;
///
/// let net: LoopbackNet<&'static str> = LoopbackNet::new();
/// let s0 = Actor::Server(ServerId(0));
/// let s1 = Actor::Server(ServerId(1));
/// let mut a = net.endpoint(s0);
/// let mut b = net.endpoint(s1);
///
/// a.send(s1, "ping");
/// let (from, message) = b.recv_timeout(Duration::from_secs(1)).unwrap();
/// assert_eq!((from, message), (s0, "ping"));
///
/// // Delivery is counted on both sides; sends never block, they drop
/// // under backpressure (and the drop is counted too).
/// assert_eq!(a.stats().snapshot(), (1, 0, 0)); // (sent, received, dropped)
/// assert_eq!(b.stats().snapshot(), (0, 1, 0));
/// ```
pub trait Transport<M>: Send {
    /// The actor this endpoint belongs to.
    fn me(&self) -> Actor;

    /// Queues `message` for delivery to `to`. Never blocks the caller; on
    /// backpressure or unreachable destination the message is dropped and
    /// counted.
    fn send(&mut self, to: Actor, message: M);

    /// Queues one message for delivery to every actor in `recipients`.
    ///
    /// The default implementation clones the payload per recipient (correct
    /// for in-process transports, where a clone of an `Arc`-shared payload is
    /// a refcount bump). Serializing transports override it to encode the
    /// frame exactly once and send every peer the same bytes.
    fn broadcast(&mut self, recipients: &[Actor], message: M)
    where
        M: Clone,
    {
        let mut recipients = recipients.iter();
        let last = recipients.next_back();
        for &to in recipients {
            self.send(to, message.clone());
        }
        if let Some(&to) = last {
            self.send(to, message);
        }
    }

    /// Waits up to `timeout` for an inbound message, advancing whatever
    /// outbound work is pending meanwhile (see the contract above).
    fn recv_timeout(&mut self, timeout: Duration) -> Option<(Actor, M)>;

    /// Returns a message that has already arrived, without waiting. A
    /// transport that decodes ahead (TCP) pops its queue and makes no
    /// syscall, so "nothing arrived" costs nothing; the default asks
    /// `recv_timeout` with a zero timeout.
    fn try_recv(&mut self) -> Option<(Actor, M)> {
        self.recv_timeout(Duration::ZERO)
    }

    /// Shared delivery counters.
    fn stats(&self) -> Arc<TransportStats>;

    /// Releases resources and deregisters from the network. Called once when
    /// the driving runtime shuts down.
    fn shutdown(&mut self) {}
}

/// Each endpoint's sending side: its channel, and the number of messages
/// queued in it (senders increment it, the receiver decrements it).
type Registry<M> = Arc<Mutex<HashMap<Actor, (Sender<(Actor, M)>, Arc<AtomicUsize>)>>>;

/// An in-process cluster fabric: every endpoint is an mpsc pair registered in
/// a shared map. Message payloads move by value — no serialization — which
/// keeps loopback clusters fast enough for CI while exercising the full
/// runtime (threads, timers, backpressure, crash = deregistration).
///
/// A queue's memory follows the messages queued in it: the channel grows in
/// small blocks as messages arrive and frees them as the receiver drains it,
/// so an idle endpoint allocates under 1 KiB whatever its capacity. The
/// capacity is enforced by a depth counter beside the channel.
pub struct LoopbackNet<M> {
    registry: Registry<M>,
    capacity: usize,
}

impl<M> Clone for LoopbackNet<M> {
    fn clone(&self) -> Self {
        LoopbackNet {
            registry: Arc::clone(&self.registry),
            capacity: self.capacity,
        }
    }
}

impl<M: Send + 'static> LoopbackNet<M> {
    /// A fabric whose endpoints queue up to [`DEFAULT_QUEUE_CAPACITY`]
    /// messages.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_QUEUE_CAPACITY)
    }

    /// A fabric with a custom per-endpoint queue capacity (a limit on the
    /// messages queued, not memory reserved up front).
    pub fn with_capacity(capacity: usize) -> Self {
        LoopbackNet {
            registry: Arc::new(Mutex::new(HashMap::new())),
            capacity: capacity.max(1),
        }
    }

    /// Creates and registers the endpoint for `me`. Panics if the actor
    /// already has a live endpoint.
    pub fn endpoint(&self, me: Actor) -> LoopbackTransport<M> {
        let (tx, rx) = channel();
        let depth = Arc::new(AtomicUsize::new(0));
        let inbox = (tx, Arc::clone(&depth));
        let previous = self
            .registry
            .lock()
            .expect("registry lock")
            .insert(me, inbox);
        assert!(previous.is_none(), "duplicate loopback endpoint for {me}");
        LoopbackTransport {
            me,
            registry: Arc::clone(&self.registry),
            capacity: self.capacity,
            rx,
            depth,
            stats: Arc::new(TransportStats::default()),
        }
    }

    /// Abruptly disconnects an actor (crash injection): its endpoint is
    /// removed so all traffic towards it is dropped at the senders.
    pub fn disconnect(&self, actor: Actor) {
        self.registry.lock().expect("registry lock").remove(&actor);
    }

    /// Actors currently registered.
    pub fn connected(&self) -> Vec<Actor> {
        self.registry
            .lock()
            .expect("registry lock")
            .keys()
            .copied()
            .collect()
    }
}

impl<M: Send + 'static> Default for LoopbackNet<M> {
    fn default() -> Self {
        Self::new()
    }
}

/// One actor's endpoint on a [`LoopbackNet`].
pub struct LoopbackTransport<M> {
    me: Actor,
    registry: Registry<M>,
    /// The most messages a destination's queue may hold.
    capacity: usize,
    rx: Receiver<(Actor, M)>,
    /// Messages in this endpoint's own queue.
    depth: Arc<AtomicUsize>,
    stats: Arc<TransportStats>,
}

impl<M: Send + 'static> Transport<M> for LoopbackTransport<M> {
    fn me(&self) -> Actor {
        self.me
    }

    fn send(&mut self, to: Actor, message: M) {
        self.stats.sent.fetch_add(1, Ordering::Relaxed);
        let inbox = {
            let registry = self.registry.lock().expect("registry lock");
            registry.get(&to).cloned()
        };
        match inbox {
            Some((tx, depth)) => {
                // Reserve a place first, so concurrent senders never queue
                // more than `capacity` between them.
                let full = depth.fetch_add(1, Ordering::Relaxed) >= self.capacity;
                if full || tx.send((self.me, message)).is_err() {
                    depth.fetch_sub(1, Ordering::Relaxed);
                    let total = self.stats.note_drop(to);
                    warn_drop(&self.stats, self.me, to, "queue full", total);
                }
            }
            None => {
                let total = self.stats.note_drop(to);
                warn_drop(&self.stats, self.me, to, "unreachable", total);
            }
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<(Actor, M)> {
        match self.rx.recv_timeout(timeout) {
            Ok(delivery) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                self.stats.received.fetch_add(1, Ordering::Relaxed);
                Some(delivery)
            }
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    fn stats(&self) -> Arc<TransportStats> {
        Arc::clone(&self.stats)
    }

    fn shutdown(&mut self) {
        self.registry
            .lock()
            .expect("registry lock")
            .remove(&self.me);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prestige_types::ServerId;

    fn server(i: u32) -> Actor {
        Actor::Server(ServerId(i))
    }

    #[test]
    fn loopback_delivers_between_endpoints() {
        let net: LoopbackNet<u64> = LoopbackNet::new();
        let mut a = net.endpoint(server(0));
        let mut b = net.endpoint(server(1));
        a.send(server(1), 42);
        let (from, v) = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(from, server(0));
        assert_eq!(v, 42);
    }

    #[test]
    fn send_to_unknown_actor_is_counted_as_drop() {
        let net: LoopbackNet<u64> = LoopbackNet::new();
        let mut a = net.endpoint(server(0));
        a.send(server(9), 1);
        assert_eq!(a.stats().snapshot(), (1, 0, 1));
    }

    #[test]
    fn backpressure_drops_instead_of_blocking() {
        let net: LoopbackNet<u64> = LoopbackNet::with_capacity(2);
        let mut a = net.endpoint(server(0));
        let mut b = net.endpoint(server(1));
        for i in 0..5 {
            a.send(server(1), i);
        }
        let (sent, _, dropped) = a.stats().snapshot();
        assert_eq!(sent, 5);
        assert_eq!(dropped, 3);

        // Taking one message frees exactly one place.
        assert_eq!(b.recv_timeout(Duration::from_secs(1)), Some((server(0), 0)));
        a.send(server(1), 5);
        a.send(server(1), 6);
        assert_eq!(a.stats().snapshot(), (7, 0, 4));
        assert_eq!(b.recv_timeout(Duration::from_secs(1)), Some((server(0), 1)));
        assert_eq!(b.recv_timeout(Duration::from_secs(1)), Some((server(0), 5)));
        assert_eq!(b.recv_timeout(Duration::from_millis(10)), None);

        // Concurrent senders share the bound: four threads flood a queue of
        // 64 that nobody drains while they run.
        const SENDS: u64 = 1_000;
        let net: LoopbackNet<u64> = LoopbackNet::with_capacity(64);
        let mut sink = net.endpoint(server(0));
        let floods: Vec<_> = (1..=4)
            .map(|i| {
                let mut sender = net.endpoint(server(i));
                std::thread::spawn(move || {
                    for n in 0..SENDS {
                        sender.send(server(0), n);
                    }
                    sender.stats().snapshot()
                })
            })
            .collect();
        let floods: Vec<_> = floods
            .into_iter()
            .map(|flood| flood.join().expect("flooding thread"))
            .collect();
        let mut received = 0;
        while sink.recv_timeout(Duration::from_millis(10)).is_some() {
            received += 1;
        }
        assert!(received <= 64, "{received} messages passed a bound of 64");
        let sent: u64 = floods.iter().map(|(sent, _, _)| sent).sum();
        let dropped: u64 = floods.iter().map(|(_, _, dropped)| dropped).sum();
        assert_eq!(sent, 4 * SENDS);
        assert_eq!(sent, received + dropped);
    }

    #[test]
    fn drops_are_attributed_per_peer() {
        let net: LoopbackNet<u64> = LoopbackNet::with_capacity(1);
        let mut a = net.endpoint(server(0));
        let _b = net.endpoint(server(1));
        // server(9) does not exist; server(1)'s queue holds one message.
        a.send(server(9), 1);
        a.send(server(9), 2);
        a.send(server(1), 3);
        a.send(server(1), 4);
        a.send(server(1), 5);
        let stats = a.stats();
        assert_eq!(stats.dropped_to(server(9)), 2);
        assert_eq!(stats.dropped_to(server(1)), 2);
        assert_eq!(stats.dropped_to(server(0)), 0);
        assert_eq!(stats.snapshot().2, 4, "aggregate counter stays in sync");
    }

    #[test]
    fn inbound_and_outbound_drops_are_tracked_separately() {
        let stats = TransportStats::default();
        assert_eq!(stats.note_drop(server(1)), 1);
        assert_eq!(stats.note_inbound_drop(server(1)), 1);
        assert_eq!(stats.note_inbound_drop(server(1)), 2);
        assert_eq!(stats.dropped_to(server(1)), 1);
        assert_eq!(stats.dropped_from(server(1)), 2);
        assert_eq!(stats.snapshot().2, 3, "aggregate covers both directions");
    }

    #[test]
    fn drop_warnings_are_rate_limited() {
        let stats = TransportStats::default();
        assert!(stats.should_warn(), "first warning passes");
        assert!(!stats.should_warn(), "second within the interval is gated");
    }

    #[test]
    fn default_broadcast_delivers_to_every_recipient() {
        let net: LoopbackNet<u64> = LoopbackNet::new();
        let mut a = net.endpoint(server(0));
        let mut b = net.endpoint(server(1));
        let mut c = net.endpoint(server(2));
        a.broadcast(&[server(1), server(2)], 99);
        let (_, vb) = b.recv_timeout(Duration::from_secs(1)).unwrap();
        let (_, vc) = c.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!((vb, vc), (99, 99));
        assert_eq!(a.stats().snapshot().0, 2, "one send counted per recipient");
    }

    #[test]
    fn disconnect_simulates_crash() {
        let net: LoopbackNet<u64> = LoopbackNet::new();
        let mut a = net.endpoint(server(0));
        let _b = net.endpoint(server(1));
        net.disconnect(server(1));
        a.send(server(1), 7);
        assert_eq!(a.stats().snapshot().2, 1);
        assert_eq!(net.connected(), vec![server(0)]);
    }

    #[test]
    fn shutdown_deregisters() {
        let net: LoopbackNet<u64> = LoopbackNet::new();
        let mut a = net.endpoint(server(0));
        a.shutdown();
        assert!(net.connected().is_empty());
        // Endpoint slot can be reused after shutdown (restart).
        let _a2 = net.endpoint(server(0));
    }
}
