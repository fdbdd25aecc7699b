//! Network chaos injection at the [`Transport`] seam.
//!
//! Real Byzantine evaluation needs more than faulty *nodes*: the paper's
//! attacks (F1–F4) interact with bad *networks* — delayed links make timeout
//! mimicry effective, partitions manufacture the leader failures that
//! repeated view-change attackers exploit. This module composes both: a
//! [`ChaosTransport`] wraps any [`Transport`] implementation and applies the
//! link faults described by a shared [`NetChaos`] controller:
//!
//! * **delay** — a fixed per-delivery latency plus uniform jitter;
//! * **loss** — independent per-delivery drop probability;
//! * **partitions** — directed `(from, to)` link blocks, composable into
//!   symmetric splits (`partition_between`) and asymmetric one-way cuts
//!   (`partition_oneway`), healed one cut at a time (`heal_oneway` /
//!   `heal_between`) or all at once (`heal_now`).
//!
//! All faults are applied on the **receive path** of the wrapped endpoint:
//! each endpoint filters and delays its own inbound deliveries. This gives
//! every directed link exactly one choke point (the receiver), so symmetric
//! and asymmetric partitions fall out of the same rule set, and the
//! underlying transport's outbound machinery (reconnects, backpressure,
//! encode-once broadcast) keeps running untouched — exactly what a lossy or
//! partitioned IP network looks like to a node.
//!
//! Loss and jitter are drawn per directed link, as in the simulator: the
//! endpoint keeps one [`SimRng::for_link`] stream per sender, created on its
//! first delivery and seeded from the cluster's seed. What one link decides
//! therefore depends on that link's traffic alone.
//!
//! Chaos drops are recorded in the wrapped transport's
//! [`TransportStats`](crate::transport::TransportStats) as inbound drops
//! attributed to the sending peer, so scenario reports can show who was cut
//! off from whom.
//!
//! ```
//! use prestige_net::chaos::{ChaosTransport, NetChaos};
//! use prestige_net::transport::{LoopbackNet, Transport};
//! use prestige_types::{Actor, ServerId};
//! use std::time::Duration;
//!
//! let net: LoopbackNet<u64> = LoopbackNet::new();
//! let chaos = NetChaos::new();
//! let a = Actor::Server(ServerId(0));
//! let b = Actor::Server(ServerId(1));
//! let mut ta = net.endpoint(a);
//! let mut tb = ChaosTransport::new(Box::new(net.endpoint(b)), chaos.clone(), 7);
//!
//! // Partition the a -> b direction: b sheds everything a sends.
//! chaos.partition_oneway(&[a], &[b]);
//! ta.send(b, 1);
//! assert_eq!(tb.recv_timeout(Duration::from_millis(20)), None);
//!
//! // Heal: traffic flows again.
//! chaos.heal_now();
//! ta.send(b, 2);
//! assert_eq!(tb.recv_timeout(Duration::from_secs(1)), Some((a, 2)));
//! ```

use crate::transport::Transport;
use prestige_sim::SimRng;
use prestige_types::Actor;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What the chaos rules decided for one inbound delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkVerdict {
    /// Deliver immediately.
    Deliver,
    /// Drop silently (loss or partition).
    Drop,
    /// Deliver after the given extra delay.
    Delay(Duration),
}

/// The mutable chaos rule set shared by every [`ChaosTransport`] of a
/// cluster.
#[derive(Debug, Default)]
struct ChaosState {
    /// Fixed extra one-way delay applied to every delivery.
    delay: Duration,
    /// Upper bound of the uniform jitter added on top of `delay`.
    jitter: Duration,
    /// Independent per-delivery drop probability in `[0, 1]`.
    loss: f64,
    /// Blocked directed links: a `(from, to)` entry means `to` sheds
    /// everything `from` sends.
    blocked: HashSet<(Actor, Actor)>,
}

/// Shared handle controlling the link faults of a cluster. Cheap to clone;
/// all clones mutate the same rule set, so a scenario runner can flip
/// partitions on a running cluster from outside.
#[derive(Debug, Clone, Default)]
pub struct NetChaos {
    state: Arc<Mutex<ChaosState>>,
}

impl NetChaos {
    /// A controller with no faults configured (all links healthy).
    pub fn new() -> Self {
        NetChaos::default()
    }

    /// Sets the per-delivery link delay: every delivery waits `delay` plus a
    /// uniform draw from `[0, jitter]` before it is handed to the node.
    pub fn set_link_delay(&self, delay: Duration, jitter: Duration) {
        let mut state = self.state.lock().expect("chaos state lock");
        state.delay = delay;
        state.jitter = jitter;
    }

    /// Sets the independent per-delivery loss probability (clamped to
    /// `[0, 1]`).
    pub fn set_loss(&self, probability: f64) {
        let mut state = self.state.lock().expect("chaos state lock");
        state.loss = probability.clamp(0.0, 1.0);
    }

    /// Blocks every link *from* an actor in `from` *to* an actor in `to`
    /// (one direction only — an asymmetric partition). Existing blocks are
    /// kept, so partitions compose.
    pub fn partition_oneway(&self, from: &[Actor], to: &[Actor]) {
        let mut state = self.state.lock().expect("chaos state lock");
        for &f in from {
            for &t in to {
                if f != t {
                    state.blocked.insert((f, t));
                }
            }
        }
    }

    /// Blocks all links between the two groups, in both directions (a
    /// symmetric partition).
    pub fn partition_between(&self, a: &[Actor], b: &[Actor]) {
        self.partition_oneway(a, b);
        self.partition_oneway(b, a);
    }

    /// Unblocks exactly the links [`Self::partition_oneway`] blocks for the
    /// same arguments, leaving every other block in place — the heal of one
    /// cut among several overlapping ones. (A link two cuts both block heals
    /// with the first, as in the simulator.)
    pub fn heal_oneway(&self, from: &[Actor], to: &[Actor]) {
        let mut state = self.state.lock().expect("chaos state lock");
        for &f in from {
            for &t in to {
                state.blocked.remove(&(f, t));
            }
        }
    }

    /// [`Self::heal_oneway`] in both directions: undoes
    /// [`Self::partition_between`].
    pub fn heal_between(&self, a: &[Actor], b: &[Actor]) {
        self.heal_oneway(a, b);
        self.heal_oneway(b, a);
    }

    /// Immediately dissolves all partition blocks (delay and loss settings
    /// are unaffected).
    pub fn heal_now(&self) {
        self.state.lock().expect("chaos state lock").blocked.clear();
    }

    /// Whether any link is currently blocked.
    pub fn is_partitioned(&self) -> bool {
        self.blocked_links() > 0
    }

    /// Number of blocked directed links.
    pub fn blocked_links(&self) -> usize {
        self.state.lock().expect("chaos state lock").blocked.len()
    }

    /// Decides the fate of one delivery on the directed link `from -> to`,
    /// drawing from that link's stream.
    fn verdict(&self, from: Actor, to: Actor, rng: &mut SimRng) -> LinkVerdict {
        let state = self.state.lock().expect("chaos state lock");
        if state.blocked.contains(&(from, to)) {
            return LinkVerdict::Drop;
        }
        if rng.chance(state.loss) {
            return LinkVerdict::Drop;
        }
        if state.delay > Duration::ZERO || state.jitter > Duration::ZERO {
            let jitter = state.jitter.mul_f64(rng.uniform(0.0, 1.0));
            return LinkVerdict::Delay(state.delay + jitter);
        }
        LinkVerdict::Deliver
    }
}

/// A delivery held back by injected delay, ordered by due time (FIFO on
/// ties via the arrival sequence number).
struct DelayedDelivery<M> {
    due: Instant,
    seq: u64,
    from: Actor,
    message: M,
}

impl<M> PartialEq for DelayedDelivery<M> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<M> Eq for DelayedDelivery<M> {}
impl<M> PartialOrd for DelayedDelivery<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for DelayedDelivery<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest due first.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A [`Transport`] decorator applying the faults of a shared [`NetChaos`]
/// controller to this endpoint's inbound deliveries. Outbound traffic passes
/// straight through to the wrapped transport.
pub struct ChaosTransport<M> {
    inner: Box<dyn Transport<M>>,
    chaos: NetChaos,
    seed: u64,
    /// One loss/jitter stream per sender: the inbound links `from -> me`.
    links: HashMap<Actor, SimRng>,
    me: Actor,
    delayed: BinaryHeap<DelayedDelivery<M>>,
    next_seq: u64,
}

impl<M: Send + 'static> ChaosTransport<M> {
    /// Wraps `inner`, filtering its inbound deliveries through `chaos`.
    /// `seed` is the cluster's seed: the link `from -> me` draws its loss and
    /// jitter from `SimRng::for_link(seed, from, me)`, so every endpoint of a
    /// cluster takes the same seed.
    pub fn new(inner: Box<dyn Transport<M>>, chaos: NetChaos, seed: u64) -> Self {
        let me = inner.me();
        ChaosTransport {
            inner,
            chaos,
            seed,
            links: HashMap::new(),
            me,
            delayed: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Pops the head of the delay queue if it is due at `now`.
    fn pop_due(&mut self, now: Instant) -> Option<(Actor, M)> {
        if self.delayed.peek().is_some_and(|d| d.due <= now) {
            let d = self.delayed.pop().expect("peeked");
            return Some((d.from, d.message));
        }
        None
    }

    /// Applies the link verdict to one delivery from the wrapped transport:
    /// returns it when it may pass now, else drops or delays it.
    fn admit(&mut self, from: Actor, message: M) -> Option<(Actor, M)> {
        let (seed, me) = (self.seed, self.me);
        let rng = self
            .links
            .entry(from)
            .or_insert_with(|| SimRng::for_link(seed, from, me));
        match self.chaos.verdict(from, me, rng) {
            LinkVerdict::Deliver => return Some((from, message)),
            LinkVerdict::Drop => {
                // Intentional chaos: counted (attributed to the sender) but
                // not warned about.
                self.inner.stats().note_inbound_drop(from);
            }
            LinkVerdict::Delay(extra) => {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.delayed.push(DelayedDelivery {
                    due: Instant::now() + extra,
                    seq,
                    from,
                    message,
                });
            }
        }
        None
    }
}

impl<M: Send + 'static> Transport<M> for ChaosTransport<M> {
    fn me(&self) -> Actor {
        self.me
    }

    fn send(&mut self, to: Actor, message: M) {
        self.inner.send(to, message);
    }

    fn broadcast(&mut self, recipients: &[Actor], message: M)
    where
        M: Clone,
    {
        self.inner.broadcast(recipients, message);
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<(Actor, M)> {
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if let Some(delivery) = self.pop_due(now) {
                return Some(delivery);
            }
            // Wait on the wrapped transport until whichever comes first: the
            // caller's deadline or the next delayed delivery becoming due.
            let mut wait = deadline.saturating_duration_since(now);
            if let Some(head) = self.delayed.peek() {
                wait = wait.min(head.due.saturating_duration_since(now));
            }
            if let Some((from, message)) = self.inner.recv_timeout(wait) {
                if let Some(delivery) = self.admit(from, message) {
                    return Some(delivery);
                }
            }
            if Instant::now() >= deadline {
                return self.pop_due(Instant::now());
            }
        }
    }

    fn try_recv(&mut self) -> Option<(Actor, M)> {
        loop {
            if let Some(delivery) = self.pop_due(Instant::now()) {
                return Some(delivery);
            }
            let (from, message) = self.inner.try_recv()?;
            if let Some(delivery) = self.admit(from, message) {
                return Some(delivery);
            }
        }
    }

    fn stats(&self) -> Arc<crate::transport::TransportStats> {
        self.inner.stats()
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LoopbackNet;
    use prestige_types::ServerId;

    fn server(i: u32) -> Actor {
        Actor::Server(ServerId(i))
    }

    fn pair(chaos: &NetChaos) -> (impl Transport<u64>, ChaosTransport<u64>) {
        let net: LoopbackNet<u64> = LoopbackNet::new();
        let a = net.endpoint(server(0));
        let b = ChaosTransport::new(Box::new(net.endpoint(server(1))), chaos.clone(), 42);
        (a, b)
    }

    #[test]
    fn healthy_links_pass_through() {
        let chaos = NetChaos::new();
        let (mut a, mut b) = pair(&chaos);
        a.send(server(1), 5);
        assert_eq!(b.recv_timeout(Duration::from_secs(1)), Some((server(0), 5)));
        assert!(!chaos.is_partitioned());
    }

    #[test]
    fn symmetric_partition_blocks_both_directions_and_heals() {
        let chaos = NetChaos::new();
        let net: LoopbackNet<u64> = LoopbackNet::new();
        let mut a = ChaosTransport::new(Box::new(net.endpoint(server(0))), chaos.clone(), 1);
        let mut b = ChaosTransport::new(Box::new(net.endpoint(server(1))), chaos.clone(), 2);
        chaos.partition_between(&[server(0)], &[server(1)]);
        assert!(chaos.is_partitioned());
        assert_eq!(chaos.blocked_links(), 2);

        a.send(server(1), 1);
        b.send(server(0), 2);
        assert_eq!(b.recv_timeout(Duration::from_millis(20)), None);
        assert_eq!(a.recv_timeout(Duration::from_millis(20)), None);
        // Both drops were counted against the sending peer.
        assert_eq!(a.stats().dropped_from(server(1)), 1);
        assert_eq!(b.stats().dropped_from(server(0)), 1);

        chaos.heal_now();
        a.send(server(1), 3);
        assert_eq!(b.recv_timeout(Duration::from_secs(1)), Some((server(0), 3)));
    }

    #[test]
    fn asymmetric_partition_blocks_one_direction_only() {
        let chaos = NetChaos::new();
        let net: LoopbackNet<u64> = LoopbackNet::new();
        let mut a = ChaosTransport::new(Box::new(net.endpoint(server(0))), chaos.clone(), 1);
        let mut b = ChaosTransport::new(Box::new(net.endpoint(server(1))), chaos.clone(), 2);
        chaos.partition_oneway(&[server(0)], &[server(1)]);

        a.send(server(1), 1);
        assert_eq!(b.recv_timeout(Duration::from_millis(20)), None, "0->1 cut");
        b.send(server(0), 2);
        assert_eq!(
            a.recv_timeout(Duration::from_secs(1)),
            Some((server(1), 2)),
            "1->0 still flows"
        );
    }

    #[test]
    fn healing_one_cut_leaves_the_others_blocked() {
        let chaos = NetChaos::new();
        let everyone = [server(0), server(1), server(2)];
        chaos.partition_oneway(&[server(0)], &everyone);
        chaos.partition_oneway(&[server(1)], &everyone);
        assert_eq!(chaos.blocked_links(), 4);
        chaos.heal_oneway(&[server(0)], &everyone);
        assert_eq!(chaos.blocked_links(), 2, "s1's cut survives s0's heal");
        // Symmetric cuts heal the same way; the one link both cuts block
        // (s1 -> s2) heals with the first of them.
        chaos.partition_between(&[server(2)], &everyone);
        assert_eq!(chaos.blocked_links(), 2 + 4 - 1);
        chaos.heal_between(&[server(2)], &everyone);
        assert_eq!(chaos.blocked_links(), 1);
        chaos.heal_oneway(&[server(1)], &everyone);
        assert!(!chaos.is_partitioned());
    }

    #[test]
    fn full_loss_drops_everything_zero_loss_nothing() {
        let chaos = NetChaos::new();
        let (mut a, mut b) = pair(&chaos);
        chaos.set_loss(1.0);
        for i in 0..10 {
            a.send(server(1), i);
        }
        assert_eq!(b.recv_timeout(Duration::from_millis(30)), None);
        assert_eq!(b.stats().dropped_from(server(0)), 10);

        chaos.set_loss(0.0);
        a.send(server(1), 99);
        assert_eq!(
            b.recv_timeout(Duration::from_secs(1)),
            Some((server(0), 99))
        );
    }

    #[test]
    fn try_recv_applies_the_link_verdict() {
        let chaos = NetChaos::new();
        let (mut a, mut b) = pair(&chaos);
        chaos.partition_oneway(&[server(0)], &[server(1)]);
        a.send(server(1), 1);
        assert_eq!(b.try_recv(), None, "a cut link drops on this path too");
        assert_eq!(b.stats().dropped_from(server(0)), 1);

        chaos.heal_now();
        a.send(server(1), 2);
        assert_eq!(b.try_recv(), Some((server(0), 2)));
    }

    #[test]
    fn partial_loss_drops_roughly_the_configured_fraction() {
        let chaos = NetChaos::new();
        let (mut a, mut b) = pair(&chaos);
        chaos.set_loss(0.5);
        for i in 0..200 {
            a.send(server(1), i);
        }
        let mut got = 0;
        while b.recv_timeout(Duration::from_millis(20)).is_some() {
            got += 1;
        }
        assert!(
            (40..=160).contains(&got),
            "~50% loss should deliver around half of 200, got {got}"
        );
    }

    #[test]
    fn a_links_losses_do_not_depend_on_other_senders() {
        // What s0 keeps of s1's messages is decided on the s1 -> s0 stream
        // alone, so s2's traffic interleaved with them changes nothing.
        let kept_from_s1 = |with_s2: bool| {
            let chaos = NetChaos::new();
            chaos.set_loss(0.5);
            let net: LoopbackNet<u64> = LoopbackNet::new();
            let mut s0 = ChaosTransport::new(Box::new(net.endpoint(server(0))), chaos, 42);
            let mut s1 = net.endpoint(server(1));
            let mut s2 = net.endpoint(server(2));
            let mut kept = Vec::new();
            for i in 0..100 {
                s1.send(server(0), i);
                if with_s2 {
                    s2.send(server(0), 1000 + i);
                    s2.send(server(0), 2000 + i);
                }
                while let Some((from, message)) = s0.try_recv() {
                    if from == server(1) {
                        kept.push(message);
                    }
                }
            }
            kept
        };
        let alone = kept_from_s1(false);
        assert!(
            (20..80).contains(&alone.len()),
            "half of 100 should pass, got {}",
            alone.len()
        );
        assert_eq!(kept_from_s1(true), alone);
    }

    #[test]
    fn delay_holds_messages_until_due_and_preserves_order() {
        let chaos = NetChaos::new();
        let (mut a, mut b) = pair(&chaos);
        chaos.set_link_delay(Duration::from_millis(40), Duration::ZERO);
        let t0 = Instant::now();
        a.send(server(1), 1);
        a.send(server(1), 2);
        let first = b.recv_timeout(Duration::from_secs(1)).expect("delivered");
        let waited = t0.elapsed();
        assert_eq!(first, (server(0), 1));
        assert!(
            waited >= Duration::from_millis(35),
            "delivery must be delayed, waited {waited:?}"
        );
        assert_eq!(b.recv_timeout(Duration::from_secs(1)), Some((server(0), 2)));
    }

    #[test]
    fn zero_timeout_poll_does_not_block() {
        let chaos = NetChaos::new();
        let (_a, mut b) = pair(&chaos);
        let t0 = Instant::now();
        assert_eq!(b.recv_timeout(Duration::ZERO), None);
        assert!(t0.elapsed() < Duration::from_millis(50));
    }
}
