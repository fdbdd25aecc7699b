//! The consensus client (§4.3 "Invoking a consensus service").
//!
//! A client process broadcasts proposal bundles to all servers, waits for
//! `f + 1` matching `Notif` replies per transaction before considering it
//! committed, and — if a transaction stays unconfirmed past its timeout —
//! broadcasts a `Compt` complaint suspecting the leader (§4.2.1), which is
//! what arms the active view-change protocol's failure detection. With the
//! complaint it resends every overdue request, since it owns them: a lost
//! bundle is recovered whole.
//!
//! One client process stands in for many logical closed-loop clients: it keeps
//! `concurrency` transactions outstanding, topping the window up in bundles
//! (see [`ClientConfig::refill_batch`]). This keeps the simulation's event
//! count tractable at the paper's throughput levels while preserving the
//! protocol interaction (every transaction is still individually ordered,
//! committed, notified, and complain-able). The simulator and the real
//! runtime build the same client the same way, through [`ClientConfig::new`].
//!
//! Requests are numbered consecutively from 1, and the client never has more
//! than [`REQUEST_WINDOW`] of them between its oldest unconfirmed request and
//! its newest. That is the client's half of the client-table contract
//! (`prestige_types::seqwindow`): a replica may forget the details of
//! anything further back, and everything further back was confirmed here by
//! `f + 1` replicas. The same numbering keeps the client's own books small:
//! outstanding requests are a ring indexed by request number, and "has this
//! server already notified that request" is a bit in a per-server
//! [`SeqWindow`] — no per-request map, set or stored proposal.

use crate::histogram::LatencyHistogram;
use crate::pacemaker::timer_tags;
use prestige_crypto::{digest_of, KeyPair, KeyRegistry};
use prestige_sim::{Context, Process, SimDuration, TimerId};
use prestige_types::{
    Actor, ClientId, Message, Proposal, ReplicaSet, SeqNum, SeqWindow, Transaction, View,
    REQUEST_WINDOW,
};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::VecDeque;

/// Client configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientConfig {
    /// This client's identity.
    pub id: ClientId,
    /// The replica set it talks to.
    pub replicas: ReplicaSet,
    /// Payload size `m` in bytes (32 or 64 in the paper).
    pub payload_size: usize,
    /// Number of logical requests kept in flight (the closed-loop window).
    pub concurrency: usize,
    /// How long to wait for `f + 1` notifications before complaining (ms).
    pub timeout_ms: f64,
    /// Refill granularity: once at least this many slots of the window have
    /// drained, one bundle tops the window back up. [`ClientConfig::new`]
    /// sets a quarter of the window (at least one); `concurrency` would be a
    /// full drain, which convoys — a handful of stragglers from one bundle
    /// hold the whole next one behind the leader's batch timer.
    pub refill_batch: usize,
}

impl ClientConfig {
    /// A client with the given identity and window against `replicas`.
    pub fn new(
        id: ClientId,
        replicas: ReplicaSet,
        payload_size: usize,
        concurrency: usize,
    ) -> Self {
        let concurrency = concurrency.max(1);
        ClientConfig {
            id,
            replicas,
            payload_size,
            concurrency,
            timeout_ms: 1000.0,
            refill_batch: (concurrency / 4).max(1),
        }
    }

    /// Overrides the refill granularity. Outside tests only the frozen
    /// benchmark calls it, with the value [`ClientConfig::new`] already sets;
    /// that call is why it stays.
    pub fn with_refill_batch(mut self, refill_batch: usize) -> Self {
        self.refill_batch = refill_batch;
        self
    }
}

/// Client-side measurements.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClientStats {
    /// Transactions confirmed by `f + 1` servers.
    pub committed_tx: u64,
    /// Complaints broadcast.
    pub complaints_sent: u64,
    /// Every end-to-end commit latency since the last
    /// [`PrestigeClient::reset_latency_stats`]: the one latency record
    /// (count, exact mean and max, percentiles within 6.25 %).
    pub latency_hist: LatencyHistogram,
}

/// Bookkeeping for one issued request: a slot of the outstanding ring.
#[derive(Debug, Clone)]
struct Slot {
    sent_at_ms: f64,
    /// Distinct servers that have notified this request's commit. At
    /// `f + 1` the request is confirmed, and the slot only waits for the ones
    /// before it to finish so the ring can drop it.
    notifs: u32,
    complained: bool,
}

/// The most requests between the oldest unconfirmed one and the newest. One
/// bitmap word short of the replicas' window: their floors are word-aligned,
/// so a slide can pass up to 63 numbers more than the window strictly needs.
const MAX_SPAN: usize = (REQUEST_WINDOW - 64) as usize;

/// A closed-loop consensus client.
pub struct PrestigeClient {
    config: ClientConfig,
    keypair: KeyPair,
    /// The next request number to issue (numbering starts at 1).
    next_timestamp: u64,
    /// The outstanding ring: slot `i` is request `next_timestamp - len + i`,
    /// in issue order. Slots leave from the front as they finish, so the
    /// front is always the oldest unconfirmed request.
    outstanding: VecDeque<Slot>,
    /// Slots of the ring not yet confirmed.
    open: usize,
    /// Per server, the request numbers it has notified: a second `Notif` for
    /// the same request from the same server must not count twice.
    notified: Vec<SeqWindow>,
    stats: ClientStats,
    /// Highest view observed in notifications (informational).
    observed_view: View,
    /// Highest sequence number observed (informational).
    observed_seq: SeqNum,
    /// Warmup boundary: transactions with a timestamp below this were issued
    /// before the last [`PrestigeClient::reset_latency_stats`], so their
    /// `sent_at_ms` predates the measurement window. Their commits still
    /// count for throughput but are excluded from latency accounting —
    /// otherwise a handful of warmup stragglers committing just after the
    /// reset lands tens-of-ms outliers in the tail (a measured p99.9
    /// contributor: ~139 ms vs a ~10 ms p99 at peak throughput).
    latency_floor_ts: u64,
}

impl PrestigeClient {
    /// Creates a client, deriving its key from the registry.
    pub fn new(config: ClientConfig, registry: &KeyRegistry) -> Self {
        let keypair = registry
            .key_of(Actor::Client(config.id))
            .expect("client key must be registered")
            .clone();
        PrestigeClient {
            keypair,
            next_timestamp: 1,
            outstanding: VecDeque::new(),
            open: 0,
            notified: vec![SeqWindow::default(); config.replicas.n() as usize],
            stats: ClientStats::default(),
            observed_view: View::INITIAL,
            observed_seq: SeqNum::ZERO,
            latency_floor_ts: 0,
            config,
        }
    }

    /// Client-side statistics.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// Clears the latency histogram while leaving commit counters untouched.
    /// Benchmarks call this at the warmup boundary so percentiles reflect
    /// only the measurement window. Requests still in flight at the reset
    /// are fenced off (see `latency_floor_ts`): they commit and count, but
    /// never record a latency.
    pub fn reset_latency_stats(&mut self) {
        self.stats.latency_hist.clear();
        self.latency_floor_ts = self.next_timestamp;
    }

    /// Number of requests currently outstanding.
    pub fn outstanding_count(&self) -> usize {
        self.open
    }

    /// The highest view this client has observed in notifications.
    pub fn observed_view(&self) -> View {
        self.observed_view
    }

    fn all_servers(&self) -> Vec<Actor> {
        self.config.replicas.servers().map(Actor::Server).collect()
    }

    fn confirm_threshold(&self) -> u32 {
        self.config.replicas.f() + 1
    }

    /// The proposal for request `number`: a pure function of the client's
    /// identity, the number and the payload size, so a complaint re-derives
    /// exactly what was sent instead of keeping a copy per request.
    fn proposal(&self, number: u64) -> Proposal {
        let tx = Transaction::with_size(self.config.id, number, self.config.payload_size);
        let digest = digest_of(&tx.payload);
        Proposal::new(tx, digest)
    }

    /// The request number of the ring's front slot.
    fn base(&self) -> u64 {
        self.next_timestamp - self.outstanding.len() as u64
    }

    /// Builds and broadcasts a bundle of `count` fresh proposals — fewer if
    /// the ring would otherwise span more than [`MAX_SPAN`].
    fn send_bundle(&mut self, count: usize, ctx: &mut Context<Message>) {
        let count = count.min(MAX_SPAN - self.outstanding.len());
        if count == 0 {
            return;
        }
        let mut proposals = Vec::with_capacity(count);
        let now_ms = ctx.now().as_ms();
        for _ in 0..count {
            proposals.push(self.proposal(self.next_timestamp));
            self.next_timestamp += 1;
            self.outstanding.push_back(Slot {
                sent_at_ms: now_ms,
                notifs: 0,
                complained: false,
            });
        }
        self.open += count;
        let client_sig = self.keypair.sign(b"bundle");
        ctx.broadcast(
            self.all_servers(),
            Message::Prop {
                proposals,
                client_sig,
            },
        );
    }

    fn record_commit(&mut self, latency_ms: f64) {
        self.stats.committed_tx += 1;
        self.stats.latency_hist.record_ms(latency_ms);
    }
}

impl Process<Message> for PrestigeClient {
    fn on_start(&mut self, ctx: &mut Context<Message>) {
        self.send_bundle(self.config.concurrency, ctx);
        ctx.set_timer(
            SimDuration::from_ms(self.config.timeout_ms),
            timer_tags::CLIENT_CHECK,
        );
    }

    fn on_message(&mut self, from: Actor, message: Message, ctx: &mut Context<Message>) {
        let server = match from {
            Actor::Server(s) if (s.0 as usize) < self.notified.len() => s.0 as usize,
            _ => return,
        };
        if let Message::Notif {
            tx_keys, seq, view, ..
        } = message
        {
            self.observed_view = self.observed_view.max(view);
            self.observed_seq = self.observed_seq.max(seq);
            let now_ms = ctx.now().as_ms();
            let threshold = self.confirm_threshold();
            for (client, number) in tx_keys {
                // Another client's key, or a number never issued, touches no
                // state (0 is never issued and every window already holds it).
                if client != self.config.id || number >= self.next_timestamp {
                    continue;
                }
                // One vote per server and request, recorded whether or not
                // the request is still open.
                if !self.notified[server].insert(number) {
                    continue;
                }
                let Some(slot) = number
                    .checked_sub(self.base())
                    .and_then(|i| self.outstanding.get_mut(i as usize))
                else {
                    continue; // Confirmed and dropped from the ring already.
                };
                if slot.notifs >= threshold {
                    continue; // Confirmed; later votes count for nothing.
                }
                slot.notifs += 1;
                if slot.notifs == threshold {
                    let latency_ms = now_ms - slot.sent_at_ms;
                    self.open -= 1;
                    if number >= self.latency_floor_ts {
                        self.record_commit(latency_ms);
                    } else {
                        // Warmup straggler: throughput yes, latency no.
                        self.stats.committed_tx += 1;
                    }
                }
            }
            while (self.outstanding.front()).is_some_and(|slot| slot.notifs >= threshold) {
                self.outstanding.pop_front();
            }
            // Top the closed-loop window back up once at least
            // `refill_batch` slots have drained.
            let deficit = self.config.concurrency.saturating_sub(self.open);
            if deficit >= self.config.refill_batch {
                self.send_bundle(deficit, ctx);
            }
        }
    }

    fn on_timer(&mut self, _id: TimerId, tag: u64, ctx: &mut Context<Message>) {
        if tag != timer_tags::CLIENT_CHECK {
            return;
        }
        // Complain about the oldest overdue transaction (one complaint per
        // check keeps complaint traffic bounded; the view change it triggers
        // unblocks the others too). The ring is in issue order, so the first
        // candidate is the oldest, and among equally old the lowest number.
        let now_ms = ctx.now().as_ms();
        let timeout = self.config.timeout_ms;
        let threshold = self.confirm_threshold();
        let overdue = self
            .outstanding
            .iter()
            .take_while(|slot| now_ms - slot.sent_at_ms >= timeout)
            .position(|slot| slot.notifs < threshold && !slot.complained);
        if let Some(i) = overdue {
            // The owner resends: every overdue request goes out again with
            // the complaint, so a `Prop` bundle the leader never received is
            // recovered whole instead of one complaint per check. Servers
            // drop the requests they have already seen.
            let resend = (self.outstanding.iter().zip(self.base()..))
                .take_while(|(slot, _)| now_ms - slot.sent_at_ms >= timeout)
                .filter(|(slot, _)| slot.notifs < threshold)
                .map(|(_, number)| self.proposal(number))
                .collect();
            let client_sig = self.keypair.sign(b"bundle");
            let resend = Message::Prop {
                proposals: resend,
                client_sig,
            };
            ctx.broadcast(self.all_servers(), resend);
            self.outstanding[i].complained = true;
            let proposal = self.proposal(self.base() + i as u64);
            let client_sig = self.keypair.sign(b"complaint");
            self.stats.complaints_sent += 1;
            ctx.broadcast(
                self.all_servers(),
                Message::Compt {
                    proposal,
                    client_sig,
                },
            );
        } else {
            // Allow re-complaining later if things stay stuck.
            for slot in self.outstanding.iter_mut() {
                if now_ms - slot.sent_at_ms >= 3.0 * timeout {
                    slot.complained = false;
                }
            }
        }
        ctx.set_timer(
            SimDuration::from_ms(self.config.timeout_ms),
            timer_tags::CLIENT_CHECK,
        );
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prestige_sim::{Effects, Emission, SimRng, SimTime};
    use prestige_types::ServerId;

    #[test]
    fn client_construction() {
        let replicas = ReplicaSet::new(4);
        let registry = KeyRegistry::new(3, 4, 2);
        let config = ClientConfig::new(ClientId(0), replicas, 32, 100);
        let client = PrestigeClient::new(config, &registry);
        assert_eq!(client.outstanding_count(), 0);
        assert_eq!(client.observed_view(), View(1));
        assert_eq!(client.confirm_threshold(), 2);
    }

    #[test]
    fn concurrency_is_at_least_one() {
        let config = ClientConfig::new(ClientId(0), ReplicaSet::new(4), 32, 0);
        assert_eq!(config.concurrency, 1);
    }

    /// Runs one `Process` call on `client` at simulated time `at_ms`.
    fn at(
        client: &mut PrestigeClient,
        at_ms: f64,
        call: impl FnOnce(&mut PrestigeClient, &mut Context<Message>),
    ) -> Effects<Message> {
        let mut effects = Effects::new();
        let mut rng = SimRng::new(7);
        let mut next_timer_id = 100;
        let me = Actor::Client(client.config.id);
        let mut ctx = Context::new(
            SimTime::from_ms(at_ms),
            me,
            &mut rng,
            &mut next_timer_id,
            &mut effects,
        );
        call(client, &mut ctx);
        effects
    }

    fn started_client(concurrency: usize, refill_batch: usize) -> PrestigeClient {
        let registry = KeyRegistry::new(3, 4, 2);
        let config = ClientConfig::new(ClientId(1), ReplicaSet::new(4), 32, concurrency)
            .with_refill_batch(refill_batch);
        let mut client = PrestigeClient::new(config, &registry);
        at(&mut client, 0.0, |c, ctx| c.on_start(ctx));
        client
    }

    fn notif(
        client: &mut PrestigeClient,
        server: u32,
        keys: Vec<(ClientId, u64)>,
    ) -> Effects<Message> {
        let message = Message::Notif {
            tx_keys: keys,
            seq: SeqNum(1),
            view: View(1),
            sig: [0; 32],
        };
        at(client, 5.0, |c, ctx| {
            c.on_message(Actor::Server(ServerId(server)), message, ctx)
        })
    }

    /// Confirms `numbers` (servers 0 and 1 notify them) and returns the
    /// sizes of the bundles that sends.
    fn confirm(client: &mut PrestigeClient, numbers: impl Iterator<Item = u64>) -> Vec<usize> {
        let keys: Vec<_> = numbers.map(|k| (ClientId(1), k)).collect();
        notif(client, 0, keys.clone());
        notif(client, 1, keys)
            .emissions
            .iter()
            .filter_map(|e| match e {
                Emission::Broadcast(_, Message::Prop { proposals, .. }) => Some(proposals.len()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn refill_tops_the_window_up_once_refill_batch_slots_drain() {
        for c in [0, 1, 3, 4, 12, 100, 512] {
            let config = ClientConfig::new(ClientId(1), ReplicaSet::new(4), 32, c);
            assert_eq!(config.refill_batch, (c / 4).max(1), "window {c}");
        }
        // The default (a quarter of 12) and a full drain are one rule.
        let default = ClientConfig::new(ClientId(1), ReplicaSet::new(4), 32, 12).refill_batch;
        for (window, refill) in [(12, default), (4, 4)] {
            let mut client = started_client(window, refill);
            let short = confirm(&mut client, 1..refill as u64);
            assert!(short.is_empty(), "one short of refill_batch sends nothing");
            let last = refill as u64;
            assert_eq!(confirm(&mut client, last..=last), [refill], "one bundle");
            assert_eq!(client.outstanding_count(), window);
        }
    }

    fn proposals_in(effects: &Effects<Message>) -> Vec<Proposal> {
        effects
            .emissions
            .iter()
            .flat_map(|e| match e {
                Emission::Broadcast(_, Message::Prop { proposals, .. }) => proposals.clone(),
                Emission::Broadcast(_, Message::Compt { proposal, .. }) => vec![proposal.clone()],
                _ => Vec::new(),
            })
            .collect()
    }

    #[test]
    fn f_plus_one_distinct_servers_confirm_exactly_once() {
        let mut client = started_client(4, 4);
        let key = (ClientId(1), 2);
        notif(&mut client, 0, vec![key]);
        notif(&mut client, 0, vec![key, key]);
        assert_eq!(client.stats().committed_tx, 0, "one server is not f + 1");
        assert_eq!(client.outstanding_count(), 4);
        notif(&mut client, 3, vec![key]);
        assert_eq!(client.stats().committed_tx, 1);
        assert_eq!(client.outstanding_count(), 3);
        notif(&mut client, 1, vec![key]);
        notif(&mut client, 2, vec![key]);
        notif(&mut client, 3, vec![key]);
        assert_eq!(client.stats().committed_tx, 1, "confirmed exactly once");
        assert_eq!(client.stats().latency_hist.count(), 1);
    }

    #[test]
    fn foreign_unissued_and_confirmed_keys_change_nothing() {
        let mut client = started_client(4, 4);
        for server in [0, 1] {
            notif(&mut client, server, vec![(ClientId(1), 1)]);
        }
        assert_eq!(client.stats().committed_tx, 1);
        let (ring, open, windows) = (
            client.outstanding.len(),
            client.open,
            client.notified.clone(),
        );
        let strays = vec![
            (ClientId(2), 2),        // another client's request
            (ClientId(1), 5),        // never issued: the bundle was 1..=4
            (ClientId(1), u64::MAX), // never issued, and far past any window
            (ClientId(1), 0),        // never issued: numbering starts at 1
        ];
        for server in 0..4 {
            notif(&mut client, server, strays.clone());
        }
        assert_eq!(client.notified, windows, "strays touch no state");
        // A server outside the replica set is not a voter at all.
        notif(&mut client, 9, vec![(ClientId(1), 2)]);
        // Late notifications of the confirmed request are recorded as votes
        // cast, and count for nothing.
        for server in [2, 3, 0] {
            notif(&mut client, server, vec![(ClientId(1), 1)]);
        }
        assert_eq!(client.stats().committed_tx, 1);
        assert_eq!((client.outstanding.len(), client.open), (ring, open));
    }

    /// The proposals one check resends (`Prop`) and complains about (`Compt`).
    fn resent_and_complained(effects: &Effects<Message>) -> (Vec<Proposal>, Vec<Proposal>) {
        let (mut resent, mut complained) = (Vec::new(), Vec::new());
        for emission in &effects.emissions {
            match emission {
                Emission::Broadcast(_, Message::Prop { proposals, .. }) => {
                    resent.extend(proposals.iter().cloned())
                }
                Emission::Broadcast(_, Message::Compt { proposal, .. }) => {
                    complained.push(proposal.clone())
                }
                _ => {}
            }
        }
        (resent, complained)
    }

    #[test]
    fn a_complaint_resends_every_overdue_request_as_originally_sent() {
        let registry = KeyRegistry::new(3, 4, 2);
        let config = ClientConfig::new(ClientId(1), ReplicaSet::new(4), 32, 3);
        let mut client = PrestigeClient::new(config, &registry);
        let sent = proposals_in(&at(&mut client, 0.0, |c, ctx| c.on_start(ctx)));
        assert_eq!(sent.len(), 3);
        // Request 1 confirms at 5 ms and the refill issues request 4; 2 and 3
        // go overdue together, 4 a little later.
        for server in [0, 1] {
            notif(&mut client, server, vec![(ClientId(1), 1)]);
        }
        let check = |c: &mut PrestigeClient, ctx: &mut Context<Message>| {
            c.on_timer(TimerId(1), timer_tags::CLIENT_CHECK, ctx)
        };
        let nothing = (Vec::new(), Vec::new());
        assert_eq!(
            resent_and_complained(&at(&mut client, 999.0, check)),
            nothing
        );
        // Both overdue requests go out again (a lost bundle is recovered
        // whole), and the complaint names the oldest, ties to the lowest
        // number — the re-derived proposals are the ones that went out, byte
        // for byte.
        let mut overdue = sent[1..].to_vec();
        assert_eq!(
            resent_and_complained(&at(&mut client, 1000.0, check)),
            (overdue.clone(), vec![sent[1].clone()])
        );
        overdue.push(client.proposal(4));
        assert_eq!(
            resent_and_complained(&at(&mut client, 2000.0, check)),
            (overdue, vec![sent[2].clone()])
        );
        assert_eq!(client.stats().complaints_sent, 2);
    }

    #[test]
    fn the_ring_never_spans_more_than_the_request_window() {
        // Request 1 never confirms while everything behind it does: with
        // partial refill the client keeps issuing, so the ring grows — up to
        // the span the replicas' windows can tell apart, and no further.
        let window = 1 << 16;
        let mut client = started_client(window, 1);
        let mut confirmed = 1; // everything up to here, except request 1
        while client.outstanding.len() < MAX_SPAN {
            let issued = client.next_timestamp - 1;
            assert!(issued > confirmed, "the client stopped short of the span");
            let keys: Vec<_> = (confirmed + 1..=issued).map(|k| (ClientId(1), k)).collect();
            for server in [0, 1] {
                notif(&mut client, server, keys.clone());
            }
            confirmed = issued;
            assert_eq!(client.base(), 1, "request 1 holds the front");
            assert!(client.outstanding.len() as u64 <= REQUEST_WINDOW);
        }
        // At the limit nothing more goes out, however much has confirmed ...
        let issued = client.next_timestamp - 1;
        let keys: Vec<_> = (confirmed + 1..=issued).map(|k| (ClientId(1), k)).collect();
        for server in [0, 1] {
            notif(&mut client, server, keys.clone());
        }
        assert_eq!((client.next_timestamp - 1, client.open), (issued, 1));
        // ... until the front confirms: the ring empties and the loop resumes.
        for server in [2, 3] {
            notif(&mut client, server, vec![(ClientId(1), 1)]);
        }
        assert_eq!(client.outstanding.len(), window);
        assert_eq!(client.base(), issued + 1);
        assert_eq!(client.stats().committed_tx, issued);
    }

    #[test]
    fn commits_feed_the_histogram() {
        // Requests 1..=4 go out at 0 ms; request 1 confirms at 5 ms.
        let mut client = started_client(4, 4);
        assert!(client.stats().latency_hist.is_empty());
        confirm(&mut client, 1..=1);
        let hist = &client.stats().latency_hist;
        assert_eq!((client.stats().committed_tx, hist.count()), (1, 1));
        assert_eq!(hist.mean_ms(), 5.0);
        // Requests 2..=4 were in flight at the reset: they commit and count,
        // but record no latency. The refill they trigger is measured.
        client.reset_latency_stats();
        assert_eq!(confirm(&mut client, 2..=4), [4]);
        assert_eq!(client.stats().committed_tx, 4);
        assert!(client.stats().latency_hist.is_empty());
        confirm(&mut client, 5..=5);
        assert_eq!(client.stats().latency_hist.count(), 1);
        assert_eq!(client.stats().latency_hist.mean_ms(), 0.0);
    }
}
