//! The node runtime: drives an I/O-free [`Process`] on real time and a real
//! transport.
//!
//! The deterministic protocol implementations in `prestige-core` are written
//! against the driver contract of `prestige-sim` ([`Context`] / `Effects`):
//! handlers react to deliveries and timer expirations and buffer their
//! effects. The simulator turns those effects into virtual events; this
//! runtime turns the *same* effects into socket writes and OS timers, so the
//! exact same server and client code runs unmodified on a real cluster:
//!
//! * `ctx.now()` — wall-clock nanoseconds since the node started
//!   (`SimTime` is just a nanosecond counter, so protocol timeout arithmetic
//!   carries over unchanged);
//! * `ctx.send(..)` — handed to the [`Transport`];
//! * `ctx.set_timer(..)` — kept in a local timer heap, fired by the event
//!   loop when due (cancellations respected);
//! * `ctx.charge_cpu(..)` — ignored: real CPU time passes by itself.
//!
//! A node is exactly one thread: verification and block adoption run inline
//! in the handlers, and the transports own no threads either. The one seam
//! left for work that might someday pay for a thread of its own (a
//! group-commit WAL writer, public-key signature checks) is [`JobSource`]:
//! the event loop drains each attached source's completion queue, a bounded
//! number per iteration, and feeds every `(token, ok)` pair back through
//! `Process::on_job_complete` — completions are ordinary events, interleaved
//! with deliveries and timers on the same single protocol thread. Nothing in
//! the tree attaches a source today.
//!
//! # Profiling
//!
//! When a [`LoopProfile`] is attached (see [`NodeHandle::spawn_instrumented`]),
//! the loop buckets its wall time by stage: every handler invocation runs
//! under a root span (messages → `guards`, timer fires → `timer`, completion
//! events → `guards`, control drains → `control`), the protocol core opens
//! sub-spans for the expensive interior work (`inline_verify`, `apply`,
//! `storage_append`), the effects writer opens an `encode_broadcast`
//! sub-span, and waits land in `idle` (a queued message's receive cost lands
//! in `decode`). Sub-span self time is subtracted from the enclosing root, so
//! the stages *partition* busy time — summing them never double counts. Cost
//! when attached is two monotonic clock reads per span; when absent
//! (`--no-profile`, the simulator) the spans compile to a `None` check.

use crate::transport::Transport;
use prestige_core::profile::SpanStart;
use prestige_core::{LoopProfile, LoopStage};
use prestige_sim::{Context, Effects, Emission, Process, SimRng, SimTime, TimerId};
use prestige_types::{Actor, Wire};
use std::collections::{BinaryHeap, HashSet};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest the event loop sleeps before re-checking control messages.
const IDLE_TICK: Duration = Duration::from_millis(20);

/// Cap on the transport wait while a [`JobSource`] has jobs outstanding, so
/// completions are consumed with sub-millisecond latency even when no
/// messages arrive to wake the loop.
const JOB_POLL_TICK: Duration = Duration::from_micros(200);

/// How many additional queued messages one loop iteration drains after a
/// successful receive, before re-checking timers and control. Bounded so a
/// flood cannot starve timers; large enough to amortize the per-iteration
/// bookkeeping under load.
const MESSAGE_BURST: usize = 64;

/// How many completions one loop iteration consumes per [`JobSource`] before
/// re-checking timers and control: a source that completes jobs faster than
/// the node handles them must not starve the timers.
const JOB_BURST: usize = 128;

/// A source of finished off-loop jobs, polled by the event loop: each
/// `(token, ok)` it yields is delivered to the node through
/// `Process::on_job_complete`.
pub trait JobSource: Send + Sync {
    /// Pops one finished completion, if any.
    fn try_done(&self) -> Option<(u64, bool)>;
    /// Jobs submitted whose completions have not been consumed yet.
    fn pending(&self) -> usize;
}

/// A pending timer in the node's local heap (min-heap by due time, FIFO on
/// ties via the timer id, mirroring the simulator's tie-break).
#[derive(Debug, PartialEq, Eq)]
struct PendingTimer {
    due: SimTime,
    id: TimerId,
    tag: u64,
}

impl Ord for PendingTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse order: BinaryHeap is a max-heap, we want the earliest due.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for PendingTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A boxed closure run against the live node on the runtime thread.
type InspectFn<M> = Box<dyn FnOnce(&mut dyn Process<M>) + Send>;

enum Control<M> {
    Inspect(InspectFn<M>),
    Stop,
}

/// Handle to a node running on its own runtime thread.
pub struct NodeHandle<M> {
    actor: Actor,
    ctl: Sender<Control<M>>,
    join: Option<JoinHandle<Box<dyn Process<M> + Send>>>,
}

impl<M: Wire + Send + 'static> NodeHandle<M> {
    /// Starts a runtime thread driving `node` over `transport`.
    ///
    /// `seed` feeds the node's deterministic RNG stream (used for timeout
    /// randomization); distinct nodes should get distinct seeds, conventionally
    /// derived the same way the simulator does it.
    pub fn spawn(
        node: Box<dyn Process<M> + Send>,
        transport: Box<dyn Transport<M>>,
        seed: u64,
    ) -> Self {
        Self::spawn_instrumented(node, transport, seed, Vec::new(), None)
    }

    /// The general spawn: any number of completion sources drained as
    /// `Process::on_job_complete` events, plus an optional always-on stage
    /// profiler (see the module docs' *Profiling* section).
    pub fn spawn_instrumented(
        node: Box<dyn Process<M> + Send>,
        mut transport: Box<dyn Transport<M>>,
        seed: u64,
        sources: Vec<Arc<dyn JobSource>>,
        profile: Option<Arc<LoopProfile>>,
    ) -> Self {
        let actor = transport.me();
        let (ctl_tx, ctl_rx) = channel();
        let join = std::thread::Builder::new()
            .name(format!("prestige-node-{actor}"))
            .spawn(move || run_event_loop(node, &mut *transport, seed, ctl_rx, sources, profile))
            .expect("spawn node runtime thread");
        NodeHandle {
            actor,
            ctl: ctl_tx,
            join: Some(join),
        }
    }

    /// The actor this node runs as.
    pub fn actor(&self) -> Actor {
        self.actor
    }

    /// Runs a closure against the live node state on the runtime thread and
    /// returns its result. Returns `None` if the node has already stopped or
    /// does not answer within `timeout`.
    pub fn inspect_with_timeout<R, F>(&self, f: F, timeout: Duration) -> Option<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut dyn Process<M>) -> R + Send + 'static,
    {
        let (reply_tx, reply_rx) = channel();
        let request = Control::Inspect(Box::new(move |node: &mut dyn Process<M>| {
            // The receiver may have given up; a failed send is harmless.
            let _ = reply_tx.send(f(node));
        }));
        if self.ctl.send(request).is_err() {
            return None;
        }
        reply_rx.recv_timeout(timeout).ok()
    }

    /// [`Self::inspect_with_timeout`] with a 5-second budget.
    pub fn inspect<R, F>(&self, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut dyn Process<M>) -> R + Send + 'static,
    {
        self.inspect_with_timeout(f, Duration::from_secs(5))
    }

    /// Downcasting convenience over [`Self::inspect`]: runs `f` against the
    /// node as concrete type `T`.
    pub fn inspect_as<T, R, F>(&self, f: F) -> Option<R>
    where
        T: 'static,
        R: Send + 'static,
        F: FnOnce(&T) -> R + Send + 'static,
    {
        self.inspect(move |node| node.as_any().downcast_ref::<T>().map(f))
            .flatten()
    }

    /// Stops the runtime thread and returns the node for post-mortem
    /// inspection.
    pub fn stop(mut self) -> Option<Box<dyn Process<M> + Send>> {
        let _ = self.ctl.send(Control::Stop);
        self.join.take().and_then(|j| j.join().ok())
    }
}

impl<M> Drop for NodeHandle<M> {
    fn drop(&mut self) {
        let _ = self.ctl.send(Control::Stop);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// One node's loop state: everything a handler invocation reads or writes.
struct Driver<'a, M> {
    node: Box<dyn Process<M> + Send>,
    transport: &'a mut dyn Transport<M>,
    me: Actor,
    rng: SimRng,
    next_timer_id: u64,
    timers: BinaryHeap<PendingTimer>,
    cancelled: HashSet<TimerId>,
    profile: Option<Arc<LoopProfile>>,
}

impl<M: Wire> Driver<'_, M> {
    /// The one way a handler runs: build its context at time `at`, call it,
    /// turn the buffered effects into timers and transport calls, and close
    /// the root `span` as `stage`.
    fn dispatch(
        &mut self,
        span: Option<SpanStart>,
        at: SimTime,
        stage: LoopStage,
        handler: impl FnOnce(&mut dyn Process<M>, &mut Context<M>),
    ) {
        let mut effects = Effects::new();
        let mut ctx = Context::new(
            at,
            self.me,
            &mut self.rng,
            &mut self.next_timer_id,
            &mut effects,
        );
        handler(&mut *self.node, &mut ctx);
        for id in effects.cancels {
            self.cancelled.insert(id);
        }
        for (id, delay, tag) in effects.timers {
            self.timers.push(PendingTimer {
                due: at + delay,
                id,
                tag,
            });
        }
        if !effects.emissions.is_empty() {
            // Serialization + socket handoff, carved out of the handler's
            // root span so it shows up as its own stage.
            let sub = LoopProfile::begin(&self.profile);
            for emission in effects.emissions {
                match emission {
                    Emission::Send(to, message) => self.transport.send(to, message),
                    // Fan-out goes through the transport's broadcast so an
                    // encode-once implementation serializes the payload a
                    // single time for all recipients.
                    Emission::Broadcast(tos, message) => self.transport.broadcast(&tos, message),
                }
            }
            LoopProfile::end_sub(&self.profile, sub, LoopStage::EncodeBroadcast);
        }
        // effects.cpu intentionally ignored: real time already passed.
        LoopProfile::end_root(&self.profile, span, stage);
    }
}

fn run_event_loop<M: Wire + Send + 'static>(
    node: Box<dyn Process<M> + Send>,
    transport: &mut dyn Transport<M>,
    seed: u64,
    ctl: Receiver<Control<M>>,
    sources: Vec<Arc<dyn JobSource>>,
    profile: Option<Arc<LoopProfile>>,
) -> Box<dyn Process<M> + Send> {
    let me = transport.me();
    let epoch = Instant::now();
    let now = || SimTime(epoch.elapsed().as_nanos() as u64);

    // The simulator's per-node stream, so timeout randomization behaves
    // comparably across runtimes.
    let mut d = Driver {
        node,
        transport,
        me,
        rng: SimRng::for_actor(seed, me),
        next_timer_id: 0,
        timers: BinaryHeap::new(),
        cancelled: HashSet::new(),
        profile,
    };

    // Start the node; no root span, start-up belongs to no stage.
    d.dispatch(None, now(), LoopStage::Guards, |node, ctx| {
        node.on_start(ctx)
    });

    loop {
        // Control messages first so stop/inspect stay responsive under load.
        let span = LoopProfile::begin(&d.profile);
        loop {
            match ctl.try_recv() {
                Ok(Control::Stop) => {
                    if let Some(p) = &d.profile {
                        p.set_total(epoch.elapsed().as_nanos() as u64);
                    }
                    d.transport.shutdown();
                    return d.node;
                }
                Ok(Control::Inspect(f)) => f(&mut *d.node),
                Err(_) => break,
            }
        }
        LoopProfile::end_root(&d.profile, span, LoopStage::Control);

        // Deliver finished off-loop jobs as ordinary events, bounded per
        // iteration so a hot source cannot starve timers. The handler's own
        // bookkeeping lands in `guards`; its heavy interior (apply, storage)
        // carves itself out via sub-spans.
        for source in &sources {
            for _ in 0..JOB_BURST {
                let Some((token, ok)) = source.try_done() else {
                    break;
                };
                let span = LoopProfile::begin(&d.profile);
                d.dispatch(span, now(), LoopStage::Guards, |node, ctx| {
                    node.on_job_complete(token, ok, ctx)
                });
            }
        }

        let t = now();
        if let Some(p) = &d.profile {
            // Keep the loop's wall-time total fresh so live snapshots (taken
            // while the cluster runs) see a consistent busy/idle split.
            p.set_total(t.0);
        }

        // Fire every timer that is due (skipping cancelled ones).
        while let Some(head) = d.timers.peek() {
            if head.due > t {
                break;
            }
            let PendingTimer { id, tag, due: _ } = d.timers.pop().expect("peeked");
            if d.cancelled.remove(&id) {
                continue;
            }
            // Handlers observe actual wall-clock time, not the scheduled due
            // time — real runtimes cannot hide scheduling lag.
            let span = LoopProfile::begin(&d.profile);
            d.dispatch(span, t, LoopStage::Timer, |node, ctx| {
                node.on_timer(id, tag, ctx)
            });
        }

        // Sleep until the next timer (bounded by the idle tick), waking early
        // for any inbound message; while off-loop jobs are outstanding the
        // wait is capped so completions are consumed promptly.
        let mut wait = match d.timers.peek() {
            Some(head) => {
                let gap = head.due.since(now());
                Duration::from_nanos(gap.0).min(IDLE_TICK)
            }
            None => IDLE_TICK,
        };
        if sources.iter().any(|s| s.pending() > 0) {
            wait = wait.min(JOB_POLL_TICK);
        }
        // A message that has already arrived first, taken without I/O and
        // charged to `decode`; only when there is none does the loop pay
        // the blocking wait, which is `idle` whether or not a message ends
        // it, and which returns at once if a socket is already readable.
        let mut span = LoopProfile::begin(&d.profile);
        let received = match d.transport.try_recv() {
            Some(m) => {
                span = LoopProfile::rollover(&d.profile, span, LoopStage::Decode);
                Some(m)
            }
            None => {
                let got = d.transport.recv_timeout(wait);
                if got.is_some() {
                    span = LoopProfile::rollover(&d.profile, span, LoopStage::Idle);
                } else {
                    LoopProfile::end_root(&d.profile, span.take(), LoopStage::Idle);
                }
                got
            }
        };
        if let Some((from, message)) = received {
            d.dispatch(span, now(), LoopStage::Guards, |node, ctx| {
                node.on_message(from, message, ctx)
            });
            // Under load, drain a bounded burst of already-queued messages
            // before paying for the timer/control bookkeeping again.
            for _ in 0..MESSAGE_BURST {
                let span = LoopProfile::begin(&d.profile);
                let Some((from, message)) = d.transport.try_recv() else {
                    LoopProfile::end_root(&d.profile, span, LoopStage::Decode);
                    break;
                };
                let span = LoopProfile::rollover(&d.profile, span, LoopStage::Decode);
                d.dispatch(span, now(), LoopStage::Guards, |node, ctx| {
                    node.on_message(from, message, ctx)
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LoopbackNet;
    use prestige_types::ServerId;
    use std::any::Any;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[derive(Debug, Clone)]
    struct TestMsg(u64);

    impl Wire for TestMsg {
        fn wire_size(&self) -> usize {
            8
        }
        fn kind(&self) -> &'static str {
            "TestMsg"
        }
    }

    /// Sends one ping on start, echoes everything back incremented, and
    /// counts timer fires.
    struct Echo {
        peer: Option<Actor>,
        received: Vec<u64>,
        ticks: u64,
    }

    impl Process<TestMsg> for Echo {
        fn on_start(&mut self, ctx: &mut Context<TestMsg>) {
            if let Some(peer) = self.peer {
                ctx.send(peer, TestMsg(1));
            }
            ctx.set_timer(prestige_sim::SimDuration::from_ms(5.0), 7);
        }
        fn on_message(&mut self, from: Actor, message: TestMsg, ctx: &mut Context<TestMsg>) {
            self.received.push(message.0);
            if message.0 < 10 {
                ctx.send(from, TestMsg(message.0 + 1));
            }
        }
        fn on_timer(&mut self, _id: TimerId, tag: u64, _ctx: &mut Context<TestMsg>) {
            assert_eq!(tag, 7);
            self.ticks += 1;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn server(i: u32) -> Actor {
        Actor::Server(ServerId(i))
    }

    #[test]
    fn two_nodes_ping_pong_over_loopback_runtime() {
        let net: LoopbackNet<TestMsg> = LoopbackNet::new();
        let t0 = net.endpoint(server(0));
        let t1 = net.endpoint(server(1));
        let a = NodeHandle::spawn(
            Box::new(Echo {
                peer: Some(server(1)),
                received: vec![],
                ticks: 0,
            }),
            Box::new(t0),
            1,
        );
        let b = NodeHandle::spawn(
            Box::new(Echo {
                peer: None,
                received: vec![],
                ticks: 0,
            }),
            Box::new(t1),
            1,
        );

        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let done = a
                .inspect_as::<Echo, _, _>(|e| e.received.contains(&10) && e.ticks >= 1)
                .unwrap_or(false);
            if done || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }

        let a_node = a.stop().expect("node a returned");
        let b_node = b.stop().expect("node b returned");
        let a_echo = a_node.as_any().downcast_ref::<Echo>().unwrap();
        let b_echo = b_node.as_any().downcast_ref::<Echo>().unwrap();
        // a sent 1; b received odd numbers, a received even numbers up to 10.
        assert_eq!(a_echo.received, vec![2, 4, 6, 8, 10]);
        assert_eq!(b_echo.received, vec![1, 3, 5, 7, 9]);
        assert!(a_echo.ticks >= 1, "5 ms timer must have fired");
    }

    /// Timers must fire even when no messages arrive, and cancellation must
    /// suppress firing.
    struct TimerProbe {
        fired: Vec<u64>,
    }

    impl Process<TestMsg> for TimerProbe {
        fn on_start(&mut self, ctx: &mut Context<TestMsg>) {
            let keep = ctx.set_timer(prestige_sim::SimDuration::from_ms(10.0), 1);
            let _ = keep;
            let cancel_me = ctx.set_timer(prestige_sim::SimDuration::from_ms(15.0), 2);
            ctx.cancel_timer(cancel_me);
            ctx.set_timer(prestige_sim::SimDuration::from_ms(20.0), 3);
        }
        fn on_message(&mut self, _f: Actor, _m: TestMsg, _ctx: &mut Context<TestMsg>) {}
        fn on_timer(&mut self, _id: TimerId, tag: u64, _ctx: &mut Context<TestMsg>) {
            self.fired.push(tag);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn timers_fire_in_order_and_respect_cancellation() {
        let net: LoopbackNet<TestMsg> = LoopbackNet::new();
        let handle = NodeHandle::spawn(
            Box::new(TimerProbe { fired: vec![] }),
            Box::new(net.endpoint(server(0))),
            3,
        );
        std::thread::sleep(Duration::from_millis(80));
        let node = handle.stop().expect("node returned");
        let probe = node.as_any().downcast_ref::<TimerProbe>().unwrap();
        assert_eq!(probe.fired, vec![1, 3], "tag 2 was cancelled");
    }
    /// A hand-fed [`JobSource`]: completions are queued by the test, and
    /// `outstanding` stands for a job still running somewhere.
    #[derive(Default)]
    struct FakeSource {
        done: Mutex<VecDeque<(u64, bool)>>,
        outstanding: AtomicUsize,
        polls: AtomicU64,
    }

    impl JobSource for FakeSource {
        fn try_done(&self) -> Option<(u64, bool)> {
            self.polls.fetch_add(1, Ordering::Relaxed);
            self.done.lock().unwrap().pop_front()
        }
        fn pending(&self) -> usize {
            self.outstanding.load(Ordering::Relaxed)
        }
    }

    /// Records every completion it is handed; never sends or arms a timer.
    struct JobProbe {
        completions: Vec<(u64, bool)>,
    }

    impl Process<TestMsg> for JobProbe {
        fn on_start(&mut self, _ctx: &mut Context<TestMsg>) {}
        fn on_message(&mut self, _f: Actor, _m: TestMsg, _ctx: &mut Context<TestMsg>) {}
        fn on_timer(&mut self, _id: TimerId, _tag: u64, _ctx: &mut Context<TestMsg>) {}
        fn on_job_complete(&mut self, token: u64, ok: bool, _ctx: &mut Context<TestMsg>) {
            self.completions.push((token, ok));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn job_completions_arrive_in_order_and_a_pending_source_caps_the_wait() {
        let source = Arc::new(FakeSource::default());
        // More than one burst, so the bounded drain must resume where it
        // stopped.
        let expected: Vec<(u64, bool)> =
            (0..JOB_BURST as u64 + 5).map(|t| (t, t % 3 != 0)).collect();
        source.done.lock().unwrap().extend(expected.iter().copied());
        source.outstanding.store(1, Ordering::Relaxed);

        let net: LoopbackNet<TestMsg> = LoopbackNet::new();
        let handle = NodeHandle::spawn_instrumented(
            Box::new(JobProbe {
                completions: vec![],
            }),
            Box::new(net.endpoint(server(0))),
            5,
            vec![Arc::clone(&source) as Arc<dyn JobSource>],
            None,
        );

        let deadline = Instant::now() + Duration::from_secs(20);
        while !source.done.lock().unwrap().is_empty() {
            assert!(Instant::now() < deadline, "completions never drained");
            std::thread::yield_now();
        }

        // No message and no timer ever wakes this node, so from here each
        // poll is one full transport wait. With a job outstanding that wait
        // is `JOB_POLL_TICK`: fifty of them fit many times over in half the
        // time fifty idle ticks would take.
        let polls = 50;
        let start = Instant::now();
        let from = source.polls.load(Ordering::Relaxed);
        while source.polls.load(Ordering::Relaxed) < from + polls {
            assert!(
                start.elapsed() < IDLE_TICK * polls as u32 / 2,
                "a pending source must cap the loop's wait"
            );
            std::thread::yield_now();
        }

        let node = handle.stop().expect("node returned");
        let probe = node.as_any().downcast_ref::<JobProbe>().unwrap();
        assert_eq!(probe.completions, expected);
    }
}
