//! The node abstraction: protocol code as deterministic event handlers.
//!
//! A [`Process`] reacts to three things: simulation start, message delivery,
//! and timer expiration. All effects — sending messages, arming or cancelling
//! timers, charging CPU time — go through the [`Context`] handed to each
//! handler, which the runtime then turns into future events. Handlers never
//! block and never observe wall-clock time, so a run is a pure function of the
//! seed and configuration.

use crate::event::TimerId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use prestige_types::Actor;
use std::any::Any;

/// Buffered effects of one handler invocation.
///
/// This is the **driver contract**: any runtime — the deterministic simulator
/// in this crate or the real networking runtime in `prestige-net` — drives a
/// [`Process`] by constructing a [`Context`] over an `Effects` buffer,
/// invoking a handler, and then turning the buffered effects into reality
/// (simulated events or actual socket writes and OS timers). Protocol code
/// never sees which runtime it is on.
#[derive(Debug, Default)]
pub struct Effects<M> {
    /// Messages to transmit, in emission order. Broadcasts are kept as a
    /// single entry so the driving runtime can fan the payload out without
    /// cloning it per recipient (the real transport encodes it exactly once).
    pub emissions: Vec<Emission<M>>,
    /// Timers to arm: `(id, delay from now, protocol tag)`.
    pub timers: Vec<(TimerId, SimDuration, u64)>,
    /// Previously armed timers to cancel.
    pub cancels: Vec<TimerId>,
    /// CPU time consumed by the handler. The simulator turns this into
    /// processing delay; real runtimes may ignore it (real CPU time passes by
    /// itself) or export it as a metric.
    pub cpu: SimDuration,
}

/// One outbound transmission buffered by a handler.
#[derive(Debug)]
pub enum Emission<M> {
    /// A unicast message to one actor.
    Send(Actor, M),
    /// One payload addressed to many actors. The payload is stored once;
    /// runtimes decide how to fan it out (the simulator clones per delivery
    /// event, real transports serialize once and share the bytes).
    Broadcast(Vec<Actor>, M),
}

impl<M> Effects<M> {
    /// An empty effects buffer.
    pub fn new() -> Self {
        Effects {
            emissions: Vec::new(),
            timers: Vec::new(),
            cancels: Vec::new(),
            cpu: SimDuration::ZERO,
        }
    }

    /// Total number of individual messages buffered (a broadcast to `k`
    /// recipients counts as `k`).
    pub fn message_count(&self) -> usize {
        self.emissions
            .iter()
            .map(|e| match e {
                Emission::Send(..) => 1,
                Emission::Broadcast(tos, _) => tos.len(),
            })
            .sum()
    }
}

/// The handler-side view of the simulation: current time, identity, RNG, and
/// the ability to schedule effects.
pub struct Context<'a, M> {
    now: SimTime,
    me: Actor,
    rng: &'a mut SimRng,
    next_timer_id: &'a mut u64,
    outputs: &'a mut Effects<M>,
}

impl<'a, M> Context<'a, M> {
    /// Creates a handler context for one invocation. `now` is the driving
    /// runtime's current time, `next_timer_id` its monotonically increasing
    /// timer-id allocator, and `outputs` the buffer the handler's effects
    /// accumulate into. Part of the public driver contract (see [`Effects`]).
    pub fn new(
        now: SimTime,
        me: Actor,
        rng: &'a mut SimRng,
        next_timer_id: &'a mut u64,
        outputs: &'a mut Effects<M>,
    ) -> Self {
        Context {
            now,
            me,
            rng,
            next_timer_id,
            outputs,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's identity.
    pub fn me(&self) -> Actor {
        self.me
    }

    /// The node's deterministic RNG (derived from the simulation seed).
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Sends a message to another actor (delivery time is decided by the
    /// network model).
    pub fn send(&mut self, to: Actor, message: M) {
        self.outputs.emissions.push(Emission::Send(to, message));
    }

    /// Sends one message to every actor in `recipients`. The payload is
    /// buffered once — not cloned per recipient — so runtimes with an
    /// encode-once transport broadcast it with a single serialization.
    pub fn broadcast<I>(&mut self, recipients: I, message: M)
    where
        M: Clone,
        I: IntoIterator<Item = Actor>,
    {
        let recipients: Vec<Actor> = recipients.into_iter().collect();
        if recipients.is_empty() {
            return;
        }
        self.outputs
            .emissions
            .push(Emission::Broadcast(recipients, message));
    }

    /// Arms a timer that fires after `delay`; `tag` is returned to the handler
    /// so protocols can distinguish timer kinds. Returns the timer's id,
    /// usable with [`Context::cancel_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let id = TimerId(*self.next_timer_id);
        *self.next_timer_id += 1;
        self.outputs.timers.push((id, delay, tag));
        id
    }

    /// Cancels a previously armed timer (firing of a cancelled timer is
    /// silently discarded).
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.outputs.cancels.push(id);
    }

    /// Charges `duration` of CPU time to this node: subsequent deliveries to
    /// the node are pushed back accordingly, modeling processing saturation.
    pub fn charge_cpu(&mut self, duration: SimDuration) {
        self.outputs.cpu += duration;
    }

    /// Convenience: charge CPU specified in milliseconds.
    pub fn charge_cpu_ms(&mut self, ms: f64) {
        self.charge_cpu(SimDuration::from_ms(ms));
    }
}

/// The simulator's CPU cost model, in milliseconds: what PrestigeBFT and the
/// baselines charge through [`Context::charge_cpu_ms`] for the work every
/// protocol does, so both pay the same price for it. Real runtimes ignore
/// the charges.
pub mod cpu_cost {
    /// Handling one delivered message (decode, dispatch): 2 µs.
    pub const PER_MESSAGE_MS: f64 = 2.0e-3;
    /// Checking one signature, share or quorum certificate: 10 µs.
    pub const PER_VERIFY_MS: f64 = 10.0e-3;
    /// Hashing or validating one transaction of a batch: 0.4 µs, roughly one
    /// digest computation on the paper's Skylake vCPUs.
    pub const PER_TX_MS: f64 = 0.4e-3;
}

/// A protocol node driven by the simulator.
///
/// Implementations must also expose themselves as `Any` so experiment
/// harnesses can downcast and inspect node state (committed blocks, metrics)
/// after — or during — a run.
pub trait Process<M>: Any {
    /// Called once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut Context<M>) {}

    /// Called when a message addressed to this node is delivered.
    fn on_message(&mut self, from: Actor, message: M, ctx: &mut Context<M>);

    /// Called when a timer armed by this node fires (and was not cancelled).
    fn on_timer(&mut self, id: TimerId, tag: u64, ctx: &mut Context<M>);

    /// Called when a background job the node handed to the driving runtime
    /// completes. `token` is the caller-chosen identifier the job was
    /// submitted under and `ok` its verdict. No in-tree node submits such
    /// jobs and the deterministic simulator never delivers these, so the
    /// default is a no-op.
    fn on_job_complete(&mut self, _token: u64, _ok: bool, _ctx: &mut Context<M>) {}

    /// Upcast for inspection by harnesses.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for inspection by harnesses.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

#[cfg(test)]
mod tests {
    use super::*;
    use prestige_types::ServerId;

    struct Echo {
        received: Vec<u32>,
    }

    impl Process<u32> for Echo {
        fn on_message(&mut self, from: Actor, message: u32, ctx: &mut Context<u32>) {
            self.received.push(message);
            ctx.send(from, message + 1);
            ctx.charge_cpu_ms(0.5);
        }
        fn on_timer(&mut self, _id: TimerId, _tag: u64, _ctx: &mut Context<u32>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn context_buffers_effects() {
        let mut rng = SimRng::new(1);
        let mut next_id = 0;
        let mut outputs = Effects::new();
        let me = Actor::Server(ServerId(0));
        let mut ctx = Context::new(
            SimTime::from_ms(5.0),
            me,
            &mut rng,
            &mut next_id,
            &mut outputs,
        );

        assert_eq!(ctx.now(), SimTime::from_ms(5.0));
        assert_eq!(ctx.me(), me);
        ctx.send(Actor::Server(ServerId(1)), 7u32);
        ctx.broadcast((0..3).map(|i| Actor::Server(ServerId(i))), 9u32);
        let t = ctx.set_timer(SimDuration::from_ms(10.0), 42);
        ctx.cancel_timer(t);
        ctx.charge_cpu_ms(1.0);

        assert_eq!(outputs.emissions.len(), 2);
        assert_eq!(outputs.message_count(), 4);
        assert!(matches!(&outputs.emissions[1],
            Emission::Broadcast(tos, 9u32) if tos.len() == 3));
        assert_eq!(outputs.timers.len(), 1);
        assert_eq!(outputs.timers[0].2, 42);
        assert_eq!(outputs.cancels, vec![t]);
        assert!((outputs.cpu.as_ms() - 1.0).abs() < 1e-9);
        assert_eq!(next_id, 1);
    }

    #[test]
    fn process_as_any_downcasts() {
        let mut node = Echo { received: vec![] };
        let mut rng = SimRng::new(2);
        let mut next_id = 0;
        let mut outputs = Effects::new();
        let me = Actor::Server(ServerId(0));
        let mut ctx = Context::new(SimTime::ZERO, me, &mut rng, &mut next_id, &mut outputs);
        node.on_message(Actor::Server(ServerId(1)), 3, &mut ctx);

        let as_dyn: &dyn Process<u32> = &node;
        let echo = as_dyn.as_any().downcast_ref::<Echo>().unwrap();
        assert_eq!(echo.received, vec![3]);
        assert!(matches!(
            outputs.emissions.as_slice(),
            [Emission::Send(to, 4u32)] if *to == Actor::Server(ServerId(1))
        ));
    }
}
