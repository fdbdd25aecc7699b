//! The network model: latency distributions, bandwidth, loss, partitions.
//!
//! The paper's testbed is a cloud LAN with ~400 MB/s TCP bandwidth and < 2 ms
//! raw latency, optionally inflated by netem to `10 ± 5 ms` normally
//! distributed delays (§6). This module reproduces those knobs (the presets
//! are scenario links, `prestige_workloads::Link::{LAN, NETEM_D10}`):
//!
//! * **latency** — per-message propagation delay sampled from a configurable
//!   distribution,
//! * **bandwidth** — per-sender serialization delay `size / bandwidth`; a
//!   sender's messages queue behind each other at its NIC, which is what
//!   produces the saturation elbows of Figure 6 under large batches,
//! * **loss** — independent per-message drop probability,
//! * **partitions** — directed link blocking between pairs of actors.

use crate::rng::SimRng;
use crate::time::SimDuration;
use prestige_types::Actor;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Propagation-latency distribution for a link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Always exactly `ms` milliseconds.
    Constant {
        /// The fixed one-way delay (ms).
        ms: f64,
    },
    /// Uniform in `[lo_ms, hi_ms)`.
    Uniform {
        /// Lower bound (ms).
        lo_ms: f64,
        /// Upper bound (ms).
        hi_ms: f64,
    },
    /// Normally distributed with the given mean and standard deviation,
    /// clamped at `min_ms` (netem-style `10 ± 5 ms`).
    Normal {
        /// Mean delay (ms).
        mean_ms: f64,
        /// Standard deviation (ms).
        std_ms: f64,
        /// Clamp floor (ms).
        min_ms: f64,
    },
}

impl LatencyModel {
    /// Samples a one-way propagation delay.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        let ms = match self {
            LatencyModel::Constant { ms } => *ms,
            LatencyModel::Uniform { lo_ms, hi_ms } => rng.uniform(*lo_ms, *hi_ms),
            LatencyModel::Normal {
                mean_ms,
                std_ms,
                min_ms,
            } => rng.normal(*mean_ms, *std_ms).max(*min_ms),
        };
        SimDuration::from_ms(ms.max(0.0))
    }

    /// The mean of the distribution (for planning and reporting).
    pub fn mean_ms(&self) -> f64 {
        match self {
            LatencyModel::Constant { ms } => *ms,
            LatencyModel::Uniform { lo_ms, hi_ms } => (lo_ms + hi_ms) / 2.0,
            LatencyModel::Normal { mean_ms, .. } => *mean_ms,
        }
    }
}

/// Full network configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Propagation latency model.
    pub latency: LatencyModel,
    /// Per-sender NIC bandwidth in bytes per second; `f64::INFINITY` disables
    /// serialization delay.
    pub bandwidth_bytes_per_sec: f64,
    /// Independent probability that any given message is lost.
    pub drop_probability: f64,
}

impl NetworkConfig {
    /// Serialization (transmission) delay of `size` bytes at the configured
    /// bandwidth.
    pub fn serialization_delay(&self, size: usize) -> SimDuration {
        if !self.bandwidth_bytes_per_sec.is_finite() || self.bandwidth_bytes_per_sec <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs(size as f64 / self.bandwidth_bytes_per_sec)
    }

    /// Samples the propagation latency for one message.
    pub fn propagation_delay(&self, rng: &mut SimRng) -> SimDuration {
        self.latency.sample(rng)
    }

    /// Whether a given message should be dropped.
    pub fn should_drop(&self, rng: &mut SimRng) -> bool {
        rng.chance(self.drop_probability)
    }
}

/// Directed link blocking (network partitions) and crashed-node tracking.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkState {
    blocked: HashSet<(Actor, Actor)>,
    down: HashSet<Actor>,
}

impl LinkState {
    /// Creates a fully connected link state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Blocks traffic from `a` to `b` (one direction).
    pub fn block(&mut self, a: Actor, b: Actor) {
        self.blocked.insert((a, b));
    }

    /// Blocks traffic in both directions between `a` and `b`.
    pub fn block_both(&mut self, a: Actor, b: Actor) {
        self.block(a, b);
        self.block(b, a);
    }

    /// Restores traffic from `a` to `b`.
    pub fn unblock(&mut self, a: Actor, b: Actor) {
        self.blocked.remove(&(a, b));
    }

    /// Restores traffic in both directions.
    pub fn unblock_both(&mut self, a: Actor, b: Actor) {
        self.unblock(a, b);
        self.unblock(b, a);
    }

    /// Removes every partition.
    pub fn heal_all(&mut self) {
        self.blocked.clear();
    }

    /// Marks an actor as crashed: it neither sends nor receives.
    pub fn crash(&mut self, a: Actor) {
        self.down.insert(a);
    }

    /// Brings a crashed actor back.
    pub fn recover(&mut self, a: Actor) {
        self.down.remove(&a);
    }

    /// Whether an actor is currently crashed.
    pub fn is_down(&self, a: Actor) -> bool {
        self.down.contains(&a)
    }

    /// Whether a message from `a` to `b` can currently be delivered.
    pub fn can_deliver(&self, a: Actor, b: Actor) -> bool {
        !self.is_down(a) && !self.is_down(b) && !self.blocked.contains(&(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prestige_types::ServerId;

    fn s(i: u32) -> Actor {
        Actor::Server(ServerId(i))
    }

    #[test]
    fn constant_latency_is_exact() {
        let mut rng = SimRng::new(1);
        let m = LatencyModel::Constant { ms: 3.0 };
        assert!((m.sample(&mut rng).as_ms() - 3.0).abs() < 1e-9);
        assert_eq!(m.mean_ms(), 3.0);
    }

    #[test]
    fn uniform_latency_within_bounds() {
        let mut rng = SimRng::new(2);
        let m = LatencyModel::Uniform {
            lo_ms: 1.0,
            hi_ms: 2.0,
        };
        for _ in 0..1000 {
            let d = m.sample(&mut rng).as_ms();
            assert!((1.0..2.0).contains(&d));
        }
    }

    #[test]
    fn normal_latency_clamps_at_floor() {
        let mut rng = SimRng::new(3);
        let m = LatencyModel::Normal {
            mean_ms: 1.0,
            std_ms: 10.0,
            min_ms: 0.5,
        };
        for _ in 0..1000 {
            assert!(m.sample(&mut rng).as_ms() >= 0.5);
        }
    }

    #[test]
    fn netem_profile_mean_close_to_ten() {
        let mut rng = SimRng::new(4);
        let m = LatencyModel::Normal {
            mean_ms: 11.0,
            std_ms: 5.0,
            min_ms: 0.5,
        };
        let n = 5000;
        let mean: f64 = (0..n).map(|_| m.sample(&mut rng).as_ms()).sum::<f64>() / n as f64;
        assert!((mean - 11.0).abs() < 0.5, "mean was {mean}");
    }

    #[test]
    fn serialization_delay_scales_with_size_and_bandwidth() {
        let net = NetworkConfig {
            latency: LatencyModel::Constant { ms: 0.0 },
            bandwidth_bytes_per_sec: 1000.0,
            drop_probability: 0.0,
        };
        assert!((net.serialization_delay(500).as_secs() - 0.5).abs() < 1e-9);
        let infinite = NetworkConfig {
            bandwidth_bytes_per_sec: f64::INFINITY,
            ..net
        };
        assert_eq!(infinite.serialization_delay(1_000_000), SimDuration::ZERO);
    }

    #[test]
    fn drop_probability_behaviour() {
        let mut rng = SimRng::new(5);
        let lossless = NetworkConfig {
            latency: LatencyModel::Constant { ms: 1.0 },
            bandwidth_bytes_per_sec: f64::INFINITY,
            drop_probability: 0.0,
        };
        assert!(!lossless.should_drop(&mut rng));
        let lossy = NetworkConfig {
            drop_probability: 1.0,
            ..lossless
        };
        assert!(lossy.should_drop(&mut rng));
    }

    #[test]
    fn link_state_partitions_and_crashes() {
        let mut links = LinkState::new();
        assert!(links.can_deliver(s(0), s(1)));
        links.block(s(0), s(1));
        assert!(!links.can_deliver(s(0), s(1)));
        assert!(links.can_deliver(s(1), s(0)), "blocking is directional");
        links.block_both(s(2), s(3));
        assert!(!links.can_deliver(s(3), s(2)));
        links.unblock_both(s(2), s(3));
        assert!(links.can_deliver(s(3), s(2)));
        links.crash(s(1));
        assert!(links.is_down(s(1)));
        assert!(!links.can_deliver(s(1), s(0)));
        assert!(!links.can_deliver(s(2), s(1)));
        links.recover(s(1));
        links.unblock(s(0), s(1));
        links.heal_all();
        assert!(links.can_deliver(s(0), s(1)));
    }
}
