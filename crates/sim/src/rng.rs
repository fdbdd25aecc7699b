//! Deterministic randomness for the simulator.
//!
//! Every run of an experiment is fully determined by a single `u64` seed: the
//! simulation RNG, per-node derived seeds, latency jitter, timeout
//! randomization, and workload generation all flow from it. That determinism
//! is what makes figures regenerable and failures debuggable.
//!
//! Both hosts derive their streams from the seed the same way: one per actor
//! ([`SimRng::for_actor`], timers and timeout randomization) and one per
//! directed link ([`SimRng::for_link`], loss and delay). A message more on
//! one link therefore moves no draw on any other link or node.
//!
//! Besides uniform sampling (re-exported from `rand`), this module provides a
//! normal distribution via the Box–Muller transform — needed for the paper's
//! netem emulation of `d = 10 ± 5 ms` delays "at normal distribution" — so no
//! extra dependency on `rand_distr` is required.

use prestige_types::Actor;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The simulator's random number generator.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates an RNG from a seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// The stream of one actor's own draws (its timers), from the run's seed.
    pub fn for_actor(seed: u64, actor: Actor) -> SimRng {
        SimRng::new(seed).derive(salt(actor))
    }

    /// The stream of the directed link `from -> to` (its loss and delay
    /// draws), from the run's seed: a child of the sender's stream.
    pub fn for_link(seed: u64, from: Actor, to: Actor) -> SimRng {
        SimRng::for_actor(seed, from).derive(salt(to))
    }

    /// Derives an independent child RNG, e.g. one per node, so adding a node
    /// does not perturb the random streams of the others.
    pub fn derive(&self, salt: u64) -> SimRng {
        // Mix the salt with fresh output of a clone so children differ even
        // for equal salts of different parents.
        let mut probe = self.inner.clone();
        let base = probe.next_u64();
        SimRng::new(base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform sample in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        self.inner.gen_range(lo..hi)
    }

    /// Uniform integer sample in `[lo, hi)`. Returns `lo` when empty.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        self.inner.gen_range(lo..hi)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.inner.gen_bool(p)
    }

    /// Normal sample with the given mean and standard deviation (Box–Muller).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        if std_dev <= 0.0 {
            return mean;
        }
        let u1: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.inner.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// Exponential sample with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }

    /// Access to the underlying `rand::Rng` for callers that need other
    /// distributions (e.g. the PoW solver).
    pub fn rng(&mut self) -> &mut impl Rng {
        &mut self.inner
    }
}

/// An actor's stream salt: a server's id, or a client's id above 2^32, so the
/// two never collide.
fn salt(actor: Actor) -> u64 {
    match actor {
        Actor::Server(s) => s.0 as u64,
        Actor::Client(c) => 0x1_0000_0000 + c.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prestige_types::{ClientId, ServerId};

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.uniform_u64(0, 1000), b.uniform_u64(0, 1000));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let va: Vec<u64> = (0..10).map(|_| a.uniform_u64(0, 1_000_000)).collect();
        let vb: Vec<u64> = (0..10).map(|_| b.uniform_u64(0, 1_000_000)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn derived_children_are_independent_and_deterministic() {
        let parent = SimRng::new(42);
        let mut c1 = parent.derive(1);
        let mut c2 = parent.derive(2);
        let mut c1_again = parent.derive(1);
        assert_eq!(c1.uniform_u64(0, 1 << 30), c1_again.uniform_u64(0, 1 << 30));
        let s1: Vec<u64> = (0..5).map(|_| c1.uniform_u64(0, 1 << 30)).collect();
        let s2: Vec<u64> = (0..5).map(|_| c2.uniform_u64(0, 1 << 30)).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn actor_streams_are_pinned() {
        // The first draws of `SimRng::new(7).derive(salt)` before the actor
        // streams had a constructor: every timer draw on both hosts starts
        // from these.
        let pinned = [
            (
                Actor::Server(ServerId(2)),
                [
                    0xe63b_7c7f_256d_e304,
                    0x4610_f338_7cca_f930,
                    0x7a34_c2bd_a66e_772c,
                ],
            ),
            (
                Actor::Client(ClientId(1)),
                [
                    0xae32_f554_8fec_c28a,
                    0xdf18_9d4a_eeac_ce2e,
                    0x3acc_e0b4_61b9_07f0,
                ],
            ),
        ];
        for (actor, draws) in pinned {
            let mut rng = SimRng::for_actor(7, actor);
            let got: Vec<u64> = (0..3).map(|_| rng.rng().next_u64()).collect();
            assert_eq!(got, draws, "{actor:?}");
        }
    }

    #[test]
    fn link_streams_are_directed_and_apart_from_actor_streams() {
        let (a, b) = (Actor::Server(ServerId(0)), Actor::Client(ClientId(0)));
        let first = |mut rng: SimRng| rng.rng().next_u64();
        let ab = first(SimRng::for_link(3, a, b));
        assert_eq!(ab, first(SimRng::for_link(3, a, b)));
        assert_ne!(ab, first(SimRng::for_link(3, b, a)));
        assert_ne!(ab, first(SimRng::for_link(4, a, b)));
        assert_ne!(ab, first(SimRng::for_actor(3, a)));
        assert_ne!(ab, first(SimRng::for_actor(3, b)));
    }

    #[test]
    fn normal_distribution_moments() {
        let mut rng = SimRng::new(3);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 5.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.2, "mean was {mean}");
        assert!((var.sqrt() - 5.0).abs() < 0.2, "std was {}", var.sqrt());
    }

    #[test]
    fn degenerate_parameters() {
        let mut rng = SimRng::new(4);
        assert_eq!(rng.uniform(5.0, 5.0), 5.0);
        assert_eq!(rng.uniform_u64(9, 3), 9);
        assert_eq!(rng.normal(3.0, 0.0), 3.0);
        assert_eq!(rng.exponential(0.0), 0.0);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn exponential_mean_close() {
        let mut rng = SimRng::new(5);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.2, "mean was {mean}");
    }
}
