//! The reputation-penalty proof-of-work puzzle (§4.2.2, §4.2.4).
//!
//! A redeemer campaigning for a new view must find a nonce `nc` such that
//! `Hash(txBlock, nc)` has a prefix of `rp` zero units, where `rp` is its
//! reputation penalty. With SHA-256 and one zero *byte* per penalty point the
//! per-attempt success probability is `2^(-8·rp)` — negligible work for
//! correct servers (rp < 5, under 20 ms in the paper) and hours for heavily
//! penalized attackers (rp > 8).
//!
//! Every server runs the *modeled* puzzle ([`PowSolver::PAPER_MODEL`]): the
//! number of attempts is drawn from the geometric/exponential distribution
//! with mean `2^(8·rp)` and converted into time through a hash rate. The
//! solution carries a deterministic stand-in hash result that any verifier
//! recomputes with one hash (O(1), as voting criterion C5 demands), so the
//! verifiability property P3 is preserved inside the simulation while
//! Figure 12's exponential attacker cost is reproduced without hours of real
//! CPU time.

use crate::hash::hash_pair;
use prestige_types::{Digest, ProtocolError, Result};
use rand::Rng;

/// The puzzle a redeemer must solve: bound to its latest committed txBlock
/// digest and its reputation penalty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowPuzzle {
    /// Digest of the redeemer's latest committed txBlock (the puzzle input,
    /// which also binds the work to the campaigner's log position).
    pub block_digest: Digest,
    /// The reputation penalty, i.e. the number of required leading zero units.
    /// Negative penalties are clamped to zero difficulty.
    pub rp: u32,
}

impl PowPuzzle {
    /// Creates a puzzle from a (possibly signed) reputation penalty.
    pub fn new(block_digest: Digest, rp: i64) -> Self {
        PowPuzzle {
            block_digest,
            rp: rp.max(0) as u32,
        }
    }
}

/// A claimed puzzle solution carried in `Camp` messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowSolution {
    /// The nonce `nc` the redeemer found.
    pub nonce: u64,
    /// The resulting hash `hr = Hash(txBlock, nc)`.
    pub hash_result: Digest,
}

/// Solves and verifies reputation puzzles under the paper's byte-prefix
/// rule, sampling the attempt count and converting it to simulated time at
/// `hash_rate` hashes per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowSolver {
    /// Simulated hash throughput (hashes / second).
    pub hash_rate: f64,
}

impl PowSolver {
    /// The puzzle every server solves, at the 10^7 SHA-256 attempts per
    /// second of one core of the paper's 2.40 GHz Skylake VMs.
    pub const PAPER_MODEL: PowSolver = PowSolver { hash_rate: 1.0e7 };

    /// Expected number of hash attempts for a penalty of `rp`.
    pub fn expected_attempts(&self, rp: u32) -> f64 {
        2f64.powi((8 * rp) as i32)
    }

    /// Expected solve time in milliseconds for a penalty of `rp`.
    pub fn expected_solve_ms(&self, rp: u32) -> f64 {
        self.attempts_to_ms(self.expected_attempts(rp))
    }

    /// Solves the puzzle. Returns the solution together with the *cost*:
    /// the sampled number of hash attempts.
    pub fn solve<R: Rng + ?Sized>(&self, puzzle: &PowPuzzle, rng: &mut R) -> (PowSolution, f64) {
        let nonce: u64 = rng.gen();
        let hr = Self::modeled_result(puzzle, nonce);
        // Number of attempts until first success of a Bernoulli trial with
        // probability p = 2^-(8 rp): exponential approximation
        // attempts = -ln(U) / p, which matches the geometric mean 1/p.
        let p = 2f64.powi(-((8 * puzzle.rp) as i32));
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let attempts = (-u.ln() / p).max(1.0);
        (
            PowSolution {
                nonce,
                hash_result: hr,
            },
            attempts,
        )
    }

    /// Converts an attempt count into solve time (milliseconds) at the
    /// solver's hash rate.
    pub fn attempts_to_ms(&self, attempts: f64) -> f64 {
        attempts / self.hash_rate * 1000.0
    }

    /// Verifies a claimed solution against the puzzle: recompute one hash and
    /// check the required prefix (criterion C5). Cost O(1), as in the paper.
    pub fn verify(&self, puzzle: &PowPuzzle, solution: &PowSolution) -> Result<()> {
        if Self::modeled_result(puzzle, solution.nonce) != solution.hash_result {
            return Err(ProtocolError::InvalidPow {
                required: puzzle.rp,
                found: solution.hash_result.leading_zero_bytes(),
            });
        }
        Ok(())
    }

    /// The deterministic stand-in hash result: the hash of
    /// (block digest, nonce) with the first `rp` bytes forced to zero. Any
    /// verifier can recompute it with a single hash, preserving property P3.
    fn modeled_result(puzzle: &PowPuzzle, nonce: u64) -> Digest {
        let mut hr = hash_pair(puzzle.block_digest.as_ref(), &nonce.to_be_bytes());
        let zeros = (puzzle.rp as usize).min(32);
        for b in hr.0.iter_mut().take(zeros) {
            *b = 0;
        }
        hr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn digest(tag: u8) -> Digest {
        Digest([tag; 32])
    }

    #[test]
    fn modeled_solver_round_trip_and_exponential_cost() {
        let solver = PowSolver::PAPER_MODEL;
        let mut rng = StdRng::seed_from_u64(5);
        let cheap = PowPuzzle::new(digest(2), 1);
        let dear = PowPuzzle::new(digest(2), 6);
        let (sol_cheap, a_cheap) = solver.solve(&cheap, &mut rng);
        let (sol_dear, a_dear) = solver.solve(&dear, &mut rng);
        solver.verify(&cheap, &sol_cheap).unwrap();
        solver.verify(&dear, &sol_dear).unwrap();
        // rp=6 expects ~2^48 attempts vs ~2^8 for rp=1: enormously larger.
        assert!(a_dear > a_cheap * 1e6);
    }

    #[test]
    fn modeled_verify_rejects_tampered_result() {
        let solver = PowSolver::PAPER_MODEL;
        let puzzle = PowPuzzle::new(digest(3), 2);
        let mut rng = StdRng::seed_from_u64(6);
        let (mut solution, _) = solver.solve(&puzzle, &mut rng);
        solution.hash_result.0[31] ^= 0xff;
        assert!(solver.verify(&puzzle, &solution).is_err());
    }

    #[test]
    fn modeled_verify_rejects_wrong_penalty_claim() {
        // A solution computed for rp=1 cannot be passed off as satisfying rp=4
        // because the forced-zero prefix differs.
        let solver = PowSolver::PAPER_MODEL;
        let mut rng = StdRng::seed_from_u64(7);
        let (solution, _) = solver.solve(&PowPuzzle::new(digest(4), 1), &mut rng);
        assert!(solver
            .verify(&PowPuzzle::new(digest(4), 4), &solution)
            .is_err());
    }

    #[test]
    fn expected_attempts_match_paper_probability() {
        let solver = PowSolver::PAPER_MODEL;
        assert_eq!(solver.expected_attempts(0), 1.0);
        assert_eq!(solver.expected_attempts(1), 256.0);
        assert_eq!(solver.expected_attempts(2), 65_536.0);
        // Expected solve time grows by 256× per penalty point.
        let t1 = solver.expected_solve_ms(1);
        let t2 = solver.expected_solve_ms(2);
        assert!((t2 / t1 - 256.0).abs() < 1e-9);
    }

    #[test]
    fn negative_penalty_clamps_to_zero() {
        let p = PowPuzzle::new(digest(0), -5);
        assert_eq!(p.rp, 0);
    }
}
