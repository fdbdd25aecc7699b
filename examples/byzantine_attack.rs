//! Repeated view-change attacks (F4+F2) and the reputation defense.
//!
//! Run with `cargo run --release --example byzantine_attack`.
//!
//! One of the four servers campaigns for leadership at every opportunity and
//! goes quiet once elected — the attack an active view-change protocol must
//! withstand. The example prints, second by second, the attacker's reputation
//! penalty, the expected cost of its next campaign puzzle, and the cluster's
//! throughput, showing how the reputation engine prices the attacker out and
//! throughput recovers (Figures 10–13 of the paper in miniature).

use prestigebft::prelude::*;

fn main() {
    // Rotations every 3 s, fast timers, and one F4+F2 attacker: the last
    // server, where the fault plan puts it.
    let scenario = Scenario {
        seed: 99,
        batch_size: 100,
        concurrency: 80,
        rotation_ms: 3000,
        network: Link::LAN,
        fault_plan: FaultPlan::RepeatedVcQuiet {
            count: 1,
            strategy: AttackStrategy::Always,
        },
        ..Scenario::default()
    };
    let attacker = ServerId(scenario.servers - 1);
    let mut cluster = SimCluster::new(&scenario);
    let sim = &mut cluster.sim;

    println!("== Repeated view-change attack by {attacker} (strategy S1, quiet when leading) ==\n");
    println!("time  view  leader  attacker_rp  next_puzzle_cost  cluster_tx");
    let mut last_tx = 0u64;
    for t in (2..=30).step_by(2) {
        sim.run_until(SimTime::from_secs(t as f64));
        let s1: &PrestigeServer = sim.node_as(Actor::Server(ServerId(0))).unwrap();
        let rp = s1.store().current_rp(attacker);
        let cost_ms = PowSolver::PAPER_MODEL.expected_solve_ms(rp.max(0) as u32);
        let cost = if cost_ms > 60_000.0 {
            format!("{:.1} min", cost_ms / 60_000.0)
        } else {
            format!("{cost_ms:.1} ms")
        };
        let tx = s1.stats().committed_tx;
        println!(
            "{:>3}s  {:>4}  {:>6}  {:>11}  {:>16}  {:>10} (+{})",
            t,
            s1.current_view().0,
            format!("{}", s1.current_leader()),
            rp,
            cost,
            tx,
            tx - last_tx
        );
        last_tx = tx;
    }

    let attacker_node: &PrestigeServer = sim.node_as(Actor::Server(attacker)).unwrap();
    println!(
        "\nattacker: {} campaigns, {} elections won, {:.1} s of cumulative puzzle work",
        attacker_node.stats().campaigns_started,
        attacker_node.stats().elections_won,
        attacker_node.stats().pow_ms_total / 1000.0
    );
    println!("the attacker's growing penalty makes every further campaign slower, so correct servers win the races and replication continues.");
}
