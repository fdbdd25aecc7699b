//! Active view change under a leader crash — the paper's motivating scenario.
//!
//! Run with `cargo run --release --example leader_failure`.
//!
//! The initial leader (S1) is crashed two seconds into the run. Clients stop
//! receiving notifications, complain, the followers confirm the failure
//! (`ConfVC`/`ReVC` → conf_QC), campaign with reputation-determined work, and
//! an up-to-date correct server is elected — no fixed rotation schedule, no
//! handover to an unavailable server. The example prints the timeline of
//! views and throughput before and after the crash.

use prestigebft::prelude::*;

fn main() {
    // Fast failure detection (the scenario default: `[300, 600]` ms timers,
    // 400 ms client patience) so the example's timeline is easy to read.
    let scenario = Scenario {
        seed: 7,
        batch_size: 100,
        concurrency: 80,
        network: Link::LAN,
        ..Scenario::default()
    };
    let n = scenario.servers;
    let mut cluster = SimCluster::new(&scenario);
    let sim = &mut cluster.sim;

    println!("== PrestigeBFT under a leader crash ==\n");
    let observe = |sim: &Simulation<Message>, label: &str| {
        let s2: &PrestigeServer = sim.node_as(Actor::Server(ServerId(1))).unwrap();
        println!(
            "[{label}] view = {}, leader = {}, committed tx = {}, view changes confirmed = {}",
            s2.current_view(),
            s2.current_leader(),
            s2.stats().committed_tx,
            s2.stats().view_changes_confirmed,
        );
    };

    sim.run_until(SimTime::from_secs(2.0));
    observe(sim, "t = 2 s, before crash");

    println!("\n>>> crashing the leader S1 <<<\n");
    sim.crash(Actor::Server(ServerId(0)));

    for t in [3.0, 4.0, 6.0, 10.0] {
        sim.run_until(SimTime::from_secs(t));
        observe(sim, &format!("t = {t} s"));
    }

    let s2: &PrestigeServer = sim.node_as(Actor::Server(ServerId(1))).unwrap();
    println!(
        "\nnew leader: {} (elected in {}, never the crashed S1)",
        s2.current_leader(),
        s2.current_view()
    );
    assert!(
        s2.current_view() > View(1),
        "no view installed after the crash"
    );
    assert_ne!(
        s2.current_leader(),
        ServerId(0),
        "the crashed S1 still leads"
    );
    println!(
        "reputation penalties on S2's books: {:?}",
        (0..n)
            .map(|i| (
                format!("{}", ServerId(i)),
                s2.store().current_rp(ServerId(i))
            ))
            .collect::<Vec<_>>()
    );
}
