//! `chaos_net` — the real-runtime host of a scenario file: run one of the
//! paper's Byzantine attack scenarios (F1–F5, S1/S2) against a *real*
//! PrestigeBFT cluster, composed with network chaos (delay, loss,
//! partitions) and crash-restarts, and judge it by the file's own
//! expectation.
//!
//! The scenario is declarative and shared: `prestige_workloads::scenario`
//! owns the one [`Scenario`] type, its text form, the expanded fault
//! timeline and the verdict function, and the vopr simulator runs the very
//! same files (`vopr replay scenarios/*.toml`). This binary launches the
//! cluster on real node runtimes over loopback, walks the timeline against
//! the wall clock — any number of `[[fault]]` windows, each healed at its
//! own time — samples per-node progress, hands the observations to
//! [`Scenario::judge`], and writes a JSON report:
//!
//! ```text
//! cargo run --release -p prestige-net --bin chaos_net -- \
//!     --scenario scenarios/f4_s1_partition.toml --out CHAOS_report.json
//! ```
//!
//! Exit status is non-zero when the verdict has a failure — for an
//! `[assert]` file:
//!
//! * **no-fork** — every pair of correct replicas agrees on the block digest
//!   at every sequence number both have committed (digest chaining makes the
//!   whole prefix identical);
//! * **recovery** — committed throughput over the trailing window is above
//!   the configured floor, and the commit count after the last fault window
//!   closes reaches the configured minimum;
//!
//! and for an `[expect] violation` reproducer, when the run does *not* show
//! that violation (this binary carries no canary, so a healthy build reports
//! "stayed clean" — what the run demonstrates is the timeline on real
//! runtimes).
//!
//! See `docs/ATTACKS.md` for the scenario vocabulary and the mapping to the
//! paper's experiments.

use prestige_core::LoopStage;
use prestige_metrics::Json;
use prestige_net::cluster::{LocalCluster, StoragePlan};
use prestige_net::config::wal_options;
use prestige_net::NetChaos;
use prestige_types::{Actor, ClientId, ClusterConfig, ServerId, TimeoutConfig, ViewChangePolicy};
use prestige_workloads::scenario::{
    Assertions, Cut, Expectation, FaultKind, Observations, Scenario, ServerObservation, Step,
    Timeline, Timeouts, Violated,
};
use std::time::{Duration, Instant};

fn cluster_config(scenario: &Scenario) -> ClusterConfig {
    let mut config = ClusterConfig::new(scenario.servers)
        .with_batch_size(scenario.batch_size)
        .with_payload_size(scenario.payload_size)
        .with_timeouts(match scenario.timeouts {
            Timeouts::Fast => TimeoutConfig::fast(),
            Timeouts::Default => TimeoutConfig::default(),
        })
        .with_pipeline_depth(scenario.pipeline_depth)
        .with_checkpoint_interval(scenario.checkpoint_interval);
    if scenario.rotation_ms > 0 {
        config.policy = ViewChangePolicy::Timing {
            interval_ms: scenario.rotation_ms as f64,
        };
    }
    config
}

/// Builds the cluster's storage plan when the scenario is durable. Without
/// an explicit `storage.dir`, a per-run temp directory is used (and wiped
/// first, so a rerun never replays a stale log).
fn storage_plan(scenario: &Scenario) -> Option<StoragePlan> {
    let settings = scenario.storage.as_ref()?;
    let root = match &settings.dir {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join(format!(
            "prestige-chaos-{}-{}",
            scenario.name.replace(['/', ' '], "_"),
            std::process::id()
        )),
    };
    let _ = std::fs::remove_dir_all(&root);
    Some(StoragePlan {
        root,
        options: wal_options(settings),
    })
}

/// Applies a `[lo, hi]` µs / ‰ link model: every delivery waits `lo` plus a
/// uniform draw from `[0, hi - lo]`.
fn set_network(chaos: &NetChaos, delay_lo_us: u64, delay_hi_us: u64, loss_permille: u32) {
    chaos.set_link_delay(
        Duration::from_micros(delay_lo_us),
        Duration::from_micros(delay_hi_us.saturating_sub(delay_lo_us)),
    );
    chaos.set_loss(loss_permille as f64 / 1000.0);
}

/// One timeline sample: elapsed ms, cluster-wide commits, and each server's
/// committed tx count (shows who stalls during the fault window).
struct Sample {
    t_ms: u64,
    total: u64,
    per_server: Vec<u64>,
}

fn sample(cluster: &LocalCluster, t_ms: u64, n: u32) -> Sample {
    Sample {
        t_ms,
        total: cluster.total_committed(),
        per_server: (0..n)
            .map(|i| {
                cluster
                    .server_stats(ServerId(i))
                    .map(|s| s.committed_tx)
                    .unwrap_or(0)
            })
            .collect(),
    }
}

struct Options {
    scenario: String,
    out: String,
    duration_override: Option<f64>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut scenario = None;
    let mut out = "CHAOS_report.json".to_string();
    let mut duration_override = None;
    let mut i = 1;
    while i < args.len() {
        let need = |name: &str| -> Result<&String, String> {
            args.get(i + 1).ok_or(format!("{name} needs a value"))
        };
        match args[i].as_str() {
            "--scenario" => scenario = Some(need("--scenario")?.clone()),
            "--out" => out = need("--out")?.clone(),
            "--duration" => {
                duration_override = Some(need("--duration")?.parse().map_err(|e| format!("{e}"))?)
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    Ok(Options {
        scenario: scenario.ok_or("missing --scenario")?,
        out,
        duration_override,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(message) => {
            eprintln!("chaos_net: {message}");
            eprintln!("usage: chaos_net --scenario <file.toml> [--out PATH] [--duration SECS]");
            std::process::exit(1);
        }
    };
    let text = match std::fs::read_to_string(&opts.scenario) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("chaos_net: reading {}: {e}", opts.scenario);
            std::process::exit(1);
        }
    };
    let mut scenario = match Scenario::from_toml(&text) {
        Ok(s) => s,
        Err(message) => {
            eprintln!("chaos_net: {}: {message}", opts.scenario);
            std::process::exit(1);
        }
    };
    if let Some(secs) = opts.duration_override {
        scenario.duration_ms = (secs * 1000.0) as u64;
    }

    match run(&scenario, &opts.out) {
        Ok(()) => {}
        Err(failures) => {
            for failure in &failures {
                eprintln!("chaos_net: FAILED: {failure}");
            }
            std::process::exit(1);
        }
    }
}

fn run(scenario: &Scenario, out_path: &str) -> Result<(), Vec<String>> {
    let n = scenario.servers;
    let behaviors = scenario.fault_plan.behaviors(n);
    let chaos = NetChaos::new();
    set_network(
        &chaos,
        scenario.delay_lo_us,
        scenario.delay_hi_us,
        scenario.loss_permille,
    );
    let crashes = scenario
        .faults
        .iter()
        .any(|f| matches!(f.kind, FaultKind::CrashRestart { .. }));
    if crashes && scenario.storage.is_none() {
        return Err(vec![
            "a crash_restart needs a [storage] section on the real runtime (the restart \
             replays the WAL); an empty one provisions a per-run temp directory"
                .to_string(),
        ]);
    }

    eprintln!(
        "chaos_net: scenario `{}` — n={n}, fault plan {:?}, delay {}–{} µs, loss {}‰, {} fault(s)",
        scenario.name,
        scenario.fault_plan,
        scenario.delay_lo_us,
        scenario.delay_hi_us,
        scenario.loss_permille,
        scenario.faults.len(),
    );
    let mut cluster = LocalCluster::launch_full(
        cluster_config(scenario),
        scenario.seed,
        scenario.clients,
        scenario.concurrency,
        &behaviors,
        Some(chaos.clone()),
        storage_plan(scenario),
    )
    .map_err(|e| vec![format!("launching the cluster: {e}")])?;

    // --- timeline: sample progress every 100 ms, apply each fault step ---
    let started = Instant::now();
    let elapsed_ms = || started.elapsed().as_millis() as u64;
    let mut timeline = Timeline::new(&scenario.faults);
    let mut series: Vec<Sample> = Vec::new();
    let mut next_sample_ms = 0u64;
    loop {
        let now_ms = elapsed_ms();
        if now_ms >= scenario.duration_ms {
            break;
        }
        while timeline.next_at_ms().is_some_and(|at| at <= now_ms) {
            // A `leader` target is whoever leads the view the first live
            // correct server is in, when the fault fires.
            let leader = || {
                cluster
                    .correct_servers()
                    .first()
                    .and_then(|&observer| cluster.view_of(observer))
                    .map_or(0, |(_, leader)| leader.0)
            };
            let (step, t) = timeline.pop(now_ms, leader).expect("a step is due");
            let target = ServerId(t);
            let me = [Actor::Server(target)];
            let others: Vec<Actor> = (0..n)
                .filter(|&i| i != t)
                .map(|i| Actor::Server(ServerId(i)))
                .chain((0..scenario.clients).map(|c| Actor::Client(ClientId(c))))
                .collect();
            match step {
                Step::Degrade { .. } | Step::RestoreNet => {
                    eprintln!("chaos_net: t={now_ms}ms {step:?}")
                }
                _ => eprintln!("chaos_net: t={now_ms}ms {step:?} s{t}"),
            }
            match step {
                Step::Block(Cut::Sym) => chaos.partition_between(&me, &others),
                Step::Block(Cut::Out) => chaos.partition_oneway(&me, &others),
                Step::Block(Cut::In) => chaos.partition_oneway(&others, &me),
                Step::Heal(Cut::Sym) => chaos.heal_between(&me, &others),
                Step::Heal(Cut::Out) => chaos.heal_oneway(&me, &others),
                Step::Heal(Cut::In) => chaos.heal_oneway(&others, &me),
                Step::Degrade {
                    delay_lo_us,
                    delay_hi_us,
                    loss_permille,
                } => set_network(&chaos, delay_lo_us, delay_hi_us, loss_permille),
                Step::RestoreNet => set_network(
                    &chaos,
                    scenario.delay_lo_us,
                    scenario.delay_hi_us,
                    scenario.loss_permille,
                ),
                Step::Crash { torn_records } => {
                    cluster.crash_server(target);
                    if torn_records > 0 {
                        match cluster.tear_wal_tail(target, torn_records as usize) {
                            Ok(torn) => eprintln!("chaos_net: tore {torn} WAL record(s) off s{t}"),
                            Err(e) => eprintln!("chaos_net: tearing s{t}'s WAL tail failed: {e}"),
                        }
                    }
                }
                Step::Restart => {
                    if let Err(e) = cluster.restart_server(target) {
                        eprintln!("chaos_net: restarting s{t} failed: {e}");
                    }
                }
            }
        }
        if now_ms >= next_sample_ms {
            series.push(sample(&cluster, now_ms, n));
            next_sample_ms = now_ms + 100;
        }
        let wake_ms = timeline
            .next_at_ms()
            .map_or(next_sample_ms, |at| at.min(next_sample_ms))
            .min(scenario.duration_ms);
        std::thread::sleep(Duration::from_millis(wake_ms.saturating_sub(elapsed_ms())));
    }
    let run_ms = elapsed_ms();
    series.push(sample(&cluster, run_ms, n));

    // --- gather ---------------------------------------------------------
    let correct = cluster.correct_servers();
    let fork_check = cluster.verify_no_fork(&correct);
    let observations = Observations {
        run_ms,
        series: series.iter().map(|s| (s.t_ms, s.total)).collect(),
        servers: (0..n)
            .map(|i| {
                let id = ServerId(i);
                let (view, leader) = cluster.view_of(id)?;
                Some(ServerObservation {
                    behavior: cluster.behavior_of(id),
                    stats: cluster.server_stats(id)?,
                    view: view.0,
                    leader: leader.0,
                    stable_checkpoint: cluster.stable_checkpoint_of(id)?,
                })
            })
            .collect(),
        violation: fork_check.as_ref().err().map(|message| Violated {
            invariant: "no_fork".to_string(),
            detail: message.clone(),
        }),
        windows_closed_ms: timeline.closed_ms().to_vec(),
    };
    let failures = scenario.judge(&observations);
    let recovery = observations.recovery(match &scenario.expect {
        Expectation::Assert(a) => a.recovery_window_s,
        Expectation::Violation(_) => Assertions::default().recovery_window_s,
    });
    if let Ok(prefix) = &fork_check {
        eprintln!(
            "chaos_net: no-fork holds across {} correct servers (identical up to sequence \
             {prefix})",
            correct.len()
        );
    }

    // --- report ---------------------------------------------------------
    let total_committed = observations.committed();
    let overall_tps = total_committed as f64 / (run_ms as f64 / 1000.0).max(1e-9);
    let reputations = correct
        .first()
        .and_then(|&observer| cluster.reputations_at(observer))
        .unwrap_or_default();
    let tips: Vec<u64> = (0..n)
        .map(|i| {
            cluster
                .committed_chain(ServerId(i))
                .and_then(|chain| chain.last().map(|(tip, _)| *tip))
                .unwrap_or(0)
        })
        .collect();
    let max_tip = tips.iter().copied().max().unwrap_or(0);

    let mut server_reports = Vec::new();
    for i in 0..n {
        let id = ServerId(i);
        let tip = tips[i as usize];
        let mut node = Json::obj();
        node.push("server", format!("s{i}"))
            .push("behavior", format!("{:?}", cluster.behavior_of(id)))
            .push(
                "role",
                cluster
                    .role_of(id)
                    .map(|r| Json::from(format!("{r:?}")))
                    .unwrap_or(Json::Null),
            )
            .push("latest_seq", tip)
            .push("commit_gap", max_tip.saturating_sub(tip));
        if let Some(seen) = &observations.servers[i as usize] {
            let stats = &seen.stats;
            node.push("view", seen.view)
                .push("committed_tx", stats.committed_tx)
                .push("committed_blocks", stats.committed_blocks)
                .push("views_installed", stats.views_installed)
                .push("elections_won", stats.elections_won)
                .push("campaigns_started", stats.campaigns_started)
                .push("camp_cert_refusals", stats.camp_cert_refusals)
                .push("sync_reqs_sent", stats.sync_reqs_sent)
                .push("election_retransmits", stats.election_retransmits)
                .push("double_assign_refused", stats.double_assign_refused)
                .push("verify_rejected", stats.verify_rejected)
                .push("checkpoint_count", stats.checkpoints_formed)
                .push("gc_pruned_keys", stats.gc_pruned_keys)
                .push("stable_checkpoint", seen.stable_checkpoint);
        }
        if let Some(storage) = cluster.storage_stats(id) {
            node.push("wal_bytes", storage.wal_bytes)
                .push("wal_records", storage.records)
                .push("fsyncs", storage.fsyncs)
                .push("wal_segments", storage.segments)
                .push("wal_pruned_segments", storage.pruned_segments)
                .push("wal_pruned_bytes", storage.pruned_bytes);
        }
        if let Some((_, rp)) = reputations.iter().find(|(s, _)| *s == id) {
            node.push("reputation_penalty", *rp);
        }
        server_reports.push(node);
    }

    let mut network_obj = Json::obj();
    network_obj
        .push("delay_lo_us", scenario.delay_lo_us)
        .push("delay_hi_us", scenario.delay_hi_us)
        .push("loss_permille", scenario.loss_permille);
    let mut faults = Vec::new();
    for (i, fault) in scenario.faults.iter().enumerate() {
        let mut f = Json::obj();
        f.push("kind", fault.kind.label())
            .push("at_ms", fault.at_ms)
            .push("window_ms", fault.kind.window_ms())
            .push(
                "server",
                timeline
                    .server_hit(i)
                    .map(|s| Json::from(format!("s{s}")))
                    .unwrap_or(Json::Null),
            )
            .push(
                "closed_ms",
                observations.windows_closed_ms[i]
                    .map(Json::UInt)
                    .unwrap_or(Json::Null),
            );
        faults.push(f);
    }

    let mut liveness = Vec::new();
    for s in &series {
        let mut entry = Json::obj();
        entry
            .push("t_ms", s.t_ms)
            .push("committed_total", s.total)
            .push(
                "per_server_committed",
                s.per_server
                    .iter()
                    .map(|&c| Json::from(c))
                    .collect::<Vec<_>>(),
            );
        liveness.push(entry);
    }

    // Merged event-loop stage profile across the live servers (the always-on
    // profiler costs <1% and answers "where did the chaos push the time?").
    let loop_snapshot = cluster.loop_profile();
    let mut stages_obj = Json::obj();
    for stage in LoopStage::ALL {
        let mut s = Json::obj();
        s.push("ns", loop_snapshot.stage_nanos(stage))
            .push("events", loop_snapshot.stage_events(stage));
        stages_obj.push(stage.name(), s);
    }
    let mut profile_obj = Json::obj();
    profile_obj
        .push("total_ns", loop_snapshot.total_nanos)
        .push("busy_ns", loop_snapshot.busy_nanos())
        .push("coverage", loop_snapshot.coverage())
        .push("stages", stages_obj);

    // Cluster-wide transport counters (loopback: TCP reactor counters stay
    // 0, the delivery counters still expose chaos-induced drops per run).
    let totals = cluster.transport_totals();
    let mut transport_obj = Json::obj();
    transport_obj
        .push("sent", totals.sent)
        .push("received", totals.received)
        .push("dropped", totals.dropped)
        .push("writev_calls", totals.writev_calls)
        .push("frames_coalesced", totals.frames_coalesced)
        .push("flushes_idle", totals.flushes_idle)
        .push("flushes_full", totals.flushes_full)
        .push("read_calls", totals.read_calls)
        .push("poll_calls", totals.poll_calls)
        .push("syscalls_per_frame", totals.syscalls_per_frame());

    let mut report = Json::obj();
    report
        .push("bench", "chaos_net")
        .push("scenario", scenario.name.as_str())
        .push("transport", "loopback+chaos")
        .push("transport_stats", transport_obj)
        .push("servers", n)
        .push("clients", scenario.clients)
        .push("concurrency", scenario.concurrency)
        .push("batch_size", scenario.batch_size)
        .push("seed", scenario.seed)
        .push("fault_plan", scenario.fault_plan.label())
        .push("fault_count", scenario.fault_plan.count())
        .push("network", network_obj)
        .push("faults", Json::Arr(faults))
        .push("durable", scenario.storage.is_some())
        .push("measured_seconds", run_ms as f64 / 1000.0)
        .push("committed_tx", total_committed)
        .push("tx_per_sec", overall_tps)
        .push("committed_after_heal", recovery.committed_after_faults)
        .push("recovery_window_s", recovery.window_s)
        .push("recovery_tx_per_sec", recovery.tps)
        .push("no_fork", fork_check.is_ok())
        .push(
            "identical_prefix_seq",
            match &fork_check {
                Ok(prefix) => Json::UInt(*prefix),
                Err(_) => Json::Null,
            },
        )
        .push("loop_profile", profile_obj)
        .push("nodes", Json::Arr(server_reports))
        .push("liveness", Json::Arr(liveness))
        .push("assertions_passed", failures.is_empty());

    if !failures.is_empty() {
        for i in 0..n {
            if let Some(snapshot) = cluster.debug_snapshot(ServerId(i)) {
                eprintln!("chaos_net: s{i} {snapshot}");
            }
        }
    }

    let rendered = report.render();
    print!("{rendered}");
    if let Err(e) = std::fs::write(out_path, &rendered) {
        eprintln!("chaos_net: failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "chaos_net: {total_committed} tx in {:.1}s ({overall_tps:.0} tx/s overall, {:.0} tx/s in \
         the last {:.1}s) -> {out_path}",
        run_ms as f64 / 1000.0,
        recovery.tps,
        recovery.window_s
    );

    cluster.shutdown();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}
