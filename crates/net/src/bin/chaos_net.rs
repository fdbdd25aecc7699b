//! `chaos_net` — the real-runtime host of a scenario file: run one of the
//! paper's Byzantine attack scenarios (F1–F5, S1/S2) against a *real*
//! PrestigeBFT cluster, composed with network chaos (delay, loss,
//! partitions) and crash-restarts, and judge it by the file's own
//! expectation.
//!
//! `prestige_workloads::scenario` owns the one [`Scenario`] type, its text
//! form, the expanded fault timeline and the verdict function, and the vopr
//! simulator runs the very same files (`vopr replay scenarios/*.toml`). This
//! binary launches the cluster on real node runtimes over loopback, walks
//! the timeline against the wall clock — any number of `[[fault]]` windows,
//! each closed at its own time — samples progress, hands the observations
//! to [`Scenario::judge`], and writes a JSON report:
//!
//! ```text
//! cargo run --release -p prestige-net --bin chaos_net -- \
//!     --scenario scenarios/f4_s1_partition.toml --out CHAOS_report.json
//! ```
//!
//! (`--duration SECS` overrides the file's `duration_ms`.)
//!
//! Exit status is non-zero when the verdict has a failure: an `[assert]`
//! file's no-fork, recovery or attack assertions (`docs/ATTACKS.md`), or —
//! for an `[expect] violation` reproducer — the run *not* showing that
//! violation (this binary carries no canary, so a healthy build reports
//! "stayed clean"; what such a run demonstrates is the timeline on real
//! runtimes). Under its FAILED lines it prints the diagnosis `vopr replay`
//! prints under a FAILED verdict: the correct servers' refusals by kind, and
//! one line per correct server that answers.

use prestige_core::AttackStrategy;
use prestige_core::LoopStage;
use prestige_metrics::Json;
use prestige_net::cluster::{LocalCluster, StoragePlan};
use prestige_net::NetChaos;
use prestige_types::{Actor, ClientId, ServerId};
use prestige_workloads::scenario::{
    Assertions, Cut, Expectation, FaultKind, Link, Observations, Scenario, ServerObservation,
    Timeline, Violated,
};
use std::time::{Duration, Instant};

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
    Some(StoragePlan::new(root))
}

/// Applies a link model: every delivery waits `delay_lo_us` plus a uniform
/// draw from `[0, delay_hi_us - delay_lo_us]`.
fn set_network(chaos: &NetChaos, link: Link) {
    chaos.set_link_delay(
        Duration::from_micros(link.delay_lo_us),
        Duration::from_micros(link.delay_hi_us - link.delay_lo_us),
    );
    chaos.set_loss(link.loss_permille as f64 / 1000.0);
}

/// Parses the command line and loads the scenario it names; returns it
/// with the report path.
fn load(args: &[String]) -> Result<(Scenario, String), String> {
    let (mut path, mut out, mut duration_s) = (None, "CHAOS_report.json".to_string(), None);
    let mut it = args.iter().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--scenario" => path = Some(value),
            "--out" => out = value.clone(),
            "--duration" => {
                duration_s = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--duration: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let path = path.ok_or(
        "missing --scenario (usage: chaos_net --scenario <file.toml> [--out PATH] \
         [--duration SECS])",
    )?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut scenario = Scenario::from_toml(&text).map_err(|e| format!("{path}: {e}"))?;
    scenario
        .lint_for_real_host()
        .map_err(|e| format!("{path}: {e}"))?;
    if let Some(secs) = duration_s {
        scenario.duration_ms = (secs * 1000.0) as u64;
    }
    Ok((scenario, out))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match load(&args).and_then(|(scenario, out)| run(&scenario, &out)) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => {
            eprintln!("chaos_net: FAILED: {message}");
            std::process::exit(1);
        }
    }
}

/// Runs the scenario and prints its verdict: `Ok(passed)`, or why the run
/// could not be made.
fn run(scenario: &Scenario, out_path: &str) -> Result<bool, String> {
    let n = scenario.servers;
    let behaviors = scenario.fault_plan.behaviors(n);
    let chaos = NetChaos::new();
    set_network(&chaos, scenario.network);

    eprintln!(
        "chaos_net: scenario `{}` — n={n}, fault plan {:?}, {:?}, {} fault(s)",
        scenario.name,
        scenario.fault_plan,
        scenario.network,
        scenario.faults.len(),
    );
    let mut cluster = LocalCluster::launch_full(
        scenario.cluster_config(),
        scenario.seed,
        scenario.clients,
        scenario.concurrency,
        &behaviors,
        Some(chaos.clone()),
        storage_plan(scenario),
    )
    .map_err(|e| format!("launching the cluster: {e}"))?;

    // --- timeline: sample progress every 100 ms, apply each fault step ---
    let started = Instant::now();
    let elapsed_ms = || started.elapsed().as_millis() as u64;
    let mut timeline = Timeline::new(&scenario.faults);
    let mut series: Vec<(u64, u64)> = Vec::new();
    // Per sample, every server's own committed count (0 while it is down).
    let per_server = |cluster: &LocalCluster| -> Vec<Json> {
        let committed = |i| cluster.server_stats(ServerId(i)).map(|s| s.committed_tx);
        (0..n).map(|i| committed(i).unwrap_or(0).into()).collect()
    };
    let mut per_server_series: Vec<Vec<Json>> = Vec::new();
    // Per fault: when it actually fired, and how many WAL records it tore.
    let mut fired_ms: Vec<Option<u64>> = vec![None; scenario.faults.len()];
    let mut torn: Vec<usize> = vec![0; scenario.faults.len()];
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
            let (op, t) = timeline.pop(now_ms, leader).expect("an op is due");
            let kind = scenario.faults[op.fault].kind;
            fired_ms[op.fault].get_or_insert(now_ms);
            let target = ServerId(t);
            let me = [Actor::Server(target)];
            let others: Vec<Actor> = (0..n)
                .filter(|&i| i != t)
                .map(|i| Actor::Server(ServerId(i)))
                .chain((0..scenario.clients).map(|c| Actor::Client(ClientId(c))))
                .collect();
            let edge = if op.ends { "ends" } else { "starts" };
            match kind.target() {
                Some(_) => eprintln!("chaos_net: t={now_ms}ms {} {edge} on s{t}", kind.label()),
                None => eprintln!("chaos_net: t={now_ms}ms {} {edge}", kind.label()),
            }
            match (kind, op.ends) {
                (FaultKind::Partition(Cut::Sym, _), false) => chaos.partition_between(&me, &others),
                (FaultKind::Partition(Cut::Out, _), false) => chaos.partition_oneway(&me, &others),
                (FaultKind::Partition(Cut::In, _), false) => chaos.partition_oneway(&others, &me),
                (FaultKind::Partition(Cut::Sym, _), true) => chaos.heal_between(&me, &others),
                (FaultKind::Partition(Cut::Out, _), true) => chaos.heal_oneway(&me, &others),
                (FaultKind::Partition(Cut::In, _), true) => chaos.heal_oneway(&others, &me),
                (FaultKind::Degrade(link), false) => set_network(&chaos, link),
                (FaultKind::Degrade(_), true) => set_network(&chaos, scenario.network),
                (FaultKind::CrashRestart { torn_records, .. }, false) => {
                    cluster.crash_server(target);
                    if torn_records > 0 {
                        match cluster.tear_wal_tail(target, torn_records as usize) {
                            Ok(records) => torn[op.fault] = records,
                            Err(e) => eprintln!("chaos_net: tearing s{t}'s WAL tail failed: {e}"),
                        }
                        eprintln!("chaos_net: tore {} WAL record(s) off s{t}", torn[op.fault]);
                    }
                }
                (FaultKind::CrashRestart { .. }, true) => {
                    if let Err(e) = cluster.restart_server(target) {
                        eprintln!("chaos_net: restarting s{t} failed: {e}");
                    }
                }
            }
        }
        if now_ms >= next_sample_ms {
            series.push((now_ms, cluster.total_committed()));
            per_server_series.push(per_server(&cluster));
            next_sample_ms = now_ms + 100;
        }
        let wake_ms = timeline
            .next_at_ms()
            .map_or(next_sample_ms, |at| at.min(next_sample_ms))
            .min(scenario.duration_ms);
        std::thread::sleep(Duration::from_millis(wake_ms.saturating_sub(elapsed_ms())));
    }
    let run_ms = elapsed_ms();
    series.push((run_ms, cluster.total_committed()));
    per_server_series.push(per_server(&cluster));

    // --- gather ---------------------------------------------------------
    let correct = cluster.correct_servers();
    let fork_check = cluster.verify_no_fork(&correct);
    let observations = Observations {
        run_ms,
        series,
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
            .push("role", cluster.role_of(id).map(|r| format!("{r:?}")))
            .push("latest_seq", tip)
            .push("commit_gap", max_tip.saturating_sub(tip));
        if let Some(seen) = &observations.servers[i as usize] {
            let stats = &seen.stats;
            for (key, value) in [
                ("view", seen.view),
                ("committed_tx", stats.committed_tx),
                ("committed_blocks", stats.committed_blocks),
                ("views_installed", stats.views_installed),
                ("elections_won", stats.elections_won),
                ("campaigns_started", stats.campaigns_started),
                ("sync_reqs_sent", stats.sync_reqs_sent),
                ("election_retransmits", stats.election_retransmits),
                ("double_assign_refused", stats.double_assign_refused),
                ("verify_rejected", stats.verify_rejected),
                ("checkpoint_count", stats.checkpoints_formed),
                ("gc_pruned_keys", stats.gc_pruned_keys),
                ("stable_checkpoint", seen.stable_checkpoint),
            ] {
                node.push(key, value);
            }
            let mut refusals = Json::obj();
            for (refusal, count) in &stats.camp_refusals {
                refusals.push(format!("{refusal:?}"), *count);
            }
            node.push("camp_refusals", refusals);
        }
        if let Some(storage) = cluster.storage_stats(id) {
            for (key, value) in [
                ("wal_bytes", storage.wal_bytes),
                ("wal_records", storage.records),
                ("fsyncs", storage.fsyncs),
                ("wal_segments", storage.segments),
                ("wal_pruned_segments", storage.pruned_segments),
                ("wal_pruned_bytes", storage.pruned_bytes),
            ] {
                node.push(key, value);
            }
        }
        let penalty = reputations.iter().find(|(s, _)| *s == id);
        node.push("reputation_penalty", penalty.map(|(_, rp)| *rp));
        server_reports.push(node);
    }

    let mut network_obj = Json::obj();
    network_obj
        .push("delay_lo_us", scenario.network.delay_lo_us)
        .push("delay_hi_us", scenario.network.delay_hi_us)
        .push("loss_permille", scenario.network.loss_permille);
    // One entry per `[[fault]]`, under the names the single `partition` /
    // `restart` objects used before a file could hold several windows.
    let seconds = |ms: Option<u64>| ms.map(|ms| ms as f64 / 1000.0);
    let mut faults = Vec::new();
    for (i, fault) in scenario.faults.iter().enumerate() {
        let crash = matches!(fault.kind, FaultKind::CrashRestart { .. });
        let (started, ended) = match crash {
            true => ("killed_s", "restarted_s"),
            false => ("started_s", "healed_s"),
        };
        let mut f = Json::obj();
        f.push("kind", fault.kind.label())
            .push("server", timeline.server_hit(i).map(|s| format!("s{s}")))
            .push("at_ms", fault.at_ms)
            .push(fault.kind.window_key(), fault.window_ms)
            .push(started, seconds(fired_ms[i]))
            .push(ended, seconds(observations.windows_closed_ms[i]));
        if crash {
            f.push("torn_records", torn[i]);
        }
        faults.push(f);
    }

    let mut liveness = Vec::new();
    for (&(t_ms, total), per_server) in observations.series.iter().zip(per_server_series) {
        let mut entry = Json::obj();
        entry
            .push("t_s", t_ms as f64 / 1000.0)
            .push("committed_total", total)
            .push("per_server_committed", per_server);
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
    for (key, value) in [
        ("sent", totals.sent),
        ("received", totals.received),
        ("dropped", totals.dropped),
        ("writev_calls", totals.writev_calls),
        ("frames_coalesced", totals.frames_coalesced),
        ("flushes_idle", totals.flushes_idle),
        ("flushes_full", totals.flushes_full),
        ("read_calls", totals.read_calls),
        ("poll_calls", totals.poll_calls),
    ] {
        transport_obj.push(key, value);
    }
    transport_obj.push("syscalls_per_frame", totals.syscalls_per_frame());

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
        .push(
            "strategy",
            match scenario.fault_plan.strategy() {
                Some(AttackStrategy::WhenCompensable) => "s2",
                _ => "s1",
            },
        )
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
        .push("identical_prefix_seq", fork_check.as_ref().ok().copied())
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
    for failure in &failures {
        eprintln!("chaos_net: FAILED: {failure}");
    }
    if !failures.is_empty() {
        eprintln!("  refusals: {}", observations.refusal_tally());
        for server in observations.server_lines() {
            eprintln!("  {server}");
        }
    }
    Ok(failures.is_empty())
}
