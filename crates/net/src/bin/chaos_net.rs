//! `chaos_net` — run one of the paper's Byzantine attack scenarios (F1–F4,
//! S1/S2) against a *real* PrestigeBFT cluster, composed with network chaos
//! (delay, loss, partitions), and assert safety + recovery.
//!
//! The scenario is declarative: a mini-TOML file (same dialect as
//! `prestige-node`'s cluster config) names the cluster shape, the fault plan
//! (reusing `prestige_workloads::FaultPlan`), the link chaos, an optional
//! timed partition with scheduled heal, an optional crash-restart (`[restart]`
//! — kill a server, optionally tear its WAL tail, restart it from disk; needs
//! the `[storage]` durable plane), and the assertions. The runner
//! launches the cluster on real node runtimes, drives the timeline, samples
//! per-node progress, and writes a JSON report:
//!
//! ```text
//! cargo run --release -p prestige-net --bin chaos_net -- \
//!     --scenario scenarios/f4_s1_partition.toml --out CHAOS_report.json
//! ```
//!
//! Exit status is non-zero when an assertion fails:
//!
//! * **no-fork** — every pair of correct replicas agrees on the block digest
//!   at every sequence number both have committed (digest chaining makes the
//!   whole prefix identical);
//! * **recovery** — committed throughput over the trailing window is above
//!   the configured floor, and the post-heal commit count reaches the
//!   configured minimum.
//!
//! See `docs/ATTACKS.md` for the scenario vocabulary and the mapping to the
//! paper's experiments.

use prestige_core::LoopStage;
use prestige_metrics::Json;
use prestige_net::cluster::{LocalCluster, StoragePlan};
use prestige_net::config::{
    get, get_f64, get_int, get_str, parse_faults, parse_storage, parse_toml, ConfigError, TomlValue,
};
use prestige_net::NetChaos;
use prestige_storage::WalOptions;
use prestige_types::{Actor, ClientId, ClusterConfig, ServerId, TimeoutConfig, ViewChangePolicy};
use prestige_workloads::FaultPlan;
use std::time::{Duration, Instant};

/// How a partition cuts links around its target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PartitionMode {
    /// Both directions (the target is fully isolated).
    Symmetric,
    /// Only traffic *to* the target is cut (it can talk, nobody answers).
    Inbound,
    /// Only traffic *from* the target is cut (it hears, nobody hears it).
    Outbound,
}

/// Which server a partition isolates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PartitionTarget {
    /// Whoever leads the view current when the partition starts.
    Leader,
    /// A fixed server.
    Server(u32),
}

#[derive(Debug, Clone)]
struct PartitionSpec {
    at_s: f64,
    duration_ms: f64,
    target: PartitionTarget,
    mode: PartitionMode,
}

/// A crash-restart injection: kill a server abruptly at `at_s`, optionally
/// chop bytes off its WAL tail (the torn-tail crash signature), and restart
/// it from disk after `down_ms`. Requires the `[storage]` section.
#[derive(Debug, Clone)]
struct RestartSpec {
    at_s: f64,
    down_ms: f64,
    target: PartitionTarget,
    truncate_tail_bytes: u64,
}

/// Durable-storage knobs for the scenario cluster (`[storage]` section).
#[derive(Debug, Clone)]
struct StorageSpec {
    dir: Option<String>,
    checkpoint_interval: u64,
    options: WalOptions,
}

#[derive(Debug, Clone)]
struct Scenario {
    name: String,
    servers: u32,
    clients: u64,
    concurrency: usize,
    batch_size: usize,
    payload_size: usize,
    seed: u64,
    duration_s: f64,
    timeouts: TimeoutConfig,
    rotation_ms: Option<f64>,
    pipeline_depth: usize,
    fault_plan: FaultPlan,
    strategy_label: String,
    delay_ms: f64,
    jitter_ms: f64,
    loss: f64,
    partition: Option<PartitionSpec>,
    restart: Option<RestartSpec>,
    storage: Option<StorageSpec>,
    assert_no_fork: bool,
    assert_no_faulty_leader: bool,
    min_cert_refusals: u64,
    min_committed_after: u64,
    min_stable_checkpoint: u64,
    recovery_floor_tps: f64,
    recovery_window_s: f64,
}

impl Scenario {
    fn from_toml(text: &str) -> Result<Scenario, ConfigError> {
        let invalid = |message: String| Err(ConfigError::Invalid(message));
        let doc = parse_toml(text)?;

        let timeouts = match get_str(&doc, "scenario", "timeouts")?.unwrap_or("fast") {
            "fast" => TimeoutConfig::fast(),
            "default" => TimeoutConfig::default(),
            other => return invalid(format!("scenario.timeouts `{other}` (fast or default)")),
        };

        let strategy_label = get_str(&doc, "faults", "strategy")?
            .unwrap_or("s1")
            .to_string();
        let fault_plan = parse_faults(&doc)?;

        let servers: u32 = get_int(&doc, "scenario", "servers", 4)?;
        let parse_target = |section: &str| -> Result<PartitionTarget, ConfigError> {
            match get_str(&doc, section, "target")?.unwrap_or("leader") {
                "leader" => Ok(PartitionTarget::Leader),
                name => {
                    let id = name
                        .strip_prefix('s')
                        .and_then(|rest| rest.parse::<u32>().ok())
                        .filter(|id| *id < servers)
                        .ok_or_else(|| {
                            ConfigError::Invalid(format!(
                                "{section}.target `{name}` (leader, or s0..s{})",
                                servers.saturating_sub(1)
                            ))
                        })?;
                    Ok(PartitionTarget::Server(id))
                }
            }
        };
        let partition = if doc.contains_key("partition") {
            let target = parse_target("partition")?;
            let mode = match get_str(&doc, "partition", "mode")?.unwrap_or("sym") {
                "sym" => PartitionMode::Symmetric,
                "inbound" => PartitionMode::Inbound,
                "outbound" => PartitionMode::Outbound,
                other => {
                    return invalid(format!("partition.mode `{other}` (sym, inbound, outbound)"))
                }
            };
            Some(PartitionSpec {
                at_s: get_f64(&doc, "partition", "at_s", 1.0)?,
                duration_ms: get_f64(&doc, "partition", "duration_ms", 500.0)?,
                target,
                mode,
            })
        } else {
            None
        };

        let storage = if doc.contains_key("storage") {
            let (dir, options) = parse_storage(&doc)?;
            Some(StorageSpec {
                dir: dir.map(str::to_string),
                checkpoint_interval: get_int(&doc, "storage", "checkpoint_interval", 64)?,
                options,
            })
        } else {
            None
        };
        let restart = if doc.contains_key("restart") {
            if storage.is_none() {
                return invalid(
                    "[restart] requires a [storage] section (restart replays the WAL)".to_string(),
                );
            }
            Some(RestartSpec {
                at_s: get_f64(&doc, "restart", "at_s", 1.0)?,
                down_ms: get_f64(&doc, "restart", "down_ms", 500.0)?,
                target: parse_target("restart")?,
                truncate_tail_bytes: get_int(&doc, "restart", "truncate_tail_bytes", 0)?,
            })
        } else {
            None
        };

        let rotation = get_f64(&doc, "scenario", "rotation_ms", 0.0)?;
        let scenario = Scenario {
            name: get_str(&doc, "scenario", "name")?
                .unwrap_or("unnamed")
                .to_string(),
            servers,
            clients: get_int(&doc, "scenario", "clients", 2)?,
            concurrency: get_int(&doc, "scenario", "concurrency", 100)?,
            batch_size: get_int(&doc, "scenario", "batch_size", 100)?,
            payload_size: get_int(&doc, "scenario", "payload_size", 32)?,
            seed: get_int(&doc, "scenario", "seed", 42)?,
            duration_s: get_f64(&doc, "scenario", "duration_s", 5.0)?,
            timeouts,
            rotation_ms: (rotation > 0.0).then_some(rotation),
            pipeline_depth: get_int(&doc, "scenario", "pipeline_depth", 4)?,
            fault_plan,
            strategy_label,
            delay_ms: get_f64(&doc, "chaos", "delay_ms", 0.0)?,
            jitter_ms: get_f64(&doc, "chaos", "jitter_ms", 0.0)?,
            loss: get_f64(&doc, "chaos", "loss", 0.0)?,
            partition,
            restart,
            storage,
            assert_no_fork: !matches!(get(&doc, "assert", "no_fork"), Some(TomlValue::Bool(false))),
            assert_no_faulty_leader: matches!(
                get(&doc, "assert", "no_faulty_leader"),
                Some(TomlValue::Bool(true))
            ),
            min_cert_refusals: get_int(&doc, "assert", "min_cert_refusals", 0)?,
            min_committed_after: get_int(&doc, "assert", "min_committed", 0)?,
            min_stable_checkpoint: get_int(&doc, "assert", "min_stable_checkpoint", 0)?,
            recovery_floor_tps: get_f64(&doc, "assert", "recovery_floor_tps", 0.0)?,
            recovery_window_s: get_f64(&doc, "assert", "recovery_window_s", 1.0)?,
        };

        // Scenario lint: restart scenarios have two footguns that produce
        // flaky-looking CI failures long after the scenario is written, so
        // they are rejected at parse time with the fix in the message.
        if scenario.restart.is_some() {
            // A restarted node replays its WAL, re-elects, and pages itself
            // forward through the repair plane; on a shared 1-core runner
            // that routinely takes over a second of wall clock near EOF.
            // A narrow recovery window turns scheduler starvation into a
            // "regression".
            if scenario.recovery_window_s < 2.0 {
                return invalid(format!(
                    "[restart] scenarios need assert.recovery_window_s >= 2.0 \
                     (got {}): WAL replay + re-election + repair-plane catch-up \
                     does not fit a narrower window on 1-core CI runners",
                    scenario.recovery_window_s
                ));
            }
            // An unthrottled loopback cluster commits faster than a
            // restarted node can replay, so it chases a receding tip for
            // the whole run and the recovery assertions measure the
            // scheduler, not the protocol.
            if !doc.contains_key("chaos") {
                return invalid(
                    "[restart] scenarios need a [chaos] throttle profile (e.g. \
                     delay_ms = 5.0, jitter_ms = 5.0, loss = 0.005): unthrottled \
                     loopback outruns WAL replay and the restarted node never \
                     catches the tip"
                        .to_string(),
                );
            }
        }
        Ok(scenario)
    }

    fn cluster_config(&self) -> ClusterConfig {
        let mut config = ClusterConfig::new(self.servers)
            .with_batch_size(self.batch_size)
            .with_payload_size(self.payload_size)
            .with_timeouts(self.timeouts.clone())
            .with_pipeline_depth(self.pipeline_depth);
        if let Some(interval_ms) = self.rotation_ms {
            config.policy = ViewChangePolicy::Timing { interval_ms };
        }
        if let Some(storage) = &self.storage {
            config = config.with_checkpoint_interval(storage.checkpoint_interval);
        }
        config
    }

    /// Builds the cluster's storage plan when the scenario is durable.
    /// Without an explicit `storage.dir`, a per-run temp directory is used
    /// (and wiped first, so a rerun never replays a stale log).
    fn storage_plan(&self) -> Option<StoragePlan> {
        let spec = self.storage.as_ref()?;
        let root = match &spec.dir {
            Some(dir) => std::path::PathBuf::from(dir),
            None => std::env::temp_dir().join(format!(
                "prestige-chaos-{}-{}",
                self.name.replace(['/', ' '], "_"),
                std::process::id()
            )),
        };
        let _ = std::fs::remove_dir_all(&root);
        Some(StoragePlan {
            root,
            options: spec.options.clone(),
        })
    }
}

/// One timeline sample: elapsed seconds, cluster-wide commits, and each
/// server's committed tx count (shows who stalls during the fault window).
struct Sample {
    t_s: f64,
    total: u64,
    per_server: Vec<u64>,
}

fn sample(cluster: &LocalCluster, t_s: f64, n: u32) -> Sample {
    Sample {
        t_s,
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

/// All actors other than `target` (servers and clients), i.e. the side of
/// the partition the target is cut off from.
fn everyone_but(scenario: &Scenario, target: ServerId) -> Vec<Actor> {
    let mut others: Vec<Actor> = (0..scenario.servers)
        .filter(|&i| ServerId(i) != target)
        .map(|i| Actor::Server(ServerId(i)))
        .collect();
    others.extend((0..scenario.clients).map(|c| Actor::Client(ClientId(c))));
    others
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
        scenario.duration_s = secs;
    }

    match run(&scenario, &opts.out) {
        Ok(()) => {}
        Err(failures) => {
            for failure in &failures {
                eprintln!("chaos_net: ASSERTION FAILED: {failure}");
            }
            std::process::exit(1);
        }
    }
}

fn run(scenario: &Scenario, out_path: &str) -> Result<(), Vec<String>> {
    let n = scenario.servers;
    let behaviors = scenario.fault_plan.behaviors(n);
    let chaos = NetChaos::new();
    if scenario.delay_ms > 0.0 || scenario.jitter_ms > 0.0 {
        chaos.set_link_delay(
            Duration::from_secs_f64(scenario.delay_ms / 1000.0),
            Duration::from_secs_f64(scenario.jitter_ms / 1000.0),
        );
    }
    if scenario.loss > 0.0 {
        chaos.set_loss(scenario.loss);
    }

    eprintln!(
        "chaos_net: scenario `{}` — n={n}, fault plan {:?}, delay {}±{} ms, loss {:.1}%, \
         partition {:?}",
        scenario.name,
        scenario.fault_plan,
        scenario.delay_ms,
        scenario.jitter_ms,
        scenario.loss * 100.0,
        scenario.partition,
    );
    let storage_plan = scenario.storage_plan();
    let mut cluster = LocalCluster::launch_full(
        scenario.cluster_config(),
        scenario.seed,
        scenario.clients,
        scenario.concurrency,
        &behaviors,
        Some(chaos.clone()),
        storage_plan,
    )
    .map_err(|e| vec![format!("launching the cluster: {e}")])?;

    // --- timeline: sample progress, fire the partition / crash-restart ---
    let started = Instant::now();
    let mut series: Vec<Sample> = Vec::new();
    let mut partition_fired = false;
    let mut partition_window: Option<(f64, f64)> = None; // (start_s, heal_s)
    let mut partitioned_server: Option<ServerId> = None;
    let mut restart_due: Option<(ServerId, f64)> = None; // (target, restart_at_s)
    let mut restart_fired = false;
    let mut restart_killed_s: Option<f64> = None;
    let mut restart_window: Option<(f64, f64)> = None; // (killed_s, restarted_s)
    let mut restarted_server: Option<ServerId> = None;
    let mut truncated_bytes: u64 = 0;
    let tick = Duration::from_millis(100);
    loop {
        let t_s = started.elapsed().as_secs_f64();
        if t_s >= scenario.duration_s {
            break;
        }
        series.push(sample(&cluster, t_s, n));

        if let Some(spec) = &scenario.partition {
            if !partition_fired && t_s >= spec.at_s {
                partition_fired = true;
                let target = match spec.target {
                    PartitionTarget::Server(id) => ServerId(id),
                    PartitionTarget::Leader => cluster
                        .correct_servers()
                        .first()
                        .and_then(|&observer| cluster.view_of(observer))
                        .map(|(_, leader)| leader)
                        .unwrap_or(ServerId(0)),
                };
                let others = everyone_but(scenario, target);
                let me = [Actor::Server(target)];
                match spec.mode {
                    PartitionMode::Symmetric => chaos.partition_between(&me, &others),
                    PartitionMode::Inbound => chaos.partition_oneway(&others, &me),
                    PartitionMode::Outbound => chaos.partition_oneway(&me, &others),
                }
                chaos.heal_after(Duration::from_secs_f64(spec.duration_ms / 1000.0));
                partition_window = Some((t_s, t_s + spec.duration_ms / 1000.0));
                partitioned_server = Some(target);
                eprintln!(
                    "chaos_net: t={t_s:.2}s partition {:?} around {target:?} for {} ms \
                     (heal scheduled)",
                    spec.mode, spec.duration_ms
                );
            }
        }

        if let Some(spec) = &scenario.restart {
            if !restart_fired && t_s >= spec.at_s {
                restart_fired = true;
                let target = match spec.target {
                    PartitionTarget::Server(id) => ServerId(id),
                    PartitionTarget::Leader => cluster
                        .correct_servers()
                        .first()
                        .and_then(|&observer| cluster.view_of(observer))
                        .map(|(_, leader)| leader)
                        .unwrap_or(ServerId(0)),
                };
                cluster.crash_server(target);
                if spec.truncate_tail_bytes > 0 {
                    match cluster.truncate_wal_tail(target, spec.truncate_tail_bytes) {
                        Ok(cut) => truncated_bytes = cut,
                        Err(e) => eprintln!("chaos_net: WAL tail truncation failed: {e}"),
                    }
                }
                restart_killed_s = Some(t_s);
                restart_due = Some((target, t_s + spec.down_ms / 1000.0));
                eprintln!(
                    "chaos_net: t={t_s:.2}s killed {target:?} (down {} ms, torn tail {} bytes)",
                    spec.down_ms, truncated_bytes
                );
            }
        }
        if let Some((target, due_s)) = restart_due {
            if t_s >= due_s {
                restart_due = None;
                if let Err(e) = cluster.restart_server(target) {
                    eprintln!("chaos_net: restarting {target:?} failed: {e}");
                }
                restart_window = Some((restart_killed_s.unwrap_or(due_s), t_s));
                restarted_server = Some(target);
                eprintln!("chaos_net: t={t_s:.2}s restarted {target:?} from its WAL");
            }
        }
        std::thread::sleep(tick);
    }
    let final_t = started.elapsed().as_secs_f64();
    series.push(sample(&cluster, final_t, n));

    // --- gather ---------------------------------------------------------
    let final_sample = series.last().expect("series has the final sample");
    let total_committed = final_sample.total;
    let overall_tps = total_committed as f64 / final_t.max(1e-9);

    // A scenario that declares a partition but never runs it to the heal
    // (fired too late, or not at all) must not let the "after the fault
    // window" assertions pass vacuously: count zero post-heal commits so the
    // min_committed gate fails loudly, and record the defect explicitly.
    let heal_s = partition_window.map(|(_, heal)| heal).unwrap_or(0.0);
    let partition_incomplete =
        scenario.partition.is_some() && (partition_window.is_none() || heal_s > final_t);
    let committed_at_heal = if partition_incomplete {
        total_committed
    } else {
        series
            .iter()
            .find(|s| s.t_s >= heal_s)
            .map(|s| s.total)
            .unwrap_or(total_committed)
    };
    let committed_after_heal = total_committed.saturating_sub(committed_at_heal);

    // Clamp the recovery window to the actual run so a short run is not
    // penalized by dividing a partial window's commits by the full width.
    let window = scenario.recovery_window_s.max(0.1).min(final_t.max(0.1));
    let window_start = (final_t - window).max(0.0);
    let committed_at_window_start = series
        .iter()
        .find(|s| s.t_s >= window_start)
        .map(|s| s.total)
        .unwrap_or(0);
    let recovery_tps = total_committed.saturating_sub(committed_at_window_start) as f64 / window;

    let correct = cluster.correct_servers();
    let fork_check = cluster.verify_no_fork(&correct);

    let observer = correct.first().copied().unwrap_or(ServerId(0));
    let reputations = cluster.reputations_at(observer).unwrap_or_default();
    let max_tip = (0..n)
        .filter_map(|i| cluster.committed_chain(ServerId(i)))
        .filter_map(|chain| chain.last().map(|(tip, _)| *tip))
        .max()
        .unwrap_or(0);

    let mut server_reports = Vec::new();
    for i in 0..n {
        let id = ServerId(i);
        let stats = cluster.server_stats(id);
        let tip = cluster
            .committed_chain(id)
            .and_then(|chain| chain.last().map(|(tip, _)| *tip))
            .unwrap_or(0);
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
            .push(
                "view",
                cluster
                    .view_of(id)
                    .map(|(v, _)| Json::UInt(v.0))
                    .unwrap_or(Json::Null),
            )
            .push("latest_seq", tip)
            .push("commit_gap", max_tip.saturating_sub(tip));
        if let Some(stats) = &stats {
            node.push("committed_tx", stats.committed_tx)
                .push("committed_blocks", stats.committed_blocks)
                .push("views_installed", stats.views_installed)
                .push("elections_won", stats.elections_won)
                .push("campaigns_started", stats.campaigns_started)
                .push("camp_cert_refusals", stats.camp_cert_refusals)
                .push("sync_reqs_sent", stats.sync_reqs_sent)
                .push("election_retransmits", stats.election_retransmits)
                .push("double_assign_refused", stats.double_assign_refused);
        }
        if scenario.storage.is_some() {
            if let Some(stats) = &stats {
                node.push("checkpoint_count", stats.checkpoints_formed)
                    .push("gc_pruned_keys", stats.gc_pruned_keys);
            }
            node.push(
                "stable_checkpoint",
                cluster
                    .stable_checkpoint_of(id)
                    .map(Json::UInt)
                    .unwrap_or(Json::Null),
            );
            if let Some(storage) = cluster.storage_stats(id) {
                node.push("wal_bytes", storage.wal_bytes)
                    .push("wal_records", storage.records)
                    .push("fsyncs", storage.fsyncs)
                    .push("wal_segments", storage.segments)
                    .push("wal_pruned_segments", storage.pruned_segments)
                    .push("wal_pruned_bytes", storage.pruned_bytes);
            }
        }
        if let Some((_, rp)) = reputations.iter().find(|(s, _)| *s == id) {
            node.push("reputation_penalty", *rp);
        }
        server_reports.push(node);
    }

    // --- assert ---------------------------------------------------------
    let mut failures = Vec::new();
    if partition_incomplete {
        failures.push(format!(
            "the configured partition did not run to its heal within the {final_t:.1}s run \
             (fired: {}, heal at {heal_s:.1}s) — extend duration_s or move partition.at_s \
             earlier",
            partition_window.is_some()
        ));
    }
    if scenario.assert_no_fork {
        match &fork_check {
            Ok(prefix) => eprintln!(
                "chaos_net: no-fork holds across {} correct servers \
                 (identical up to sequence {prefix})",
                correct.len()
            ),
            Err(message) => failures.push(format!("safety violated — {message}")),
        }
    }
    if scenario.assert_no_faulty_leader {
        // "The liar never wins a certified election": no faulty server may
        // have assembled a vc_QC, and no correct server may currently follow
        // a faulty leader.
        for i in 0..n {
            let id = ServerId(i);
            if !cluster.behavior_of(id).is_faulty() {
                continue;
            }
            let won = cluster
                .server_stats(id)
                .map(|s| s.elections_won)
                .unwrap_or(0);
            if won > 0 {
                failures.push(format!(
                    "faulty server s{i} won {won} election(s) — the certificate \
                     check failed to refuse its claim"
                ));
            }
        }
        for &id in &correct {
            if let Some((view, leader)) = cluster.view_of(id) {
                if cluster.behavior_of(leader).is_faulty() {
                    failures.push(format!(
                        "correct server s{} follows faulty leader s{} in view {}",
                        id.0, leader.0, view.0
                    ));
                }
            }
        }
        if failures.is_empty() {
            eprintln!("chaos_net: no faulty server ever held a certified leadership");
        }
    }
    if scenario.min_cert_refusals > 0 {
        // The refusals must actually have been *certificate* refusals: prove
        // the check bit, rather than the attack never having been attempted.
        let refusals: u64 = correct
            .iter()
            .filter_map(|&id| cluster.server_stats(id))
            .map(|s| s.camp_cert_refusals)
            .sum();
        if refusals < scenario.min_cert_refusals {
            failures.push(format!(
                "only {refusals} certificate refusal(s) across correct servers \
                 (need {}) — the claimed attack never exercised the check",
                scenario.min_cert_refusals
            ));
        } else {
            eprintln!(
                "chaos_net: the certificate check refused {refusals} uncertifiable campaign(s)"
            );
        }
    }
    if scenario.restart.is_some() {
        match restarted_server {
            None => failures.push(format!(
                "the configured crash-restart did not complete within the {final_t:.1}s run \
                 (killed: {restart_fired}) — extend duration_s or move restart.at_s earlier"
            )),
            Some(id) => {
                // The restarted replica must actually be back: answering
                // inspections and holding a committed chain consistent with
                // the survivors (covered by verify_no_fork above when it is
                // correct — assert it answers at all here).
                if cluster.committed_chain(id).is_none() {
                    failures.push(format!(
                        "restarted server s{} does not answer after rejoin",
                        id.0
                    ));
                }
            }
        }
    }
    if scenario.min_stable_checkpoint > 0 {
        let best = correct
            .iter()
            .filter_map(|&id| cluster.stable_checkpoint_of(id))
            .max()
            .unwrap_or(0);
        if best < scenario.min_stable_checkpoint {
            failures.push(format!(
                "highest stable checkpoint {best} across correct servers is below the \
                 required {} — checkpoints never formed (or GC never ran)",
                scenario.min_stable_checkpoint
            ));
        } else {
            eprintln!("chaos_net: stable checkpoint reached sequence {best}");
        }
    }
    if recovery_tps < scenario.recovery_floor_tps {
        failures.push(format!(
            "recovery throughput {recovery_tps:.0} tx/s over the trailing {window:.1}s is \
             below the {:.0} tx/s floor",
            scenario.recovery_floor_tps
        ));
    }
    if committed_after_heal < scenario.min_committed_after {
        failures.push(format!(
            "only {committed_after_heal} tx committed after the fault window \
             (need {})",
            scenario.min_committed_after
        ));
    }

    // --- report ---------------------------------------------------------
    let mut chaos_obj = Json::obj();
    chaos_obj
        .push("delay_ms", scenario.delay_ms)
        .push("jitter_ms", scenario.jitter_ms)
        .push("loss", scenario.loss);
    let partition_obj = match (&scenario.partition, partition_window) {
        (Some(spec), Some((start, heal))) => {
            let mut p = Json::obj();
            p.push("mode", format!("{:?}", spec.mode))
                .push(
                    "server",
                    partitioned_server
                        .map(|s| format!("s{}", s.0))
                        .unwrap_or_default(),
                )
                .push("started_s", start)
                .push("healed_s", heal)
                .push("duration_ms", spec.duration_ms);
            p
        }
        _ => Json::Null,
    };
    let restart_obj = match (&scenario.restart, restart_window) {
        (Some(spec), Some((killed, back))) => {
            let mut r = Json::obj();
            r.push(
                "server",
                restarted_server
                    .map(|s| format!("s{}", s.0))
                    .unwrap_or_default(),
            )
            .push("killed_s", killed)
            .push("restarted_s", back)
            .push("down_ms", spec.down_ms)
            .push("truncated_tail_bytes", truncated_bytes);
            r
        }
        _ => Json::Null,
    };

    let mut liveness = Vec::new();
    for s in &series {
        let mut entry = Json::obj();
        entry
            .push("t_s", s.t_s)
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

    // Cluster-wide transport counters (loopback: TCP reactor counters stay
    // 0, the delivery counters still expose chaos-induced drops per run).
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
        .push("strategy", scenario.strategy_label.as_str())
        .push("chaos", chaos_obj)
        .push("partition", partition_obj)
        .push("restart", restart_obj)
        .push("durable", scenario.storage.is_some())
        .push("measured_seconds", final_t)
        .push("committed_tx", total_committed)
        .push("tx_per_sec", overall_tps)
        .push("committed_after_heal", committed_after_heal)
        .push("recovery_window_s", window)
        .push("recovery_tx_per_sec", recovery_tps)
        .push(
            "no_fork",
            match &fork_check {
                Ok(_) => Json::Bool(true),
                Err(_) => Json::Bool(false),
            },
        )
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
        "chaos_net: {total_committed} tx in {final_t:.1}s ({overall_tps:.0} tx/s overall, \
         {recovery_tps:.0} tx/s in the last {window:.1}s) -> {out_path}"
    );

    cluster.shutdown();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal restart scenario, assembled from parts so each test can
    /// break exactly one rule.
    fn restart_scenario(chaos: &str, window: &str) -> String {
        format!(
            "[scenario]\nname = \"lint\"\nservers = 4\nduration_s = 6.0\n\
             {chaos}\n[storage]\ncheckpoint_interval = 16\n\
             [restart]\nat_s = 1.0\ndown_ms = 800.0\ntarget = \"leader\"\n\
             [assert]\n{window}\n"
        )
    }

    const CHAOS: &str = "[chaos]\ndelay_ms = 5.0\njitter_ms = 5.0\nloss = 0.005";

    #[test]
    fn restart_scenario_with_throttle_and_wide_window_parses() {
        let text = restart_scenario(CHAOS, "recovery_window_s = 2.0");
        let scenario = Scenario::from_toml(&text).expect("valid scenario");
        assert!(scenario.restart.is_some());
    }

    #[test]
    fn restart_scenario_with_narrow_recovery_window_is_rejected() {
        let text = restart_scenario(CHAOS, "recovery_window_s = 1.5");
        let err = Scenario::from_toml(&text).expect_err("lint must fire");
        assert!(
            err.to_string().contains("recovery_window_s >= 2.0"),
            "unhelpful error: {err}"
        );
    }

    #[test]
    fn restart_scenario_without_chaos_profile_is_rejected() {
        let text = restart_scenario("", "recovery_window_s = 2.0");
        let err = Scenario::from_toml(&text).expect_err("lint must fire");
        assert!(
            err.to_string().contains("[chaos] throttle profile"),
            "unhelpful error: {err}"
        );
    }

    #[test]
    fn non_restart_scenario_is_not_linted() {
        let text = "[scenario]\nname = \"plain\"\nservers = 4\n\
                    [assert]\nrecovery_window_s = 1.0\n";
        assert!(Scenario::from_toml(text).is_ok());
    }

    #[test]
    fn committed_restart_scenarios_pass_the_lint() {
        for path in [
            "../../scenarios/restart_leader.toml",
            "../../scenarios/restart_minority_chaos.toml",
            "../../scenarios/restart_torn_tail.toml",
        ] {
            let text = std::fs::read_to_string(path).expect(path);
            Scenario::from_toml(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        }
    }
}
