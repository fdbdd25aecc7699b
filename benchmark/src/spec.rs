//! The benchmark's fixed vocabulary: the four workloads and every metric, by
//! the names later issues refer to. `BENCHMARK.json` at the repository root is
//! `manifest()` rendered; a unit test keeps the two identical.

use crate::stats::Better;
use prestige_metrics::Json;

/// `--seconds` of the driver contract maps to work, not time: the workloads'
/// counts are multiplied by `seconds / FULL_SCALE_SECONDS`, so the shipped
/// `run_seconds` of 10 runs every workload at a quarter of the full-size
/// counts below. Fixed work keeps the same hash-table growth steps and the
/// same memory footprint in every run of every commit.
pub const FULL_SCALE_SECONDS: f64 = 40.0;
/// `run_seconds` in `BENCHMARK.json`, and the default of every subcommand.
pub const RUN_SECONDS: u64 = 10;
/// Work factor of `--quick` (a tenth of the full-size counts).
pub const QUICK_SCALE: f64 = 0.1;

/// Which fabric carries the messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// In-process channels: messages move by value, no frames, no syscalls.
    Loopback,
    /// 127.0.0.1 sockets: frame encode/decode, writer loop, syscalls.
    Tcp,
}

/// One workload: a cluster shape plus the fixed amount of work measured.
/// Every repetition launches a fresh 4-server cluster and one client, warms
/// up to `start_tx`, measures until `end_tx`, then kills the leader and times
/// the outage.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub fabric: Fabric,
    pub durable: bool,
    /// `TimeoutConfig::fast()` instead of the default timeouts.
    pub fast_timeouts: bool,
    /// Closed-loop window of the one client process: the number of logical
    /// clients it stands for.
    pub concurrency: usize,
    pub batch: usize,
    /// Committed-transaction counts at full scale.
    pub start_tx: u64,
    pub end_tx: u64,
    /// Work factor of this workload relative to the set's scale.
    pub work: f64,
    /// Repetitions per set (fresh child process each, seed + index).
    pub reps: usize,
    /// How many of them (the first ones) end by killing the leader. The
    /// steady workloads need only a couple of outages for `failover_ms`, and
    /// each costs about 2.7 s that measures nothing else.
    pub kills: usize,
    /// Repetitions of the traced run, each with a kill: one shows where a
    /// steady workload's time goes, `failover` needs several outages.
    pub traced_reps: usize,
    /// Repetitions under `--quick`, each with a kill.
    pub quick_reps: usize,
}

pub const PAYLOAD_BYTES: usize = 32;
pub const SERVERS: u32 = 4;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "peak",
        why: "closed loop of 512 in one client thread, in-process channels (no delay injected: latency is processor time only), batch 500, in memory: core, crypto and the client do all the work",
        fabric: Fabric::Loopback,
        durable: false,
        fast_timeouts: false,
        concurrency: 512,
        batch: 500,
        start_tx: 1_000_000,
        end_tx: 7_000_000,
        work: 1.0,
        reps: 4,
        kills: 2,
        traced_reps: 1,
        quick_reps: 1,
    },
    Workload {
        name: "durable",
        why: "peak plus a WAL per server and checkpoints every 64 blocks: the same core path with appends, fsyncs and GC on the loop, so a storage gain or cost shows here while peak stays flat",
        fabric: Fabric::Loopback,
        durable: true,
        fast_timeouts: false,
        concurrency: 512,
        batch: 500,
        start_tx: 1_000_000,
        end_tx: 5_000_000,
        work: 1.0,
        reps: 4,
        kills: 2,
        traced_reps: 1,
        quick_reps: 1,
    },
    Workload {
        name: "tcp_small",
        why: "closed loop of 16 over 127.0.0.1 sockets, batch 16: thousands of small frames per second, so per-message cost in net dominates and per-transaction cost barely matters",
        fabric: Fabric::Tcp,
        durable: false,
        fast_timeouts: false,
        concurrency: 16,
        batch: 16,
        start_tx: 50_000,
        end_tx: 450_000,
        work: 1.0,
        reps: 4,
        kills: 2,
        traced_reps: 1,
        quick_reps: 1,
    },
    Workload {
        name: "failover",
        why: "closed loop of 100, batch 100, fast timeouts, six short-lived clusters each ending in a leader kill: the only workload where view change, reputation and proof of work do the work",
        fabric: Fabric::Loopback,
        durable: false,
        fast_timeouts: true,
        concurrency: 100,
        batch: 100,
        start_tx: 200_000,
        end_tx: 3_200_000,
        work: 0.5,
        reps: 6,
        kills: 6,
        traced_reps: 6,
        quick_reps: 2,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// `(start, end)` committed-transaction counts at `scale`.
    pub fn counts(&self, scale: f64) -> (u64, u64) {
        let factor = scale * self.work;
        let at = |count: u64| ((count as f64 * factor).round() as u64).max(1);
        (
            at(self.start_tx),
            at(self.end_tx).max(at(self.start_tx) + 1),
        )
    }
}

/// An end-to-end metric: what a user of the cluster sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub why: &'static str,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "tx_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        why: "committed transactions per second between the start and end counts",
    },
    EndToEnd {
        name: "commit_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        why: "median client send to f+1 Notif latency over the measured span",
    },
    EndToEnd {
        name: "cpu_us_per_tx",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        why: "process CPU time (user + system, all threads) per committed transaction",
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        why: "resident memory at the end count",
    },
    EndToEnd {
        name: "failover_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
        why: "longest commit gap after the leader is killed",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        why: "cluster launch call to first committed transaction",
    },
];

/// How the repetitions of one set fold into the reported value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    Median,
    Min,
    Max,
    Mean,
}

/// The fold for a metric name. The host this runs on slows down by a third
/// for minutes at a time, and a neighbour's interference only ever makes a
/// repetition slower: the timings that define a workload's speed are taken
/// from its fastest — least disturbed — repetition. Everything else is a
/// median unless the name says otherwise.
pub fn fold_of(name: &str) -> Fold {
    match name {
        "tx_per_s" => Fold::Max,
        // For `failover_ms` the fastest repetition is also the one whose
        // first election succeeded; a retry adds a whole election timeout.
        "commit_p50_ms" | "cpu_us_per_tx" | "failover_ms" | "setup_s" => Fold::Min,
        // A span cut short by a slow host ends below the end count, with
        // less memory in use: the repetition that got furthest counts.
        "rss_mb" => Fold::Max,
        "core.longest_commit_gap_ms" | "bench.commit_max_ms" | "bench.poll_late_ms" => Fold::Max,
        "failed_share"
        | "core.view_change.outage_mean_ms"
        | "core.view_change.retry_share"
        | "core.view_change.campaigns_per_failover"
        | "storage.wal_reopen_failures" => Fold::Mean,
        _ => Fold::Median,
    }
}

/// A per-layer metric: taken from outside the layer by the traced run.
#[derive(Debug, Clone)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

/// Message kinds the decorated `Process` buckets handler calls by.
pub const KINDS: [&str; 10] = [
    "prop",
    "ord",
    "ord_reply",
    "cmt",
    "cmt_reply",
    "commit_block",
    "notif",
    "view_change",
    "sync",
    "ckpt",
];

const PEAK_CPU: &str = "cpu_us_per_tx and tx_per_s on peak; flat on tcp_small and failover";
const TCP_LAT: &str = "commit_p50_ms and tx_per_s on tcp_small; flat on peak";
const DURABLE: &str = "tx_per_s and commit_p50_ms on durable; zero work on peak";
const FAILOVER: &str = "failover_ms on every workload's kill; flat on the steady metrics";

pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut out: Vec<PerLayer> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better, moves: &'static str| {
        out.push(PerLayer {
            name: name.to_string(),
            unit,
            better,
            moves,
        });
    };
    add("core.server.busy_share", "share", Lower, PEAK_CPU);
    add("core.leader.busy_share", "share", Lower, PEAK_CPU);
    add(
        "core.client.busy_share",
        "share",
        Lower,
        "tx_per_s on peak (the client's share of the one CPU)",
    );
    for kind in KINDS {
        add(
            &format!("core.on_message.{kind}.us_per_call"),
            "us",
            Lower,
            PEAK_CPU,
        );
    }
    for kind in KINDS {
        add(
            &format!("core.on_message.{kind}.calls_per_ktx"),
            "1/ktx",
            Lower,
            TCP_LAT,
        );
    }
    add("core.on_timer.us_per_ktx", "us/ktx", Lower, PEAK_CPU);
    add(
        "core.batch.tx_per_block",
        "tx",
        Higher,
        "explains commit_p50_ms against tx_per_s on peak and tcp_small",
    );
    add(
        "core.longest_commit_gap_ms",
        "ms",
        Lower,
        "commit_p99_ms and failed_share on every steady workload",
    );
    add(
        "core.longest_commit_gap_at_tx",
        "tx",
        Higher,
        "none: the committed count that stood still during that gap, so a stall can be placed",
    );
    add("core.hop.order_ms", "ms", Lower, TCP_LAT);
    add("core.hop.commit_ms", "ms", Lower, TCP_LAT);
    add(
        "core.hop.rest_ms",
        "ms",
        Lower,
        "commit_p50_ms (client queue, batch seal and reply) on every steady workload",
    );
    add("core.loop.guards_share", "share", Lower, PEAK_CPU);
    add("core.loop.encode_broadcast_share", "share", Lower, PEAK_CPU);
    add("core.loop.apply_share", "share", Lower, PEAK_CPU);
    add("core.loop.inline_verify_share", "share", Lower, PEAK_CPU);
    add("core.loop.storage_append_share", "share", Lower, DURABLE);
    add("core.loop.idle_share", "share", Higher, PEAK_CPU);
    add("core.view_change.detect_ms", "ms", Lower, FAILOVER);
    add("core.view_change.elect_ms", "ms", Lower, FAILOVER);
    add("core.view_change.resume_ms", "ms", Lower, FAILOVER);
    add("core.view_change.outage_mean_ms", "ms", Lower, FAILOVER);
    add("core.view_change.retry_share", "share", Lower, FAILOVER);
    add(
        "core.view_change.campaigns_per_failover",
        "count",
        Lower,
        FAILOVER,
    );
    add(
        "core.view_change.recovered_ratio",
        "ratio",
        Higher,
        FAILOVER,
    );
    add("crypto.sign_ns", "ns", Lower, PEAK_CPU);
    add("crypto.verify_ns", "ns", Lower, PEAK_CPU);
    add("crypto.batch_digest_us.b16", "us", Lower, TCP_LAT);
    add("crypto.batch_digest_us.b500", "us", Lower, PEAK_CPU);
    add("crypto.qc_verify_us", "us", Lower, PEAK_CPU);
    add("crypto.pow_solve_ms", "ms", Lower, FAILOVER);
    add("reputation.calc_rp_ns", "ns", Lower, FAILOVER);
    add("reputation.winner_rp", "count", Lower, FAILOVER);
    add("storage.append_us", "us", Lower, DURABLE);
    add("storage.appends_per_ktx", "1/ktx", Lower, DURABLE);
    add("storage.sync_ms", "ms", Lower, DURABLE);
    add("storage.fsyncs_per_ktx", "1/ktx", Lower, DURABLE);
    add("storage.wal_bytes_per_tx", "B/tx", Lower, DURABLE);
    add("storage.busy_share", "share", Lower, DURABLE);
    add(
        "storage.wal_reopen_failures",
        "count",
        Lower,
        "none: servers whose WAL did not reopen after the run (a kept view-install segment followed by a pruned one breaks the chain check)",
    );
    add(
        "storage.gc_pruned_keys_per_ktx",
        "1/ktx",
        Higher,
        "rss_mb on durable (flat over time while GC keeps up)",
    );
    add("net.send_us", "us", Lower, TCP_LAT);
    add("net.broadcast_us", "us", Lower, TCP_LAT);
    add("net.recv_wait_share", "share", Higher, PEAK_CPU);
    add("net.msgs_per_ktx", "1/ktx", Lower, TCP_LAT);
    add(
        "net.dropped_share",
        "share",
        Lower,
        "failed_share and commit_p99_ms on every steady workload",
    );
    add("net.tcp.writev_per_ktx", "1/ktx", Lower, TCP_LAT);
    add("net.tcp.frames_per_writev", "count", Higher, TCP_LAT);
    for (what, unit) in [
        ("encode_us", "us"),
        ("decode_us", "us"),
        ("bytes_per_tx", "B/tx"),
    ] {
        add(&format!("net.frame.{what}.b16"), unit, Lower, TCP_LAT);
        add(
            &format!("net.frame.{what}.b500"),
            unit,
            Lower,
            "flat on peak (loopback moves values, not frames); tx_per_s on a TCP run at batch 500",
        );
    }
    add(
        "bench.poll_late_ms",
        "ms",
        Lower,
        "none: how late the harness poller ran (max), a check on the counts' timestamps",
    );
    add(
        "bench.trace_overhead_share",
        "share",
        Lower,
        "none: 1 - traced/untraced tx_per_s, the cost of the decorators",
    );
    add(
        "commit_p99_ms",
        "ms",
        Lower,
        "end-to-end (99th percentile of the commit latency); listed here because its run-to-run spread on this host (up to 30 % on durable) is wider than any bound worth having",
    );
    add(
        "bench.steal_share",
        "share",
        Lower,
        "none: share of the measured span the hypervisor ran someone else on our CPUs, a sign the host disturbed the run",
    );
    add(
        "bench.loop_accounted_share",
        "share",
        Higher,
        "none: share of the server loops' wall time the decorators account for (handler self time, storage and transport calls)",
    );
    add(
        "bench.commit_max_ms",
        "ms",
        Lower,
        "none: largest single commit latency seen, recorded as found",
    );
    add(
        "bench.commit_samples",
        "count",
        Higher,
        "none: latency samples behind commit_p50_ms and commit_p99_ms",
    );
    add(
        "failed_share",
        "share",
        Lower,
        "end-to-end (failed / attempted); listed here because the driver contract forbids a metric whose healthy value is 0 and carries it as `failed`/`attempted` instead",
    );
    out
}

/// `BENCHMARK.json`: exactly the keys of the driver contract.
pub fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::from(*s)).collect());
    let mut doc = Json::obj();
    doc.push(
        "command",
        strings(&[
            "cargo",
            "run",
            "--release",
            "--quiet",
            "--offline",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
            "measure",
        ]),
    );
    doc.push("paths", strings(&["benchmark"]));
    doc.push("run_seconds", RUN_SECONDS);
    doc.push(
        "workloads",
        Json::Arr(
            WORKLOADS
                .iter()
                .map(|w| {
                    let mut o = Json::obj();
                    o.push("name", w.name).push("why", w.why);
                    o
                })
                .collect(),
        ),
    );
    doc.push(
        "end_to_end",
        Json::Arr(
            END_TO_END
                .iter()
                .map(|m| {
                    let mut o = Json::obj();
                    o.push("name", m.name)
                        .push("unit", m.unit)
                        .push("better", m.better.as_str())
                        .push("bound", m.bound);
                    o
                })
                .collect(),
        ),
    );
    doc.push(
        "per_layer",
        Json::Arr(
            per_layer()
                .iter()
                .map(|m| {
                    let mut o = Json::obj();
                    o.push("name", m.name.as_str())
                        .push("unit", m.unit)
                        .push("better", m.better.as_str());
                    o
                })
                .collect(),
        ),
    );
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(
                name_ok(w.name) && seen.insert(w.name.to_string()),
                "{}",
                w.name
            );
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(
                name_ok(m.name) && seen.insert(m.name.to_string()),
                "{}",
                m.name
            );
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let layers = per_layer();
        assert!(layers.len() <= 128);
        for m in &layers {
            assert!(
                name_ok(&m.name) && seen.insert(m.name.clone()),
                "{}",
                m.name
            );
            assert!(unit_ok(m.unit), "{}", m.unit);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is `manifest()` rendered: regenerate it with
    /// `cargo run --manifest-path benchmark/Cargo.toml -- manifest`.
    #[test]
    fn benchmark_json_at_the_root_is_the_rendered_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(crate::json::parse(&text).unwrap(), manifest());
        assert!(text.len() <= 64 * 1024);
    }

    #[test]
    fn scaling_multiplies_both_counts() {
        let peak = Workload::by_name("peak").unwrap();
        assert_eq!(peak.counts(1.0), (1_000_000, 7_000_000));
        assert_eq!(peak.counts(0.25), (250_000, 1_750_000));
        let tcp = Workload::by_name("tcp_small").unwrap();
        assert_eq!(tcp.counts(0.25), (12_500, 112_500));
        let failover = Workload::by_name("failover").unwrap();
        assert_eq!(failover.counts(0.25), (25_000, 400_000));
    }
}
