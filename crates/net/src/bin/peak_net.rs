//! `peak_net` — drive a PrestigeBFT cluster to saturation and record the
//! peak throughput/latency of the real networking runtime.
//!
//! This is the perf baseline every hot-path PR measures against: it launches
//! `--servers` PrestigeBFT replicas plus `--clients` closed-loop clients on
//! real node runtimes (threads, timers, the full `Transport` stack), runs a
//! warmup followed by a measurement window, and writes the result as JSON:
//!
//! ```text
//! cargo run --release -p prestige-net --bin peak_net -- --duration 10
//! cat BENCH_peak.json
//! ```
//!
//! Three measurement surfaces:
//!
//! - the default single point (loopback, the committed baseline config);
//! - `--tcp`: the same cluster over real sockets ([`TcpCluster`]), which
//!   additionally exercises — and reports — the TCP reactor (writes, frame
//!   coalescing, idle-vs-full flushes, reads, polls, syscalls per frame);
//! - `--sweep`: one point per `pipeline_depth` (the host's core count is
//!   recorded per run) written as a per-point array plus a `best` summary,
//!   while the top-level fields still describe the committed-config point so
//!   baseline comparison and the CI floor keep working unchanged.
//!
//! Latency is reported from the clients' log-bucketed histograms (p50 / p90 /
//! p99 / p99.9, ≤ 6.25 % bucket error, exact max), not from the bounded raw
//! sample buffers, so tail percentiles stay meaningful at hundreds of
//! thousands of commits per window.

use prestige_core::{ClientStats, LatencyHistogram, LoopSnapshot, LoopStage};
use prestige_net::cluster::{LocalCluster, StoragePlan, TcpCluster};
use prestige_net::TransportTotals;
use prestige_types::{ClientId, ClusterConfig, ServerId};
use std::time::{Duration, Instant};

struct Options {
    servers: u32,
    clients: u64,
    concurrency: usize,
    batch_size: usize,
    payload: usize,
    pipeline: usize,
    warmup_s: f64,
    duration_s: f64,
    durable: bool,
    tcp: bool,
    sweep: bool,
    sweep_pipeline: Vec<usize>,
    checkpoint_interval: u64,
    profile: bool,
    out: String,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            servers: 4,
            clients: 4,
            concurrency: 512,
            batch_size: 500,
            payload: 32,
            // The sweep showed pipeline 4 beats 8 on the benchmark
            // container: the shallower window keeps client bundles from
            // convoying behind a long uncommitted tail.
            pipeline: 4,
            warmup_s: 2.0,
            duration_s: 10.0,
            durable: false,
            tcp: false,
            sweep: false,
            sweep_pipeline: vec![4, 8, 16],
            checkpoint_interval: 64,
            profile: true,
            out: "BENCH_peak.json".to_string(),
        }
    }
}

fn parse_list(text: &str, name: &str) -> Result<Vec<usize>, String> {
    let values: Result<Vec<usize>, _> = text
        .split(',')
        .map(|part| part.trim().parse::<usize>())
        .collect();
    match values {
        Ok(list) if !list.is_empty() => Ok(list),
        _ => Err(format!("{name} wants a comma-separated list, got `{text}`")),
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut i = 1;
    while i < args.len() {
        let need = |name: &str| -> Result<&String, String> {
            args.get(i + 1).ok_or(format!("{name} needs a value"))
        };
        match args[i].as_str() {
            "--servers" => opts.servers = need("--servers")?.parse().map_err(|e| format!("{e}"))?,
            "--clients" => opts.clients = need("--clients")?.parse().map_err(|e| format!("{e}"))?,
            "--concurrency" => {
                opts.concurrency = need("--concurrency")?.parse().map_err(|e| format!("{e}"))?
            }
            "--batch" => opts.batch_size = need("--batch")?.parse().map_err(|e| format!("{e}"))?,
            "--payload" => opts.payload = need("--payload")?.parse().map_err(|e| format!("{e}"))?,
            "--pipeline" => {
                opts.pipeline = need("--pipeline")?.parse().map_err(|e| format!("{e}"))?
            }
            "--warmup" => opts.warmup_s = need("--warmup")?.parse().map_err(|e| format!("{e}"))?,
            "--duration" => {
                opts.duration_s = need("--duration")?.parse().map_err(|e| format!("{e}"))?
            }
            "--durable" => {
                opts.durable = true;
                i -= 1; // flag takes no value
            }
            "--tcp" => {
                opts.tcp = true;
                i -= 1;
            }
            "--sweep" => {
                opts.sweep = true;
                i -= 1;
            }
            "--sweep-pipeline" => {
                opts.sweep_pipeline = parse_list(need("--sweep-pipeline")?, "--sweep-pipeline")?
            }
            "--checkpoint-interval" => {
                opts.checkpoint_interval = need("--checkpoint-interval")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--no-profile" => {
                opts.profile = false;
                i -= 1;
            }
            "--out" => opts.out = need("--out")?.clone(),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    if opts.tcp && opts.durable {
        return Err("--tcp does not support --durable".into());
    }
    Ok(opts)
}

/// Pulls `"tx_per_sec": <value>` out of a previously written report, so the
/// run can print a before/after comparison against the committed baseline.
/// (The top-level field always comes before the sweep array, so the first
/// occurrence is the committed-config point.)
fn baseline_tps(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let tail = text.split("\"tx_per_sec\":").nth(1)?;
    tail.split([',', '}']).next()?.trim().parse().ok()
}

/// One cluster under benchmark, over either transport. Wraps exactly the
/// operations the measurement loop needs so a sweep can mix configs without
/// duplicating the warmup/measure/teardown choreography.
enum Bench {
    Loopback(LocalCluster),
    Tcp(TcpCluster),
}

impl Bench {
    fn client_stats(&self, id: ClientId) -> Option<ClientStats> {
        match self {
            Bench::Loopback(c) => c.client_stats(id),
            Bench::Tcp(c) => c.client_stats(id),
        }
    }

    fn reset_client_latency(&self) {
        match self {
            Bench::Loopback(c) => c.reset_client_latency(),
            Bench::Tcp(c) => c.reset_client_latency(),
        }
    }

    fn transport_totals(&self) -> TransportTotals {
        match self {
            Bench::Loopback(c) => c.transport_totals(),
            Bench::Tcp(c) => c.transport_totals(),
        }
    }

    fn loop_profile(&self) -> LoopSnapshot {
        match self {
            Bench::Loopback(c) => c.loop_profile(),
            Bench::Tcp(c) => c.loop_profile(),
        }
    }

    fn shutdown(self) -> Vec<ClientStats> {
        let stats = match self {
            Bench::Loopback(c) => c.shutdown(),
            Bench::Tcp(c) => c.shutdown(),
        };
        stats.into_values().collect()
    }
}

/// Durable-run storage totals: `(wal_bytes, fsyncs, checkpoints, gc_pruned,
/// stable_checkpoint)`.
type StorageSummary = (u64, u64, u64, u64, u64);

/// The measurements of one grid point.
struct Point {
    pipeline: usize,
    elapsed: f64,
    committed: u64,
    tps: f64,
    mean_ms: f64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    max_ms: f64,
    totals: TransportTotals,
    storage: Option<StorageSummary>,
    profile: Option<LoopSnapshot>,
}

/// Launches one cluster at the given pipeline depth, runs
/// warmup + measurement, and tears it down.
fn run_point(opts: &Options, pipeline: usize) -> Point {
    let mut config = ClusterConfig::new(opts.servers)
        .with_batch_size(opts.batch_size)
        .with_payload_size(opts.payload)
        .with_pipeline_depth(pipeline);
    if opts.durable {
        config = config.with_checkpoint_interval(opts.checkpoint_interval);
    }

    // Durable mode: every server appends its commits to a real on-disk WAL
    // (fsync batched) and forms certified checkpoints — the measured delta
    // against the default in-memory run is the price of crash durability.
    let wal_root = opts.durable.then(|| {
        let root =
            std::env::temp_dir().join(format!("prestige-peak-{}-{pipeline}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    });
    let cluster = if opts.tcp {
        match TcpCluster::launch_configured(config, 7, opts.clients, opts.concurrency, opts.profile)
        {
            Ok(c) => Bench::Tcp(c),
            Err(e) => {
                eprintln!("peak_net: failed to bind TCP cluster: {e}");
                std::process::exit(1);
            }
        }
    } else {
        let storage = wal_root.as_ref().map(|root| StoragePlan::new(root.clone()));
        Bench::Loopback(LocalCluster::launch_configured(
            config,
            7,
            opts.clients,
            opts.concurrency,
            &[],
            None,
            storage,
            opts.profile,
        ))
    };

    let committed_snapshot = |c: &Bench| -> u64 {
        (0..opts.clients)
            .filter_map(|i| c.client_stats(ClientId(i)))
            .map(|s| s.committed_tx)
            .sum()
    };

    // Warmup: let leaders elect, batches fill, and queues reach steady
    // state; then reset latency accounting so the percentiles below cover
    // only the measurement window.
    std::thread::sleep(Duration::from_secs_f64(opts.warmup_s));
    cluster.reset_client_latency();
    let before = committed_snapshot(&cluster);
    let t0 = Instant::now();
    std::thread::sleep(Duration::from_secs_f64(opts.duration_s));
    let elapsed = t0.elapsed().as_secs_f64();
    let committed = committed_snapshot(&cluster).saturating_sub(before);
    let totals = cluster.transport_totals();
    let profile = opts.profile.then(|| cluster.loop_profile());

    // Storage-plane totals across servers (durable runs only), gathered
    // while the nodes are still alive.
    let storage = match (&cluster, opts.durable) {
        (Bench::Loopback(local), true) => {
            let mut wal_bytes = 0u64;
            let mut fsyncs = 0u64;
            let mut checkpoints = 0u64;
            let mut gc_pruned = 0u64;
            let mut stable = 0u64;
            for i in 0..opts.servers {
                let id = ServerId(i);
                if let Some(s) = local.storage_stats(id) {
                    wal_bytes += s.wal_bytes;
                    fsyncs += s.fsyncs;
                }
                if let Some((c, g)) = local.checkpoint_counters(id) {
                    checkpoints += c;
                    gc_pruned += g;
                }
                stable = stable.max(local.stable_checkpoint_of(id).unwrap_or(0));
            }
            Some((wal_bytes, fsyncs, checkpoints, gc_pruned, stable))
        }
        _ => None,
    };

    // Merge the per-client histograms: percentiles come from log-scaled
    // buckets (every commit counted), the mean from the exact sums.
    let final_stats = cluster.shutdown();
    if let Some(root) = &wal_root {
        let _ = std::fs::remove_dir_all(root);
    }
    let mut hist = LatencyHistogram::new();
    let mut latency_sum_ms = 0.0;
    let mut latency_count = 0u64;
    for stats in &final_stats {
        hist.merge(&stats.latency_hist);
        latency_sum_ms += stats.latency_sum_ms;
        latency_count += stats.latency_count;
    }
    let mean_ms = if latency_count == 0 {
        0.0
    } else {
        latency_sum_ms / latency_count as f64
    };

    Point {
        pipeline,
        elapsed,
        committed,
        tps: committed as f64 / elapsed,
        mean_ms,
        p50_ms: hist.percentile_ms(50.0),
        p90_ms: hist.percentile_ms(90.0),
        p99_ms: hist.percentile_ms(99.0),
        p999_ms: hist.percentile_ms(99.9),
        max_ms: hist.max_ms(),
        totals,
        storage,
        profile,
    }
}

/// Serializes a merged [`LoopSnapshot`] as the `loop_profile` JSON object:
/// per-stage nanoseconds + event counts, the busy total, and the fraction of
/// busy time the stages account for.
fn loop_profile_json(snap: &LoopSnapshot, indent: usize) -> String {
    let pad = " ".repeat(indent);
    let stages: Vec<String> = LoopStage::ALL
        .iter()
        .map(|s| {
            format!(
                "\"{}\": {{\"ns\": {}, \"events\": {}}}",
                s.name(),
                snap.stage_nanos(*s),
                snap.stage_events(*s)
            )
        })
        .collect();
    format!(
        "{pad}\"loop_profile\": {{\"total_ns\": {}, \"busy_ns\": {}, \
         \"coverage\": {:.4}, \"stages\": {{{}}}}}",
        snap.total_nanos,
        snap.busy_nanos(),
        snap.coverage(),
        stages.join(", ")
    )
}

/// The shared metric fields of one point, at `indent` spaces (the top-level
/// report and each sweep entry use the same shape).
fn metrics_json(point: &Point, indent: usize) -> String {
    let pad = " ".repeat(indent);
    let t = &point.totals;
    format!(
        "{pad}\"measured_seconds\": {:.3},\n{pad}\"committed_tx\": {},\n\
         {pad}\"tx_per_sec\": {:.1},\n{pad}\"latency_mean_ms\": {:.3},\n\
         {pad}\"latency_p50_ms\": {:.3},\n{pad}\"latency_p90_ms\": {:.3},\n\
         {pad}\"latency_p99_ms\": {:.3},\n{pad}\"latency_p999_ms\": {:.3},\n\
         {pad}\"latency_max_ms\": {:.3},\n\
         {pad}\"transport_stats\": {{\"sent\": {}, \"received\": {}, \"dropped\": {}, \
         \"writev_calls\": {}, \"frames_coalesced\": {}, \"flushes_idle\": {}, \
         \"flushes_full\": {}, \"read_calls\": {}, \"poll_calls\": {}, \
         \"syscalls_per_frame\": {:.2}}}{}",
        point.elapsed,
        point.committed,
        point.tps,
        point.mean_ms,
        point.p50_ms,
        point.p90_ms,
        point.p99_ms,
        point.p999_ms,
        point.max_ms,
        t.sent,
        t.received,
        t.dropped,
        t.writev_calls,
        t.frames_coalesced,
        t.flushes_idle,
        t.flushes_full,
        t.read_calls,
        t.poll_calls,
        t.syscalls_per_frame(),
        match &point.profile {
            Some(snap) => format!(",\n{}", loop_profile_json(snap, indent)),
            None => String::new(),
        },
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(message) => {
            eprintln!("peak_net: {message}");
            eprintln!(
                "usage: peak_net [--servers N] [--clients N] [--concurrency N] [--batch N] \
                 [--payload BYTES] [--pipeline N] [--warmup SECS] [--duration SECS] \
                 [--durable] [--tcp] [--sweep] [--sweep-pipeline A,B,..] \
                 [--checkpoint-interval N] [--no-profile] [--out PATH]"
            );
            std::process::exit(1);
        }
    };

    let baseline = baseline_tps(&opts.out);
    let transport = if opts.tcp { "tcp" } else { "loopback" };
    let cpu_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // The grid: the committed-config point always runs (first), so the
    // top-level report fields — what the baseline comparison and the CI
    // floor read — describe the same configuration on every invocation.
    // In sweep mode the remaining pipeline depths follow.
    let mut grid: Vec<usize> = vec![opts.pipeline];
    if opts.sweep {
        for &p in &opts.sweep_pipeline {
            if !grid.contains(&p) {
                grid.push(p);
            }
        }
    }

    eprintln!(
        "peak_net: {} servers, {} clients (concurrency {}), batch {}, payload {}B, \
         transport {transport}, {} cores, durable {}; {} pipeline depth(s): {:?}",
        opts.servers,
        opts.clients,
        opts.concurrency,
        opts.batch_size,
        opts.payload,
        cpu_cores,
        opts.durable,
        grid.len(),
        grid
    );

    let mut points = Vec::with_capacity(grid.len());
    for &pipeline in &grid {
        eprintln!(
            "peak_net: measuring pipeline {pipeline} ({:.1}s warmup + {:.1}s window)...",
            opts.warmup_s, opts.duration_s
        );
        let point = run_point(&opts, pipeline);
        match &point.profile {
            Some(snap) => eprintln!(
                "peak_net:   -> {:.0} tx/s, p50 {:.3} ms, p99 {:.3} ms, p99.9 {:.3} ms \
                 (profile coverage {:.0}%)",
                point.tps,
                point.p50_ms,
                point.p99_ms,
                point.p999_ms,
                snap.coverage() * 100.0
            ),
            None => eprintln!(
                "peak_net:   -> {:.0} tx/s, p50 {:.3} ms, p99 {:.3} ms, p99.9 {:.3} ms",
                point.tps, point.p50_ms, point.p99_ms, point.p999_ms
            ),
        }
        points.push(point);
    }
    let committed_point = &points[0];
    let best = points
        .iter()
        .max_by(|a, b| a.tps.total_cmp(&b.tps))
        .expect("at least one point");

    let storage_json = match &committed_point.storage {
        Some((wal_bytes, fsyncs, checkpoints, gc_pruned, stable)) => format!(
            "  \"durable\": true,\n  \"checkpoint_interval\": {},\n  \
             \"wal_bytes\": {wal_bytes},\n  \"fsyncs\": {fsyncs},\n  \
             \"checkpoint_count\": {checkpoints},\n  \"gc_pruned_keys\": {gc_pruned},\n  \
             \"stable_checkpoint\": {stable},\n",
            opts.checkpoint_interval
        ),
        None => "  \"durable\": false,\n".to_string(),
    };
    let sweep_json = if opts.sweep {
        let entries: Vec<String> = points
            .iter()
            .map(|p| {
                format!(
                    "    {{\n      \"pipeline_depth\": {},\n{}\n    }}",
                    p.pipeline,
                    metrics_json(p, 6)
                )
            })
            .collect();
        format!(
            ",\n  \"best_pipeline_depth\": {},\n  \"best_tx_per_sec\": {:.1},\n  \
             \"sweep\": [\n{}\n  ]",
            best.pipeline,
            best.tps,
            entries.join(",\n")
        )
    } else {
        String::new()
    };
    let report = format!(
        "{{\n  \"bench\": \"peak_net\",\n  \"transport\": \"{transport}\",\n  \
         \"servers\": {},\n  \"clients\": {},\n  \"concurrency\": {},\n  \
         \"batch_size\": {},\n  \"payload_bytes\": {},\n  \
         \"pipeline_depth\": {},\n  \"cpu_cores\": {cpu_cores},\n{}{}{}\n}}\n",
        opts.servers,
        opts.clients,
        opts.concurrency,
        opts.batch_size,
        opts.payload,
        committed_point.pipeline,
        storage_json,
        metrics_json(committed_point, 2),
        sweep_json,
    );
    print!("{report}");
    if let Err(e) = std::fs::write(&opts.out, &report) {
        eprintln!("peak_net: failed to write {}: {e}", opts.out);
        std::process::exit(1);
    }
    eprintln!(
        "peak_net: {} tx in {:.1}s -> {:.0} tx/s (written to {})",
        committed_point.committed, committed_point.elapsed, committed_point.tps, opts.out
    );
    if opts.sweep {
        eprintln!(
            "peak_net: best point pipeline {} -> {:.0} tx/s",
            best.pipeline, best.tps
        );
    }
    match baseline {
        Some(before) if before > 0.0 => eprintln!(
            "peak_net: baseline in {} was {before:.0} tx/s -> now {:.0} tx/s ({:+.1}%)",
            opts.out,
            committed_point.tps,
            (committed_point.tps - before) / before * 100.0
        ),
        _ => eprintln!(
            "peak_net: no committed baseline in {} to compare against",
            opts.out
        ),
    }
    if committed_point.committed == 0 {
        eprintln!("peak_net: cluster committed nothing — hot path regression?");
        std::process::exit(2);
    }
}
