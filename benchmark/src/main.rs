//! The repo benchmark. See `README.md` beside this package for the metrics,
//! the workloads and how they interact.
//!
//! ```text
//! prestige-benchmark run      [--workload NAME] [--seed S] [--reps R] [--traced] [--quick]
//!                             [--seconds S] [--out PATH]
//! prestige-benchmark compare  A.json B.json
//! prestige-benchmark spread   [--workload NAME] [--runs N] [--seconds S]
//! prestige-benchmark measure  --workload NAME --seed S --seconds S --trace 0|1
//! prestige-benchmark metrics     (what every metric is for)
//! prestige-benchmark manifest    (prints BENCHMARK.json)
//! ```
//!
//! `measure` is the driver contract's entry point (`BENCHMARK.json` names it);
//! `run` is the same measurement for people: a whole set, every metric
//! printed by name, non-zero exit unless every output is correct.

mod cluster;
mod host;
mod json;
mod micro;
mod rep;
mod report;
mod spec;
mod stats;
mod trace;
mod traced;

use rep::{RepOutcome, RepPlan};
use report::WorkloadRuns;
use spec::{Workload, FULL_SCALE_SECONDS, QUICK_SCALE, RUN_SECONDS, WORKLOADS};
use stats::Verdict;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// A child that has not finished by now is killed and counted as failed.
const CHILD_CAP: Duration = Duration::from_secs(150);

/// `--flag value` pairs and bare `--flag`s after the subcommand.
struct Args {
    flags: HashMap<String, String>,
    positional: Vec<String>,
}

const BARE_FLAGS: [&str; 4] = ["--traced", "--quick", "--setup-only", "--kill"];

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = HashMap::new();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            if BARE_FLAGS.contains(&arg.as_str()) {
                flags.insert(arg.clone(), String::new());
            } else if arg.starts_with("--") {
                let value = args.get(i + 1).ok_or(format!("{arg} needs a value"))?;
                flags.insert(arg.clone(), value.clone());
                i += 1;
            } else {
                positional.push(arg.clone());
            }
            i += 1;
        }
        Ok(Args { flags, positional })
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    fn get<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.flags.get(flag) {
            None => Ok(None),
            Some(text) => text
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: cannot read `{text}`")),
        }
    }

    fn workloads(&self) -> Result<Vec<&'static Workload>, String> {
        match self.flags.get("--workload") {
            None => Ok(WORKLOADS.iter().collect()),
            Some(name) => Workload::by_name(name)
                .map(|w| vec![w])
                .ok_or(format!("unknown workload `{name}`")),
        }
    }

    /// Work factor: `--quick`, else `--seconds` over the full-size run.
    fn scale(&self) -> Result<f64, String> {
        if self.has("--quick") {
            return Ok(QUICK_SCALE);
        }
        let seconds: f64 = self.get("--seconds")?.unwrap_or(RUN_SECONDS as f64);
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(seconds / FULL_SCALE_SECONDS)
    }
}

/// Where scratch files and traces go: `out/` of this package, inside the
/// checkout whether started by `cargo run` or directly.
fn out_dir() -> PathBuf {
    let package = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(package).join("out")
}

/// Runs one repetition in a fresh child process of this executable.
fn child_rep(plan: &RepPlan) -> Result<RepOutcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("rep")
        .args(["--workload", plan.workload.name])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--scale", &plan.scale.to_string()])
        .args(["--out-dir", &plan.out_dir.to_string_lossy()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if plan.traced {
        command.arg("--traced");
    }
    if plan.kill {
        command.arg("--kill");
    }
    if plan.setup_only {
        command.arg("--setup-only");
    }
    let mut child = command.spawn().map_err(|e| format!("spawn: {e}"))?;
    // The result is one short line, far below the pipe's capacity, so the
    // child never blocks on a full pipe while we wait for it to exit.
    let started = Instant::now();
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait: {e}"))? {
            Some(status) => break status,
            None if started.elapsed() >= CHILD_CAP => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("repetition killed after {CHILD_CAP:?}"));
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let output = child.wait_with_output().map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text.lines().last().unwrap_or("");
    if !status.success() {
        return Err(format!("repetition failed ({status}): {line}"));
    }
    json::parse(line)
        .ok()
        .as_ref()
        .and_then(RepOutcome::from_json)
        .ok_or_else(|| format!("repetition printed no result: {line:?}"))
}

/// The `rep` subcommand: the body of one child process.
fn rep_main(args: &Args) -> Result<(), String> {
    let workload = *args.workloads()?.first().ok_or("--workload needed")?;
    let plan = RepPlan {
        workload,
        seed: args.get("--seed")?.unwrap_or(7),
        scale: args.get("--scale")?.ok_or("--scale needed")?,
        traced: args.has("--traced"),
        kill: args.has("--kill"),
        setup_only: args.has("--setup-only"),
        out_dir: args
            .get::<String>("--out-dir")?
            .map_or_else(out_dir, PathBuf::from),
    };
    std::fs::create_dir_all(&plan.out_dir).map_err(|e| format!("out dir: {e}"))?;
    let outcome = rep::run(&plan)?;
    println!("{}", json::one_line(&outcome.to_json()));
    Ok(())
}

/// How many repetitions of each kind a set makes of one workload.
#[derive(Debug, Clone, Copy)]
struct Counts {
    /// Untraced repetitions; the first `kills` of them end with a kill.
    plain: usize,
    kills: usize,
    /// Traced repetitions, each ending with a kill.
    traced: usize,
    /// Launches made only to time the set-up.
    extra_setups: usize,
}

/// `setup_s` is the fastest of at least this many set-ups per set.
const SETUP_SAMPLES: usize = 12;

impl Counts {
    /// The end-to-end set of one workload.
    fn end_to_end(w: &Workload) -> Self {
        Counts {
            plain: w.reps,
            kills: w.kills,
            traced: 0,
            extra_setups: SETUP_SAMPLES.saturating_sub(w.reps),
        }
    }

    /// The traced repetitions, plus untraced ones the tracing overhead is
    /// taken against.
    fn per_layer(w: &Workload) -> Self {
        Counts {
            plain: w.traced_reps.min(2),
            kills: 0,
            traced: w.traced_reps,
            extra_setups: 0,
        }
    }

    /// `--quick`: the smallest set that still runs every check.
    fn quick(w: &Workload, traced: bool) -> Self {
        Counts {
            plain: w.quick_reps,
            kills: w.quick_reps,
            traced: if traced { 1 } else { 0 },
            extra_setups: 2,
        }
    }
}

/// Runs the set, interleaving the workloads repetition by repetition so slow
/// drift of the host lands on all of them alike.
fn run_set(
    workloads: &[&'static Workload],
    seed: u64,
    scale: f64,
    counts: impl Fn(&Workload) -> Counts,
) -> Vec<(&'static str, WorkloadRuns)> {
    let out_dir = out_dir();
    let _ = std::fs::create_dir_all(&out_dir);
    // Every repetition pins itself to the last CPU; this process, which only
    // waits for them, keeps off it.
    let cpus = host::allowed_cpus();
    if let Some((_, others)) = cpus.split_last() {
        host::run_on(others);
    }
    let mut sets: Vec<(&'static str, WorkloadRuns)> = workloads
        .iter()
        .map(|w| (w.name, WorkloadRuns::default()))
        .collect();
    let rounds = workloads
        .iter()
        .map(|w| {
            let c = counts(w);
            c.plain.max(c.traced).max(c.extra_setups)
        })
        .max()
        .unwrap_or(0);
    let rep = |w: &'static Workload, index: usize, traced: bool, kill: bool, setup_only: bool| {
        child_rep(&RepPlan {
            workload: w,
            seed: seed + index as u64,
            scale,
            traced,
            kill,
            setup_only,
            out_dir: out_dir.clone(),
        })
    };
    for round in 0..rounds {
        for (w, (_, runs)) in workloads.iter().zip(sets.iter_mut()) {
            let c = counts(w);
            if round < c.plain {
                match rep(w, round, false, round < c.kills, false) {
                    Ok(outcome) => {
                        eprintln!(
                            "{} #{round}: {:.0} tx/s, p50 {:.3} ms, failover {:.0} ms",
                            w.name,
                            outcome.get("tx_per_s").unwrap_or(0.0),
                            outcome.get("commit_p50_ms").unwrap_or(0.0),
                            outcome.get("failover_ms").unwrap_or(0.0),
                        );
                        runs.plain.push(outcome);
                    }
                    Err(e) => runs.broken.push(e),
                }
            }
            if round < c.traced {
                match rep(w, round, true, true, false) {
                    Ok(outcome) => runs.traced.push(outcome),
                    Err(e) => runs.broken.push(e),
                }
            }
            if round < c.extra_setups {
                match rep(w, round, false, false, true) {
                    Ok(outcome) => runs.extra_setups.extend(outcome.get("setup_s")),
                    Err(e) => runs.broken.push(e),
                }
            }
        }
    }
    sets
}

fn run_main(args: &Args) -> Result<bool, String> {
    let quick = args.has("--quick");
    let reps: Option<usize> = args.get("--reps")?;
    let traced = args.has("--traced");
    let (seed, scale) = (args.get("--seed")?.unwrap_or(7), args.scale()?);
    let sets = run_set(&args.workloads()?, seed, scale, |w| {
        let mut counts = if quick {
            Counts::quick(w, traced)
        } else {
            Counts::end_to_end(w)
        };
        if traced && !quick {
            counts.traced = w.traced_reps;
        }
        if let Some(reps) = reps {
            counts.kills = counts.kills.min(reps).max(reps.min(1));
            counts.plain = reps;
        }
        counts
    });
    let host = host::HostFacts::read();
    report::print_set(&host, seed, scale, &sets);
    if let Some(path) = args.get::<String>("--out")? {
        let doc = report::set_json(&host, seed, scale, &sets);
        std::fs::write(&path, doc.render()).map_err(|e| format!("{path}: {e}"))?;
        println!("\nset written to {path}");
    }
    Ok(sets.iter().all(|(_, runs)| runs.errors().is_empty()))
}

/// One `measure` call's repetitions of one workload.
fn measure_runs(w: &'static Workload, seed: u64, scale: f64, trace: bool) -> WorkloadRuns {
    let counts = if trace {
        Counts::per_layer
    } else {
        Counts::end_to_end
    };
    run_set(&[w], seed, scale, counts)
        .pop()
        .expect("one workload in, one out")
        .1
}

fn measure_main(args: &Args) -> Result<bool, String> {
    let workload = match args.flags.get("--workload") {
        Some(_) => args.workloads()?[0],
        None => return Err("measure needs --workload".into()),
    };
    let trace = match args.get::<u8>("--trace")? {
        Some(0) | None => false,
        Some(1) => true,
        Some(other) => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    let seed = args.get("--seed")?.unwrap_or(7);
    let runs = measure_runs(workload, seed, args.scale()?, trace);
    for e in runs.errors() {
        eprintln!("check failed: {e}");
    }
    println!("{}", report::contract_line(&runs, trace)?);
    Ok(true)
}

fn spread_main(args: &Args) -> Result<bool, String> {
    let runs: u64 = args.get("--runs")?.unwrap_or(10);
    let scale = args.scale()?;
    let mut steady = true;
    for w in args.workloads()? {
        let mut results = Vec::new();
        for seed in 1..=runs {
            let set = measure_runs(w, seed * 101, scale, false);
            for e in set.errors() {
                eprintln!("{} seed {}: check failed: {e}", w.name, seed * 101);
                steady = false;
            }
            results.push(
                spec::END_TO_END
                    .iter()
                    .filter_map(|m| Some((m.name.to_string(), set.end_to_end(m.name)?.value)))
                    .collect::<Vec<_>>(),
            );
        }
        report::print_spreads(w.name, &results);
    }
    Ok(steady)
}

fn compare_main(args: &Args) -> Result<bool, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare needs two set files".into());
    };
    let read = |path: &String| -> Result<_, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = report::compare(&read(a)?, &read(b)?);
    if rows.is_empty() {
        return Err("the two sets share no workload and metric".into());
    }
    report::print_comparison(&rows);
    Ok(rows
        .iter()
        .all(|r| !matches!(r.verdict, Verdict::Worse | Verdict::Unresolved)))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: prestige-benchmark run|compare|spread|measure|metrics|manifest [flags]");
        return ExitCode::from(2);
    };
    let result = Args::parse(rest).and_then(|args| match command.as_str() {
        "run" => run_main(&args),
        "measure" => measure_main(&args),
        "spread" => spread_main(&args),
        "compare" => compare_main(&args),
        "rep" => rep_main(&args).map(|()| true),
        "manifest" => {
            print!("{}", spec::manifest().render());
            Ok(true)
        }
        "metrics" => {
            report::print_catalogue();
            Ok(true)
        }
        other => Err(format!("unknown subcommand `{other}`")),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("prestige-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
