//! The `vopr` binary: seeded falsification swarms, scenario replay, and
//! standalone shrinking.
//!
//! ```text
//! vopr run --seeds N [--start S] [--out DIR] [--no-shrink] [--expect-violation]
//! vopr replay <file.toml> [<file.toml> ...] [--seeds N [--start S]]
//! vopr shrink <file.toml> [--out DIR]
//! ```
//!
//! `run` and `replay` judge every run by one rule, on one path: run the
//! scenario under the simulator with every invariant checked after every
//! event, then compare with the scenario's own expectation through
//! `Scenario::judge` (`[assert]` must hold on a clean run; `[expect]
//! violation` must be falsified, so a protocol fix that invalidates a
//! reproducer is surfaced and a regression that resurfaces is caught). Each
//! run prints one verdict line, `<label> seed N: ok` or `<label> seed N:
//! FAILED — <reasons>`, and under it an indented summary of the run: `(clean,
//! N tx committed, V view(s) installed)` or `(<invariant> falsified on sR at
//! T ms)`. Under a FAILED verdict an indented `refusals:` line tallies the
//! correct servers' campaign refusals by kind, and one indented line per
//! correct server that answers gives its final view and leader, how many
//! campaigns it started and the last one as (ms, rp, PoW ms), and the time
//! of its last commit. Both print a JSON report of their runs and exit
//! nonzero if a run failed.
//!
//! `run` judges the generated schedules of seeds `S..S+N` (label `swarm`).
//! It shrinks a failure that falsified an invariant and, with `--out`, writes
//! it as a reproducer; a failure the judge alone finds is reported, not
//! shrunk. With `--expect-violation` (the mutation-score gate: the binary is
//! built with a canary feature enabled) the polarity flips — the run stops
//! at the *first* failure and exits nonzero unless that failure falsified an
//! invariant, i.e. the harness failed to catch the re-introduced bug.
//!
//! `replay` runs scenario files — a `scenarios/*.toml` CI gate or a committed
//! reproducer under `vopr/regressions/` — at their own seed, or over seeds
//! `S..S+N` with `--seeds N` (label: the file's path), and names every failed
//! run again at the end. `shrink` minimizes a failing scenario file. `replay`
//! and `shrink` refuse a file whose `protocol` is not `pb`: the invariants
//! read PrestigeBFT server state.

use prestige_vopr::{generate, run_scenario, shrink, Scenario, SwarmReport, Violation};
use prestige_workloads::scenario::Expectation;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  vopr run --seeds N [--start S] [--out DIR] [--no-shrink] [--expect-violation]\n  \
         vopr replay <file.toml> [...] [--seeds N [--start S]]\n  \
         vopr shrink <file.toml> [--out DIR]"
    );
    ExitCode::from(2)
}

fn canary_label() -> &'static str {
    #[cfg(feature = "canary-c3-fork")]
    return "canary-c3-fork";
    #[cfg(all(feature = "canary-double-commit", not(feature = "canary-c3-fork")))]
    return "canary-double-commit";
    #[cfg(not(any(feature = "canary-c3-fork", feature = "canary-double-commit")))]
    "none"
}

/// Writes `scenario` as a committed reproducer: the same file format every
/// scenario uses, expecting `violation`, under a provenance header.
fn write_regression(
    dir: &Path,
    scenario: &Scenario,
    violation: &Violation,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let name = format!("seed-{}-{}", scenario.seed, violation.invariant);
    let path = dir.join(format!("{name}.toml"));
    let mut reproducer = scenario.clone();
    reproducer.expect = Expectation::Violation(violation.invariant.to_string());
    reproducer.name = name;
    let text = format!(
        "# vopr regression: seed {} falsified `{}` on s{} at {:.1} ms\n# detail: {}\n\
         # canary: {}\n# replay: cargo run --release -p prestige-vopr -- replay <this file>\n\n{}",
        scenario.seed,
        violation.invariant,
        violation.replica,
        violation.at_ms,
        violation.detail,
        canary_label(),
        reproducer.to_toml()
    );
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Reads a scenario file vopr can run; on failure says why on stderr.
fn load_scenario(path: &str) -> Option<Scenario> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let parsed = text.and_then(|t| {
        let scenario = Scenario::from_toml(&t).and_then(|s| s.lint_for_vopr().map(|()| s));
        scenario.map_err(|e| format!("{path}: {e}"))
    });
    parsed.map_err(|e| eprintln!("{e}")).ok()
}

/// The arguments after the subcommand: files and every flag any of the
/// three takes (each reads the ones it documents).
#[derive(Default)]
struct Args {
    files: Vec<String>,
    seeds: Option<u64>,
    start: u64,
    out_dir: Option<PathBuf>,
    no_shrink: bool,
    expect_violation: bool,
}

fn parse_args(args: &[String]) -> Option<Args> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => parsed.seeds = Some(it.next()?.parse().ok()?),
            "--start" => parsed.start = it.next()?.parse().ok()?,
            "--out" => parsed.out_dir = Some(PathBuf::from(it.next()?)),
            "--no-shrink" => parsed.no_shrink = true,
            "--expect-violation" => parsed.expect_violation = true,
            flag if flag.starts_with("--") => return None,
            file => parsed.files.push(file.to_string()),
        }
    }
    Some(parsed)
}

/// The one per-run path of `run` and `replay`: runs `scenario`, judges it,
/// prints the verdict line with the run's summary under it (and, under a
/// failure, the refusal tally and per-server lines), and records the verdict
/// in `report`. Returns the verdict line of a failed run.
fn judge_run(label: &str, scenario: &Scenario, report: &mut SwarmReport) -> Option<String> {
    let outcome = run_scenario(scenario);
    let seed = scenario.seed;
    let summary = match &outcome.violation {
        Some(v) => format!(
            "{} falsified on s{} at {:.1} ms",
            v.invariant, v.replica, v.at_ms
        ),
        None => format!(
            "clean, {} tx committed, {} view(s) installed",
            outcome.observations.committed(),
            outcome.views_installed
        ),
    };
    let Some(failure) = report.record(scenario, &outcome) else {
        eprintln!("{label} seed {seed}: ok\n  ({summary})");
        return None;
    };
    let line = format!(
        "{label} seed {seed}: FAILED — {}",
        failure.reasons.join("; ")
    );
    eprintln!("{line}\n  ({summary})");
    eprintln!("  refusals: {}", outcome.observations.refusal_tally());
    for server in outcome.observations.server_lines() {
        eprintln!("  {server}");
    }
    Some(line)
}

fn cmd_run(args: Args) -> ExitCode {
    let (Some(seeds), true) = (args.seeds, args.files.is_empty()) else {
        return usage();
    };

    let mut report = SwarmReport::default();
    for seed in args.start..args.start + seeds {
        let schedule = generate(seed);
        if judge_run("swarm", &schedule, &mut report).is_none() {
            continue;
        }
        let record = report
            .failures
            .last_mut()
            .expect("a failed run is recorded");
        // Only a falsified invariant is shrunk and written as a reproducer:
        // the shrinker keeps a candidate while it still violates one.
        if let Some(violation) = &mut record.violation {
            if let Some(result) = (!args.no_shrink).then(|| shrink(&schedule)).flatten() {
                eprintln!(
                    "seed {seed}: shrunk to {} fault(s) over {} ms in {} candidate runs",
                    result.schedule.faults.len(),
                    result.schedule.duration_ms,
                    result.candidates_run
                );
                report.schedules_shrunk += 1;
                report.shrink_candidates_run += result.candidates_run;
                *violation = result.violation;
                record.shrunk = Some(result.schedule);
            }
            if let Some(dir) = &args.out_dir {
                let found = record.shrunk.as_ref().unwrap_or(&schedule);
                match write_regression(dir, found, violation) {
                    Ok(path) => record.regression_file = Some(path.display().to_string()),
                    Err(e) => eprintln!("seed {seed}: cannot write regression: {e}"),
                }
            }
        }
        if args.expect_violation {
            // Mutation gate: one caught bug proves the harness; stop early.
            break;
        }
    }

    print!("{}", report.to_json().render());
    let passed = if args.expect_violation {
        let caught = report.failures.iter().any(|f| f.violation.is_some());
        if caught {
            eprintln!(
                "mutation gate: harness caught the {} canary",
                canary_label()
            );
        } else {
            eprintln!(
                "mutation gate FAILED: {} seeds falsified nothing with canary {}",
                report.seeds_run,
                canary_label()
            );
        }
        caught
    } else {
        report.failures.is_empty()
    };
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_replay(args: Args) -> ExitCode {
    if args.files.is_empty() {
        return usage();
    }
    let mut report = SwarmReport::default();
    let mut failed: Vec<String> = Vec::new();
    for path in &args.files {
        let Some(mut scenario) = load_scenario(path) else {
            return ExitCode::FAILURE;
        };
        let sweep = match args.seeds {
            Some(n) => args.start..args.start + n,
            None => scenario.seed..scenario.seed + 1,
        };
        for seed in sweep {
            scenario.seed = seed;
            failed.extend(judge_run(path, &scenario, &mut report));
        }
    }
    print!("{}", report.to_json().render());
    if failed.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "replay: {} of {} run(s) did not meet their file's expectation:",
        failed.len(),
        report.seeds_run
    );
    for line in &failed {
        eprintln!("  {line}");
    }
    ExitCode::FAILURE
}

fn cmd_shrink(args: Args) -> ExitCode {
    let [path] = &args.files[..] else {
        return usage();
    };
    let Some(schedule) = load_scenario(path) else {
        return ExitCode::FAILURE;
    };
    match shrink(&schedule) {
        Some(result) => {
            eprintln!(
                "shrunk to {} fault(s) over {} ms in {} candidate runs; violation: {} — {}",
                result.schedule.faults.len(),
                result.schedule.duration_ms,
                result.candidates_run,
                result.violation.invariant,
                result.violation.detail
            );
            let dir = args.out_dir.clone().unwrap_or_else(|| {
                Path::new(path)
                    .parent()
                    .map(Path::to_path_buf)
                    .unwrap_or_else(|| PathBuf::from("."))
            });
            match write_regression(&dir, &result.schedule, &result.violation) {
                Ok(p) => {
                    eprintln!("wrote {}", p.display());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("cannot write shrunk schedule: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        None => {
            eprintln!("{path}: schedule does not violate any invariant; nothing to shrink");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    match (command.as_str(), parse_args(rest)) {
        ("run", Some(args)) => cmd_run(args),
        ("replay", Some(args)) => cmd_replay(args),
        ("shrink", Some(args)) => cmd_shrink(args),
        _ => usage(),
    }
}
