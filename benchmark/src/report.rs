//! Folding repetitions into a set, printing it, and comparing two sets.

use crate::host::HostFacts;
use crate::json;
use crate::rep::RepOutcome;
use crate::spec::{fold_of, per_layer, Fold, END_TO_END, WORKLOADS};
use crate::stats::{classify, mean, median, quartiles, spread_share, worsening, Better, Verdict};
use prestige_metrics::Json;

/// Every repetition made of one workload.
#[derive(Debug, Default, Clone)]
pub struct WorkloadRuns {
    /// Stock launchers, tracing off: the end-to-end numbers.
    pub plain: Vec<RepOutcome>,
    /// Decorated launcher: the per-layer numbers.
    pub traced: Vec<RepOutcome>,
    /// `setup_s` of launches made only to time the set-up.
    pub extra_setups: Vec<f64>,
    /// Children that died or returned nothing.
    pub broken: Vec<String>,
}

/// One metric of one workload, folded over the set.
#[derive(Debug, Clone)]
pub struct Folded {
    pub value: f64,
    pub values: Vec<f64>,
}

pub fn fold(name: &str, values: &[f64]) -> f64 {
    match fold_of(name) {
        Fold::Median => median(values),
        Fold::Mean => mean(values),
        Fold::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
        Fold::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

fn collect(reps: &[RepOutcome], name: &str) -> Vec<f64> {
    reps.iter().filter_map(|r| r.get(name)).collect()
}

impl WorkloadRuns {
    /// An end-to-end metric over the untraced repetitions (`setup_s` also
    /// over the set-up-only launches).
    pub fn end_to_end(&self, name: &str) -> Option<Folded> {
        let mut values = collect(&self.plain, name);
        if name == "setup_s" {
            values.extend(&self.extra_setups);
        }
        (!values.is_empty()).then(|| Folded {
            value: fold(name, &values),
            values,
        })
    }

    /// A per-layer metric over the traced repetitions.
    pub fn layer(&self, name: &str) -> Option<Folded> {
        if name == "bench.trace_overhead_share" {
            let traced = median(&collect(&self.traced, "tx_per_s"));
            let plain = median(&collect(&self.plain, "tx_per_s"));
            return (traced > 0.0 && plain > 0.0).then(|| Folded {
                value: 1.0 - traced / plain,
                values: vec![1.0 - traced / plain],
            });
        }
        let values = collect(&self.traced, name);
        (!values.is_empty()).then(|| Folded {
            value: fold(name, &values),
            values,
        })
    }

    pub fn attempted(&self) -> u64 {
        self.all().map(|r| r.attempted).sum::<u64>().max(1)
    }

    pub fn failed(&self) -> u64 {
        self.all().map(|r| r.failed).sum::<u64>() + self.broken.len() as u64
    }

    fn all(&self) -> impl Iterator<Item = &RepOutcome> {
        self.plain.iter().chain(&self.traced)
    }

    /// Every check that did not hold, over every repetition.
    pub fn errors(&self) -> Vec<String> {
        self.all()
            .flat_map(|r| r.errors.iter().cloned())
            .chain(self.broken.iter().cloned())
            .collect()
    }
}

/// The last line a `measure` call prints: the driver contract's result.
pub fn contract_line(runs: &WorkloadRuns, traced: bool) -> Result<String, String> {
    let mut metrics = Json::obj();
    let mut put = |name: &str, unit: &str, folded: Option<Folded>| -> Result<(), String> {
        let folded = folded.ok_or_else(|| format!("metric {name} was not measured"))?;
        let mut m = Json::obj();
        m.push("value", folded.value).push("unit", unit);
        metrics.push(name, m);
        Ok(())
    };
    if traced {
        for m in per_layer() {
            put(&m.name, m.unit, runs.layer(&m.name))?;
        }
    } else {
        for m in &END_TO_END {
            put(m.name, m.unit, runs.end_to_end(m.name))?;
        }
    }
    let mut doc = Json::obj();
    doc.push("correct", runs.errors().is_empty())
        .push("attempted", runs.attempted())
        .push("failed", runs.failed())
        .push("metrics", metrics);
    Ok(json::one_line(&doc))
}

/// Smallest and largest of `values`.
fn range(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(*v), hi.max(*v))
        })
}

fn metric_json(folded: &Folded, unit: &str, better: Better, bound: Option<f64>) -> Json {
    let (low, high) = range(&folded.values);
    let mut m = Json::obj();
    m.push("value", folded.value)
        .push("unit", unit)
        .push("better", better.as_str());
    if let Some(bound) = bound {
        m.push("bound", bound);
    }
    m.push("samples", folded.values.len())
        .push("min", low)
        .push("max", high)
        .push(
            "values",
            folded
                .values
                .iter()
                .map(|v| Json::from(*v))
                .collect::<Vec<_>>(),
        );
    m
}

/// The set as a document `compare` reads back.
pub fn set_json(host: &HostFacts, seed: u64, scale: f64, sets: &[(&str, WorkloadRuns)]) -> Json {
    let mut host_doc = Json::obj();
    host_doc
        .push("nproc", host.nproc)
        .push("cpu_model", host.cpu_model.as_str())
        .push("rustc", host.rustc.as_str())
        .push("git_rev", host.git_rev.as_str());
    let mut workloads = Json::obj();
    for (name, runs) in sets {
        let mut end_to_end = Json::obj();
        for m in &END_TO_END {
            if let Some(folded) = runs.end_to_end(m.name) {
                end_to_end.push(
                    m.name,
                    metric_json(&folded, m.unit, m.better, Some(m.bound)),
                );
            }
        }
        let mut layers = Json::obj();
        for m in per_layer() {
            if let Some(folded) = runs.layer(&m.name) {
                layers.push(
                    m.name.as_str(),
                    metric_json(&folded, m.unit, m.better, None),
                );
            }
        }
        let mut w = Json::obj();
        w.push("correct", runs.errors().is_empty())
            .push("attempted", runs.attempted())
            .push("failed", runs.failed())
            .push(
                "errors",
                runs.errors()
                    .into_iter()
                    .map(Json::from)
                    .collect::<Vec<_>>(),
            )
            .push("end_to_end", end_to_end)
            .push("per_layer", layers);
        workloads.push(*name, w);
    }
    let mut doc = Json::obj();
    doc.push("host", host_doc)
        .push("seed", seed)
        .push("scale", scale)
        .push("workloads", workloads);
    doc
}

/// Prints every metric of the set by name, with unit, direction, bound,
/// sample count and range, under the host facts.
pub fn print_set(host: &HostFacts, seed: u64, scale: f64, sets: &[(&str, WorkloadRuns)]) {
    println!(
        "host: {} cores, {}, {}, rev {}",
        host.nproc, host.cpu_model, host.rustc, host.git_rev
    );
    println!(
        "seed {seed}, scale {scale} of the full-size counts; 4 servers + 1 client thread in one \
         process, closed loop, no message delay injected (latency is processor time only)"
    );
    for (name, runs) in sets {
        let errors = runs.errors();
        println!(
            "\n== {name}: {} ({} of {} operations failed)",
            if errors.is_empty() {
                "correct"
            } else {
                "INCORRECT"
            },
            runs.failed(),
            runs.attempted()
        );
        for e in &errors {
            println!("   check failed: {e}");
        }
        println!(
            "   {:<44} {:>14} {:<7} {:<7} {:>6} {:>3}  {:>14} {:>14}",
            "metric", "value", "unit", "better", "bound", "n", "min", "max"
        );
        let row = |name: &str, unit: &str, better: Better, bound: Option<f64>, f: &Folded| {
            let (low, high) = range(&f.values);
            println!(
                "   {:<44} {:>14.4} {:<7} {:<7} {:>6} {:>3}  {:>14.4} {:>14.4}",
                name,
                f.value,
                unit,
                better.as_str(),
                bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
                f.values.len(),
                low,
                high
            );
        };
        for m in &END_TO_END {
            if let Some(folded) = runs.end_to_end(m.name) {
                row(m.name, m.unit, m.better, Some(m.bound), &folded);
            }
        }
        for m in per_layer() {
            if let Some(folded) = runs.layer(&m.name) {
                row(&m.name, m.unit, m.better, None, &folded);
            }
        }
    }
}

/// One row of `compare`.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// How much worse B is than A, as a share of A (negative: better).
    pub worse_by: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

fn values_of(set: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let w = json::get(json::get(set, "workloads")?, workload)?;
    let m = json::get(json::get(w, "end_to_end")?, metric)?;
    let values: Vec<f64> = json::as_array(json::get(m, "values")?)
        .iter()
        .filter_map(json::as_f64)
        .collect();
    (!values.is_empty()).then_some(values)
}

/// The half of `values` on the better side of their median, median included.
fn better_half(values: &[f64], better: Better) -> Vec<f64> {
    let mid = median(values);
    values
        .iter()
        .copied()
        .filter(|v| match better {
            Better::Lower => *v <= mid,
            Better::Higher => *v >= mid,
        })
        .collect()
}

/// One row per workload and end-to-end metric present in both sets,
/// classified with the benchmark's own bounds.
pub fn compare(a: &Json, b: &Json) -> Vec<Comparison> {
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (values_of(a, w.name, m.name), values_of(b, w.name, m.name))
            else {
                continue;
            };
            // A metric reported from its best repetition is as repeatable as
            // its better half: the disturbed repetitions it skips on purpose
            // do not make it unresolved.
            let (sa, sb) = match (fold_of(m.name), m.better) {
                (Fold::Min, Better::Lower) | (Fold::Max, Better::Higher) => {
                    (better_half(&va, m.better), better_half(&vb, m.better))
                }
                _ => (va.clone(), vb.clone()),
            };
            let (fa, fb) = (fold(m.name, &va), fold(m.name, &vb));
            let (spread_a, spread_b) = (spread_share(&sa), spread_share(&sb));
            rows.push(Comparison {
                workload: w.name.to_string(),
                metric: m.name.to_string(),
                a: fa,
                b: fb,
                worse_by: worsening(fa, fb, m.better),
                spread_a,
                spread_b,
                bound: m.bound,
                verdict: classify(fa, fb, spread_a, spread_b, m.better, m.bound),
            });
        }
    }
    rows
}

pub fn print_comparison(rows: &[Comparison]) {
    println!(
        "{:<10} {:<14} {:>14} {:>14} {:>9} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse by", "spread A", "spread B", "bound"
    );
    for r in rows {
        println!(
            "{:<10} {:<14} {:>14.4} {:>14.4} {:>8.1}% {:>8.1}% {:>8.1}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread_a * 100.0,
            r.spread_b * 100.0,
            r.bound * 100.0,
            r.verdict.as_str()
        );
    }
}

/// Spread of every end-to-end metric over several `measure` results, as the
/// driver computes it: quartile distance over the median.
pub fn print_spreads(workload: &str, results: &[Vec<(String, f64)>]) {
    println!("\n== {workload}: spread over {} runs", results.len());
    println!(
        "   {:<16} {:>14} {:>14} {:>14} {:>9} {:>6}",
        "metric", "median", "q1", "q3", "spread", "bound"
    );
    for m in &END_TO_END {
        let values: Vec<f64> = results
            .iter()
            .filter_map(|r| r.iter().find(|(n, _)| n == m.name).map(|(_, v)| *v))
            .collect();
        let (q1, q3) = quartiles(&values);
        let spread = spread_share(&values);
        println!(
            "   {:<16} {:>14.4} {:>14.4} {:>14.4} {:>8.2}% {:>5.0}%{}",
            m.name,
            median(&values),
            q1,
            q3,
            spread * 100.0,
            m.bound * 100.0,
            if m.name != "setup_s" && spread > m.bound {
                "  OVER"
            } else {
                ""
            }
        );
    }
}

/// The catalogue: every workload and metric with the reason it is there and
/// the end-to-end metric a per-layer one is expected to move.
pub fn print_catalogue() {
    println!("workloads (4 servers, 1 client thread, closed loop, fixed work):");
    for w in &WORKLOADS {
        println!("  {:<10} {}", w.name, w.why);
    }
    println!("\nend-to-end metrics (tracing off):");
    for m in &END_TO_END {
        println!(
            "  {:<14} {:<4} {:<6} better, may worsen {:>2.0}%: {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.why
        );
    }
    println!("\nper-layer metrics (traced run) and what each should move:");
    for m in per_layer() {
        println!(
            "  {:<44} {:<6} {:<6} -> {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
}
