//! Host-side readings the benchmark takes about its own process and machine:
//! CPU time and resident memory from `/proc`, and the facts (core count, CPU
//! model, toolchain, revision) printed beside every result.

use std::process::Command;

/// Kernel clock ticks per second as exposed to userspace in `/proc` (USER_HZ,
/// fixed at 100 on Linux).
const CLK_TCK: f64 = 100.0;

/// Process CPU time (all threads) in seconds: the on-CPU nanoseconds of
/// `/proc/self/task/*/schedstat` summed, or where the kernel keeps no
/// schedstat, utime + stime of `/proc/self/stat` (one 10 ms tick of
/// resolution, too coarse for a span of a few hundred milliseconds).
pub fn cpu_seconds() -> f64 {
    let nanos: u64 = std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|line| line.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    if nanos > 0 {
        return nanos as f64 / 1e9;
    }
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_cpu_ticks(&stat).map_or(0.0, |ticks| ticks as f64 / CLK_TCK)
}

/// utime + stime out of a `/proc/<pid>/stat` line. The command name (field 2)
/// may contain spaces and parentheses, so fields are counted from the last
/// `)`: utime and stime are the 12th and 13th fields after it.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Share of all CPUs' time the hypervisor gave to someone else since boot
/// (`steal` in the first line of `/proc/stat`), as `(steal ticks, all ticks)`.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice; the
    // guest columns are already counted inside user and nice.
    let all = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), all)
}

/// Words of a CPU mask: room for 1024 CPUs, the kernel's own default.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, in ascending order; empty where
/// that cannot be asked.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    #[cfg(target_os = "linux")]
    // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes into `mask`.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread, and every thread it starts from now on, to
/// `cpus`. `false` if the kernel refused (or there is nothing to ask).
pub fn run_on(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < MASK_WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    #[cfg(target_os = "linux")]
    // SAFETY: the kernel reads `size_of_val(&mask)` bytes from `mask`.
    return !cpus.is_empty()
        && unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } == 0;
    #[cfg(not(target_os = "linux"))]
    false
}

/// Resident set size in MiB (`VmRSS` in `/proc/self/status`).
pub fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What the numbers were measured on.
#[derive(Debug, Clone)]
pub struct HostFacts {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_rev: String,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl HostFacts {
    pub fn read() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|line| line.starts_with("model name"))
            .and_then(|line| line.split(':').nth(1))
            .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string());
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: command_line("rustc", &["--version"]),
            // Of the checkout this package sits in, wherever we are run from.
            git_rev: command_line(
                "git",
                &[
                    "-C",
                    env!("CARGO_MANIFEST_DIR"),
                    "rev-parse",
                    "--short",
                    "HEAD",
                ],
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let line = "42 (a b) c) R 1 2 3 4 5 6 7 8 9 10 700 300 0 0 20 0 9 0 1 2 3";
        assert_eq!(parse_cpu_ticks(line), Some(1000));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn live_readings_are_positive() {
        assert!(rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(HostFacts::read().nproc >= 1);
    }
}
