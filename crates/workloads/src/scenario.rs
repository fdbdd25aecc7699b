//! The one scenario description: cluster shape and workload, base network,
//! Byzantine fault plan, a timeline of injected faults, and what the run is
//! expected to show — read from and written to one text form (the repo's
//! mini-TOML), driven by two hosts.
//!
//! The *simulator host* (`prestige-vopr`) runs a [`Scenario`] under the
//! deterministic discrete-event simulator with every safety invariant
//! checked after every event; the *real host* (`chaos_net`) runs the same
//! value on real node runtimes over loopback. Both walk the same expanded
//! timeline ([`expand`], through a [`Timeline`]), hand back the same
//! [`Observations`], and are judged by the same function
//! ([`Scenario::judge`]). A `scenarios/*.toml` CI gate therefore replays
//! under the simulator, and a shrunk `vopr/regressions/**/*.toml` reproducer
//! runs on the real runtime, with no translation step.
//!
//! ```toml
//! [scenario]
//! name = "restart_leader"
//! servers = 4
//! seed = 42
//! duration_ms = 6000
//! checkpoint_interval = 16
//!
//! [network]               # base link model: uniform delay in [lo, hi], loss
//! delay_lo_us = 5000
//! delay_hi_us = 10000
//! loss_permille = 5
//!
//! [faults]                # Byzantine plan for the last `count` servers
//! plan = "vc_quiet"
//!
//! [[fault]]               # any number, fired in time order
//! at_ms = 1000
//! kind = "crash_restart"  # partition_sym | partition_in | partition_out | degrade
//! target = "leader"       # or s0, s1, …; resolved when the fault fires
//! down_ms = 800
//! torn_records = 0
//!
//! [storage]               # real host only: run every server on a WAL
//!
//! [assert]                # or: [expect] violation = "no_fork"
//! min_committed = 500
//! recovery_floor_tps = 200.0
//! recovery_window_s = 2.0
//! ```
//!
//! Every schedule quantity is an integer (ms, µs, ‰) and the two `[assert]`
//! floats print shortest-round-trip, so `from_toml(to_toml(s)) == s` exactly.

use crate::toml::{
    array_sections, get_bool, get_f64, get_int, get_str, parse_faults, parse_toml,
    reject_unknown_keys, ConfigError, TomlDoc,
};
use crate::FaultPlan;
use prestige_core::{AttackStrategy, ByzantineBehavior, ServerStats};
use std::fmt::Write as _;

/// Which timer preset the cluster runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timeouts {
    /// `[300, 600]` ms election timers, 400 ms client patience.
    Fast,
    /// The paper's §6.2 setting: `[800, 1200]` ms, 1 s client patience.
    Default,
}

/// Which server a fault hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// A fixed server.
    Server(u32),
    /// Whoever leads the view current when the fault fires.
    Leader,
}

/// How a partition cuts the links around its target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cut {
    /// Both directions: the target is fully isolated.
    Sym,
    /// Inbound only: the target keeps broadcasting but goes deaf.
    In,
    /// Outbound only: the target still hears the cluster but nobody hears
    /// it. The classic fork shape.
    Out,
}

/// The fault repertoire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Cuts `target` off from every other actor (servers and clients) for
    /// `duration_ms`. A link that two overlapping partitions both block
    /// heals with the first of them, on both hosts.
    Partition {
        /// Which directions are cut.
        cut: Cut,
        /// The server cut off.
        target: Target,
        /// Window length (ms).
        duration_ms: u64,
    },
    /// Replaces the link model on every link for `duration_ms`, then
    /// restores the scenario's base network.
    Degrade {
        /// Lower propagation delay bound (µs).
        delay_lo_us: u64,
        /// Upper propagation delay bound (µs).
        delay_hi_us: u64,
        /// Message loss probability (‰).
        loss_permille: u32,
        /// Window length (ms).
        duration_ms: u64,
    },
    /// Crashes `target`, tears `torn_records` records off the tail of its
    /// WAL (what a power cut mid-append leaves), and restarts it `down_ms`
    /// later from a WAL replay.
    CrashRestart {
        /// The crashed server.
        target: Target,
        /// How long it stays down (ms).
        down_ms: u64,
        /// Records torn off the WAL tail at the crash point.
        torn_records: u32,
    },
}

impl FaultKind {
    /// The `kind = "…"` spelling, also used in run logs and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Partition { cut: Cut::Sym, .. } => "partition_sym",
            FaultKind::Partition { cut: Cut::In, .. } => "partition_in",
            FaultKind::Partition { cut: Cut::Out, .. } => "partition_out",
            FaultKind::Degrade { .. } => "degrade",
            FaultKind::CrashRestart { .. } => "crash_restart",
        }
    }

    /// The fault's target, for the kinds that have one.
    pub fn target(&self) -> Option<Target> {
        match self {
            FaultKind::Partition { target, .. } | FaultKind::CrashRestart { target, .. } => {
                Some(*target)
            }
            FaultKind::Degrade { .. } => None,
        }
    }

    /// How long the fault's window stays open (ms).
    pub fn window_ms(&self) -> u64 {
        match self {
            FaultKind::Partition { duration_ms, .. } | FaultKind::Degrade { duration_ms, .. } => {
                *duration_ms
            }
            FaultKind::CrashRestart { down_ms, .. } => *down_ms,
        }
    }

    /// Mutable access to [`Self::window_ms`] (the shrinker halves it).
    pub fn window_ms_mut(&mut self) -> &mut u64 {
        match self {
            FaultKind::Partition { duration_ms, .. } | FaultKind::Degrade { duration_ms, .. } => {
                duration_ms
            }
            FaultKind::CrashRestart { down_ms, .. } => down_ms,
        }
    }
}

/// One injected fault, fired when the run reaches `at_ms`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedFault {
    /// When the fault starts (ms into the run).
    pub at_ms: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// The real host's deployment settings (`[storage]`): with the section
/// present every server runs on an on-disk WAL, which a `crash_restart`
/// needs there. Unset keys take the WAL's defaults. The simulator host
/// ignores all of it and always logs to shared in-memory storage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StorageSettings {
    /// WAL root directory; unset = a per-run temporary directory.
    pub dir: Option<String>,
    /// Segment rotation size (bytes).
    pub segment_bytes: Option<u64>,
    /// fsync after at most this many appends.
    pub sync_every_n: Option<u64>,
    /// fsync after at most this many milliseconds.
    pub sync_interval_ms: Option<f64>,
}

impl StorageSettings {
    const KEYS: [&'static str; 4] = ["dir", "segment_bytes", "sync_every_n", "sync_interval_ms"];

    /// Reads the `[storage]` section (shared by scenario files and node
    /// configs); `None` when the section is absent.
    pub fn from_doc(doc: &TomlDoc) -> Result<Option<Self>, ConfigError> {
        if !doc.contains_key("storage") {
            return Ok(None);
        }
        let has = |key: &str| doc["storage"].contains_key(key);
        Ok(Some(StorageSettings {
            dir: get_str(doc, "storage", "dir")?.map(str::to_string),
            segment_bytes: has("segment_bytes")
                .then(|| get_int(doc, "storage", "segment_bytes", 0))
                .transpose()?,
            sync_every_n: has("sync_every_n")
                .then(|| get_int(doc, "storage", "sync_every_n", 0))
                .transpose()?,
            sync_interval_ms: has("sync_interval_ms")
                .then(|| get_f64(doc, "storage", "sync_interval_ms", 0.0))
                .transpose()?,
        }))
    }
}

/// What `[assert]` requires of a run, on top of a clean safety record.
#[derive(Debug, Clone, PartialEq)]
pub struct Assertions {
    /// The committed logs of correct replicas must not fork.
    pub no_fork: bool,
    /// No faulty server may win an election or be followed by a correct one.
    pub no_faulty_leader: bool,
    /// Correct servers must have refused at least this many uncertifiable
    /// campaigns (proves the attack exercised the check).
    pub min_cert_refusals: u64,
    /// Transactions that must commit after the last fault window closes.
    pub min_committed: u64,
    /// A correct server's stable checkpoint must reach this sequence number.
    pub min_stable_checkpoint: u64,
    /// Committed throughput floor (tx/s) over the trailing window.
    pub recovery_floor_tps: f64,
    /// Width of the trailing window (s).
    pub recovery_window_s: f64,
}

impl Default for Assertions {
    fn default() -> Self {
        Assertions {
            no_fork: true,
            no_faulty_leader: false,
            min_cert_refusals: 0,
            min_committed: 0,
            min_stable_checkpoint: 0,
            recovery_floor_tps: 0.0,
            recovery_window_s: 2.0,
        }
    }
}

/// What a scenario file expects of its run.
#[derive(Debug, Clone, PartialEq)]
pub enum Expectation {
    /// `[assert]`: no invariant is violated and the assertions hold.
    Assert(Assertions),
    /// `[expect] violation = "<invariant>"`: a committed reproducer — the
    /// run must falsify exactly this invariant.
    Violation(String),
}

/// A complete, replayable description of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (reports, temp directories).
    pub name: String,
    /// Seed for keys, timer jitter and — under the simulator — everything.
    pub seed: u64,
    /// Cluster size.
    pub servers: u32,
    /// Closed-loop client processes.
    pub clients: u64,
    /// Requests each client keeps in flight.
    pub concurrency: usize,
    /// Leader batch size β.
    pub batch_size: usize,
    /// Payload size (bytes).
    pub payload_size: usize,
    /// Commits per certified checkpoint (`0` disables checkpointing).
    pub checkpoint_interval: u64,
    /// Leader replication window.
    pub pipeline_depth: usize,
    /// Timing view-change policy interval (ms); `0` = on failure only.
    pub rotation_ms: u64,
    /// Timer preset.
    pub timeouts: Timeouts,
    /// Total run length (ms).
    pub duration_ms: u64,
    /// Base network: lower propagation delay bound (µs).
    pub delay_lo_us: u64,
    /// Base network: upper propagation delay bound (µs).
    pub delay_hi_us: u64,
    /// Base network: message loss probability (‰).
    pub loss_permille: u32,
    /// The Byzantine fault plan (the last `count` servers follow it).
    pub fault_plan: FaultPlan,
    /// The injected faults, in time order.
    pub faults: Vec<TimedFault>,
    /// Real-host storage settings; `None` = in-memory servers there.
    pub storage: Option<StorageSettings>,
    /// What the run must show.
    pub expect: Expectation,
}

const SCENARIO_KEYS: [&str; 12] = [
    "name",
    "seed",
    "servers",
    "clients",
    "concurrency",
    "batch_size",
    "payload_size",
    "checkpoint_interval",
    "pipeline_depth",
    "rotation_ms",
    "timeouts",
    "duration_ms",
];
const NETWORK_KEYS: [&str; 3] = ["delay_lo_us", "delay_hi_us", "loss_permille"];
const ASSERT_KEYS: [&str; 7] = [
    "no_fork",
    "no_faulty_leader",
    "min_cert_refusals",
    "min_committed",
    "min_stable_checkpoint",
    "recovery_floor_tps",
    "recovery_window_s",
];

fn invalid<T>(message: String) -> Result<T, ConfigError> {
    Err(ConfigError::Invalid(message))
}

/// A key that has no default: every `[[fault]]` states all of its numbers.
fn required(doc: &TomlDoc, section: &str, key: &str) -> Result<u64, ConfigError> {
    if !doc[section].contains_key(key) {
        return Err(ConfigError::Missing(format!("{section}.{key}")));
    }
    get_int(doc, section, key, 0u64)
}

fn parse_fault(doc: &TomlDoc, section: &str, servers: u32) -> Result<TimedFault, ConfigError> {
    let Some(kind) = get_str(doc, section, "kind")? else {
        return Err(ConfigError::Missing(format!("{section}.kind")));
    };
    let keys: &[&str] = match kind {
        "partition_sym" | "partition_in" | "partition_out" => &["target", "duration_ms"],
        "degrade" => &["delay_lo_us", "delay_hi_us", "loss_permille", "duration_ms"],
        "crash_restart" => &["target", "down_ms", "torn_records"],
        other => {
            return invalid(format!(
                "{section}.kind `{other}` (partition_sym, partition_in, partition_out, degrade, \
                 crash_restart)"
            ))
        }
    };
    reject_unknown_keys(doc, section, &[&["at_ms", "kind"], keys].concat())?;
    let target = || -> Result<Target, ConfigError> {
        match get_str(doc, section, "target")? {
            None => Err(ConfigError::Missing(format!("{section}.target"))),
            Some("leader") => Ok(Target::Leader),
            Some(name) => name
                .strip_prefix('s')
                .and_then(|rest| rest.parse::<u32>().ok())
                .filter(|id| *id < servers)
                .map(Target::Server)
                .ok_or_else(|| {
                    ConfigError::Invalid(format!(
                        "{section}.target `{name}` (leader, or s0..s{})",
                        servers.saturating_sub(1)
                    ))
                }),
        }
    };
    let kind = match kind {
        "degrade" => FaultKind::Degrade {
            delay_lo_us: required(doc, section, "delay_lo_us")?,
            delay_hi_us: required(doc, section, "delay_hi_us")?,
            loss_permille: get_int(doc, section, "loss_permille", 0)?,
            duration_ms: required(doc, section, "duration_ms")?,
        },
        "crash_restart" => FaultKind::CrashRestart {
            target: target()?,
            down_ms: required(doc, section, "down_ms")?,
            torn_records: get_int(doc, section, "torn_records", 0)?,
        },
        partition => FaultKind::Partition {
            cut: match partition {
                "partition_sym" => Cut::Sym,
                "partition_in" => Cut::In,
                _ => Cut::Out,
            },
            target: target()?,
            duration_ms: required(doc, section, "duration_ms")?,
        },
    };
    Ok(TimedFault {
        at_ms: required(doc, section, "at_ms")?,
        kind,
    })
}

impl Scenario {
    /// Parses a scenario file. Unknown sections and keys are errors: an
    /// unread key would silently drop what it was meant to configure, and a
    /// file in a retired spelling (`[restart]`, `at_s`, …) would otherwise
    /// parse as a scenario with no faults.
    pub fn from_toml(text: &str) -> Result<Scenario, ConfigError> {
        let doc = parse_toml(text)?;
        for section in doc.keys() {
            let known = matches!(
                section.as_str(),
                "scenario" | "network" | "faults" | "storage" | "assert" | "expect"
            ) || section.starts_with("fault[");
            if !known {
                return invalid(format!(
                    "unknown section `[{section}]` (expected scenario, network, faults, \
                     [[fault]], storage, assert or expect)"
                ));
            }
        }
        reject_unknown_keys(&doc, "scenario", &SCENARIO_KEYS)?;
        reject_unknown_keys(&doc, "network", &NETWORK_KEYS)?;
        reject_unknown_keys(&doc, "faults", &["plan", "count", "strategy"])?;
        reject_unknown_keys(&doc, "storage", &StorageSettings::KEYS)?;
        reject_unknown_keys(&doc, "assert", &ASSERT_KEYS)?;
        reject_unknown_keys(&doc, "expect", &["violation"])?;

        let timeouts = match get_str(&doc, "scenario", "timeouts")?.unwrap_or("fast") {
            "fast" => Timeouts::Fast,
            "default" => Timeouts::Default,
            other => return invalid(format!("scenario.timeouts `{other}` (fast or default)")),
        };
        let servers: u32 = get_int(&doc, "scenario", "servers", 4)?;
        let mut faults = array_sections(&doc, "fault")
            .map(|section| parse_fault(&doc, &section, servers))
            .collect::<Result<Vec<_>, _>>()?;
        faults.sort_by_key(|f| f.at_ms);

        let expect = match (doc.contains_key("assert"), doc.get("expect")) {
            (true, Some(_)) => {
                return invalid("a scenario has [assert] or [expect], not both".to_string())
            }
            (false, Some(_)) => match get_str(&doc, "expect", "violation")? {
                Some(invariant) => Expectation::Violation(invariant.to_string()),
                None => return Err(ConfigError::Missing("expect.violation".to_string())),
            },
            (_, None) => {
                let d = Assertions::default();
                Expectation::Assert(Assertions {
                    no_fork: get_bool(&doc, "assert", "no_fork", d.no_fork)?,
                    no_faulty_leader: get_bool(
                        &doc,
                        "assert",
                        "no_faulty_leader",
                        d.no_faulty_leader,
                    )?,
                    min_cert_refusals: get_int(&doc, "assert", "min_cert_refusals", 0)?,
                    min_committed: get_int(&doc, "assert", "min_committed", 0)?,
                    min_stable_checkpoint: get_int(&doc, "assert", "min_stable_checkpoint", 0)?,
                    recovery_floor_tps: get_f64(&doc, "assert", "recovery_floor_tps", 0.0)?,
                    recovery_window_s: get_f64(
                        &doc,
                        "assert",
                        "recovery_window_s",
                        d.recovery_window_s,
                    )?,
                })
            }
        };

        let scenario = Scenario {
            name: get_str(&doc, "scenario", "name")?
                .unwrap_or("unnamed")
                .to_string(),
            seed: get_int(&doc, "scenario", "seed", 42)?,
            servers,
            clients: get_int(&doc, "scenario", "clients", 2)?,
            concurrency: get_int(&doc, "scenario", "concurrency", 100)?,
            batch_size: get_int(&doc, "scenario", "batch_size", 100)?,
            payload_size: get_int(&doc, "scenario", "payload_size", 32)?,
            checkpoint_interval: get_int(&doc, "scenario", "checkpoint_interval", 64)?,
            pipeline_depth: get_int(&doc, "scenario", "pipeline_depth", 4)?,
            rotation_ms: get_int(&doc, "scenario", "rotation_ms", 0)?,
            timeouts,
            duration_ms: get_int(&doc, "scenario", "duration_ms", 5_000)?,
            delay_lo_us: get_int(&doc, "network", "delay_lo_us", 0)?,
            delay_hi_us: get_int(&doc, "network", "delay_hi_us", 0)?,
            loss_permille: get_int(&doc, "network", "loss_permille", 0)?,
            fault_plan: parse_faults(&doc)?,
            faults,
            storage: StorageSettings::from_doc(&doc)?,
            expect,
        };
        if scenario.delay_lo_us > scenario.delay_hi_us {
            return invalid(format!(
                "network.delay_lo_us = {} exceeds network.delay_hi_us = {}",
                scenario.delay_lo_us, scenario.delay_hi_us
            ));
        }
        scenario.lint()?;
        Ok(scenario)
    }

    /// Scenario lint: crash-restart scenarios have two footguns that produce
    /// flaky-looking CI failures long after the scenario is written, so
    /// they are rejected at parse time with the fix in the message.
    fn lint(&self) -> Result<(), ConfigError> {
        let restarts = self
            .faults
            .iter()
            .any(|f| matches!(f.kind, FaultKind::CrashRestart { .. }));
        if !restarts {
            return Ok(());
        }
        // A restarted node replays its WAL, re-elects, and pages itself
        // forward through the repair plane; on a shared 1-core runner that
        // routinely takes over a second of wall clock near EOF. A narrow
        // recovery window turns scheduler starvation into a "regression".
        if let Expectation::Assert(a) = &self.expect {
            if a.recovery_window_s < 2.0 {
                return invalid(format!(
                    "crash_restart scenarios need assert.recovery_window_s >= 2.0 (got {}): \
                     WAL replay + re-election + repair-plane catch-up does not fit a narrower \
                     window on 1-core CI runners",
                    a.recovery_window_s
                ));
            }
        }
        // An unthrottled loopback cluster commits faster than a restarted
        // node can replay, so it chases a receding tip for the whole run and
        // the recovery assertions measure the scheduler, not the protocol.
        if self.delay_hi_us == 0 {
            return invalid(
                "crash_restart scenarios need a [network] throttle profile (e.g. \
                 delay_lo_us = 5000, delay_hi_us = 10000, loss_permille = 5): unthrottled \
                 loopback outruns WAL replay and the restarted node never catches the tip"
                    .to_string(),
            );
        }
        Ok(())
    }

    /// Renders the scenario as a file [`Self::from_toml`] reads back to an
    /// equal value. Every key is written, so the file is also a complete
    /// record of the run's parameters.
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        let timeouts = match self.timeouts {
            Timeouts::Fast => "fast",
            Timeouts::Default => "default",
        };
        let _ = writeln!(out, "[scenario]\nname = {:?}", self.name);
        for (key, value) in [
            ("seed", self.seed),
            ("servers", self.servers as u64),
            ("clients", self.clients),
            ("concurrency", self.concurrency as u64),
            ("batch_size", self.batch_size as u64),
            ("payload_size", self.payload_size as u64),
            ("checkpoint_interval", self.checkpoint_interval),
            ("pipeline_depth", self.pipeline_depth as u64),
            ("rotation_ms", self.rotation_ms),
            ("duration_ms", self.duration_ms),
        ] {
            let _ = writeln!(out, "{key} = {value}");
        }
        let _ = writeln!(out, "timeouts = \"{timeouts}\"");
        let _ = writeln!(
            out,
            "\n[network]\ndelay_lo_us = {}\ndelay_hi_us = {}\nloss_permille = {}",
            self.delay_lo_us, self.delay_hi_us, self.loss_permille
        );
        let _ = writeln!(
            out,
            "\n[faults]\nplan = \"{}\"\ncount = {}",
            self.fault_plan.label(),
            self.fault_plan.count()
        );
        if let Some(strategy) = self.fault_plan.strategy() {
            let label = match strategy {
                AttackStrategy::Always => "s1",
                AttackStrategy::WhenCompensable => "s2",
            };
            let _ = writeln!(out, "strategy = \"{label}\"");
        }
        for fault in &self.faults {
            let _ = writeln!(
                out,
                "\n[[fault]]\nat_ms = {}\nkind = \"{}\"",
                fault.at_ms,
                fault.kind.label()
            );
            match fault.kind.target() {
                Some(Target::Leader) => out.push_str("target = \"leader\"\n"),
                Some(Target::Server(id)) => {
                    let _ = writeln!(out, "target = \"s{id}\"");
                }
                None => {}
            }
            let _ = match fault.kind {
                FaultKind::Partition { duration_ms, .. } => {
                    writeln!(out, "duration_ms = {duration_ms}")
                }
                FaultKind::Degrade {
                    delay_lo_us,
                    delay_hi_us,
                    loss_permille,
                    duration_ms,
                } => writeln!(
                    out,
                    "delay_lo_us = {delay_lo_us}\ndelay_hi_us = {delay_hi_us}\n\
                     loss_permille = {loss_permille}\nduration_ms = {duration_ms}"
                ),
                FaultKind::CrashRestart {
                    down_ms,
                    torn_records,
                    ..
                } => writeln!(out, "down_ms = {down_ms}\ntorn_records = {torn_records}"),
            };
        }
        if let Some(storage) = &self.storage {
            out.push_str("\n[storage]\n");
            if let Some(dir) = &storage.dir {
                let _ = writeln!(out, "dir = {dir:?}");
            }
            if let Some(bytes) = storage.segment_bytes {
                let _ = writeln!(out, "segment_bytes = {bytes}");
            }
            if let Some(n) = storage.sync_every_n {
                let _ = writeln!(out, "sync_every_n = {n}");
            }
            if let Some(ms) = storage.sync_interval_ms {
                let _ = writeln!(out, "sync_interval_ms = {ms:?}");
            }
        }
        match &self.expect {
            Expectation::Violation(invariant) => {
                let _ = writeln!(out, "\n[expect]\nviolation = \"{invariant}\"");
            }
            Expectation::Assert(a) => {
                let _ = writeln!(
                    out,
                    "\n[assert]\nno_fork = {}\nno_faulty_leader = {}\nmin_cert_refusals = {}\n\
                     min_committed = {}\nmin_stable_checkpoint = {}\nrecovery_floor_tps = {:?}\n\
                     recovery_window_s = {:?}",
                    a.no_fork,
                    a.no_faulty_leader,
                    a.min_cert_refusals,
                    a.min_committed,
                    a.min_stable_checkpoint,
                    a.recovery_floor_tps,
                    a.recovery_window_s
                );
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// The timeline both hosts walk
// ---------------------------------------------------------------------------

/// One step of an expanded fault: what a host applies to its cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Block the links around the fault's server.
    Block(Cut),
    /// Unblock exactly the links [`Step::Block`] blocked.
    Heal(Cut),
    /// Swap the link model on every link.
    Degrade {
        /// Lower propagation delay bound (µs).
        delay_lo_us: u64,
        /// Upper propagation delay bound (µs).
        delay_hi_us: u64,
        /// Message loss probability (‰).
        loss_permille: u32,
    },
    /// Restore the scenario's base network.
    RestoreNet,
    /// Kill the fault's server and tear its WAL tail.
    Crash {
        /// Records torn off the WAL tail.
        torn_records: u32,
    },
    /// Restart the fault's server from its WAL.
    Restart,
}

/// A [`Step`] of fault number `fault` (its index in the scenario's list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Which fault this step belongs to.
    pub fault: usize,
    /// What to do.
    pub step: Step,
}

/// Expands faults into a time-sorted `(at_ms, op)` list: each window
/// contributes a start op and an end op. The sort is stable, so at equal
/// times a window's end comes before the start of a window listed after it.
pub fn expand(faults: &[TimedFault]) -> Vec<(u64, Op)> {
    let mut ops = Vec::with_capacity(faults.len() * 2);
    for (fault, f) in faults.iter().enumerate() {
        let (start, end) = match f.kind {
            FaultKind::Partition { cut, .. } => (Step::Block(cut), Step::Heal(cut)),
            FaultKind::Degrade {
                delay_lo_us,
                delay_hi_us,
                loss_permille,
                ..
            } => (
                Step::Degrade {
                    delay_lo_us,
                    delay_hi_us,
                    loss_permille,
                },
                Step::RestoreNet,
            ),
            FaultKind::CrashRestart { torn_records, .. } => {
                (Step::Crash { torn_records }, Step::Restart)
            }
        };
        ops.push((f.at_ms, Op { fault, step: start }));
        ops.push((f.at_ms + f.kind.window_ms(), Op { fault, step: end }));
    }
    ops.sort_by_key(|(t, _)| *t);
    ops
}

/// A host's cursor over the expanded timeline. It owns the two pieces of
/// state the walk needs besides the position: which server each fault hit
/// (a `leader` target is resolved once, when the fault *starts*, and its end
/// step heals that same server) and when each fault's window closed.
#[derive(Debug, Clone)]
pub struct Timeline {
    targets: Vec<Option<Target>>,
    ops: Vec<(u64, Op)>,
    next: usize,
    hit: Vec<Option<u32>>,
    closed_ms: Vec<Option<u64>>,
}

impl Timeline {
    /// The timeline of `faults`, positioned before its first step.
    pub fn new(faults: &[TimedFault]) -> Self {
        Timeline {
            targets: faults.iter().map(|f| f.kind.target()).collect(),
            ops: expand(faults),
            next: 0,
            hit: vec![None; faults.len()],
            closed_ms: vec![None; faults.len()],
        }
    }

    /// When the next step is scheduled, if any is left.
    pub fn next_at_ms(&self) -> Option<u64> {
        self.ops.get(self.next).map(|(t, _)| *t)
    }

    /// Takes the next step, applied by the host at `now_ms`. Returns the
    /// step and the server it concerns (`0` for the network-wide steps);
    /// `leader` is asked only when a `leader`-targeted fault starts.
    pub fn pop(&mut self, now_ms: u64, leader: impl FnOnce() -> u32) -> Option<(Step, u32)> {
        let (_, op) = *self.ops.get(self.next)?;
        self.next += 1;
        let server = match (self.hit[op.fault], self.targets[op.fault]) {
            (Some(server), _) => server,
            (None, Some(Target::Server(server))) => server,
            (None, Some(Target::Leader)) => leader(),
            (None, None) => 0,
        };
        self.hit[op.fault] = Some(server);
        if matches!(op.step, Step::Heal(_) | Step::RestoreNet | Step::Restart) {
            self.closed_ms[op.fault] = Some(now_ms);
        }
        Some((op.step, server))
    }

    /// The server fault number `fault` hit, once it has started.
    pub fn server_hit(&self, fault: usize) -> Option<u32> {
        self.hit[fault].filter(|_| self.targets[fault].is_some())
    }

    /// Per fault, when its window closed (`None` = not yet).
    pub fn closed_ms(&self) -> &[Option<u64>] {
        &self.closed_ms
    }
}

// ---------------------------------------------------------------------------
// What a host hands back, and the verdict
// ---------------------------------------------------------------------------

/// One server's final state, as a host saw it when the run ended.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerObservation {
    /// The behaviour the server was launched with.
    pub behavior: ByzantineBehavior,
    /// Its final counters.
    pub stats: ServerStats,
    /// The view it operates in.
    pub view: u64,
    /// The leader of that view, as it sees it.
    pub leader: u32,
    /// Its stable checkpoint height (0 = none yet).
    pub stable_checkpoint: u64,
}

/// A falsified safety invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Violated {
    /// The invariant's name (`no_fork`, `no_double_commit`, …).
    pub invariant: String,
    /// What the checker saw.
    pub detail: String,
}

/// Everything [`Scenario::judge`] looks at — the same shape from both hosts.
#[derive(Debug, Clone, PartialEq)]
pub struct Observations {
    /// How long the run actually lasted (ms).
    pub run_ms: u64,
    /// `(t_ms, transactions confirmed across all clients)`, sampled every
    /// 100 ms; the last entry is the end of the run.
    pub series: Vec<(u64, u64)>,
    /// Per server, in id order; `None` = it does not answer (down).
    pub servers: Vec<Option<ServerObservation>>,
    /// The first safety violation, if any: every invariant under the
    /// simulator, the end-of-run fork check on the real runtime.
    pub violation: Option<Violated>,
    /// Per fault, when its window closed (`None` = never).
    pub windows_closed_ms: Vec<Option<u64>>,
}

/// The liveness numbers the recovery assertions compare (also reported).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recovery {
    /// Transactions committed after the last fault window closed — `0` when
    /// some window never closed, so the gate cannot pass vacuously.
    pub committed_after_faults: u64,
    /// The trailing window actually measured (s), clamped to the run.
    pub window_s: f64,
    /// Committed throughput over that window (tx/s).
    pub tps: f64,
}

impl Observations {
    /// Transactions confirmed by the end of the run.
    pub fn committed(&self) -> u64 {
        self.series.last().map_or(0, |(_, total)| *total)
    }

    /// Whether fault number `fault` ran to the end of its window in time.
    pub fn window_closed(&self, fault: usize) -> bool {
        self.windows_closed_ms[fault].is_some_and(|t| t <= self.run_ms)
    }

    fn committed_at(&self, t_ms: u64) -> Option<u64> {
        self.series
            .iter()
            .find(|(t, _)| *t >= t_ms)
            .map(|(_, total)| *total)
    }

    /// The recovery numbers for a trailing window of `window_s` seconds.
    pub fn recovery(&self, window_s: f64) -> Recovery {
        let total = self.committed();
        let all_closed = (0..self.windows_closed_ms.len()).all(|i| self.window_closed(i));
        let last_close = self.windows_closed_ms.iter().flatten().max().copied();
        let committed_after_faults = if all_closed {
            total.saturating_sub(self.committed_at(last_close.unwrap_or(0)).unwrap_or(total))
        } else {
            0
        };
        // Clamped to the run so a short run is not penalized by dividing a
        // partial window's commits by the full width.
        let run_s = self.run_ms as f64 / 1000.0;
        let window_s = window_s.max(0.1).min(run_s.max(0.1));
        let window_start_ms = ((run_s - window_s).max(0.0) * 1000.0) as u64;
        let at_start = self.committed_at(window_start_ms).unwrap_or(0);
        Recovery {
            committed_after_faults,
            window_s,
            tps: total.saturating_sub(at_start) as f64 / window_s,
        }
    }
}

impl Scenario {
    /// The verdict: every way `observations` falls short of what the
    /// scenario expects (empty = the run passed). The one judging function
    /// for both hosts.
    pub fn judge(&self, observations: &Observations) -> Vec<String> {
        let obs = observations;
        let mut failures = Vec::new();
        let a = match &self.expect {
            Expectation::Violation(expected) => {
                match &obs.violation {
                    Some(v) if v.invariant == *expected => {}
                    Some(v) => failures.push(format!(
                        "expected `{expected}` to be violated, but `{}` was — {}",
                        v.invariant, v.detail
                    )),
                    None => failures.push(format!(
                        "expected `{expected}` to be violated, but the run stayed clean — the \
                         reproducer no longer reproduces (or this build lacks the canary it was \
                         found under)"
                    )),
                }
                return failures;
            }
            Expectation::Assert(a) => a,
        };
        if let Some(v) = &obs.violation {
            if a.no_fork || v.invariant != "no_fork" {
                failures.push(format!("safety violated — {}: {}", v.invariant, v.detail));
            }
        }
        // A fault that never ran to the end of its window must not let the
        // "after the fault window" assertions pass vacuously.
        for (i, fault) in self.faults.iter().enumerate() {
            if !obs.window_closed(i) {
                failures.push(format!(
                    "fault {i} ({} at {} ms) did not run to the end of its window within the \
                     {} ms run (closed: {:?}) — extend duration_ms or move the fault earlier",
                    fault.kind.label(),
                    fault.at_ms,
                    obs.run_ms,
                    obs.windows_closed_ms[i]
                ));
            }
        }
        for (i, server) in obs.servers.iter().enumerate() {
            if server.is_none() {
                failures.push(format!(
                    "server s{i} does not answer at the end of the run (crashed and not back)"
                ));
            }
        }
        let live = || {
            obs.servers
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.as_ref().map(|s| (i, s)))
        };
        let correct = || live().filter(|(_, s)| !s.behavior.is_faulty());
        if a.no_faulty_leader {
            // "The liar never wins a certified election": no faulty server
            // may have assembled a vc_QC, and no correct server may
            // currently follow a faulty leader.
            for (i, s) in live().filter(|(_, s)| s.behavior.is_faulty()) {
                if s.stats.elections_won > 0 {
                    failures.push(format!(
                        "faulty server s{i} won {} election(s) — the certificate check failed \
                         to refuse its claim",
                        s.stats.elections_won
                    ));
                }
            }
            for (i, s) in correct() {
                let leader_is_faulty = obs
                    .servers
                    .get(s.leader as usize)
                    .and_then(Option::as_ref)
                    .is_some_and(|l| l.behavior.is_faulty());
                if leader_is_faulty {
                    failures.push(format!(
                        "correct server s{i} follows faulty leader s{} in view {}",
                        s.leader, s.view
                    ));
                }
            }
        }
        if a.min_cert_refusals > 0 {
            // The refusals must actually have been *certificate* refusals:
            // prove the check bit, rather than the attack never having been
            // attempted.
            let refusals: u64 = correct().map(|(_, s)| s.stats.camp_cert_refusals).sum();
            if refusals < a.min_cert_refusals {
                failures.push(format!(
                    "only {refusals} certificate refusal(s) across correct servers (need {}) — \
                     the claimed attack never exercised the check",
                    a.min_cert_refusals
                ));
            }
        }
        if a.min_stable_checkpoint > 0 {
            let best = correct()
                .map(|(_, s)| s.stable_checkpoint)
                .max()
                .unwrap_or(0);
            if best < a.min_stable_checkpoint {
                failures.push(format!(
                    "highest stable checkpoint {best} across correct servers is below the \
                     required {} — checkpoints never formed (or GC never ran)",
                    a.min_stable_checkpoint
                ));
            }
        }
        let recovery = obs.recovery(a.recovery_window_s);
        if recovery.tps < a.recovery_floor_tps {
            failures.push(format!(
                "recovery throughput {:.0} tx/s over the trailing {:.1}s is below the {:.0} tx/s \
                 floor",
                recovery.tps, recovery.window_s, a.recovery_floor_tps
            ));
        }
        if recovery.committed_after_faults < a.min_committed {
            failures.push(format!(
                "only {} tx committed after the fault windows (need {})",
                recovery.committed_after_faults, a.min_committed
            ));
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal crash-restart scenario, assembled from parts so each test
    /// can break exactly one rule.
    fn restart_scenario(network: &str, window: &str) -> String {
        format!(
            "[scenario]\nname = \"lint\"\nservers = 4\nduration_ms = 6000\n\
             checkpoint_interval = 16\n{network}\n[storage]\n\
             [[fault]]\nat_ms = 1000\nkind = \"crash_restart\"\ntarget = \"leader\"\n\
             down_ms = 800\n[assert]\n{window}\n"
        )
    }

    const NETWORK: &str = "[network]\ndelay_lo_us = 5000\ndelay_hi_us = 10000\nloss_permille = 5";

    #[test]
    fn restart_scenario_with_throttle_and_wide_window_parses() {
        let text = restart_scenario(NETWORK, "recovery_window_s = 2.0");
        let scenario = Scenario::from_toml(&text).expect("valid scenario");
        assert_eq!(
            scenario.faults,
            [TimedFault {
                at_ms: 1000,
                kind: FaultKind::CrashRestart {
                    target: Target::Leader,
                    down_ms: 800,
                    torn_records: 0
                }
            }]
        );
        assert_eq!(scenario.storage, Some(StorageSettings::default()));
    }

    #[test]
    fn restart_scenario_with_narrow_recovery_window_is_rejected() {
        let text = restart_scenario(NETWORK, "recovery_window_s = 1.5");
        let err = Scenario::from_toml(&text).expect_err("lint must fire");
        assert!(
            err.to_string().contains("recovery_window_s >= 2.0"),
            "unhelpful error: {err}"
        );
    }

    #[test]
    fn restart_scenario_without_network_profile_is_rejected() {
        let text = restart_scenario("", "recovery_window_s = 2.0");
        let err = Scenario::from_toml(&text).expect_err("lint must fire");
        assert!(
            err.to_string().contains("[network] throttle profile"),
            "unhelpful error: {err}"
        );
    }

    #[test]
    fn non_restart_scenario_is_not_linted() {
        let text = "[scenario]\nname = \"plain\"\nservers = 4\n\
                    [assert]\nrecovery_window_s = 1.0\n";
        assert!(Scenario::from_toml(text).is_ok());
    }

    fn toml_files_under(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("readable directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                toml_files_under(&path, out);
            } else if path.extension().is_some_and(|x| x == "toml") {
                out.push(path);
            }
        }
    }

    fn committed_files() -> Vec<std::path::PathBuf> {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = Vec::new();
        toml_files_under(&root.join("scenarios"), &mut files);
        toml_files_under(&root.join("vopr/regressions"), &mut files);
        files.sort();
        files
    }

    #[test]
    fn committed_restart_scenarios_pass_the_lint() {
        let restarts: Vec<_> = committed_files()
            .into_iter()
            .filter(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                name.starts_with("restart_")
            })
            .collect();
        assert_eq!(restarts.len(), 3, "{restarts:?}");
        for path in restarts {
            let text = std::fs::read_to_string(&path).unwrap();
            let scenario =
                Scenario::from_toml(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(scenario.storage.is_some(), "{}", path.display());
            assert!(matches!(
                scenario.faults[..],
                [TimedFault {
                    kind: FaultKind::CrashRestart { .. },
                    ..
                }]
            ));
        }
    }

    #[test]
    fn every_committed_file_parses_and_re_renders_to_an_equal_scenario() {
        let files = committed_files();
        assert!(files.len() >= 12, "scenario files went missing: {files:?}");
        for path in files {
            let text = std::fs::read_to_string(&path).unwrap();
            let scenario =
                Scenario::from_toml(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let again = Scenario::from_toml(&scenario.to_toml())
                .unwrap_or_else(|e| panic!("{} re-rendered: {e}", path.display()));
            assert_eq!(scenario, again, "{}", path.display());
            for retired in [
                "[chaos]",
                "[partition]",
                "[restart]",
                "at_s",
                "duration_s",
                "truncate_tail_bytes",
            ] {
                assert!(
                    !text.contains(retired),
                    "{} still spells `{retired}`",
                    path.display()
                );
            }
        }
    }

    #[test]
    fn retired_spellings_are_errors_naming_the_key() {
        let fault =
            "[[fault]]\nat_ms = 1\nkind = \"crash_restart\"\ntarget = \"s0\"\ndown_ms = 9\n";
        for (text, named) in [
            ("[chaos]\ndelay_ms = 5.0\n".to_string(), "[chaos]"),
            ("[partition]\nmode = \"sym\"\n".to_string(), "[partition]"),
            ("[restart]\ndown_ms = 800.0\n".to_string(), "[restart]"),
            (
                "[scenario]\nduration_s = 6.0\n".to_string(),
                "scenario.duration_s",
            ),
            (format!("{fault}at_s = 1.0\n"), "fault[0].at_s"),
            (
                format!("{fault}truncate_tail_bytes = 37\n"),
                "fault[0].truncate_tail_bytes",
            ),
            // A key of another fault kind is as unread as a retired one.
            (format!("{fault}duration_ms = 5\n"), "fault[0].duration_ms"),
            (
                "[storage]\ncheckpoint_interval = 16\n".to_string(),
                "storage.checkpoint_interval",
            ),
            ("stray = 1\n".to_string(), "[]"),
        ] {
            let err = Scenario::from_toml(&text).expect_err(&text);
            assert!(err.to_string().contains(named), "{text:?} gave: {err}");
        }
        let both = "[assert]\nno_fork = true\n[expect]\nviolation = \"no_fork\"\n";
        assert!(Scenario::from_toml(both).is_err());
        let bad_target = fault.replace("s0", "s4");
        let err = Scenario::from_toml(&bad_target).unwrap_err();
        assert!(err.to_string().contains("fault[0].target"), "{err}");
    }

    fn partition(at_ms: u64, cut: Cut, target: Target, duration_ms: u64) -> TimedFault {
        TimedFault {
            at_ms,
            kind: FaultKind::Partition {
                cut,
                target,
                duration_ms,
            },
        }
    }

    #[test]
    fn every_field_round_trips_through_text() {
        let scenario = Scenario {
            name: "round trip".to_string(),
            seed: u64::MAX >> 1,
            servers: 7,
            clients: 3,
            concurrency: 9,
            batch_size: 11,
            payload_size: 13,
            checkpoint_interval: 0,
            pipeline_depth: 2,
            rotation_ms: 1500,
            timeouts: Timeouts::Default,
            duration_ms: 4321,
            delay_lo_us: 1,
            delay_hi_us: 2,
            loss_permille: 3,
            fault_plan: FaultPlan::TipLiar {
                count: 2,
                strategy: AttackStrategy::WhenCompensable,
            },
            faults: vec![
                partition(10, Cut::In, Target::Leader, 20),
                TimedFault {
                    at_ms: 30,
                    kind: FaultKind::Degrade {
                        delay_lo_us: 4,
                        delay_hi_us: 5,
                        loss_permille: 6,
                        duration_ms: 7,
                    },
                },
                TimedFault {
                    at_ms: 40,
                    kind: FaultKind::CrashRestart {
                        target: Target::Server(6),
                        down_ms: 8,
                        torn_records: 3,
                    },
                },
            ],
            storage: Some(StorageSettings {
                dir: Some("/tmp/wal dir".to_string()),
                segment_bytes: Some(1 << 20),
                sync_every_n: Some(8),
                sync_interval_ms: Some(2.5),
            }),
            expect: Expectation::Assert(Assertions {
                no_fork: false,
                no_faulty_leader: true,
                min_cert_refusals: 1,
                min_committed: 2,
                min_stable_checkpoint: 3,
                recovery_floor_tps: 0.1,
                recovery_window_s: 2.25,
            }),
        };
        assert_eq!(Scenario::from_toml(&scenario.to_toml()).unwrap(), scenario);
        let reproducer = Scenario {
            storage: None,
            expect: Expectation::Violation("no_double_commit".to_string()),
            ..scenario
        };
        assert_eq!(
            Scenario::from_toml(&reproducer.to_toml()).unwrap(),
            reproducer
        );
    }

    #[test]
    fn expand_puts_a_windows_end_before_a_later_windows_start_at_equal_times() {
        let faults = [
            partition(100, Cut::Sym, Target::Server(1), 200),
            partition(300, Cut::Out, Target::Server(2), 50),
        ];
        let ops = expand(&faults);
        let at = |i: usize| (ops[i].0, ops[i].1.fault, ops[i].1.step);
        assert_eq!(at(0), (100, 0, Step::Block(Cut::Sym)));
        assert_eq!(at(1), (300, 0, Step::Heal(Cut::Sym)));
        assert_eq!(at(2), (300, 1, Step::Block(Cut::Out)));
        assert_eq!(at(3), (350, 1, Step::Heal(Cut::Out)));
        // A window listed later but ending earlier still sorts by time.
        let nested = [
            partition(0, Cut::Sym, Target::Server(1), 500),
            partition(100, Cut::In, Target::Server(2), 100),
        ];
        let times: Vec<u64> = expand(&nested).iter().map(|(t, _)| *t).collect();
        assert_eq!(times, [0, 100, 200, 500]);
    }

    #[test]
    fn a_leader_target_is_resolved_when_the_fault_fires_and_healed_where_it_hit() {
        let faults = [
            partition(100, Cut::Sym, Target::Leader, 300),
            TimedFault {
                at_ms: 200,
                kind: FaultKind::CrashRestart {
                    target: Target::Leader,
                    down_ms: 400,
                    torn_records: 2,
                },
            },
        ];
        let mut timeline = Timeline::new(&faults);
        assert_eq!(timeline.next_at_ms(), Some(100));
        assert_eq!(timeline.server_hit(0), None, "not resolved before it fires");
        // s0 leads when the partition fires; by the time the crash fires the
        // cluster has moved on to s2.
        assert_eq!(timeline.pop(100, || 0), Some((Step::Block(Cut::Sym), 0)));
        assert_eq!(
            timeline.pop(200, || 2),
            Some((Step::Crash { torn_records: 2 }, 2))
        );
        // The ends act on the servers the starts hit, whoever leads now.
        let never = || panic!("an end step must not ask who leads");
        assert_eq!(timeline.pop(405, never), Some((Step::Heal(Cut::Sym), 0)));
        assert_eq!(timeline.closed_ms(), [Some(405), None]);
        assert_eq!(timeline.pop(600, never), Some((Step::Restart, 2)));
        assert_eq!(timeline.closed_ms(), [Some(405), Some(600)]);
        assert_eq!(
            (timeline.server_hit(0), timeline.server_hit(1)),
            (Some(0), Some(2))
        );
        assert_eq!(timeline.pop(700, never), None);
        assert_eq!(timeline.next_at_ms(), None);
    }

    // ---- judge ----------------------------------------------------------

    fn server(behavior: ByzantineBehavior, leader: u32) -> Option<ServerObservation> {
        Some(ServerObservation {
            behavior,
            stats: ServerStats::default(),
            view: 1,
            leader,
            stable_checkpoint: 0,
        })
    }

    /// A healthy 6 s run of the scenario below: 1000 tx/s throughout, four
    /// correct servers following s0, its one fault healed at 1.5 s.
    fn healthy() -> Observations {
        Observations {
            run_ms: 6_000,
            series: (0..=60).map(|i| (i * 100, i * 100)).collect(),
            servers: (0..4)
                .map(|_| server(ByzantineBehavior::Correct, 0))
                .collect(),
            violation: None,
            windows_closed_ms: vec![Some(1_500)],
        }
    }

    fn asserting(assertions: Assertions) -> Scenario {
        Scenario {
            faults: vec![partition(1_000, Cut::Sym, Target::Leader, 500)],
            expect: Expectation::Assert(assertions),
            ..Scenario::from_toml("").unwrap()
        }
    }

    fn assert_fails_with(failures: &[String], needle: &str) {
        assert!(
            failures.len() == 1 && failures[0].contains(needle),
            "expected one failure containing {needle:?}, got {failures:?}"
        );
    }

    #[test]
    fn a_healthy_run_passes_and_its_recovery_numbers_add_up() {
        let scenario = asserting(Assertions {
            min_committed: 4_500,
            recovery_floor_tps: 1_000.0,
            ..Assertions::default()
        });
        let obs = healthy();
        assert_eq!(scenario.judge(&obs), Vec::<String>::new());
        let recovery = obs.recovery(2.0);
        assert_eq!(recovery.committed_after_faults, 6_000 - 1_500);
        assert_eq!((recovery.window_s, recovery.tps), (2.0, 1_000.0));
        // A window wider than the run is clamped to it, not divided through.
        assert_eq!(obs.recovery(60.0).window_s, 6.0);
    }

    #[test]
    fn judge_min_committed_counts_only_what_commits_after_the_last_window_closes() {
        let scenario = asserting(Assertions {
            min_committed: 4_501,
            ..Assertions::default()
        });
        assert_fails_with(&scenario.judge(&healthy()), "only 4500 tx committed after");
    }

    #[test]
    fn judge_recovery_floor_reads_the_trailing_window() {
        let scenario = asserting(Assertions {
            recovery_floor_tps: 200.0,
            ..Assertions::default()
        });
        // The wedge: everything commits in the first second, nothing after.
        let mut wedged = healthy();
        for (t, total) in &mut wedged.series {
            *total = (*t).min(1_000);
        }
        assert_fails_with(&scenario.judge(&wedged), "recovery throughput 0 tx/s");
    }

    #[test]
    fn judge_a_fault_that_never_ran_to_its_end_must_not_pass_vacuously() {
        // min_committed alone would pass (the run committed plenty); the
        // unfinished window turns "after the fault window" into zero.
        let scenario = asserting(Assertions {
            min_committed: 1,
            ..Assertions::default()
        });
        for closed in [None, Some(6_001)] {
            let mut obs = healthy();
            obs.windows_closed_ms = vec![closed];
            let failures = scenario.judge(&obs);
            assert_eq!(failures.len(), 2, "{failures:?}");
            assert!(failures[0].contains("did not run to the end of its window"));
            assert!(failures[1].contains("only 0 tx committed after"));
        }
    }

    #[test]
    fn judge_safety_violations_fail_unless_the_file_expects_exactly_them() {
        let fork = Some(Violated {
            invariant: "no_fork".to_string(),
            detail: "fork at sequence 9".to_string(),
        });
        let mut forked = healthy();
        forked.violation = fork.clone();
        let strict = asserting(Assertions::default());
        assert_fails_with(&strict.judge(&forked), "safety violated — no_fork");
        let lenient = asserting(Assertions {
            no_fork: false,
            ..Assertions::default()
        });
        assert_eq!(lenient.judge(&forked), Vec::<String>::new());
        // `no_fork = false` waives the fork check only.
        forked.violation.as_mut().unwrap().invariant = "no_double_commit".to_string();
        assert_fails_with(
            &lenient.judge(&forked),
            "safety violated — no_double_commit",
        );

        let reproducer = Scenario {
            expect: Expectation::Violation("no_fork".to_string()),
            ..strict
        };
        assert_fails_with(&reproducer.judge(&forked), "but `no_double_commit` was");
        assert_fails_with(&reproducer.judge(&healthy()), "the run stayed clean");
        forked.violation = fork;
        assert_eq!(reproducer.judge(&forked), Vec::<String>::new());
    }

    #[test]
    fn judge_no_faulty_leader_checks_wins_and_who_is_followed() {
        let scenario = asserting(Assertions {
            no_faulty_leader: true,
            ..Assertions::default()
        });
        let liar = ByzantineBehavior::OverclaimTip(AttackStrategy::Always);
        let mut obs = healthy();
        obs.servers[3] = server(liar, 0);
        assert_eq!(scenario.judge(&obs), Vec::<String>::new());

        obs.servers[3].as_mut().unwrap().stats.elections_won = 1;
        assert_fails_with(&scenario.judge(&obs), "faulty server s3 won 1 election(s)");

        obs.servers[3].as_mut().unwrap().stats.elections_won = 0;
        obs.servers[1].as_mut().unwrap().leader = 3;
        assert_fails_with(
            &scenario.judge(&obs),
            "correct server s1 follows faulty leader s3",
        );
    }

    #[test]
    fn judge_cert_refusals_and_checkpoints_count_correct_servers_only() {
        let scenario = asserting(Assertions {
            min_cert_refusals: 2,
            min_stable_checkpoint: 16,
            ..Assertions::default()
        });
        let mut obs = healthy();
        obs.servers[3] = server(ByzantineBehavior::Quiet, 0);
        // The faulty server's numbers must not count toward either floor.
        obs.servers[3].as_mut().unwrap().stats.camp_cert_refusals = 9;
        obs.servers[3].as_mut().unwrap().stable_checkpoint = 64;
        obs.servers[0].as_mut().unwrap().stats.camp_cert_refusals = 1;
        obs.servers[1].as_mut().unwrap().stable_checkpoint = 15;
        let failures = scenario.judge(&obs);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("only 1 certificate refusal(s)"));
        assert!(failures[1].contains("highest stable checkpoint 15"));

        obs.servers[2].as_mut().unwrap().stats.camp_cert_refusals = 1;
        obs.servers[2].as_mut().unwrap().stable_checkpoint = 16;
        assert_eq!(scenario.judge(&obs), Vec::<String>::new());
    }

    #[test]
    fn judge_a_server_that_does_not_answer_at_the_end_fails_the_run() {
        let scenario = asserting(Assertions::default());
        let mut obs = healthy();
        obs.servers[2] = None;
        assert_fails_with(&scenario.judge(&obs), "server s2 does not answer");
    }
}
