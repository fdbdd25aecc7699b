//! The one scenario description: protocol, cluster shape and workload, base
//! network, Byzantine fault plan, a timeline of injected faults, and what the
//! run is expected to show — read from and written to one text form (the
//! repo's mini-TOML), driven by two hosts.
//!
//! The *simulator host* (`prestige_vopr::SimCluster`) builds a [`Scenario`]
//! under the deterministic discrete-event simulator: the vopr harness checks
//! every safety invariant after every event, and the paper's figures
//! (`prestige-experiments`) are sweeps of scenarios over it. The *real host*
//! (`chaos_net`) runs the same value on real node runtimes over loopback.
//! Both walk the same expanded timeline ([`expand`], through a
//! [`Timeline`]), hand back the same [`Observations`], and are judged by the
//! same function ([`Scenario::judge`]). A `scenarios/*.toml` CI gate
//! therefore replays under the simulator, and a shrunk
//! `vopr/regressions/**/*.toml` reproducer runs on the real runtime, with no
//! translation step.
//!
//! The vocabulary — `[scenario]`, `[timeouts]`, `[network]`, `[faults]`, any
//! number of `[[fault]]` windows, `[storage]`, and `[assert]` or `[expect]`
//! — is tabulated in `docs/ATTACKS.md`; `scenarios/*.toml` are the examples.
//! Every schedule quantity is an integer (ms, µs, ‰, bytes/s) and the floats
//! (`[timeouts]`, two `[assert]` floors) print shortest-round-trip, so
//! `from_toml(to_toml(s)) == s` exactly.

use crate::toml::{
    array_sections, get_bool, get_f64, get_int, get_str, parse_faults, parse_timeouts, parse_toml,
    reject_unknown_keys, ConfigError, TomlDoc, FAULT_KEYS, TIMEOUT_KEYS,
};
use crate::FaultPlan;
use prestige_core::{
    AttackStrategy, ByzantineBehavior, ClusterConfig, Refusal, ServerStats, TimeoutConfig,
    ViewChangePolicy,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which protocol the servers run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolChoice {
    /// PrestigeBFT (`pb`).
    Prestige,
    /// HotStuff-style passive baseline (`hs`).
    HotStuff,
    /// SBFT-lite baseline (`sb`).
    SbftLite,
    /// Prosecutor-lite baseline (`pr`).
    ProsecutorLite,
}

impl ProtocolChoice {
    /// Every protocol, in the order the paper's legends list them.
    pub const ALL: [ProtocolChoice; 4] = [
        ProtocolChoice::Prestige,
        ProtocolChoice::HotStuff,
        ProtocolChoice::SbftLite,
        ProtocolChoice::ProsecutorLite,
    ];

    /// The short label used in the paper's figure legends and in
    /// `[scenario] protocol = "…"`.
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolChoice::Prestige => "pb",
            ProtocolChoice::HotStuff => "hs",
            ProtocolChoice::SbftLite => "sb",
            ProtocolChoice::ProsecutorLite => "pr",
        }
    }
}

/// A link model, on every link: a one-way delay, independent loss, and a
/// per-sender NIC bandwidth. The delay is uniform in
/// `[delay_lo_us, delay_hi_us]`, or — with `delay_std_us` set — normal
/// around the midpoint of that range with this standard deviation, never
/// below `delay_lo_us` (netem's `distribution normal`). The real host
/// applies neither a normal delay nor a bandwidth
/// ([`Scenario::lint_for_real_host`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Link {
    /// Lower propagation delay bound (µs).
    pub delay_lo_us: u64,
    /// Upper propagation delay bound (µs).
    pub delay_hi_us: u64,
    /// Standard deviation of a normal delay (µs); `0` = uniform.
    pub delay_std_us: u64,
    /// Message loss probability (‰).
    pub loss_permille: u32,
    /// Per-sender NIC bandwidth (bytes/s); `0` = unlimited.
    pub bandwidth_bytes_per_s: u64,
}

impl Link {
    /// The paper's cloud LAN (§6): 0.5–2 ms one way, 400 MB/s NICs.
    pub const LAN: Link = Link {
        delay_lo_us: 500,
        delay_hi_us: 2_000,
        delay_std_us: 0,
        loss_permille: 0,
        bandwidth_bytes_per_s: 400_000_000,
    };

    /// The paper's netem emulation `d = 10 ± 5 ms` on that LAN (fig7): a
    /// normal delay of mean 11 ms (the LAN's midpoint folded in) and σ 5 ms,
    /// floored at 0.5 ms.
    pub const NETEM_D10: Link = Link {
        delay_lo_us: 500,
        delay_hi_us: 21_500,
        delay_std_us: 5_000,
        ..Link::LAN
    };
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
    /// Cuts the target off from every other actor (servers and clients) for
    /// the window. A link that two overlapping partitions both block heals
    /// with the first of them, on both hosts.
    Partition(Cut, Target),
    /// Replaces the link model on every link for the window, then restores
    /// the scenario's base network.
    Degrade(Link),
    /// Crashes `target`, tears `torn_records` records off the tail of its
    /// WAL (what a power cut mid-append leaves), and restarts it from a WAL
    /// replay when the window ends.
    CrashRestart {
        /// The crashed server.
        target: Target,
        /// Records torn off the WAL tail at the crash point.
        torn_records: u32,
    },
}

impl FaultKind {
    /// The `kind = "…"` spelling, also used in run logs and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Partition(Cut::Sym, _) => "partition_sym",
            FaultKind::Partition(Cut::In, _) => "partition_in",
            FaultKind::Partition(Cut::Out, _) => "partition_out",
            FaultKind::Degrade(_) => "degrade",
            FaultKind::CrashRestart { .. } => "crash_restart",
        }
    }

    /// The fault's target, for the kinds that have one.
    pub fn target(&self) -> Option<Target> {
        match self {
            FaultKind::Partition(_, target) | FaultKind::CrashRestart { target, .. } => {
                Some(*target)
            }
            FaultKind::Degrade(_) => None,
        }
    }

    /// The key the window length is written under: a crash is `down_ms`
    /// long, everything else lasts `duration_ms`.
    pub fn window_key(&self) -> &'static str {
        match self {
            FaultKind::CrashRestart { .. } => "down_ms",
            _ => "duration_ms",
        }
    }
}

/// One injected fault: it starts when the run reaches `at_ms` and ends
/// `window_ms` later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedFault {
    /// When the fault starts (ms into the run).
    pub at_ms: u64,
    /// How long its window stays open (ms).
    pub window_ms: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// The real host's deployment settings (`[storage]`): with the section
/// present every server runs on an on-disk WAL, which a `crash_restart`
/// needs there, with the WAL's default tuning. The simulator host ignores
/// all of it and always logs to shared in-memory storage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StorageSettings {
    /// WAL root directory; unset = a per-run temporary directory.
    pub dir: Option<String>,
}

impl StorageSettings {
    /// The keys of the `[storage]` section.
    pub const KEYS: [&'static str; 1] = ["dir"];

    /// Reads the `[storage]` section (shared by scenario files and node
    /// configs); `None` when the section is absent.
    pub fn from_doc(doc: &TomlDoc) -> Result<Option<Self>, ConfigError> {
        if !doc.contains_key("storage") {
            return Ok(None);
        }
        Ok(Some(StorageSettings {
            dir: get_str(doc, "storage", "dir")?.map(str::to_string),
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
    /// A correct server must have installed at least this many views (an
    /// election the scenario forces must actually have happened).
    pub min_views_installed: u64,
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
            min_views_installed: 0,
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
    /// Scenario name (reports, temp directories, figure rows).
    pub name: String,
    /// Seed for keys, timer jitter and — under the simulator — everything.
    pub seed: u64,
    /// The protocol the servers run.
    pub protocol: ProtocolChoice,
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
    /// Commits per certified checkpoint, and the slack the block store keeps
    /// below the all-server checkpoint height (positive).
    pub checkpoint_interval: u64,
    /// Timing view-change policy interval (ms); `0` = on failure only.
    pub rotation_ms: u64,
    /// Timers: a preset (`timeouts = "fast"` or `"default"`) with any
    /// `[timeouts]` keys over it.
    pub timeouts: TimeoutConfig,
    /// Total run length (ms).
    pub duration_ms: u64,
    /// The base network (`[network]`).
    pub network: Link,
    /// The Byzantine fault plan (the last `count` servers follow it).
    pub fault_plan: FaultPlan,
    /// The injected faults, in time order.
    pub faults: Vec<TimedFault>,
    /// Real-host storage settings; `None` = in-memory servers there.
    pub storage: Option<StorageSettings>,
    /// What the run must show.
    pub expect: Expectation,
}

impl Default for Scenario {
    /// What an empty file describes: PrestigeBFT on four servers over
    /// zero-latency links, fast timers, no faults, five seconds.
    fn default() -> Self {
        Scenario::from_toml("").expect("an empty scenario file parses")
    }
}

/// The named timer presets of `[scenario] timeouts = "…"`.
fn timeout_presets() -> [(&'static str, TimeoutConfig); 2] {
    [
        ("fast", TimeoutConfig::fast()),
        ("default", TimeoutConfig::default()),
    ]
}

const SCENARIO_KEYS: [&str; 12] = [
    "name",
    "seed",
    "protocol",
    "servers",
    "clients",
    "concurrency",
    "batch_size",
    "payload_size",
    "checkpoint_interval",
    "rotation_ms",
    "timeouts",
    "duration_ms",
];
const LINK_KEYS: [&str; 5] = [
    "delay_lo_us",
    "delay_hi_us",
    "delay_std_us",
    "loss_permille",
    "bandwidth_bytes_per_s",
];
const ASSERT_KEYS: [&str; 8] = [
    "no_fork",
    "no_faulty_leader",
    "min_cert_refusals",
    "min_committed",
    "min_stable_checkpoint",
    "min_views_installed",
    "recovery_floor_tps",
    "recovery_window_s",
];

fn invalid<T>(message: String) -> Result<T, ConfigError> {
    Err(ConfigError::Invalid(message))
}

fn parse_link(doc: &TomlDoc, section: &str) -> Result<Link, ConfigError> {
    let link = Link {
        delay_lo_us: get_int(doc, section, "delay_lo_us", 0)?,
        delay_hi_us: get_int(doc, section, "delay_hi_us", 0)?,
        delay_std_us: get_int(doc, section, "delay_std_us", 0)?,
        loss_permille: get_int(doc, section, "loss_permille", 0)?,
        bandwidth_bytes_per_s: get_int(doc, section, "bandwidth_bytes_per_s", 0)?,
    };
    if link.delay_lo_us > link.delay_hi_us {
        return invalid(format!(
            "{section}.delay_lo_us = {} exceeds {section}.delay_hi_us = {}",
            link.delay_lo_us, link.delay_hi_us
        ));
    }
    Ok(link)
}

fn parse_fault(doc: &TomlDoc, section: &str, servers: u32) -> Result<TimedFault, ConfigError> {
    let missing = |key: &str| ConfigError::Missing(format!("{section}.{key}"));
    let target = || match get_str(doc, section, "target")? {
        None => Err(missing("target")),
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
    };
    let (kind, keys): (FaultKind, &[&str]) = match get_str(doc, section, "kind")? {
        Some("partition_sym") => (FaultKind::Partition(Cut::Sym, target()?), &["target"]),
        Some("partition_in") => (FaultKind::Partition(Cut::In, target()?), &["target"]),
        Some("partition_out") => (FaultKind::Partition(Cut::Out, target()?), &["target"]),
        Some("degrade") => (FaultKind::Degrade(parse_link(doc, section)?), &LINK_KEYS),
        Some("crash_restart") => (
            FaultKind::CrashRestart {
                target: target()?,
                torn_records: get_int(doc, section, "torn_records", 0)?,
            },
            &["target", "torn_records"],
        ),
        Some(other) => {
            return invalid(format!(
                "{section}.kind `{other}` (partition_sym, partition_in, partition_out, degrade, \
                 crash_restart)"
            ))
        }
        None => return Err(missing("kind")),
    };
    reject_unknown_keys(
        doc,
        section,
        &[&["at_ms", "kind", kind.window_key()], keys].concat(),
    )?;
    // No defaults: every fault states when it starts and how long it lasts.
    let required = |key: &str| match doc[section].contains_key(key) {
        true => get_int(doc, section, key, 0u64),
        false => Err(missing(key)),
    };
    Ok(TimedFault {
        at_ms: required("at_ms")?,
        window_ms: required(kind.window_key())?,
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
        let sections = [
            ("scenario", &SCENARIO_KEYS[..]),
            ("timeouts", &TIMEOUT_KEYS),
            ("network", &LINK_KEYS),
            ("faults", &FAULT_KEYS),
            ("storage", &StorageSettings::KEYS),
            ("assert", &ASSERT_KEYS),
            ("expect", &["violation"]),
        ];
        for (section, keys) in sections {
            reject_unknown_keys(&doc, section, keys)?;
        }
        if let Some(section) = doc.keys().find(|section| {
            !sections.iter().any(|(known, _)| section == known) && !section.starts_with("fault[")
        }) {
            return invalid(format!(
                "unknown section `[{section}]` (expected scenario, timeouts, network, faults, \
                 [[fault]], storage, assert or expect)"
            ));
        }

        let servers: u32 = get_int(&doc, "scenario", "servers", 4)?;
        let mut faults = array_sections(&doc, "fault")
            .map(|section| parse_fault(&doc, &section, servers))
            .collect::<Result<Vec<_>, _>>()?;
        faults.sort_by_key(|f| f.at_ms);

        let expect = match get_str(&doc, "expect", "violation")? {
            Some(_) if doc.contains_key("assert") => {
                return invalid("a scenario has [assert] or [expect], not both".to_string())
            }
            Some(invariant) => Expectation::Violation(invariant.to_string()),
            None if doc.contains_key("expect") => {
                return Err(ConfigError::Missing("expect.violation".to_string()))
            }
            None => {
                let d = Assertions::default();
                let int = |key| get_int(&doc, "assert", key, 0u64);
                Expectation::Assert(Assertions {
                    no_fork: get_bool(&doc, "assert", "no_fork", d.no_fork)?,
                    no_faulty_leader: get_bool(&doc, "assert", "no_faulty_leader", false)?,
                    min_cert_refusals: int("min_cert_refusals")?,
                    min_committed: int("min_committed")?,
                    min_stable_checkpoint: int("min_stable_checkpoint")?,
                    min_views_installed: int("min_views_installed")?,
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

        let preset = get_str(&doc, "scenario", "timeouts")?.unwrap_or("fast");
        let Some((_, preset)) = timeout_presets().into_iter().find(|(n, _)| *n == preset) else {
            return invalid(format!("scenario.timeouts `{preset}` (fast or default)"));
        };
        let checkpoint_interval = get_int(&doc, "scenario", "checkpoint_interval", 64)?;
        if checkpoint_interval == 0 {
            return invalid(
                "scenario.checkpoint_interval `0`: checkpoints bound the block store, so the \
                 interval is positive"
                    .to_string(),
            );
        }
        let protocol = get_str(&doc, "scenario", "protocol")?.unwrap_or("pb");
        let Some(protocol) = ProtocolChoice::ALL
            .into_iter()
            .find(|p| p.label() == protocol)
        else {
            return invalid(format!("scenario.protocol `{protocol}` (pb, hs, sb or pr)"));
        };
        let scenario = Scenario {
            name: get_str(&doc, "scenario", "name")?
                .unwrap_or("unnamed")
                .to_string(),
            seed: get_int(&doc, "scenario", "seed", 42)?,
            protocol,
            servers,
            clients: get_int(&doc, "scenario", "clients", 2)?,
            concurrency: get_int(&doc, "scenario", "concurrency", 100)?,
            batch_size: get_int(&doc, "scenario", "batch_size", 100)?,
            payload_size: get_int(&doc, "scenario", "payload_size", 32)?,
            checkpoint_interval,
            rotation_ms: get_int(&doc, "scenario", "rotation_ms", 0)?,
            timeouts: parse_timeouts(&doc, preset)?,
            duration_ms: get_int(&doc, "scenario", "duration_ms", 5_000)?,
            network: parse_link(&doc, "network")?,
            fault_plan: parse_faults(&doc)?,
            faults,
            storage: StorageSettings::from_doc(&doc)?,
            expect,
        };
        scenario.lint()?;
        Ok(scenario)
    }

    /// The cluster configuration both hosts launch — the one mapping from
    /// the `[scenario]` keys to a [`ClusterConfig`].
    pub fn cluster_config(&self) -> ClusterConfig {
        let mut config = ClusterConfig::new(self.servers)
            .with_batch_size(self.batch_size)
            .with_payload_size(self.payload_size)
            .with_timeouts(self.timeouts.clone())
            .with_checkpoint_interval(self.checkpoint_interval);
        if self.rotation_ms > 0 {
            config.policy = ViewChangePolicy::Timing {
                interval_ms: self.rotation_ms as f64,
            };
        }
        config
    }

    /// Whether some fault crashes (and restarts) a server — the one case a
    /// simulated server needs a WAL.
    pub fn crashes_a_server(&self) -> bool {
        let crash = |f: &TimedFault| matches!(f.kind, FaultKind::CrashRestart { .. });
        self.faults.iter().any(crash)
    }

    /// What the real host requires on top of [`Self::from_toml`]'s lint:
    /// PrestigeBFT ([`Self::lint_for_vopr`]; `prestige-net` has no edge to
    /// the baselines while the benchmark's frozen lock file pins its
    /// dependencies), links without a normal delay or a bandwidth (`NetChaos`
    /// applies uniform delay and loss only), and `[storage]` under a
    /// `crash_restart` (the restart replays the WAL).
    pub fn lint_for_real_host(&self) -> Result<(), ConfigError> {
        self.lint_for_vopr()?;
        let degraded = self.faults.iter().filter_map(|f| match &f.kind {
            FaultKind::Degrade(link) => Some(link),
            _ => None,
        });
        if std::iter::once(&self.network)
            .chain(degraded)
            .any(|l| l.delay_std_us > 0 || l.bandwidth_bytes_per_s > 0)
        {
            return invalid(
                "delay_std_us and bandwidth_bytes_per_s run only under the simulator: the real \
                 runtime's links apply a uniform delay and loss"
                    .to_string(),
            );
        }
        if self.crashes_a_server() && self.storage.is_none() {
            return invalid(
                "a crash_restart needs a [storage] section on the real runtime (the restart \
                 replays the WAL); an empty one provisions a per-run temp directory"
                    .to_string(),
            );
        }
        Ok(())
    }

    /// What `vopr run`, `replay` and `shrink` require: PrestigeBFT, because
    /// the safety invariants read `PrestigeServer` internals.
    pub fn lint_for_vopr(&self) -> Result<(), ConfigError> {
        match self.protocol {
            ProtocolChoice::Prestige => Ok(()),
            other => invalid(format!(
                "scenario.protocol `{}` runs only in the figures' simulator: the vopr \
                 invariants read PrestigeServer internals, and the real runtime has no edge to \
                 the baselines while the benchmark's lock file is frozen",
                other.label()
            )),
        }
    }

    /// Scenario lint: crash-restart scenarios have two footguns that produce
    /// flaky-looking CI failures long after the scenario is written, so
    /// they are rejected at parse time with the fix in the message.
    fn lint(&self) -> Result<(), ConfigError> {
        if !self.crashes_a_server() {
            return Ok(());
        }
        // A restarted node replays its WAL, re-elects, and pages itself
        // forward through the repair plane; on a shared 1-core runner that
        // routinely takes over a second of wall clock near EOF. A narrow
        // recovery window turns scheduler starvation into a "regression".
        match &self.expect {
            Expectation::Assert(a) if a.recovery_window_s < 2.0 => {
                return invalid(format!(
                    "crash_restart scenarios need assert.recovery_window_s >= 2.0 (got {}): \
                     WAL replay + re-election + repair-plane catch-up does not fit a narrower \
                     window on 1-core CI runners",
                    a.recovery_window_s
                ))
            }
            _ => {}
        }
        // An unthrottled loopback cluster commits faster than a restarted
        // node can replay, so it chases a receding tip for the whole run and
        // the recovery assertions measure the scheduler, not the protocol.
        if self.network.delay_hi_us == 0 {
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
    /// equal value, so the file is also a complete record of the run's
    /// parameters. Every key is written, except the settings no committed
    /// file uses — `protocol`, `[timeouts]`, `delay_std_us` and
    /// `bandwidth_bytes_per_s` — which appear only when they differ from
    /// their defaults.
    pub fn to_toml(&self) -> String {
        let link = |l: &Link| {
            let mut text = format!(
                "delay_lo_us = {}\ndelay_hi_us = {}\nloss_permille = {}\n",
                l.delay_lo_us, l.delay_hi_us, l.loss_permille
            );
            for (key, value) in [
                ("delay_std_us", l.delay_std_us),
                ("bandwidth_bytes_per_s", l.bandwidth_bytes_per_s),
            ] {
                if value > 0 {
                    let _ = writeln!(text, "{key} = {value}");
                }
            }
            text
        };
        let mut out = format!("[scenario]\nname = {:?}\n", self.name);
        if self.protocol != ProtocolChoice::Prestige {
            let _ = writeln!(out, "protocol = \"{}\"", self.protocol.label());
        }
        for (key, value) in [
            ("seed", self.seed),
            ("servers", self.servers as u64),
            ("clients", self.clients),
            ("concurrency", self.concurrency as u64),
            ("batch_size", self.batch_size as u64),
            ("payload_size", self.payload_size as u64),
            ("checkpoint_interval", self.checkpoint_interval),
            ("rotation_ms", self.rotation_ms),
            ("duration_ms", self.duration_ms),
        ] {
            let _ = writeln!(out, "{key} = {value}");
        }
        // A preset is named; any other timers are written out in full.
        let preset = timeout_presets()
            .into_iter()
            .find(|(_, preset)| *preset == self.timeouts);
        let _ = writeln!(
            out,
            "timeouts = \"{}\"",
            preset.as_ref().map_or("default", |(name, _)| name)
        );
        if preset.is_none() {
            let t = &self.timeouts;
            let _ = writeln!(
                out,
                "\n[timeouts]\nbase_timeout_ms = {:?}\nrandomization_ms = {:?}\n\
                 client_timeout_ms = {:?}\ncomplaint_grace_ms = {:?}",
                t.base_timeout_ms, t.randomization_ms, t.client_timeout_ms, t.complaint_grace_ms
            );
        }
        let _ = writeln!(
            out,
            "\n[network]\n{}\n[faults]\nplan = \"{}\"\ncount = {}",
            link(&self.network),
            self.fault_plan.label(),
            self.fault_plan.count()
        );
        match self.fault_plan.strategy() {
            Some(AttackStrategy::Always) => out.push_str("strategy = \"s1\"\n"),
            Some(AttackStrategy::WhenCompensable) => out.push_str("strategy = \"s2\"\n"),
            None => {}
        }
        for fault in &self.faults {
            let kind = &fault.kind;
            let _ = writeln!(
                out,
                "\n[[fault]]\nat_ms = {}\nkind = \"{}\"",
                fault.at_ms,
                kind.label()
            );
            match kind.target() {
                Some(Target::Leader) => out.push_str("target = \"leader\"\n"),
                Some(Target::Server(id)) => {
                    let _ = writeln!(out, "target = \"s{id}\"");
                }
                None => {}
            }
            if let FaultKind::Degrade(degraded) = kind {
                out.push_str(&link(degraded));
            }
            let _ = writeln!(out, "{} = {}", kind.window_key(), fault.window_ms);
            if let FaultKind::CrashRestart { torn_records, .. } = kind {
                let _ = writeln!(out, "torn_records = {torn_records}");
            }
        }
        if let Some(storage) = &self.storage {
            out.push_str("\n[storage]\n");
            if let Some(dir) = &storage.dir {
                let _ = writeln!(out, "dir = {dir:?}");
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
                     min_committed = {}\nmin_stable_checkpoint = {}\nmin_views_installed = {}\n\
                     recovery_floor_tps = {:?}\nrecovery_window_s = {:?}",
                    a.no_fork,
                    a.no_faulty_leader,
                    a.min_cert_refusals,
                    a.min_committed,
                    a.min_stable_checkpoint,
                    a.min_views_installed,
                    a.recovery_floor_tps,
                    a.recovery_window_s
                );
            }
        }
        out
    }
}

/// One edge of fault number `fault`'s window (its index in the scenario's
/// list): the fault starts, or — `ends` — it is undone (the heal, the
/// network restore, the restart).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Which fault this edge belongs to.
    pub fault: usize,
    /// `false` = the window opens, `true` = it closes.
    pub ends: bool,
}

/// Expands faults into a time-sorted `(at_ms, op)` list: each window
/// contributes a start op and an end op. The sort is stable, so at equal
/// times a window's end comes before the start of a window listed after it.
pub fn expand(faults: &[TimedFault]) -> Vec<(u64, Op)> {
    let mut ops = Vec::with_capacity(faults.len() * 2);
    for (fault, f) in faults.iter().enumerate() {
        ops.push((f.at_ms, Op { fault, ends: false }));
        ops.push((f.at_ms + f.window_ms, Op { fault, ends: true }));
    }
    ops.sort_by_key(|(t, _)| *t);
    ops
}

/// A host's cursor over the expanded timeline. It owns the two pieces of
/// state the walk needs besides the position: which server each fault hit
/// (a `leader` target is resolved once, when the fault *starts*, and its end
/// undoes it on that same server) and when each fault's window closed. The
/// host applies each op by matching on `(faults[op.fault].kind, op.ends)`.
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

    /// Takes the next op, applied by the host at `now_ms`. Returns it with
    /// the server it concerns (`0` for a network-wide fault); `leader` is
    /// asked only when a `leader`-targeted fault starts.
    pub fn pop(&mut self, now_ms: u64, leader: impl FnOnce() -> u32) -> Option<(Op, u32)> {
        let (_, op) = *self.ops.get(self.next)?;
        let fault = op.fault;
        self.next += 1;
        let server = self.hit[fault].unwrap_or_else(|| match self.targets[fault] {
            Some(Target::Server(server)) => server,
            Some(Target::Leader) => leader(),
            None => 0,
        });
        self.hit[fault] = Some(server);
        if op.ends {
            self.closed_ms[fault] = Some(now_ms);
        }
        Some((op, server))
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

    /// The first sample at or after `t_ms`.
    fn committed_at(&self, t_ms: u64) -> Option<u64> {
        let sample = self.series.iter().find(|(t, _)| *t >= t_ms)?;
        Some(sample.1)
    }

    /// The recovery numbers for a trailing window of `window_s` seconds.
    pub fn recovery(&self, window_s: f64) -> Recovery {
        let total = self.committed();
        let all_closed = (0..self.windows_closed_ms.len()).all(|i| self.window_closed(i));
        let last_close = self.windows_closed_ms.iter().flatten().max();
        let committed_after_faults = match all_closed {
            true => {
                total
                    - self
                        .committed_at(*last_close.unwrap_or(&0))
                        .unwrap_or(total)
            }
            false => 0,
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

    /// The correct servers that answer, with their ids.
    fn correct_servers(&self) -> impl Iterator<Item = (usize, &ServerObservation)> {
        let servers = self.servers.iter().enumerate();
        let live = servers.filter_map(|(id, s)| Some((id, s.as_ref()?)));
        live.filter(|(_, s)| !s.behavior.is_faulty())
    }

    /// The correct servers' campaign refusals, summed by kind, for the line
    /// under a FAILED verdict: whether an election wedged on C1's split vote,
    /// C4's charge or a certificate.
    pub fn refusal_tally(&self) -> String {
        let mut tally: BTreeMap<Refusal, u64> = BTreeMap::new();
        for (_, server) in self.correct_servers() {
            for (refusal, count) in &server.stats.camp_refusals {
                *tally.entry(*refusal).or_default() += count;
            }
        }
        let kinds: Vec<String> = tally.iter().map(|(r, n)| format!("{r:?} {n}")).collect();
        if kinds.is_empty() {
            "none".to_string()
        } else {
            kinds.join(", ")
        }
    }

    /// One line per correct server that answers, for the lines under a
    /// FAILED verdict: why a run failed, read from where each replica ended
    /// up and how its elections went.
    pub fn server_lines(&self) -> Vec<String> {
        self.correct_servers()
            .map(|(id, s)| {
                let stats = &s.stats;
                let campaign = |(ms, rp, pow_ms)| format!("({ms:.1}, {rp}, {pow_ms:.1})");
                let last_campaign = stats.last_campaign.map_or("none".into(), campaign);
                let last_commit = stats.last_commit_ms.map_or("never".into(), |ms| format!("{ms:.1} ms"));
                format!(
                    "s{id}: view {} leader s{}; campaigns {}, last {last_campaign}; last commit {last_commit}",
                    s.view, s.leader, stats.campaigns_started
                )
            })
            .collect()
    }
}

impl Scenario {
    /// The verdict: every way `obs` falls short of what the scenario expects
    /// (empty = the run passed). The one judging function for both hosts.
    pub fn judge(&self, obs: &Observations) -> Vec<String> {
        let mut failures = Vec::new();
        let a = match (&self.expect, &obs.violation) {
            (Expectation::Assert(a), _) => a,
            (Expectation::Violation(expected), Some(v)) if v.invariant == *expected => {
                return failures
            }
            (Expectation::Violation(expected), Some(v)) => {
                return vec![format!(
                    "expected `{expected}` to be violated, but `{}` was — {}",
                    v.invariant, v.detail
                )]
            }
            (Expectation::Violation(expected), None) => {
                return vec![format!(
                    "expected `{expected}` to be violated, but the run stayed clean — the \
                     reproducer no longer reproduces (or this build lacks the canary it was \
                     found under)"
                )]
            }
        };
        match &obs.violation {
            Some(v) if a.no_fork || v.invariant != "no_fork" => {
                failures.push(format!("safety violated — {}: {}", v.invariant, v.detail))
            }
            _ => {}
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
            let servers = obs.servers.iter().enumerate();
            servers.filter_map(|(i, s)| Some((i, s.as_ref()?)))
        };
        let faulty = |i: usize| live().any(|(j, s)| j == i && s.behavior.is_faulty());
        if a.no_faulty_leader {
            // "The liar never wins a certified election": no faulty server
            // may have assembled a vc_QC, and no correct server may
            // currently follow a faulty leader.
            for (i, s) in live().filter(|(i, s)| faulty(*i) && s.stats.elections_won > 0) {
                failures.push(format!(
                    "faulty server s{i} won {} election(s) — the certificate check failed to \
                     refuse its claim",
                    s.stats.elections_won
                ));
            }
            for (i, s) in obs
                .correct_servers()
                .filter(|(_, s)| faulty(s.leader as usize))
            {
                failures.push(format!(
                    "correct server s{i} follows faulty leader s{} in view {}",
                    s.leader, s.view
                ));
            }
        }
        // The refusals must actually have been *certificate* refusals: prove
        // the check bit, rather than the attack never having been attempted.
        let certificate = |s: &ServerStats| {
            let kinds = Refusal::CERTIFICATE.iter();
            kinds.filter_map(|r| s.camp_refusals.get(r)).sum::<u64>()
        };
        let refusals: u64 = obs
            .correct_servers()
            .map(|(_, s)| certificate(&s.stats))
            .sum();
        if refusals < a.min_cert_refusals {
            failures.push(format!(
                "only {refusals} certificate refusal(s) across correct servers (need {}) — the \
                 claimed attack never exercised the check",
                a.min_cert_refusals
            ));
        }
        let checkpoint = obs
            .correct_servers()
            .map(|(_, s)| s.stable_checkpoint)
            .max();
        if checkpoint.unwrap_or(0) < a.min_stable_checkpoint {
            failures.push(format!(
                "highest stable checkpoint {} across correct servers is below the required {} — \
                 checkpoints never formed (or GC never ran)",
                checkpoint.unwrap_or(0),
                a.min_stable_checkpoint
            ));
        }
        let views = obs
            .correct_servers()
            .map(|(_, s)| s.stats.views_installed)
            .max();
        if views.unwrap_or(0) < a.min_views_installed {
            failures.push(format!(
                "correct servers installed at most {} view(s), below the required {} — the \
                 election the scenario forces never happened",
                views.unwrap_or(0),
                a.min_views_installed
            ));
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

    fn crash(at_ms: u64, target: Target, window_ms: u64, torn_records: u32) -> TimedFault {
        let kind = FaultKind::CrashRestart {
            target,
            torn_records,
        };
        TimedFault {
            at_ms,
            window_ms,
            kind,
        }
    }

    fn partition(at_ms: u64, cut: Cut, target: Target, window_ms: u64) -> TimedFault {
        TimedFault {
            at_ms,
            window_ms,
            kind: FaultKind::Partition(cut, target),
        }
    }

    #[test]
    fn restart_scenario_with_throttle_and_wide_window_parses() {
        let text = restart_scenario(NETWORK, "recovery_window_s = 2.0");
        let scenario = Scenario::from_toml(&text).expect("valid scenario");
        assert_eq!(scenario.faults, [crash(1000, Target::Leader, 800, 0)]);
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
    fn hosts_refuse_what_they_cannot_run_and_say_why() {
        // (file, what the real host says, what vopr says); "" = accepted.
        // Every file parses: the simulator behind the figures runs them all.
        let durable = restart_scenario(NETWORK, "recovery_window_s = 2.0");
        let protocol = "the real runtime has no edge to the baselines";
        let link = "run only under the simulator";
        for (text, real, vopr) in [
            (String::new(), "", ""),
            (durable.clone(), "", ""),
            // The simulator needs no [storage] under a crash_restart.
            (durable.replace("[storage]\n", ""), "[storage] section", ""),
            ("[scenario]\nprotocol = \"pb\"\n".into(), "", ""),
            ("[scenario]\nprotocol = \"hs\"\n".into(), protocol, protocol),
            ("[scenario]\nprotocol = \"pr\"\n".into(), protocol, protocol),
            ("[network]\ndelay_std_us = 5000\n".into(), link, ""),
            (
                "[network]\nbandwidth_bytes_per_s = 400_000_000\n".into(),
                link,
                "",
            ),
            (
                "[[fault]]\nat_ms = 9\nkind = \"degrade\"\nbandwidth_bytes_per_s = 1\n\
                 duration_ms = 5\n"
                    .into(),
                link,
                "",
            ),
        ] {
            let scenario = Scenario::from_toml(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
            for (verdict, expected) in [
                (scenario.lint_for_real_host(), real),
                (scenario.lint_for_vopr(), vopr),
            ] {
                match verdict {
                    Ok(()) => assert_eq!(expected, "", "{text:?} was accepted"),
                    Err(e) => assert!(
                        !expected.is_empty() && e.to_string().contains(expected),
                        "{text:?}: {e}"
                    ),
                }
            }
        }
    }

    #[test]
    fn an_empty_file_is_the_default_scenario() {
        assert_eq!(Scenario::default(), Scenario::from_toml("").unwrap());
    }

    #[test]
    fn protocol_labels_match_paper_legend() {
        let labels = ProtocolChoice::ALL.map(|p| p.label());
        assert_eq!(labels, ["pb", "hs", "sb", "pr"]);
    }

    #[test]
    fn non_restart_scenario_is_not_linted() {
        let text = "[scenario]\nname = \"plain\"\nservers = 4\n\
                    [assert]\nrecovery_window_s = 1.0\n";
        assert!(Scenario::from_toml(text).is_ok());
    }

    /// Every `.toml` under `scenarios/` and `vopr/regressions/`, parsed.
    fn committed_files() -> Vec<(String, String, Scenario)> {
        fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
            for entry in std::fs::read_dir(dir).expect("readable directory") {
                let path = entry.expect("directory entry").path();
                if path.is_dir() {
                    walk(&path, out);
                } else if path.extension().is_some_and(|x| x == "toml") {
                    out.push(path);
                }
            }
        }
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut paths = Vec::new();
        walk(&root.join("scenarios"), &mut paths);
        walk(&root.join("vopr/regressions"), &mut paths);
        paths.sort();
        let parse = |path: &std::path::PathBuf| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(path).unwrap();
            let scenario = Scenario::from_toml(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, text, scenario)
        };
        paths.iter().map(parse).collect()
    }

    #[test]
    fn every_committed_file_parses_passes_the_lint_and_re_renders_to_an_equal_scenario() {
        // Parsing runs the lint, so the committed restart scenarios pass it.
        let files = committed_files();
        assert!(files.len() >= 12, "scenario files went missing");
        let restarts = files.iter().filter(|(name, _, s)| {
            let kinds: Vec<&str> = s.faults.iter().map(|f| f.kind.label()).collect();
            name.starts_with("restart_") && s.storage.is_some() && kinds == ["crash_restart"]
        });
        assert_eq!(restarts.count(), 3);
        for (name, text, scenario) in files {
            let again = Scenario::from_toml(&scenario.to_toml())
                .unwrap_or_else(|e| panic!("{name} re-rendered: {e}"));
            assert_eq!(scenario, again, "{name}");
            let retired = "[chaos] [partition] [restart] at_s duration_s truncate_tail_bytes";
            for spelling in retired.split(' ') {
                assert!(!text.contains(spelling), "{name} still spells `{spelling}`");
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
            // Retired settings: the WAL tuning and the pipeline depth are
            // constants now.
            (
                "[storage]\nsync_every_n = 8\n".to_string(),
                "storage.sync_every_n",
            ),
            (
                "[scenario]\npipeline_depth = 4\n".to_string(),
                "scenario.pipeline_depth",
            ),
            ("stray = 1\n".to_string(), "[]"),
            (fault.replace("s0", "s4"), "fault[0].target"),
            (fault.replace("down_ms = 9\n", ""), "fault[0].down_ms"),
            (
                "[assert]\n[expect]\nviolation = \"no_fork\"\n".to_string(),
                "not both",
            ),
            (
                "[network]\ndelay_lo_us = 2\ndelay_hi_us = 1\n".to_string(),
                "network.delay_lo_us",
            ),
            (
                "[timeouts]\nbase_ms = 1.0\n".to_string(),
                "timeouts.base_ms",
            ),
            (
                "[timeouts]\nbase_timeout_ms = \"1\"\n".to_string(),
                "timeouts.base_timeout_ms",
            ),
            (
                "[scenario]\ntimeouts = \"slow\"\n".to_string(),
                "scenario.timeouts",
            ),
            (
                "[scenario]\nprotocol = \"pbft\"\n".to_string(),
                "scenario.protocol",
            ),
            (
                "[scenario]\ncheckpoint_interval = 0\n".to_string(),
                "scenario.checkpoint_interval",
            ),
        ] {
            let err = Scenario::from_toml(&text).expect_err(&text);
            assert!(err.to_string().contains(named), "{text:?} gave: {err}");
        }
    }

    #[test]
    fn what_no_committed_file_sets_still_round_trips() {
        // The committed files and the generated schedules (vopr's
        // determinism test) cover the rest of the vocabulary.
        let text = "[scenario]\ntimeouts = \"default\"\ncheckpoint_interval = 16\n\
                    protocol = \"sb\"\n[timeouts]\ncomplaint_grace_ms = 200\n\
                    [network]\ndelay_lo_us = 500\ndelay_hi_us = 21500\ndelay_std_us = 5000\n\
                    bandwidth_bytes_per_s = 400000000\n\
                    [storage]\ndir = \"/tmp/wal dir\"\n\
                    [[fault]]\nat_ms = 9\nkind = \"degrade\"\ndelay_hi_us = 7\nduration_ms = 5\n\
                    [assert]\nno_fork = false\nno_faulty_leader = true\nmin_cert_refusals = 1\n\
                    recovery_floor_tps = 0.1\nrecovery_window_s = 2.25\n";
        let scenario = Scenario::from_toml(text).unwrap();
        // `[timeouts]` overrides one field of the named preset.
        let timeouts = TimeoutConfig {
            complaint_grace_ms: 200.0,
            ..TimeoutConfig::default()
        };
        assert_eq!(scenario.timeouts, timeouts);
        assert_eq!(scenario.protocol, ProtocolChoice::SbftLite);
        assert_eq!(scenario.network, Link::NETEM_D10);
        let storage = scenario.storage.as_ref().unwrap();
        assert_eq!(storage.dir.as_deref(), Some("/tmp/wal dir"));
        let Expectation::Assert(a) = &scenario.expect else {
            panic!("[assert] parsed as {:?}", scenario.expect);
        };
        assert!(!a.no_fork && a.no_faulty_leader);
        assert_eq!((a.recovery_floor_tps, a.recovery_window_s), (0.1, 2.25));
        assert_eq!(Scenario::from_toml(&scenario.to_toml()).unwrap(), scenario);
    }

    #[test]
    fn expand_puts_a_windows_end_before_a_later_windows_start_at_equal_times() {
        let faults = [
            partition(100, Cut::Sym, Target::Server(1), 200),
            partition(300, Cut::Out, Target::Server(2), 50),
        ];
        let ops: Vec<_> = expand(&faults)
            .iter()
            .map(|(t, op)| (*t, op.fault, op.ends))
            .collect();
        let expected = [
            (100, 0, false),
            (300, 0, true),
            (300, 1, false),
            (350, 1, true),
        ];
        assert_eq!(ops, expected);
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
            crash(200, Target::Leader, 400, 2),
        ];
        let mut timeline = Timeline::new(&faults);
        assert_eq!(timeline.next_at_ms(), Some(100));
        assert_eq!(timeline.server_hit(0), None, "not resolved before it fires");
        // s0 leads when the partition fires; by the time the crash fires the
        // cluster has moved on to s2.
        let op = |fault, ends| Op { fault, ends };
        assert_eq!(timeline.pop(100, || 0), Some((op(0, false), 0)));
        assert_eq!(timeline.pop(200, || 2), Some((op(1, false), 2)));
        // The ends act on the servers the starts hit, whoever leads now.
        let never = || panic!("an end must not ask who leads");
        assert_eq!(timeline.pop(405, never), Some((op(0, true), 0)));
        assert_eq!(timeline.closed_ms(), [Some(405), None]);
        assert_eq!(timeline.pop(600, never), Some((op(1, true), 2)));
        assert_eq!(timeline.closed_ms(), [Some(405), Some(600)]);
        assert_eq!(timeline.server_hit(0), Some(0));
        assert_eq!(timeline.server_hit(1), Some(2));
        assert_eq!(timeline.pop(700, never), None);
        assert_eq!(timeline.next_at_ms(), None);
    }

    // ---- judge ----------------------------------------------------------

    /// A healthy 6 s run: 1000 tx/s throughout, four correct servers
    /// following s0, the scenario's one fault healed at 1.5 s.
    fn healthy() -> Observations {
        let server = ServerObservation {
            behavior: ByzantineBehavior::Correct,
            stats: ServerStats::default(),
            view: 1,
            leader: 0,
            stable_checkpoint: 0,
        };
        Observations {
            run_ms: 6_000,
            series: (0..=60).map(|i| (i * 100, i * 100)).collect(),
            servers: vec![Some(server); 4],
            violation: None,
            windows_closed_ms: vec![Some(1_500)],
        }
    }

    fn violated(invariant: &str) -> Option<Violated> {
        Some(Violated {
            invariant: invariant.to_string(),
            detail: "detail".to_string(),
        })
    }

    /// Judges `healthy()` after `spoil` under `[assert]` defaults changed by
    /// `require`; `expected` lists a fragment of each failure, ` | `-separated
    /// (empty = the run passes).
    fn check(
        require: impl FnOnce(&mut Assertions),
        spoil: impl FnOnce(&mut Observations),
        expected: &str,
    ) {
        let mut assertions = Assertions::default();
        require(&mut assertions);
        let scenario = Scenario {
            faults: vec![partition(1_000, Cut::Sym, Target::Leader, 500)],
            expect: Expectation::Assert(assertions),
            ..Scenario::from_toml("").unwrap()
        };
        let mut obs = healthy();
        spoil(&mut obs);
        let failures = scenario.judge(&obs);
        let needles: Vec<&str> = expected.split(" | ").filter(|n| !n.is_empty()).collect();
        let matches = failures.len() == needles.len()
            && failures.iter().zip(&needles).all(|(f, n)| f.contains(n));
        assert!(matches, "expected {needles:?}, got {failures:?}");
    }

    type Require = fn(&mut Assertions);
    type Spoil = fn(&mut Observations);
    const NOTHING: Require = |_| {};
    const UNSPOILT: Spoil = |_| {};

    #[test]
    fn a_healthy_run_passes_and_its_recovery_numbers_add_up() {
        let floors: Require = |a| (a.min_committed, a.recovery_floor_tps) = (4_500, 1_000.0);
        check(floors, UNSPOILT, "");
        let recovery = healthy().recovery(2.0);
        assert_eq!(recovery.committed_after_faults, 6_000 - 1_500);
        assert_eq!((recovery.window_s, recovery.tps), (2.0, 1_000.0));
        // A window wider than the run is clamped to it, not divided through.
        assert_eq!(healthy().recovery(60.0).window_s, 6.0);
    }

    #[test]
    fn judge_liveness_assertions() {
        // Only what commits after the last window closes counts.
        let one_more: Require = |a| a.min_committed = 4_501;
        check(one_more, UNSPOILT, "only 4500 tx committed after");
        // The wedge: everything commits in the first second, nothing after.
        let floor: Require = |a| a.recovery_floor_tps = 200.0;
        let wedge: Spoil = |obs| {
            obs.series
                .iter_mut()
                .for_each(|(t, n)| *n = (*t).min(1_000))
        };
        check(floor, wedge, "recovery throughput 0 tx/s");
        // A fault that never ran to its end must not pass vacuously:
        // `min_committed = 1` alone would pass (the run committed plenty);
        // the unfinished window turns "after the fault window" into zero.
        let any: Require = |a| a.min_committed = 1;
        let unfinished = "did not run to the end of its window | only 0 tx committed after";
        check(any, |obs| obs.windows_closed_ms = vec![None], unfinished);
        check(
            any,
            |obs| obs.windows_closed_ms = vec![Some(6_001)],
            unfinished,
        );
        let down: Spoil = |obs| obs.servers[2] = None;
        check(NOTHING, down, "server s2 does not answer");
    }

    #[test]
    fn judge_safety_violations_fail_unless_the_file_expects_exactly_them() {
        let fork: Spoil = |obs| obs.violation = violated("no_fork");
        let double: Spoil = |obs| obs.violation = violated("no_double_commit");
        check(NOTHING, fork, "safety violated — no_fork");
        // `no_fork = false` waives the fork check only.
        let waived: Require = |a| a.no_fork = false;
        check(waived, fork, "");
        check(waived, double, "safety violated — no_double_commit");

        let reproducer = Scenario {
            expect: Expectation::Violation("no_fork".to_string()),
            ..Scenario::from_toml("").unwrap()
        };
        let mut obs = healthy();
        assert!(reproducer.judge(&obs)[0].contains("the run stayed clean"));
        double(&mut obs);
        assert!(reproducer.judge(&obs)[0].contains("but `no_double_commit` was"));
        fork(&mut obs);
        assert_eq!(reproducer.judge(&obs), Vec::<String>::new());
    }

    #[test]
    fn judge_attack_assertions_count_correct_servers_only() {
        fn server(obs: &mut Observations, i: usize) -> &mut ServerObservation {
            obs.servers[i].as_mut().unwrap()
        }
        let liar: Spoil = |obs| {
            server(obs, 3).behavior = ByzantineBehavior::OverclaimTip(AttackStrategy::Always);
        };
        let no_faulty_leader: Require = |a| a.no_faulty_leader = true;
        check(no_faulty_leader, liar, "");
        let won = |obs: &mut Observations| {
            liar(obs);
            server(obs, 3).stats.elections_won = 1;
        };
        check(no_faulty_leader, won, "faulty server s3 won 1 election(s)");
        let followed = |obs: &mut Observations| {
            liar(obs);
            server(obs, 1).leader = 3;
        };
        let follows = "correct server s1 follows faulty leader s3";
        check(no_faulty_leader, followed, follows);

        // The faulty server's numbers must not count toward any floor, and
        // only the certificate kinds count toward the refusal floor.
        let elected: Require = |a| a.min_views_installed = 1;
        let none_installed = "correct servers installed at most 0 view(s), below the required 1";
        check(elected, UNSPOILT, none_installed);
        let liar_installed = |obs: &mut Observations| {
            liar(obs);
            server(obs, 3).stats.views_installed = 2;
        };
        check(elected, liar_installed, none_installed);
        check(elected, |obs| server(obs, 1).stats.views_installed = 1, "");
        let floors: Require = |a| (a.min_cert_refusals, a.min_stable_checkpoint) = (2, 16);
        let refused = |obs: &mut Observations, i, refusal, n| {
            server(obs, i).stats.camp_refusals.insert(refusal, n);
        };
        let short = |obs: &mut Observations| {
            liar(obs);
            refused(obs, 3, Refusal::OrderedTipUncertified, 9);
            server(obs, 3).stable_checkpoint = 64;
            refused(obs, 0, Refusal::CommittedTipUncertified, 1);
            refused(obs, 1, Refusal::VotedForAnother, 5);
            refused(obs, 2, Refusal::RpNotReproducible, 5);
            server(obs, 1).stable_checkpoint = 15;
        };
        let both = "only 1 certificate refusal(s) | highest stable checkpoint 15";
        check(floors, short, both);
        let enough = |obs: &mut Observations| {
            short(obs);
            refused(obs, 2, Refusal::SignedInstancesUncovered, 1);
            server(obs, 2).stable_checkpoint = 16;
        };
        check(floors, enough, "");
    }
}
