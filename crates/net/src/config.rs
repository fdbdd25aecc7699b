//! Node configuration for multi-process deployments: the `prestige-node`
//! config schema, read through the repo's mini-TOML
//! ([`prestige_workloads::toml`], re-exported here). Every key is below; a
//! key not listed is an error naming it, as in scenario files, except under
//! `[peers]`, whose keys are node names.
//!
//! ```toml
//! # cluster.toml — one file shared by every node
//! [cluster]
//! n = 4
//! seed = 7
//! batch_size = 100
//! payload_size = 32
//! clients = 1
//! # rotation_ms = 10000.0  # timing view-change policy (r10); omit = on-failure-only
//! # checkpoint_interval = 64  # certified checkpoint, WAL GC and block-store cadence (> 0)
//!
//! [node]
//! role = "server"     # or "client"
//! id = 0
//!
//! [workload]
//! concurrency = 64
//! duration_s = 30.0
//!
//! # Optional adversarial deployment: which of the paper's §6.2 attacks the
//! # *last* `count` servers of the cluster perform (every node derives the
//! # same assignment from the shared file; this node misbehaves only if its
//! # own id falls in that suffix).
//! [faults]
//! plan = "vc_quiet"   # none | timeout | quiet | equiv | vc_quiet | vc_equiv
//! count = 1
//! strategy = "s1"     # s1 = attack always, s2 = only when compensable
//!
//! # Optional durable storage plane: CRC-chained WAL + restart-from-disk.
//! [storage]
//! dir = "/var/lib/prestige"   # server i logs under <dir>/server-<i>/
//!
//! [peers]
//! s0 = "127.0.0.1:7000"
//! s1 = "127.0.0.1:7001"
//! s2 = "127.0.0.1:7002"
//! s3 = "127.0.0.1:7003"
//! c0 = "127.0.0.1:7100"
//! ```

use crate::cluster::StoragePlan;
use prestige_core::ByzantineBehavior;
use prestige_types::{Actor, ClientId, ClusterConfig, ServerId, ViewChangePolicy};
use prestige_workloads::scenario::StorageSettings;
use prestige_workloads::FaultPlan;
use std::collections::HashMap;
use std::net::SocketAddr;

// The mini-TOML parser and its typed getters live beside the scenario
// format in `prestige-workloads`; node configs read through the same ones.
pub use prestige_workloads::toml::{
    get, get_f64, get_int, get_str, parse_faults, parse_toml, ConfigError, TomlDoc, TomlValue,
};
use prestige_workloads::toml::{parse_timeouts, reject_unknown_keys, FAULT_KEYS, TIMEOUT_KEYS};

/// The keys of the `[cluster]` section.
const CLUSTER_KEYS: [&str; 7] = [
    "n",
    "seed",
    "clients",
    "batch_size",
    "payload_size",
    "rotation_ms",
    "checkpoint_interval",
];

/// Which node this process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// A consensus server with the given id.
    Server(ServerId),
    /// A workload client with the given id.
    Client(ClientId),
}

impl NodeRole {
    /// The actor identity of this role.
    pub fn actor(&self) -> Actor {
        match self {
            NodeRole::Server(s) => Actor::Server(*s),
            NodeRole::Client(c) => Actor::Client(*c),
        }
    }
}

/// Everything `prestige-node` needs to join a cluster.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This process's role and identity.
    pub role: NodeRole,
    /// Consensus configuration (shared by every node in the cluster).
    pub cluster: ClusterConfig,
    /// Deterministic seed shared by the cluster (keys, timeout jitter, and
    /// the chaos filter's per-link loss and jitter).
    pub seed: u64,
    /// Number of clients the shared key registry must cover.
    pub clients: u64,
    /// Closed-loop window for client roles.
    pub concurrency: usize,
    /// How long to run before reporting and exiting; `None` = run forever.
    pub duration_s: Option<f64>,
    /// The cluster-wide fault plan (which servers misbehave and how);
    /// [`FaultPlan::None`] for benign deployments.
    pub fault_plan: FaultPlan,
    /// Address this node listens on (its own entry in `[peers]`).
    pub listen: SocketAddr,
    /// Peer addresses (including this node's own entry).
    pub peers: HashMap<Actor, SocketAddr>,
    /// Durable storage plan (`[storage]` section); `None` = in-memory only.
    /// Server `i` logs under `<storage.dir>/server-<i>/`.
    pub storage: Option<StoragePlan>,
}

impl NodeConfig {
    /// Loads a [`NodeConfig`] from TOML text. `role_override`, when given,
    /// replaces the `[node]` section's role/id (so one file can serve all
    /// nodes: `prestige-node --config cluster.toml --as s2`).
    pub fn from_toml(text: &str, role_override: Option<&str>) -> Result<Self, ConfigError> {
        let doc = parse_toml(text)?;
        for (section, keys) in [
            ("cluster", &CLUSTER_KEYS[..]),
            ("node", &["role", "id"]),
            ("workload", &["concurrency", "duration_s"]),
            ("timeouts", &TIMEOUT_KEYS),
            ("faults", &FAULT_KEYS),
            ("storage", &StorageSettings::KEYS),
        ] {
            reject_unknown_keys(&doc, section, keys)?;
        }

        let require = |section: &str, key: &str| match get(&doc, section, key) {
            Some(_) => Ok(()),
            None => Err(ConfigError::Missing(format!("{section}.{key}"))),
        };

        require("cluster", "n")?;
        let n: u32 = get_int(&doc, "cluster", "n", 0)?;
        let seed: u64 = get_int(&doc, "cluster", "seed", 7)?;
        let clients: u64 = get_int(&doc, "cluster", "clients", 1)?;

        // Every optional key defaults to what `ClusterConfig::new` chose.
        let mut cluster = ClusterConfig::new(n);
        cluster.batch_size = get_int(&doc, "cluster", "batch_size", cluster.batch_size)?;
        cluster.payload_size = get_int(&doc, "cluster", "payload_size", cluster.payload_size)?;
        let rotation_ms = get_f64(&doc, "cluster", "rotation_ms", 0.0)?;
        if rotation_ms > 0.0 {
            cluster.policy = ViewChangePolicy::Timing {
                interval_ms: rotation_ms,
            };
        }
        cluster.checkpoint_interval = get_int(
            &doc,
            "cluster",
            "checkpoint_interval",
            cluster.checkpoint_interval,
        )?;
        if cluster.checkpoint_interval == 0 {
            return Err(ConfigError::Invalid(
                "cluster.checkpoint_interval `0`: checkpoints bound the block store, so the \
                 interval is positive"
                    .to_string(),
            ));
        }
        cluster.timeouts = parse_timeouts(&doc, cluster.timeouts)?;

        let role_text: String = match role_override {
            Some(text) => text.to_string(),
            None => {
                require("node", "role")?;
                require("node", "id")?;
                let role = get_str(&doc, "node", "role")?.unwrap_or_default();
                let id: u64 = get_int(&doc, "node", "id", 0)?;
                let prefix = match role {
                    "server" => 's',
                    "client" => 'c',
                    other => return Err(ConfigError::Invalid(format!("node.role `{other}`"))),
                };
                format!("{prefix}{id}")
            }
        };
        let role = parse_role(&role_text)?;

        let mut peers = HashMap::new();
        if let Some(section) = doc.get("peers") {
            for key in section.keys() {
                let actor = parse_role(key)?.actor();
                let addr: SocketAddr = get_str(&doc, "peers", key)?
                    .unwrap_or_default()
                    .parse()
                    .map_err(|_| ConfigError::Invalid(format!("peers.{key}: bad address")))?;
                peers.insert(actor, addr);
            }
        }
        let listen = *peers
            .get(&role.actor())
            .ok_or_else(|| ConfigError::Missing(format!("peers entry for {}", role_text)))?;

        let fault_plan = parse_faults(&doc)?;

        let concurrency: usize = get_int(&doc, "workload", "concurrency", 64)?;
        let duration_s = match get(&doc, "workload", "duration_s") {
            Some(_) => Some(get_f64(&doc, "workload", "duration_s", 0.0)?),
            None => None,
        };

        // Optional `[storage]` section: durable WAL + restart-from-disk.
        let storage = StorageSettings::from_doc(&doc)?
            .and_then(|settings| Some(StoragePlan::new(settings.dir?)));

        Ok(NodeConfig {
            role,
            cluster,
            seed,
            clients,
            concurrency,
            duration_s,
            fault_plan,
            listen,
            peers,
            storage,
        })
    }

    /// The Byzantine behaviour this node runs with under the configured
    /// fault plan. Clients are always correct; a server misbehaves only when
    /// its id falls in the plan's faulty suffix — every process derives the
    /// same assignment from the shared cluster file.
    pub fn behavior(&self) -> ByzantineBehavior {
        match self.role {
            NodeRole::Server(id) => self.fault_plan.behavior_of(self.cluster.n(), id.0),
            NodeRole::Client(_) => ByzantineBehavior::Correct,
        }
    }
}

/// Parses `s3` / `c0` style node names.
fn parse_role(text: &str) -> Result<NodeRole, ConfigError> {
    let bad = || ConfigError::Invalid(format!("node name `{text}` (expected sN or cN)"));
    if let Some(rest) = text.strip_prefix('s') {
        let id: u32 = rest.parse().map_err(|_| bad())?;
        Ok(NodeRole::Server(ServerId(id)))
    } else if let Some(rest) = text.strip_prefix('c') {
        let id: u64 = rest.parse().map_err(|_| bad())?;
        Ok(NodeRole::Client(ClientId(id)))
    } else {
        Err(bad())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prestige_core::AttackStrategy;

    const SAMPLE: &str = r#"
# full cluster description
[cluster]
n = 4
seed = 11
batch_size = 200
clients = 2

[node]
role = "server"
id = 2

[workload]
concurrency = 32
duration_s = 5.5

[timeouts]
base_timeout_ms = 500.0

[peers]
s0 = "127.0.0.1:7000"
s1 = "127.0.0.1:7001"
s2 = "127.0.0.1:7002"  # this node
s3 = "127.0.0.1:7003"
c0 = "127.0.0.1:7100"
c1 = "127.0.0.1:7101"
"#;

    #[test]
    fn parses_full_config() {
        let cfg = NodeConfig::from_toml(SAMPLE, None).unwrap();
        assert_eq!(cfg.role, NodeRole::Server(ServerId(2)));
        assert_eq!(cfg.cluster.n(), 4);
        assert_eq!(cfg.cluster.batch_size, 200);
        assert_eq!(cfg.cluster.timeouts.base_timeout_ms, 500.0);
        assert_eq!(cfg.seed, 11);
        assert_eq!(cfg.clients, 2);
        assert_eq!(cfg.concurrency, 32);
        assert_eq!(cfg.duration_s, Some(5.5));
        assert_eq!(cfg.listen, "127.0.0.1:7002".parse().unwrap());
        assert_eq!(cfg.peers.len(), 6);
    }

    #[test]
    fn role_override_repoints_listen_address() {
        let cfg = NodeConfig::from_toml(SAMPLE, Some("c1")).unwrap();
        assert_eq!(cfg.role, NodeRole::Client(ClientId(1)));
        assert_eq!(cfg.listen, "127.0.0.1:7101".parse().unwrap());
    }

    #[test]
    fn benign_config_has_no_faults_and_failure_only_policy() {
        let cfg = NodeConfig::from_toml(SAMPLE, None).unwrap();
        assert_eq!(cfg.fault_plan, FaultPlan::None);
        assert_eq!(cfg.behavior(), ByzantineBehavior::Correct);
        assert_eq!(cfg.cluster.policy, ViewChangePolicy::OnFailureOnly);
    }

    #[test]
    fn fault_plan_and_rotation_policy_parse() {
        let text =
            format!("{SAMPLE}\n[faults]\nplan = \"vc_quiet\"\ncount = 1\nstrategy = \"s2\"\n");
        let text = text.replace("n = 4", "n = 4\nrotation_ms = 5000.0");
        let cfg = NodeConfig::from_toml(&text, Some("s3")).unwrap();
        assert_eq!(
            cfg.fault_plan,
            FaultPlan::RepeatedVcQuiet {
                count: 1,
                strategy: AttackStrategy::WhenCompensable,
            }
        );
        // s3 is the last server of 4 → it is the faulty one; s0 stays correct.
        assert_eq!(
            cfg.behavior(),
            ByzantineBehavior::RepeatedVcQuiet(AttackStrategy::WhenCompensable)
        );
        let correct = NodeConfig::from_toml(&text, Some("s0")).unwrap();
        assert_eq!(correct.behavior(), ByzantineBehavior::Correct);
        // Clients under the same plan stay correct.
        let client = NodeConfig::from_toml(&text, Some("c0")).unwrap();
        assert_eq!(client.behavior(), ByzantineBehavior::Correct);
        assert_eq!(
            cfg.cluster.policy,
            ViewChangePolicy::Timing {
                interval_ms: 5000.0
            }
        );
    }

    #[test]
    fn bad_fault_plan_and_strategy_are_rejected() {
        let bad_plan = format!("{SAMPLE}\n[faults]\nplan = \"nonsense\"\n");
        assert!(matches!(
            NodeConfig::from_toml(&bad_plan, None),
            Err(ConfigError::Invalid(_))
        ));
        let bad_strategy = format!("{SAMPLE}\n[faults]\nplan = \"vc_equiv\"\nstrategy = \"s9\"\n");
        assert!(matches!(
            NodeConfig::from_toml(&bad_strategy, None),
            Err(ConfigError::Invalid(_))
        ));
    }

    #[test]
    fn storage_section_parses_and_defaults_to_none() {
        let cfg = NodeConfig::from_toml(SAMPLE, None).unwrap();
        assert!(cfg.storage.is_none(), "no [storage] section = in-memory");

        let text = format!("{SAMPLE}\n[storage]\ndir = \"/tmp/prestige-wal\"\n");
        let cfg = NodeConfig::from_toml(&text, None).unwrap();
        let plan = cfg.storage.expect("storage plan parsed");
        assert_eq!(plan.root, std::path::PathBuf::from("/tmp/prestige-wal"));
        assert_eq!(
            plan.server_dir(ServerId(2)),
            std::path::PathBuf::from("/tmp/prestige-wal/server-2")
        );
    }

    #[test]
    fn mistyped_values_are_errors_not_silent_defaults() {
        for (good, bad) in [
            // A string where a number is expected, a float where an integer is.
            ("base_timeout_ms = 500.0", "base_timeout_ms = \"500\""),
            ("batch_size = 200", "batch_size = 200.5"),
            ("batch_size = 200", "batch_size = \"200\""),
        ] {
            let text = SAMPLE.replace(good, bad);
            assert!(
                matches!(
                    NodeConfig::from_toml(&text, None),
                    Err(ConfigError::Invalid(_))
                ),
                "`{bad}` must be rejected"
            );
        }
        let text = format!("{SAMPLE}\n[storage]\ndir = 7\n");
        let err = NodeConfig::from_toml(&text, None).expect_err("numeric dir");
        assert!(err.to_string().contains("storage.dir"), "{err}");
        // Negative counts are out of range, not a two's-complement wrap.
        let text = SAMPLE.replace("clients = 2", "clients = -2");
        assert!(NodeConfig::from_toml(&text, None).is_err());
    }

    #[test]
    fn unknown_keys_are_errors_naming_the_key() {
        // A misspelling, or a setting that became a constant, would
        // otherwise be silently ignored.
        for (section, key) in [
            ("cluster", "batch_sise = 200"),
            ("cluster", "pipeline_depth = 8"),
            ("node", "rol = \"server\""),
            ("workload", "duration = 5.0"),
            ("timeouts", "base_ms = 1.0"),
            ("faults", "plans = \"quiet\""),
            ("storage", "sync_every_n = 8"),
        ] {
            // A repeated header adds to the section it names.
            let text = format!("{SAMPLE}\n[{section}]\n{key}\n");
            let err = NodeConfig::from_toml(&text, None).expect_err(key);
            let name = key.split(' ').next().unwrap();
            assert!(
                err.to_string()
                    .contains(&format!("unknown key `{section}.{name}`")),
                "{key}: {err}"
            );
        }
        // Node names under [peers] are free-form keys.
        let text = SAMPLE.replace("c1 = ", "c7 = \"127.0.0.1:7107\"\nc1 = ");
        assert!(NodeConfig::from_toml(&text, None).is_ok());
    }

    #[test]
    fn checkpoint_interval_parses() {
        let text = SAMPLE.replace("n = 4", "n = 4\ncheckpoint_interval = 128");
        let cfg = NodeConfig::from_toml(&text, None).unwrap();
        assert_eq!(cfg.cluster.checkpoint_interval, 128);
        let text = SAMPLE.replace("n = 4", "n = 4\ncheckpoint_interval = 0");
        let err = NodeConfig::from_toml(&text, None).expect_err("a zero interval is refused");
        assert!(
            err.to_string().contains("cluster.checkpoint_interval"),
            "{err}"
        );
    }

    #[test]
    fn missing_required_keys_are_reported() {
        assert!(matches!(
            NodeConfig::from_toml("[node]\nrole = \"server\"\nid = 0\n", None),
            Err(ConfigError::Missing(_))
        ));
    }
}
