//! The handful of cluster operations a repetition needs, over the two stock
//! launchers (used exactly as shipped for the end-to-end runs) and the
//! benchmark's own traced launcher.

use crate::spec::{Fabric, Workload, PAYLOAD_BYTES, SERVERS};
use crate::traced::{TraceHub, TracedCluster};
use prestige_core::{ClientStats, LoopSnapshot, ServerStats};
use prestige_net::{LocalCluster, StoragePlan, TcpCluster, TransportTotals};
use prestige_storage::StorageStats;
use prestige_types::{ClientId, ClusterConfig, Digest, ServerId, TimeoutConfig, View};
use std::path::Path;

/// The one client process of every workload.
pub const CLIENT: ClientId = ClientId(0);

pub trait Cluster {
    fn total_committed(&self) -> u64;
    fn reset_client_latency(&self);
    fn client_stats(&self) -> Option<ClientStats>;
    fn server_stats(&self, id: ServerId) -> Option<ServerStats>;
    fn view_of(&self, id: ServerId) -> Option<(View, ServerId)>;
    fn live_servers(&self) -> Vec<ServerId>;
    fn crash_server(&mut self, id: ServerId);
    fn committed_chain(&self, id: ServerId) -> Option<Vec<(u64, Digest)>>;
    fn loop_profile(&self) -> LoopSnapshot;
    fn transport_totals(&self) -> TransportTotals;
    /// `None` on clusters without a WAL and on the stock TCP launcher, which
    /// does not expose it.
    fn storage_stats(&self, id: ServerId) -> Option<StorageStats>;
    /// The new leader's reputation penalty as recorded at server `at`.
    fn penalty_of(&self, at: ServerId, whom: ServerId) -> Option<i64>;
    fn shutdown(self: Box<Self>);
}

macro_rules! forward_common {
    () => {
        fn total_committed(&self) -> u64 {
            self.total_committed()
        }
        fn reset_client_latency(&self) {
            self.reset_client_latency()
        }
        fn client_stats(&self) -> Option<ClientStats> {
            self.client_stats(CLIENT)
        }
        fn server_stats(&self, id: ServerId) -> Option<ServerStats> {
            self.server_stats(id)
        }
        fn view_of(&self, id: ServerId) -> Option<(View, ServerId)> {
            self.view_of(id)
        }
        fn live_servers(&self) -> Vec<ServerId> {
            self.live_servers()
        }
        fn crash_server(&mut self, id: ServerId) {
            self.crash_server(id)
        }
        fn committed_chain(&self, id: ServerId) -> Option<Vec<(u64, Digest)>> {
            self.committed_chain(id)
        }
        fn loop_profile(&self) -> LoopSnapshot {
            self.loop_profile()
        }
        fn transport_totals(&self) -> TransportTotals {
            self.transport_totals()
        }
        fn shutdown(self: Box<Self>) {
            let _ = (*self).shutdown();
        }
    };
}

impl Cluster for LocalCluster {
    forward_common!();
    fn storage_stats(&self, id: ServerId) -> Option<StorageStats> {
        self.storage_stats(id)
    }
    fn penalty_of(&self, at: ServerId, whom: ServerId) -> Option<i64> {
        let penalties = self.reputations_at(at)?;
        penalties
            .iter()
            .find(|(id, _)| *id == whom)
            .map(|(_, rp)| *rp)
    }
}

impl Cluster for TcpCluster {
    forward_common!();
    fn storage_stats(&self, _id: ServerId) -> Option<StorageStats> {
        None
    }
    fn penalty_of(&self, _at: ServerId, _whom: ServerId) -> Option<i64> {
        None
    }
}

/// The cluster configuration of a workload: everything not named here is the
/// shipped default (pipeline depth 4, inline verify and apply, checkpoint
/// interval 64, always-on loop profile).
pub fn cluster_config(workload: &Workload) -> ClusterConfig {
    let config = ClusterConfig::new(SERVERS)
        .with_batch_size(workload.batch)
        .with_payload_size(PAYLOAD_BYTES);
    if workload.fast_timeouts {
        config.with_timeouts(TimeoutConfig::fast())
    } else {
        config
    }
}

/// Launches the workload's cluster: the stock launcher, or with `hub` the
/// benchmark-owned one that wraps every layer in timing decorators.
pub fn launch(
    workload: &Workload,
    seed: u64,
    wal_root: &Path,
    hub: Option<&TraceHub>,
) -> std::io::Result<Box<dyn Cluster>> {
    let config = cluster_config(workload);
    let storage = workload.durable.then(|| StoragePlan::new(wal_root));
    if let Some(hub) = hub {
        let cluster = TracedCluster::launch(config, seed, workload, storage, hub)?;
        return Ok(Box::new(cluster));
    }
    Ok(match (workload.fabric, storage) {
        (Fabric::Loopback, Some(plan)) => Box::new(LocalCluster::launch_durable(
            config,
            seed,
            1,
            workload.concurrency,
            plan,
        )),
        (Fabric::Loopback, None) => {
            Box::new(LocalCluster::launch(config, seed, 1, workload.concurrency))
        }
        (Fabric::Tcp, _) => Box::new(TcpCluster::launch(config, seed, 1, workload.concurrency)?),
    })
}
