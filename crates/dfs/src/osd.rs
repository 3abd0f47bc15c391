//! Object storage daemons (OSDs) and the [`DfsCluster`] that hosts them.
//!
//! Files are striped into fixed-size objects addressed by `(file_id,
//! object_index)`. Every object is replicated on all OSDs; the *primary* for
//! an object is `object_index % replicas`, and a write to any other replica
//! costs one more forwarding hop, modelling primary-copy replication. An OSD
//! is a `sim::rpc` service that prices its work — the hop, the commit, the
//! media read — instead of sleeping it, and a service is a serial server in
//! modelled time, so each OSD's commits queue on its own disk: two writes
//! to one OSD issued at one instant are done a whole commit apart, while the
//! client posts the replicas' writes side by side and waits once, so an
//! `fsync` costs the client → primary → replica chain, not their sum.

use std::collections::HashMap;
use std::time::Duration;

use sim::{Cluster, NodeId, RpcServer};

use crate::client::DfsClient;
use crate::config::DfsConfig;

/// Requests understood by an OSD.
#[derive(Debug, Clone)]
pub enum OsdReq {
    /// Write `data` at `offset` within object `(file, obj)`. `forwarded`
    /// marks replica copies, which charge an extra network hop.
    Put {
        /// File id from the MDS.
        file: u64,
        /// Object index within the file.
        obj: u64,
        /// Byte offset within the object.
        offset: usize,
        /// Data to write.
        data: Vec<u8>,
        /// True on non-primary replicas (adds the forward-hop cost).
        forwarded: bool,
    },
    /// Read `len` bytes at `offset` from object `(file, obj)`.
    Get {
        /// File id from the MDS.
        file: u64,
        /// Object index within the file.
        obj: u64,
        /// Byte offset within the object.
        offset: usize,
        /// Number of bytes to read.
        len: usize,
    },
    /// Drop every object belonging to `file`.
    DeleteFile(u64),
}

/// Responses from an OSD.
#[derive(Debug, Clone)]
pub enum OsdResp {
    /// Write or delete applied.
    Ok,
    /// Read result; holes and unwritten tails read as zeros.
    Data(Vec<u8>),
}

fn start_osd(cluster: Cluster, node: NodeId, config: &DfsConfig) -> RpcServer<OsdReq, OsdResp> {
    let config = config.clone();
    let mut objects: HashMap<(u64, u64), Vec<u8>> = HashMap::new();
    RpcServer::priced(cluster, node, move |_, req| match req {
        OsdReq::Put {
            file,
            obj,
            offset,
            data,
            forwarded,
        } => {
            let buf = objects.entry((file, obj)).or_default();
            let end = offset + data.len();
            debug_assert!(end <= config.object_size, "write exceeds object size");
            if buf.len() < end {
                buf.resize(end, 0);
            }
            buf[offset..end].copy_from_slice(&data);
            let mut work = config.commit.cost(data.len());
            if forwarded {
                work += config.hop.cost(data.len()); // Primary → replica.
            }
            (OsdResp::Ok, work)
        }
        OsdReq::Get {
            file,
            obj,
            offset,
            len,
        } => {
            let mut out = vec![0u8; len];
            if let Some(buf) = objects.get(&(file, obj)) {
                if offset < buf.len() {
                    let n = (buf.len() - offset).min(len);
                    out[..n].copy_from_slice(&buf[offset..offset + n]);
                }
            }
            (OsdResp::Data(out), config.osd_read.cost(len))
        }
        OsdReq::DeleteFile(file) => {
            objects.retain(|&(f, _), _| f != file);
            (OsdResp::Ok, Duration::ZERO)
        }
    })
}

/// The server side of the simulated DFS: one MDS plus `replicas` OSDs.
///
/// Construct once per simulation; mount any number of [`DfsClient`]s against
/// it. The cluster's state survives client drops (application crashes) —
/// that is the durability the DFT paradigm builds on.
///
/// # Examples
///
/// ```
/// let cluster = sim::Cluster::new();
/// let dfs = dfs::DfsCluster::start(&cluster, dfs::DfsConfig::zero());
/// let app = cluster.add_node("app-server");
/// let client = dfs.client(app);
/// client.create("f").unwrap();
/// client.write("f", 0, b"hello").unwrap();
/// client.fsync("f").unwrap();
/// assert_eq!(client.read("f", 0, 5).unwrap(), b"hello");
/// ```
pub struct DfsCluster {
    config: DfsConfig,
    mds: RpcServer<crate::mds::MdsReq, crate::mds::MdsResp>,
    osds: Vec<RpcServer<OsdReq, OsdResp>>,
    osd_nodes: Vec<NodeId>,
}

impl DfsCluster {
    /// Registers `config.replicas` OSD nodes plus an MDS node on `cluster`
    /// and starts their services.
    pub fn start(cluster: &Cluster, config: DfsConfig) -> Self {
        let mds_node = cluster.add_node("dfs-mds");
        let mds = crate::mds::start_mds(cluster.clone(), mds_node);
        let mut osds = Vec::new();
        let mut osd_nodes = Vec::new();
        for i in 0..config.replicas {
            let node = cluster.add_node(format!("dfs-osd-{i}"));
            osds.push(start_osd(cluster.clone(), node, &config));
            osd_nodes.push(node);
        }
        DfsCluster {
            config,
            mds,
            osds,
            osd_nodes,
        }
    }

    /// The configuration this cluster was started with.
    pub fn config(&self) -> &DfsConfig {
        &self.config
    }

    /// Nodes hosting the OSDs (for failure injection in tests).
    pub fn osd_nodes(&self) -> &[NodeId] {
        &self.osd_nodes
    }

    /// Mounts the file system on `client_node`, returning a fresh client
    /// with cold caches (a restarted application server).
    pub fn client(&self, client_node: NodeId) -> DfsClient {
        let (mds, config) = (self.mds.client(self.config.mds), self.config.clone());
        let osds = self.osds.iter().map(|o| o.client(config.hop)).collect();
        DfsClient::new(client_node, config, mds, osds)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::time::Instant;

    use sim::LatencyModel;

    use super::*;

    /// Millisecond hops and commits with a bandwidth term; priced calls
    /// sleep none of it.
    pub(crate) fn slow() -> DfsConfig {
        let model = |ms| LatencyModel::new(Duration::from_millis(ms), 1_000.0);
        DfsConfig {
            hop: model(20),
            commit: model(50),
            ..DfsConfig::zero()
        }
    }

    /// A lone Put is back after the request leg, the forwarding hop on a
    /// replica, the commit and the response leg; a second Put priced at the
    /// same instant on the same OSD waits out the first's whole work.
    #[test]
    fn puts_to_one_osd_queue_a_whole_commit_apart() {
        let cluster = Cluster::new();
        let config = slow();
        let dfs = DfsCluster::start(&cluster, config.clone());
        let app = cluster.add_node("app");
        let data = vec![7u8; 4096];
        let (hop, commit) = (config.hop.cost(data.len()), config.commit.cost(data.len()));
        assert!(hop > config.hop.base && commit > config.commit.base);
        let slack = Duration::from_millis(10);
        // Object 0's primary is OSD 0; OSD 1 holds a forwarded replica.
        for (osd, work) in [(0, commit), (1, hop + commit)] {
            let client = dfs.osds[osd].client(config.hop);
            let put = || OsdReq::Put {
                file: 1,
                obj: 0,
                offset: 0,
                data: data.clone(),
                forwarded: osd != 0,
            };
            let at = Instant::now();
            let (_, first) = client.call_at(app, at, put()).unwrap();
            let (_, second) = client.call_at(app, at, put()).unwrap();
            let lone = at + config.hop.base + work + config.hop.base;
            assert!(first >= lone && first < lone + slack, "osd {osd}");
            let gap = second - first;
            assert!(gap >= work && gap < work + slack, "osd {osd}: {gap:?}");
        }
    }
}
