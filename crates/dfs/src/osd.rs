//! Object storage daemons (OSDs) and the [`DfsCluster`] that hosts them.
//!
//! Files are striped into fixed-size objects addressed by `(file_id,
//! object_index)`. Every object is replicated on all OSDs; the *primary* for
//! an object is `object_index % replicas`, and the other replicas charge an
//! extra forwarding hop per write to model primary-copy replication (the
//! client fans the write out in parallel, so wall-clock latency matches the
//! client → primary → replica chain while each OSD's commit cost still
//! serialises on that OSD's disk queue).

use std::collections::HashMap;

use sim::{Cluster, LatencyModel, NodeId, RpcClient, RpcServer};

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
    let commit = config.commit;
    let read = config.osd_read;
    let hop = config.hop;
    let object_size = config.object_size;
    let mut objects: HashMap<(u64, u64), Vec<u8>> = HashMap::new();
    RpcServer::new(cluster, node, move |req| match req {
        OsdReq::Put {
            file,
            obj,
            offset,
            data,
            forwarded,
        } => {
            if forwarded {
                // Primary → replica forwarding hop.
                hop.charge(data.len());
            }
            commit.charge(data.len());
            let buf = objects.entry((file, obj)).or_default();
            let end = offset + data.len();
            debug_assert!(end <= object_size, "write exceeds object size");
            if buf.len() < end {
                buf.resize(end, 0);
            }
            buf[offset..end].copy_from_slice(&data);
            OsdResp::Ok
        }
        OsdReq::Get {
            file,
            obj,
            offset,
            len,
        } => {
            read.charge(len);
            let mut out = vec![0u8; len];
            if let Some(buf) = objects.get(&(file, obj)) {
                if offset < buf.len() {
                    let n = (buf.len() - offset).min(len);
                    out[..n].copy_from_slice(&buf[offset..offset + n]);
                }
            }
            OsdResp::Data(out)
        }
        OsdReq::DeleteFile(file) => {
            objects.retain(|&(f, _), _| f != file);
            OsdResp::Ok
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
    cluster: Cluster,
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
            cluster: cluster.clone(),
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
        let mds_client: RpcClient<crate::mds::MdsReq, crate::mds::MdsResp> =
            self.mds.client(self.config.mds);
        let osd_clients: Vec<RpcClient<OsdReq, OsdResp>> = self
            .osds
            .iter()
            .map(|o| o.client(self.config.hop))
            .collect();
        DfsClient::new(
            self.cluster.clone(),
            client_node,
            self.config.clone(),
            mds_client,
            osd_clients,
        )
    }

    /// Charges the latency of one hop without sending anything — used by the
    /// client for modelling costs that have no message (e.g. cache hits need
    /// none; this is a convenience for tests).
    pub fn hop_model(&self) -> LatencyModel {
        self.config.hop
    }
}
