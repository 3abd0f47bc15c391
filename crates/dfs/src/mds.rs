//! Metadata service (MDS) of the simulated DFS.
//!
//! Holds the namespace: path → file id + size. Like the paper's CephFS MDS
//! (and the NCL controller), it is treated as a fault-tolerant service: the
//! simulation never crashes it. File *data* is addressed by the immutable
//! file id, so renames are pure metadata operations.

use std::collections::HashMap;

use sim::{Cluster, NodeId, RpcServer};

/// Metadata for one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileMeta {
    /// Immutable identifier used to address the file's objects on the OSDs.
    pub id: u64,
    /// Current file size in bytes (as of the last `fsync`/`set_size`).
    pub size: u64,
}

/// Requests understood by the MDS.
#[derive(Debug, Clone)]
pub enum MdsReq {
    /// Create a new empty file; fails if the path exists.
    Create(String),
    /// Look up a file's metadata.
    Lookup(String),
    /// Update a file's size (monotonic `max` is applied by callers that
    /// append; truncation passes the smaller value with `exact = true`).
    SetSize {
        /// File path.
        path: String,
        /// New size.
        size: u64,
        /// When false, the stored size only grows (concurrent appenders).
        exact: bool,
    },
    /// Remove a file, returning its id so the caller can purge OSD objects.
    Delete(String),
    /// Rename a file (metadata only).
    Rename(String, String),
    /// List paths with the given prefix.
    List(String),
}

/// Responses from the MDS.
#[derive(Debug, Clone)]
pub enum MdsResp {
    /// Operation succeeded with no payload.
    Ok,
    /// Metadata for a single file.
    Meta(FileMeta),
    /// Matching paths for a `List`.
    Paths(Vec<String>),
    /// The named path does not exist.
    NotFound,
    /// The path already exists (`Create`/`Rename` target).
    Exists,
}

/// Starts the MDS service on `node` and returns its server handle.
pub fn start_mds(cluster: Cluster, node: NodeId) -> RpcServer<MdsReq, MdsResp> {
    let mut files: HashMap<String, FileMeta> = HashMap::new();
    let mut next_id: u64 = 1;
    RpcServer::new(cluster, node, move |req| match req {
        MdsReq::Create(path) => {
            if files.contains_key(&path) {
                return MdsResp::Exists;
            }
            let meta = FileMeta {
                id: next_id,
                size: 0,
            };
            next_id += 1;
            files.insert(path, meta);
            MdsResp::Meta(meta)
        }
        MdsReq::Lookup(path) => match files.get(&path) {
            Some(meta) => MdsResp::Meta(*meta),
            None => MdsResp::NotFound,
        },
        MdsReq::SetSize { path, size, exact } => match files.get_mut(&path) {
            Some(meta) => {
                if exact {
                    meta.size = size;
                } else {
                    meta.size = meta.size.max(size);
                }
                MdsResp::Meta(*meta)
            }
            None => MdsResp::NotFound,
        },
        MdsReq::Delete(path) => match files.remove(&path) {
            Some(meta) => MdsResp::Meta(meta),
            None => MdsResp::NotFound,
        },
        MdsReq::Rename(old, new) => {
            if files.contains_key(&new) {
                return MdsResp::Exists;
            }
            match files.remove(&old) {
                Some(meta) => {
                    files.insert(new, meta);
                    MdsResp::Ok
                }
                None => MdsResp::NotFound,
            }
        }
        MdsReq::List(prefix) => {
            let mut paths: Vec<String> = files
                .keys()
                .filter(|p| p.starts_with(&prefix))
                .cloned()
                .collect();
            paths.sort();
            MdsResp::Paths(paths)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::LatencyModel;

    fn setup() -> (
        sim::RpcClient<MdsReq, MdsResp>,
        NodeId,
        RpcServer<MdsReq, MdsResp>,
    ) {
        let cluster = Cluster::new();
        let mds_node = cluster.add_node("mds");
        let app = cluster.add_node("app");
        let srv = start_mds(cluster, mds_node);
        let cli = srv.client(LatencyModel::ZERO);
        (cli, app, srv)
    }

    #[test]
    fn create_lookup_roundtrip() {
        let (cli, app, _srv) = setup();
        let MdsResp::Meta(m) = cli.call(app, MdsReq::Create("a".into())).unwrap() else {
            panic!("expected meta");
        };
        assert_eq!(m.size, 0);
        let MdsResp::Meta(m2) = cli.call(app, MdsReq::Lookup("a".into())).unwrap() else {
            panic!("expected meta");
        };
        assert_eq!(m2.id, m.id);
    }

    #[test]
    fn duplicate_create_rejected() {
        let (cli, app, _srv) = setup();
        cli.call(app, MdsReq::Create("a".into())).unwrap();
        assert!(matches!(
            cli.call(app, MdsReq::Create("a".into())).unwrap(),
            MdsResp::Exists
        ));
    }

    #[test]
    fn set_size_monotonic_unless_exact() {
        let (cli, app, _srv) = setup();
        cli.call(app, MdsReq::Create("a".into())).unwrap();
        cli.call(
            app,
            MdsReq::SetSize {
                path: "a".into(),
                size: 100,
                exact: false,
            },
        )
        .unwrap();
        let MdsResp::Meta(m) = cli
            .call(
                app,
                MdsReq::SetSize {
                    path: "a".into(),
                    size: 50,
                    exact: false,
                },
            )
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(m.size, 100, "non-exact set never shrinks");
        let MdsResp::Meta(m) = cli
            .call(
                app,
                MdsReq::SetSize {
                    path: "a".into(),
                    size: 50,
                    exact: true,
                },
            )
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(m.size, 50, "exact set truncates");
    }

    #[test]
    fn rename_moves_metadata_and_rejects_collision() {
        let (cli, app, _srv) = setup();
        cli.call(app, MdsReq::Create("a".into())).unwrap();
        cli.call(app, MdsReq::Create("b".into())).unwrap();
        assert!(matches!(
            cli.call(app, MdsReq::Rename("a".into(), "b".into()))
                .unwrap(),
            MdsResp::Exists
        ));
        assert!(matches!(
            cli.call(app, MdsReq::Rename("a".into(), "c".into()))
                .unwrap(),
            MdsResp::Ok
        ));
        assert!(matches!(
            cli.call(app, MdsReq::Lookup("a".into())).unwrap(),
            MdsResp::NotFound
        ));
        assert!(matches!(
            cli.call(app, MdsReq::Lookup("c".into())).unwrap(),
            MdsResp::Meta(_)
        ));
    }

    #[test]
    fn delete_returns_meta_then_not_found() {
        let (cli, app, _srv) = setup();
        cli.call(app, MdsReq::Create("a".into())).unwrap();
        assert!(matches!(
            cli.call(app, MdsReq::Delete("a".into())).unwrap(),
            MdsResp::Meta(_)
        ));
        assert!(matches!(
            cli.call(app, MdsReq::Delete("a".into())).unwrap(),
            MdsResp::NotFound
        ));
    }

    #[test]
    fn list_filters_by_prefix_sorted() {
        let (cli, app, _srv) = setup();
        for p in ["wal/2", "wal/1", "sst/9"] {
            cli.call(app, MdsReq::Create(p.into())).unwrap();
        }
        let MdsResp::Paths(paths) = cli.call(app, MdsReq::List("wal/".into())).unwrap() else {
            panic!()
        };
        assert_eq!(paths, vec!["wal/1".to_string(), "wal/2".to_string()]);
    }
}
