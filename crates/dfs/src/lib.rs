//! Simulated disaggregated file system (the paper's CephFS stand-in).
//!
//! SplitFT's DFT baseline stores application files on a disaggregated,
//! distributed file system. The paper deploys CephFS on three machines with
//! SATA SSDs and mounts it on the application server; what its evaluation
//! depends on is CephFS's *performance asymmetry* — small synchronous writes
//! cost milliseconds (network round trips plus replicated commits) while
//! large streaming writes enjoy hundreds of MB/s — together with its
//! durability contract: data survives an application-server crash once
//! `fsync` has returned.
//!
//! This crate reproduces exactly that:
//!
//! * [`DfsCluster`] — a metadata service (MDS) plus `R` object storage
//!   daemons (OSDs). Files are striped into fixed-size objects; each object
//!   is replicated on every OSD, with the primary chosen by object index.
//! * [`DfsClient`] — a per-application-server mount. Writes are buffered in
//!   the client page cache (cheap); `fsync` pushes dirty ranges to the OSDs
//!   and waits for all replicas to commit (expensive). Reads are served from
//!   the cache with sequential readahead — lent to the caller in place
//!   through an open [`DfsFile`] — or can bypass it (direct IO).
//! * [`DfsConfig::local_ssd`] — the same cluster as one replica with no
//!   network and local-SSD media costs: the `ext4` comparison point of
//!   Figure 11(b). Its mount loses unsynced writes and keeps fsynced ones,
//!   as a local file system does across a power loss.
//!
//! Crash semantics: the OSD/MDS state lives in the [`DfsCluster`]; client
//! caches live in the [`DfsClient`]. Dropping a client (application crash)
//! loses exactly the un-fsynced dirty data, which is how the *weak*
//! configuration of the paper's applications loses acknowledged updates.

pub mod client;
pub mod config;
pub mod extent;
pub mod mds;
pub mod osd;

pub use client::{DfsClient, DfsFile, IoEvent, IoKind, IoTrace};
pub use config::DfsConfig;
pub use extent::ExtentMap;
pub use mds::FileMeta;
pub use osd::DfsCluster;

use std::fmt;

/// Errors returned by file-system operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfsError {
    /// The path does not exist.
    NotFound(String),
    /// The path already exists (e.g. `create` over an existing file).
    AlreadyExists(String),
    /// The storage tier is unreachable (all replicas of an object down).
    Unavailable(String),
    /// Invalid argument (e.g. read past a hole with no data).
    Invalid(String),
}

impl fmt::Display for DfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfsError::NotFound(p) => write!(f, "no such file: {p}"),
            DfsError::AlreadyExists(p) => write!(f, "file exists: {p}"),
            DfsError::Unavailable(m) => write!(f, "storage unavailable: {m}"),
            DfsError::Invalid(m) => write!(f, "invalid operation: {m}"),
        }
    }
}

impl std::error::Error for DfsError {}
