//! RDMA devices and memory regions.
//!
//! A device belongs to one simulated node and hosts memory regions. Region
//! contents live behind a lock so remote queue pairs' posts can apply
//! one-sided writes without involving the host's "CPU" (i.e. without any
//! host-side thread participating). Registration is bound to the host
//! node's crash generation: after a crash the memory — like real DRAM — is
//! gone, and every previously exported region token is permanently invalid.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use sim::{Cluster, LatencyModel, NodeId, SimError};

use crate::types::RKey;

pub(crate) struct MrEntry {
    pub(crate) buf: Mutex<Vec<u8>>,
    /// Current rkey; 0 encodes "invalidated".
    pub(crate) rkey: AtomicU64,
    /// Host-node crash generation at registration time. If the node's
    /// generation has moved past this, the memory no longer exists.
    pub(crate) registered_gen: u64,
}

#[derive(Default)]
pub(crate) struct DeviceState {
    /// Ordered, not hashed: a device hosts a handful of regions under
    /// sequential ids, and every remote access looks one up — a few key
    /// compares, where hashing the id would cost more than the rest of the
    /// lookup.
    pub(crate) mrs: RwLock<BTreeMap<u64, Arc<MrEntry>>>,
    next_mr_id: AtomicU64,
    next_rkey: AtomicU64,
    /// The registration pipe: when the last registration priced so far
    /// completes. Registrations on one device queue behind each other.
    registered_by: Mutex<Option<Instant>>,
}

/// Portable token identifying a memory region on a remote device.
///
/// This is what a log peer hands back to `ncl-lib` over the control plane;
/// possession of the token plus its [`RKey`] grants one-sided read/write
/// access to the region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RemoteMr {
    /// Node hosting the region.
    pub node: NodeId,
    /// Region identifier on that node's device.
    pub mr_id: u64,
    /// Access key; must match the region's current key.
    pub rkey: RKey,
    /// Region length in bytes.
    pub len: usize,
}

/// Host-side handle to a registered region.
///
/// The host may read or overwrite its own memory directly (used by tests and
/// by the model checker to inspect peer state); remote access goes through
/// [`crate::QueuePair`].
#[derive(Clone)]
pub struct LocalMr {
    pub(crate) device: RdmaDevice,
    pub(crate) mr_id: u64,
    pub(crate) len: usize,
}

impl LocalMr {
    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the region has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Region identifier on the host device.
    pub fn mr_id(&self) -> u64 {
        self.mr_id
    }

    /// Reads `len` bytes at `offset` directly from host memory.
    ///
    /// Returns `None` when the region no longer exists (deregistered or the
    /// host crashed) or the range is out of bounds.
    pub fn read_local(&self, offset: usize, len: usize) -> Option<Vec<u8>> {
        let entry = self.device.lookup_live(self.mr_id)?;
        let buf = entry.buf.lock();
        if offset + len > buf.len() {
            return None;
        }
        Some(buf[offset..offset + len].to_vec())
    }

    /// Writes `data` at `offset` directly into host memory.
    ///
    /// Returns `false` when the region no longer exists or the range is out
    /// of bounds.
    pub fn write_local(&self, offset: usize, data: &[u8]) -> bool {
        let Some(entry) = self.device.lookup_live(self.mr_id) else {
            return false;
        };
        let mut buf = entry.buf.lock();
        if offset + data.len() > buf.len() {
            return false;
        }
        buf[offset..offset + data.len()].copy_from_slice(data);
        true
    }
}

/// A simulated RDMA NIC bound to one node.
///
/// Cloning is cheap; clones share the device state.
///
/// # Examples
///
/// ```
/// use sim::{Cluster, LatencyModel};
/// use rdma::RdmaDevice;
///
/// let cluster = Cluster::new();
/// let host = cluster.add_node("peer");
/// let dev = RdmaDevice::new(cluster, host, LatencyModel::ZERO);
/// let (local, remote) = dev.register_mr(4096).unwrap();
/// assert_eq!(remote.len, 4096);
/// assert!(local.write_local(0, b"hello"));
/// ```
#[derive(Clone)]
pub struct RdmaDevice {
    pub(crate) cluster: Cluster,
    pub(crate) node: NodeId,
    pub(crate) state: Arc<DeviceState>,
    /// Cost model for MR registration (page pinning etc.).
    pub(crate) register_latency: LatencyModel,
}

impl RdmaDevice {
    /// Creates a device on `node`. `register_latency` prices each
    /// registration on the device's one registration pipe (see Table 3 of
    /// the paper: registering a 60 MB region costs ~50 ms): a registration
    /// starts when the one before it on this device completes, or when it
    /// is asked for if later, and takes `register_latency.cost(len)`.
    /// [`RdmaDevice::register_mr_at`] prices one and returns;
    /// [`RdmaDevice::register_mr`] also waits it out.
    pub fn new(cluster: Cluster, node: NodeId, register_latency: LatencyModel) -> Self {
        RdmaDevice {
            cluster,
            node,
            state: Arc::new(DeviceState::default()),
            register_latency,
        }
    }

    /// The node this device is attached to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Registers a zero-initialised region of `len` bytes, waits until the
    /// registration completes, and returns the host handle plus the
    /// remote-access token.
    ///
    /// Fails if the host node is currently crashed.
    pub fn register_mr(&self, len: usize) -> Result<(LocalMr, RemoteMr), SimError> {
        let (local, remote, ready) = self.register_mr_at(sim::time::now(), len)?;
        sim::delay_until(ready);
        Ok((local, remote))
    }

    /// Registers a zero-initialised region of `len` bytes asked for at
    /// `now` without waiting for it: returns the host handle, the
    /// remote-access token and the instant the registration completes on
    /// this device's registration pipe, `max(previous completion, now) +
    /// cost(len)` (`now` itself under a zero cost model). Whoever receives
    /// the token posts to the region no earlier than that instant.
    ///
    /// Fails if the host node is currently crashed.
    pub fn register_mr_at(
        &self,
        now: Instant,
        len: usize,
    ) -> Result<(LocalMr, RemoteMr, Instant), SimError> {
        if !self.cluster.is_alive(self.node) {
            return Err(SimError::NodeDown(self.node));
        }
        let ready = if self.register_latency.is_zero() {
            now
        } else {
            let mut pipe = self.state.registered_by.lock();
            let ready = pipe.map_or(now, |free| free.max(now)) + self.register_latency.cost(len);
            *pipe = Some(ready);
            ready
        };
        let mr_id = self.state.next_mr_id.fetch_add(1, Ordering::Relaxed);
        let rkey = RKey(self.state.next_rkey.fetch_add(1, Ordering::Relaxed) + 1);
        let entry = Arc::new(MrEntry {
            buf: Mutex::new(vec![0; len]),
            rkey: AtomicU64::new(rkey.0),
            registered_gen: self.cluster.generation(self.node),
        });
        self.state.mrs.write().insert(mr_id, entry);
        Ok((
            LocalMr {
                device: self.clone(),
                mr_id,
                len,
            },
            RemoteMr {
                node: self.node,
                mr_id,
                rkey,
                len,
            },
            ready,
        ))
    }

    /// Invalidates a region's rkey without freeing the memory — the paper's
    /// *memory revocation* primitive (§4.5.2): remote writers immediately
    /// start failing with `RemoteAccessErr` and treat the peer as failed.
    pub fn invalidate(&self, mr_id: u64) {
        if let Some(entry) = self.state.mrs.read().get(&mr_id) {
            entry.rkey.store(0, Ordering::SeqCst);
        }
    }

    /// Issues a region a fresh rkey and leaves its bytes alone: every
    /// previously exported token stops granting access, and no access made
    /// with one lands after this returns (the key is swapped under the
    /// buffer lock that every access checks it under). No page pinning is
    /// charged, only the rekey itself.
    ///
    /// Returns `None` if the region no longer exists (host crashed).
    pub fn rekey(&self, mr_id: u64) -> Option<RKey> {
        let entry = self.lookup_live(mr_id)?;
        let _buf = entry.buf.lock();
        let rkey = RKey(self.state.next_rkey.fetch_add(1, Ordering::Relaxed) + 1);
        entry.rkey.store(rkey.0, Ordering::SeqCst);
        Some(rkey)
    }

    /// Recycles a region for a new owner: zeroes its contents and
    /// [rekeys](Self::rekey) it. This models the cheap path of peer
    /// allocation ("in most cases we expect a peer to have a memory region
    /// that is already allocated and registered", §5.4.3).
    ///
    /// Returns `None` if the region no longer exists (host crashed).
    pub fn recycle(&self, mr_id: u64) -> Option<RKey> {
        self.lookup_live(mr_id)?.buf.lock().fill(0);
        self.rekey(mr_id)
    }

    /// Drops every region whose registration predates the node's current
    /// crash generation. Called by host daemons when they restart, modelling
    /// the loss of DRAM contents.
    pub fn reap_stale(&self) {
        let gen = self.cluster.generation(self.node);
        self.state
            .mrs
            .write()
            .retain(|_, e| e.registered_gen == gen);
    }

    /// Looks up a region that is still live: registered in the node's current
    /// generation. Does **not** check the rkey (host access bypasses it).
    pub(crate) fn lookup_live(&self, mr_id: u64) -> Option<Arc<MrEntry>> {
        let entry = self.state.mrs.read().get(&mr_id).cloned()?;
        if entry.registered_gen != self.cluster.generation(self.node) {
            return None;
        }
        Some(entry)
    }

    /// Validates a remote access and applies it.
    ///
    /// This is the NIC-side entry point used by queue-pair engines; it is
    /// public so tests and the model checker can probe region accessibility
    /// directly (e.g. asserting that a revoked rkey no longer grants
    /// access). Applications go through [`crate::QueuePair`].
    ///
    /// Returns `Ok(read_data)` — `Some` for reads, `None` for writes — or
    /// `Err(())` when the access is invalid (dead host, stale region, bad
    /// rkey, out of bounds).
    #[allow(clippy::result_unit_err)] // The NIC maps all failures to one WC error status.
    pub fn apply_remote(
        &self,
        mr_id: u64,
        rkey: RKey,
        offset: usize,
        write_data: Option<&[u8]>,
        read_len: usize,
    ) -> Result<Option<Bytes>, ()> {
        if !self.cluster.is_alive(self.node) {
            return Err(());
        }
        let Some(entry) = self.lookup_live(mr_id) else {
            return Err(());
        };
        let mut buf = entry.buf.lock();
        if entry.rkey.load(Ordering::SeqCst) != rkey.0 || rkey.0 == 0 {
            return Err(());
        }
        match write_data {
            Some(data) => {
                if offset + data.len() > buf.len() {
                    return Err(());
                }
                buf[offset..offset + data.len()].copy_from_slice(data);
                Ok(None)
            }
            None => {
                if offset + read_len > buf.len() {
                    return Err(());
                }
                Ok(Some(Bytes::copy_from_slice(
                    &buf[offset..offset + read_len],
                )))
            }
        }
    }

    /// Applies a scatter-gather write: `slices` land contiguously starting
    /// at `offset`. One validation and one buffer lock for the whole
    /// request — a gather list is a single wire operation, and paying the
    /// region lookup per 32-byte slice would make the simulated NIC's CPU
    /// cost scale with the record count instead of the request count.
    /// All-or-nothing: bounds are checked against the gathered length
    /// before any byte is written.
    #[allow(clippy::result_unit_err)] // Same contract as `apply_remote`.
    pub fn apply_remote_sg<S: AsRef<[u8]>>(
        &self,
        mr_id: u64,
        rkey: RKey,
        offset: usize,
        slices: &[S],
    ) -> Result<(), ()> {
        if !self.cluster.is_alive(self.node) {
            return Err(());
        }
        let Some(entry) = self.lookup_live(mr_id) else {
            return Err(());
        };
        let mut buf = entry.buf.lock();
        if entry.rkey.load(Ordering::SeqCst) != rkey.0 || rkey.0 == 0 {
            return Err(());
        }
        let total: usize = slices.iter().map(|s| s.as_ref().len()).sum();
        if offset + total > buf.len() {
            return Err(());
        }
        let mut at = offset;
        for slice in slices {
            let slice = slice.as_ref();
            buf[at..at + slice.len()].copy_from_slice(slice);
            at += slice.len();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Cluster, RdmaDevice, NodeId) {
        let cluster = Cluster::new();
        let node = cluster.add_node("host");
        let dev = RdmaDevice::new(cluster.clone(), node, LatencyModel::ZERO);
        (cluster, dev, node)
    }

    #[test]
    fn register_and_local_rw_roundtrip() {
        let (_c, dev, _n) = setup();
        let (local, remote) = dev.register_mr(64).unwrap();
        assert_eq!(remote.len, 64);
        assert!(local.write_local(8, b"abc"));
        assert_eq!(local.read_local(8, 3).unwrap(), b"abc");
        // Fresh memory is zeroed.
        assert_eq!(local.read_local(0, 4).unwrap(), vec![0; 4]);
    }

    #[test]
    fn local_bounds_are_enforced() {
        let (_c, dev, _n) = setup();
        let (local, _r) = dev.register_mr(16).unwrap();
        assert!(!local.write_local(10, b"0123456789"));
        assert!(local.read_local(10, 7).is_none());
    }

    #[test]
    fn rkeys_are_unique_per_registration() {
        let (_c, dev, _n) = setup();
        let (_l1, r1) = dev.register_mr(8).unwrap();
        let (_l2, r2) = dev.register_mr(8).unwrap();
        assert_ne!(r1.rkey, r2.rkey);
        assert_ne!(r1.mr_id, r2.mr_id);
    }

    #[test]
    fn register_fails_on_crashed_host() {
        let (c, dev, n) = setup();
        c.crash(n);
        assert!(dev.register_mr(8).is_err());
    }

    #[test]
    fn crash_invalidates_existing_regions() {
        let (c, dev, n) = setup();
        let (local, remote) = dev.register_mr(8).unwrap();
        assert!(local.write_local(0, b"x"));
        c.crash(n);
        c.restart(n);
        // Memory is gone even though the node is back.
        assert!(local.read_local(0, 1).is_none());
        assert!(dev
            .apply_remote(remote.mr_id, remote.rkey, 0, Some(b"y"), 0)
            .is_err());
    }

    #[test]
    fn reap_stale_removes_pre_crash_regions() {
        let (c, dev, n) = setup();
        dev.register_mr(8).unwrap();
        dev.register_mr(8).unwrap();
        assert_eq!(dev.state.mrs.read().len(), 2);
        c.crash(n);
        c.restart(n);
        dev.reap_stale();
        assert_eq!(dev.state.mrs.read().len(), 0);
        // Post-restart registrations survive reaping.
        dev.register_mr(8).unwrap();
        dev.reap_stale();
        assert_eq!(dev.state.mrs.read().len(), 1);
    }

    #[test]
    fn invalidate_revokes_remote_access_but_keeps_local() {
        let (_c, dev, _n) = setup();
        let (local, remote) = dev.register_mr(8).unwrap();
        local.write_local(0, b"z");
        dev.invalidate(remote.mr_id);
        assert!(dev
            .apply_remote(remote.mr_id, remote.rkey, 0, Some(b"y"), 0)
            .is_err());
        // Host still sees the memory (it reclaims it for other uses).
        assert_eq!(local.read_local(0, 1).unwrap(), b"z");
    }

    #[test]
    fn rekey_fences_old_tokens_and_keeps_bytes_while_recycle_zeroes() {
        let (_c, dev, _n) = setup();
        let (local, remote) = dev.register_mr(8).unwrap();
        local.write_local(0, b"kept");
        let rkey = dev.rekey(remote.mr_id).unwrap();
        assert_ne!(rkey, remote.rkey);
        assert!(dev
            .apply_remote(remote.mr_id, remote.rkey, 0, Some(b"old!"), 0)
            .is_err());
        assert_eq!(local.read_local(0, 4).unwrap(), b"kept");
        assert!(dev
            .apply_remote(remote.mr_id, rkey, 4, Some(b"tail"), 0)
            .is_ok());
        let fresh = dev.recycle(remote.mr_id).unwrap();
        assert!(dev
            .apply_remote(remote.mr_id, rkey, 0, Some(b"x"), 0)
            .is_err());
        assert_ne!(fresh, rkey);
        assert_eq!(local.read_local(0, 8).unwrap(), vec![0; 8]);
    }

    #[test]
    fn apply_remote_checks_rkey_and_bounds() {
        let (_c, dev, _n) = setup();
        let (_local, remote) = dev.register_mr(8).unwrap();
        assert!(dev
            .apply_remote(remote.mr_id, RKey(999_999), 0, Some(b"y"), 0)
            .is_err());
        assert!(dev
            .apply_remote(remote.mr_id, remote.rkey, 6, Some(b"abc"), 0)
            .is_err());
        // Read path bounds.
        assert!(dev
            .apply_remote(remote.mr_id, remote.rkey, 6, None, 3)
            .is_err());
        let data = dev
            .apply_remote(remote.mr_id, remote.rkey, 0, None, 8)
            .unwrap()
            .unwrap();
        assert_eq!(data.len(), 8);
    }

    #[test]
    fn registrations_queue_on_one_device_and_overlap_across_devices() {
        let cluster = Cluster::new();
        let model = LatencyModel::from_nanos(1_000_000, 0.0);
        let cost = model.cost(64);
        let (a, b) = (cluster.add_node("a"), cluster.add_node("b"));
        let one = RdmaDevice::new(cluster.clone(), a, model);
        let two = RdmaDevice::new(cluster.clone(), b, model);
        let t = Instant::now();
        let (_, _, r1) = one.register_mr_at(t, 64).unwrap();
        let (_, _, r2) = one.register_mr_at(t, 64).unwrap();
        assert_eq!(r1, t + cost);
        assert_eq!(r2, r1 + cost, "the second queues behind the first");
        // Another device's pipe is its own: its registration overlaps.
        let (_, _, other) = two.register_mr_at(t, 64).unwrap();
        assert_eq!(other, t + cost);
        // Asked for after the pipe drained, a registration starts then.
        let later = r2 + cost;
        let (_, _, r3) = one.register_mr_at(later, 64).unwrap();
        assert_eq!(r3, later + cost);
        // A zero model is ready the instant it is asked for.
        let (_c, zero, _n) = setup();
        let (_, _, ready) = zero.register_mr_at(t, 64).unwrap();
        assert_eq!(ready, t);
        let (_, _, ready) = zero.register_mr_at(t, 64).unwrap();
        assert_eq!(ready, t);
    }
}
