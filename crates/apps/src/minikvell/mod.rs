//! MiniKvell: a no-log key-value store with an NCL write-absorption tier.
//!
//! §6 of the paper notes that stores like KVell do not keep a write-ahead
//! log at all — they place records in fixed-size on-disk slots and issue
//! *random* writes. Random small writes are fine on local NVMe but
//! disastrous on a disaggregated file system, where each synchronous write
//! costs a replicated round trip. The paper's suggestion: use NCL as a
//! faster tier that absorbs the random writes, then push large sorted
//! chunks to the DFS.
//!
//! [`MiniKvell`] implements exactly that:
//!
//! * records live in fixed-size slots of a slab file on the DFS, addressed
//!   by an in-memory index (rebuilt by a slab scan at startup, KVell-style);
//! * every update appends `(slot, record)` to an NCL staging buffer —
//!   durable in microseconds — and updates an in-memory staging map;
//! * when the staging buffer fills, its records are **coalesced and written
//!   to the slab as one bulk ascending-offset pass**, fsynced, and the
//!   buffer is reset;
//! * recovery replays the staging buffer over the slab.

pub mod store;

pub use store::{KvellOptions, MiniKvell};
