//! Erasure-coded log striping (the `Durability::Ec { k, n }` engine mode).
//!
//! Replicated mode ships every logged byte to `2f + 1` peers; erasure coding
//! ships each flushed burst once, Reed–Solomon-striped into `k` data units
//! plus `n - k` parity units, one unit per peer — `n / k`× the payload on the
//! wire and in peer memory instead of `2f + 1`×, at the same fault budget
//! (`n - k` simultaneous peer losses). This module is the codec layer:
//! dependency-free GF(2⁸) Reed–Solomon with a systematic Cauchy generator
//! (every k-of-n shard subset reconstructs), the burst-image and
//! fragment-entry wire formats, the lockstep reassembly walk recovery runs
//! over any k surviving fragment logs, and the [`SpillSink`] tier that cold
//! acked prefixes are demoted to.
//!
//! ## Wire formats
//!
//! A flushed burst is first serialised into a **burst image** — the
//! concatenation of `[seq u64 | offset u64 | len u32 | payload]` per record —
//! then split into `k` equal units (zero-padded) and extended with `n - k`
//! parity units. Each peer `i` receives one **fragment entry** appended to
//! its per-generation fragment log:
//!
//! ```text
//! [burst_seq u64 | burst_len u32 | unit_len u32 | shard u32 | crc32c u32] ++ unit
//! ```
//!
//! The CRC covers the header fields *and* the unit bytes, so a torn stripe
//! (some peers got the entry, the writer died before others did) is detected
//! per shard and reassembly stops at the first position where fewer than `k`
//! consistent shards survive — append-only entries mean a torn tail can only
//! lose *unacknowledged* bursts, never corrupt acked ones (no RAID-5 write
//! hole).

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use sim::crc32c;

/// Serialised size of a fragment-entry header; the unit bytes follow.
pub const FRAG_ENTRY_SIZE: usize = 24;

/// Per-record prefix inside a burst image (`seq`, `offset`, `len`).
pub const BURST_RECORD_OVERHEAD: usize = 20;

// --- GF(2^8) arithmetic (polynomial 0x11d), tables built at compile time ---

const fn build_tables() -> ([u8; 256], [u8; 512]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= 0x11d;
        }
        i += 1;
    }
    let mut j = 255;
    while j < 512 {
        exp[j] = exp[j - 255];
        j += 1;
    }
    (log, exp)
}

const TABLES: ([u8; 256], [u8; 512]) = build_tables();

#[inline]
fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let (log, exp) = (&TABLES.0, &TABLES.1);
    exp[log[a as usize] as usize + log[b as usize] as usize]
}

#[inline]
fn gf_inv(a: u8) -> u8 {
    debug_assert!(a != 0, "zero has no inverse in GF(256)");
    let (log, exp) = (&TABLES.0, &TABLES.1);
    exp[255 - log[a as usize] as usize]
}

/// Generator row for shard `s` of a `(k, n)` code, restricted to the `k`
/// data coordinates. Data shards (`s < k`) are identity rows; parity shards
/// are rows of a Cauchy matrix (`x_r ∈ {0..n-k}`, `y_c ∈ {n-k..n}` — the
/// sets are disjoint, so every square submatrix is nonsingular and any `k`
/// of the `n` rows invert: the MDS property the recovery guarantee rests
/// on).
fn generator_row(k: usize, n: usize, s: usize) -> Vec<u8> {
    let m = n - k;
    let mut row = vec![0u8; k];
    if s < k {
        row[s] = 1;
    } else {
        let r = s - k;
        for (c, cell) in row.iter_mut().enumerate() {
            *cell = gf_inv((r as u8) ^ ((m + c) as u8));
        }
    }
    row
}

/// Computes the `n - k` parity units for `k` equal-length data units.
///
/// # Panics
///
/// Panics when the parameters are invalid (`k == 0`, `n <= k`, `n > 255`)
/// or the units differ in length — both are construction-time errors.
pub fn parity_units(k: usize, n: usize, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
    assert!(
        k >= 1 && n > k && n <= 255,
        "invalid EC parameters ({k},{n})"
    );
    assert_eq!(data.len(), k, "expected {k} data units");
    let unit_len = data[0].len();
    assert!(
        data.iter().all(|u| u.len() == unit_len),
        "data units must be equal length"
    );
    (k..n)
        .map(|s| {
            let row = generator_row(k, n, s);
            let mut out = vec![0u8; unit_len];
            for (c, unit) in data.iter().enumerate() {
                let coef = row[c];
                if coef == 1 {
                    for (o, &b) in out.iter_mut().zip(unit.iter()) {
                        *o ^= b;
                    }
                } else {
                    for (o, &b) in out.iter_mut().zip(unit.iter()) {
                        *o ^= gf_mul(coef, b);
                    }
                }
            }
            out
        })
        .collect()
}

/// Rebuilds the `k` data units in place from any `k` present shards
/// (`shards.len() == n`; `None` = lost). On success `shards[0..k]` are all
/// `Some`. Errors when fewer than `k` shards are present.
pub fn reconstruct(k: usize, n: usize, shards: &mut [Option<Vec<u8>>]) -> Result<(), String> {
    assert_eq!(shards.len(), n, "expected {n} shard slots");
    if shards.iter().take(k).all(|s| s.is_some()) {
        return Ok(());
    }
    let avail: Vec<usize> = (0..n).filter(|&i| shards[i].is_some()).collect();
    if avail.len() < k {
        return Err(format!(
            "only {} of {n} shards present, need {k}",
            avail.len()
        ));
    }
    let rows: Vec<usize> = avail.into_iter().take(k).collect();
    let unit_len = shards[rows[0]].as_ref().expect("present shard").len();

    // Invert the k×k generator submatrix of the chosen rows (Gauss-Jordan
    // over GF(256)); data = A⁻¹ · available.
    let mut a: Vec<Vec<u8>> = rows.iter().map(|&s| generator_row(k, n, s)).collect();
    let mut inv: Vec<Vec<u8>> = (0..k)
        .map(|i| {
            let mut row = vec![0u8; k];
            row[i] = 1;
            row
        })
        .collect();
    for col in 0..k {
        let pivot = (col..k)
            .find(|&r| a[r][col] != 0)
            .ok_or_else(|| "singular generator submatrix".to_string())?;
        a.swap(col, pivot);
        inv.swap(col, pivot);
        let scale = gf_inv(a[col][col]);
        for c in 0..k {
            a[col][c] = gf_mul(a[col][c], scale);
            inv[col][c] = gf_mul(inv[col][c], scale);
        }
        for r in 0..k {
            if r == col || a[r][col] == 0 {
                continue;
            }
            let factor = a[r][col];
            for c in 0..k {
                let ac = gf_mul(factor, a[col][c]);
                a[r][c] ^= ac;
                let ic = gf_mul(factor, inv[col][c]);
                inv[r][c] ^= ic;
            }
        }
    }

    let sources: Vec<Vec<u8>> = rows
        .iter()
        .map(|&s| shards[s].as_ref().expect("present shard").clone())
        .collect();
    for d in 0..k {
        if shards[d].is_some() {
            continue;
        }
        let mut out = vec![0u8; unit_len];
        for (j, src) in sources.iter().enumerate() {
            let coef = inv[d][j];
            if coef == 0 {
                continue;
            }
            for (o, &b) in out.iter_mut().zip(src.iter()) {
                *o ^= gf_mul(coef, b);
            }
        }
        shards[d] = Some(out);
    }
    Ok(())
}

// --- Burst image codec ---

/// Serialises a burst of `(seq, offset, payload)` records into one image.
pub fn encode_burst(records: &[(u64, u64, &[u8])]) -> Vec<u8> {
    let total: usize = records
        .iter()
        .map(|(_, _, p)| BURST_RECORD_OVERHEAD + p.len())
        .sum();
    let mut out = Vec::with_capacity(total);
    for (seq, offset, payload) in records {
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

/// Parses a burst image back into `(seq, offset, payload)` records.
/// `None` when the image is malformed (a record runs past the end).
pub fn decode_burst(image: &[u8]) -> Option<Vec<(u64, u64, Vec<u8>)>> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < image.len() {
        if pos + BURST_RECORD_OVERHEAD > image.len() {
            return None;
        }
        let seq = u64::from_le_bytes(image[pos..pos + 8].try_into().expect("8 bytes"));
        let offset = u64::from_le_bytes(image[pos + 8..pos + 16].try_into().expect("8 bytes"));
        let len =
            u32::from_le_bytes(image[pos + 16..pos + 20].try_into().expect("4 bytes")) as usize;
        pos += BURST_RECORD_OVERHEAD;
        if pos + len > image.len() {
            return None;
        }
        out.push((seq, offset, image[pos..pos + len].to_vec()));
        pos += len;
    }
    Some(out)
}

/// Splits an image into `k` equal, zero-padded data units.
pub fn split_units(image: &[u8], k: usize) -> (usize, Vec<Vec<u8>>) {
    let unit_len = image.len().div_ceil(k).max(1);
    let units = (0..k)
        .map(|i| {
            let start = (i * unit_len).min(image.len());
            let end = ((i + 1) * unit_len).min(image.len());
            let mut unit = image[start..end].to_vec();
            unit.resize(unit_len, 0);
            unit
        })
        .collect();
    (unit_len, units)
}

// --- Fragment entry codec ---

/// Header of one fragment-log entry; the unit bytes follow on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragEntry {
    /// Burst-final sequence number (the value the region header advances to
    /// once this stripe is fully posted).
    pub burst_seq: u64,
    /// Length of the un-padded burst image.
    pub burst_len: u32,
    /// Length of each unit (`ceil(burst_len / k)`).
    pub unit_len: u32,
    /// Which generator row this peer's unit is (stored explicitly so a
    /// replacement-reordered peer list can never mis-attribute a shard).
    pub shard: u32,
}

impl FragEntry {
    /// Serialises the entry header; the CRC covers the header fields and
    /// `unit`, so a torn entry (header landed, unit partial — or vice
    /// versa) is rejected as a whole.
    pub fn encode(&self, unit: &[u8]) -> [u8; FRAG_ENTRY_SIZE] {
        debug_assert_eq!(unit.len(), self.unit_len as usize);
        let mut out = [0u8; FRAG_ENTRY_SIZE];
        out[0..8].copy_from_slice(&self.burst_seq.to_le_bytes());
        out[8..12].copy_from_slice(&self.burst_len.to_le_bytes());
        out[12..16].copy_from_slice(&self.unit_len.to_le_bytes());
        out[16..20].copy_from_slice(&self.shard.to_le_bytes());
        let mut crc = crc32c(&out[0..20]);
        crc ^= crc32c(unit);
        out[20..24].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and validates the entry at `pos` in `log` (header + unit CRC
    /// + bounds). `None` for torn, truncated, or garbage bytes.
    pub fn decode_at(log: &[u8], pos: usize) -> Option<(FragEntry, &[u8])> {
        let h = log.get(pos..pos.checked_add(FRAG_ENTRY_SIZE)?)?;
        let burst_seq = u64::from_le_bytes(h[0..8].try_into().expect("8 bytes"));
        let burst_len = u32::from_le_bytes(h[8..12].try_into().expect("4 bytes"));
        let unit_len = u32::from_le_bytes(h[12..16].try_into().expect("4 bytes"));
        let shard = u32::from_le_bytes(h[16..20].try_into().expect("4 bytes"));
        let stored = u32::from_le_bytes(h[20..24].try_into().expect("4 bytes"));
        let unit_end = pos + FRAG_ENTRY_SIZE + unit_len as usize;
        if unit_len == 0 && burst_len > 0 {
            return None;
        }
        let unit = log.get(pos + FRAG_ENTRY_SIZE..unit_end)?;
        if crc32c(&h[0..20]) ^ crc32c(unit) != stored {
            return None;
        }
        Some((
            FragEntry {
                burst_seq,
                burst_len,
                unit_len,
                shard,
            },
            unit,
        ))
    }
}

/// Walks `logs` (one fragment log per surviving peer, each truncated at
/// that peer's header-advertised tail) in lockstep and reconstructs every
/// burst image for which at least `k` consistent shards survive, stopping
/// at the first torn stripe. Returns `(burst_seq, image)` pairs in log
/// order; bursts with `burst_seq <= min_seq` are skipped (already covered
/// by the spill snapshot) but still advance the walk.
pub fn reassemble(k: usize, n: usize, logs: &[&[u8]], min_seq: u64) -> Vec<(u64, Vec<u8>)> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    let mut last_seq = 0u64;
    loop {
        // Gather the valid entries at this position, grouped by the burst
        // they claim to carry; all honest shards of one stripe agree on
        // (burst_seq, burst_len, unit_len).
        #[allow(clippy::type_complexity)] // `(burst_seq, burst_len, unit_len) -> [(shard, unit)]`.
        let mut groups: HashMap<(u64, u32, u32), Vec<(u32, Vec<u8>)>> = HashMap::new();
        for log in logs {
            if let Some((entry, unit)) = FragEntry::decode_at(log, pos) {
                groups
                    .entry((entry.burst_seq, entry.burst_len, entry.unit_len))
                    .or_default()
                    .push((entry.shard, unit.to_vec()));
            }
        }
        let Some(((burst_seq, burst_len, unit_len), members)) =
            groups.into_iter().max_by_key(|(_, members)| members.len())
        else {
            break;
        };
        if members.len() < k || unit_len == 0 {
            break;
        }
        if burst_seq <= last_seq && last_seq != 0 {
            break; // Stale bytes beyond the genuine tail.
        }
        let mut shards: Vec<Option<Vec<u8>>> = vec![None; n];
        for (shard, unit) in members {
            if (shard as usize) < n {
                shards[shard as usize] = Some(unit);
            }
        }
        if shards.iter().flatten().count() < k || reconstruct(k, n, &mut shards).is_err() {
            break;
        }
        last_seq = burst_seq;
        pos += FRAG_ENTRY_SIZE + unit_len as usize;
        if burst_seq <= min_seq {
            continue;
        }
        let mut image = Vec::with_capacity(burst_len as usize);
        for unit in shards.iter().take(k).flatten() {
            image.extend_from_slice(unit);
        }
        image.truncate(burst_len as usize);
        out.push((burst_seq, image));
    }
    out
}

// --- Spill tier ---

/// One demoted acked prefix: the file image through `spill_seq`, stored
/// durably outside peer memory before the fragment area recycles the
/// generation that covered it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillSnapshot {
    /// Highest sequence number the snapshot covers.
    pub spill_seq: u64,
    /// Valid data length of the file at capture time.
    pub len: u64,
    /// The file's overwritten flag at capture time.
    pub overwritten: bool,
    /// File data capacity (recovery re-sizes the staging buffer from it).
    pub capacity: u64,
    /// `image[..len]` at capture time.
    pub data: Vec<u8>,
}

/// Bytes of a stored snapshot's fixed header: `spill_seq u64 | len u64 |
/// capacity u64 | overwritten u8`, little-endian.
const SPILL_HEADER: usize = 25;

impl SpillSnapshot {
    /// The stored form: the header, `data[..len]`, then a CRC-32C over
    /// both, so a torn or flipped snapshot is refused instead of handed to
    /// recovery as acked bytes.
    pub fn encode(&self) -> Vec<u8> {
        let data = &self.data[..self.len as usize];
        let mut out = Vec::with_capacity(SPILL_HEADER + data.len() + 4);
        out.extend_from_slice(&self.spill_seq.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&self.capacity.to_le_bytes());
        out.push(self.overwritten as u8);
        out.extend_from_slice(data);
        let crc = crc32c(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses [`Self::encode`]'s form; `None` for truncated, torn or
    /// garbage bytes. Bytes past the CRC — a longer predecessor's tail in a
    /// re-stored file — are ignored.
    pub fn decode(bytes: &[u8]) -> Option<SpillSnapshot> {
        let header = bytes.get(..SPILL_HEADER)?;
        let u64_at =
            |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
        let len = u64_at(8);
        let end = SPILL_HEADER.checked_add(usize::try_from(len).ok()?)?;
        let stored = bytes.get(end..end.checked_add(4)?)?;
        if crc32c(&bytes[..end]).to_le_bytes() != stored {
            return None;
        }
        Some(SpillSnapshot {
            spill_seq: u64_at(0),
            len,
            overwritten: header[24] != 0,
            capacity: u64_at(16),
            data: bytes[SPILL_HEADER..end].to_vec(),
        })
    }
}

/// Durable store for spilled log prefixes, keyed by `(scope, generation)`.
/// A store is posted on the writer's thread, and no peer's region header
/// may advance to generation `g + 1` before `g + 1`'s is durable — the ordering the
/// recovery rule "a responder at generation G implies snapshot(G) is
/// loadable" rests on. Implementations must be durable across application
/// crashes for that guarantee to hold end-to-end ([`MemSpillSink`] is
/// process-local and meant for tests; the DFS-backed sink in `splitfs` is
/// the production tier).
pub trait SpillSink: Send + Sync + std::fmt::Debug {
    /// Stores (or overwrites) the snapshot for `(scope, gen)`, posted at
    /// `at`: it has landed, behind every earlier store, when this returns
    /// the instant it is durable.
    fn store(
        &self,
        scope: &str,
        gen: u64,
        snap: &SpillSnapshot,
        at: Instant,
    ) -> Result<Instant, String>;
    /// Loads the snapshot for `(scope, gen)`, `Ok(None)` when absent.
    fn load(&self, scope: &str, gen: u64) -> Result<Option<SpillSnapshot>, String>;
}

/// In-process spill sink for tests: survives `NclLib` drops (recovery in
/// the same process) but not a real application crash.
#[derive(Debug, Default)]
pub struct MemSpillSink {
    store: Mutex<HashMap<(String, u64), SpillSnapshot>>,
}

impl MemSpillSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of snapshots held (test observability).
    pub fn snapshots(&self) -> usize {
        self.store.lock().expect("spill sink poisoned").len()
    }
}

impl SpillSink for MemSpillSink {
    fn store(
        &self,
        scope: &str,
        gen: u64,
        snap: &SpillSnapshot,
        at: Instant,
    ) -> Result<Instant, String> {
        self.store
            .lock()
            .expect("spill sink poisoned")
            .insert((scope.to_string(), gen), snap.clone());
        Ok(at)
    }

    fn load(&self, scope: &str, gen: u64) -> Result<Option<SpillSnapshot>, String> {
        Ok(self
            .store
            .lock()
            .expect("spill sink poisoned")
            .get(&(scope.to_string(), gen))
            .cloned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stripe(k: usize, n: usize, image: &[u8]) -> Vec<Vec<u8>> {
        let (_, mut units) = split_units(image, k);
        units.extend(parity_units(k, n, &units));
        units
    }

    #[test]
    fn every_k_subset_reconstructs() {
        for (k, n) in [(2usize, 3usize), (4, 6), (2, 4), (3, 5)] {
            let image: Vec<u8> = (0..257u32).map(|i| (i * 31 % 251) as u8).collect();
            let all = stripe(k, n, &image);
            // Every way of losing n-k shards.
            for lost_mask in 0u32..(1 << n) {
                if lost_mask.count_ones() as usize != n - k {
                    continue;
                }
                let mut shards: Vec<Option<Vec<u8>>> = all
                    .iter()
                    .enumerate()
                    .map(|(i, u)| {
                        if lost_mask & (1 << i) != 0 {
                            None
                        } else {
                            Some(u.clone())
                        }
                    })
                    .collect();
                reconstruct(k, n, &mut shards).expect("k shards must suffice");
                let mut rebuilt = Vec::new();
                for unit in shards.iter().take(k) {
                    rebuilt.extend_from_slice(unit.as_ref().expect("data shard filled"));
                }
                rebuilt.truncate(image.len());
                assert_eq!(rebuilt, image, "(k={k},n={n}) lost_mask={lost_mask:#b}");
            }
        }
    }

    #[test]
    fn fewer_than_k_shards_errors() {
        let image = vec![7u8; 64];
        let all = stripe(2, 3, &image);
        let mut shards = vec![None, None, Some(all[2].clone())];
        assert!(reconstruct(2, 3, &mut shards).is_err());
    }

    #[test]
    fn burst_image_roundtrip() {
        let a = vec![1u8; 10];
        let b = vec![2u8; 3];
        let records: Vec<(u64, u64, &[u8])> = vec![(5, 100, &a), (6, 110, &b)];
        let image = encode_burst(&records);
        let decoded = decode_burst(&image).expect("well-formed image");
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0], (5, 100, a));
        assert_eq!(decoded[1], (6, 110, b));
        // Truncated images are rejected, not mis-parsed.
        assert!(decode_burst(&image[..image.len() - 1]).is_none());
    }

    #[test]
    fn frag_entry_crc_rejects_torn_bytes() {
        let unit = vec![9u8; 32];
        let entry = FragEntry {
            burst_seq: 12,
            burst_len: 60,
            unit_len: 32,
            shard: 1,
        };
        let mut log = entry.encode(&unit).to_vec();
        log.extend_from_slice(&unit);
        let (parsed, u) = FragEntry::decode_at(&log, 0).expect("intact entry decodes");
        assert_eq!(parsed, entry);
        assert_eq!(u, &unit[..]);
        // Flip one unit byte: the whole entry is rejected.
        let mut torn = log.clone();
        torn[FRAG_ENTRY_SIZE + 5] ^= 0xFF;
        assert!(FragEntry::decode_at(&torn, 0).is_none());
        // A truncated unit (header landed, tail did not) is rejected.
        assert!(FragEntry::decode_at(&log[..log.len() - 1], 0).is_none());
    }

    /// End-to-end: stripe three bursts to (2,3), lose one peer, reassemble
    /// from the survivors, and check the torn-tail stop rule.
    #[test]
    fn reassemble_from_k_survivors_and_stop_at_torn_stripe() {
        let (k, n) = (2usize, 3usize);
        let mut logs: Vec<Vec<u8>> = vec![Vec::new(); n];
        let mut images = Vec::new();
        for b in 1u64..=3 {
            let payload = vec![b as u8; 40 + b as usize];
            let image = encode_burst(&[(b * 4, b * 100, &payload)]);
            let (unit_len, _units) = split_units(&image, k);
            let all = stripe(k, n, &image);
            for (s, log) in logs.iter_mut().enumerate() {
                let entry = FragEntry {
                    burst_seq: b * 4,
                    burst_len: image.len() as u32,
                    unit_len: unit_len as u32,
                    shard: s as u32,
                };
                log.extend_from_slice(&entry.encode(&all[s]));
                log.extend_from_slice(&all[s]);
            }
            images.push((b * 4, image));
        }
        // A torn fourth stripe: only peer 0 got its entry.
        let torn_img = encode_burst(&[(99, 0, &[0xAAu8; 8])]);
        let (tul, tunits) = split_units(&torn_img, k);
        let tall = {
            let mut a = tunits.clone();
            a.extend(parity_units(k, n, &tunits));
            a
        };
        let tentry = FragEntry {
            burst_seq: 99,
            burst_len: torn_img.len() as u32,
            unit_len: tul as u32,
            shard: 0,
        };
        logs[0].extend_from_slice(&tentry.encode(&tall[0]));
        logs[0].extend_from_slice(&tall[0]);

        // Peer 1 lost: reassemble from peers {0, 2}.
        let survivors = [&logs[0][..], &logs[2][..]];
        let rebuilt = reassemble(k, n, &survivors, 0);
        assert_eq!(rebuilt, images, "three intact bursts, torn tail dropped");
        // min_seq skips already-snapshotted bursts.
        let tail = reassemble(k, n, &survivors, 4);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].0, 8);
    }

    #[test]
    fn reassemble_respects_shorter_tails() {
        // Peer 1's header lagged one burst behind: its log is truncated at
        // the first entry. Bursts past its tail still reconstruct while >= k
        // other shards cover them.
        let (k, n) = (2usize, 3usize);
        let mut logs: Vec<Vec<u8>> = vec![Vec::new(); n];
        for b in 1u64..=2 {
            let payload = vec![0x30 + b as u8; 16];
            let image = encode_burst(&[(b, b * 16, &payload)]);
            let (unit_len, units) = split_units(&image, k);
            let mut all = units.clone();
            all.extend(parity_units(k, n, &units));
            for (s, log) in logs.iter_mut().enumerate() {
                if s == 1 && b == 2 {
                    continue; // Peer 1 never applied burst 2.
                }
                let entry = FragEntry {
                    burst_seq: b,
                    burst_len: image.len() as u32,
                    unit_len: unit_len as u32,
                    shard: s as u32,
                };
                log.extend_from_slice(&entry.encode(&all[s]));
                log.extend_from_slice(&all[s]);
            }
        }
        let all_three = [&logs[0][..], &logs[1][..], &logs[2][..]];
        let rebuilt = reassemble(k, n, &all_three, 0);
        assert_eq!(rebuilt.len(), 2, "short tail must not stop the walk early");
    }

    #[test]
    fn mem_spill_sink_roundtrip() {
        let sink = MemSpillSink::new();
        let snap = SpillSnapshot {
            spill_seq: 9,
            len: 128,
            overwritten: false,
            capacity: 4096,
            data: vec![3u8; 128],
        };
        let at = Instant::now();
        assert_eq!(sink.store("app/wal", 2, &snap, at), Ok(at));
        assert_eq!(sink.load("app/wal", 2).unwrap(), Some(snap.clone()));
        assert_eq!(sink.load("app/wal", 1).unwrap(), None);
        assert_eq!(sink.load("other/wal", 2).unwrap(), None);
        assert_eq!(sink.snapshots(), 1);
        // Overwrite on re-store (recovery re-keys the same generation).
        let snap2 = SpillSnapshot {
            spill_seq: 11,
            ..snap
        };
        sink.store("app/wal", 2, &snap2, at).unwrap();
        assert_eq!(sink.load("app/wal", 2).unwrap(), Some(snap2));
    }
}
