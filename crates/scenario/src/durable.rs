//! Durable checkpoint plumbing: a versioned, checksummed binary frame
//! with atomic writes, plus the little-endian codec primitives the
//! session and strategy serializers share.
//!
//! The on-disk frame is
//!
//! ```text
//! magic | version u32 | payload_len u64 | payload | checksum64(magic‖version‖payload)
//! ```
//!
//! A session checkpoint is an `HBNC` frame; each frozen chunk of its
//! epoch history is an `HBNH` frame of its own, next to it (see
//! [`crate::SessionCheckpoint::save`]); and each [`JournalRecord`] a
//! serving layer appends after a checkpoint is an `HBNJ` frame, back to
//! back with the others in one journal segment. `read_frame` validates
//! magic, version, length consistency and the checksum **before** any
//! payload decoding, so a corrupted or truncated file is always a clean
//! [`RestoreError`], never a panic or a silently wrong resume (the
//! word-wise `checksum64` changes under any single-byte flip).
//! `write_frame` writes to a staging sibling unique to that save, syncs
//! it, renames into place and fsyncs the parent directory — a crash (or
//! power loss) mid-write leaves the previous file intact, a stale staging
//! file left by a killed writer is ignored by readers, and concurrent
//! saves to one path never share a staging file: the last rename wins
//! whole.

use crate::spec::ScenarioSpec;
use hbn_dynamic::{DynamicStats, OnlineRequest};
use hbn_load::{LoadMap, LoadRatio};
use hbn_topology::{EdgeId, Network, NodeId};
use hbn_workload::ObjectId;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// File magic of durable checkpoints.
pub(crate) const MAGIC: [u8; 4] = *b"HBNC";
/// File magic of the frozen history chunks a checkpoint references.
pub(crate) const CHUNK_MAGIC: [u8; 4] = *b"HBNH";
/// Record magic of the journal segments a serving layer appends after a
/// checkpoint ([`JournalRecord`]).
pub(crate) const JOURNAL_MAGIC: [u8; 4] = *b"HBNJ";
/// Current checkpoint format version. v6 keeps a switched threshold
/// policy's retired tree as totals in its ledger, not whole, and hashes
/// the replay kernel's `Display` into the spec fingerprint; v5 moved the
/// frozen epoch history into chunk files of its own and replaced
/// byte-wise FNV-1a with [`checksum64`] (spec fingerprints included); v4
/// dropped the serve-shard count from the spec fingerprint; v3 added the
/// per-tenant attribution state to the session payload and the capacity
/// profile to the spec fingerprint; v2 added the per-epoch estimator
/// bounds to the epoch record. Older files fail with
/// [`RestoreError::BadVersion`] rather than decode wrongly.
pub(crate) const VERSION: u32 = 6;

/// Why restoring a session (from a checkpoint or from disk) failed.
#[derive(Debug)]
pub enum RestoreError {
    /// Reading or writing the checkpoint file failed.
    Io(std::io::Error),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file's format version is not understood.
    BadVersion(u32),
    /// Checksum mismatch or inconsistent length — the file is corrupt.
    BadChecksum,
    /// The payload failed to decode (corrupt or internally inconsistent).
    Malformed(String),
    /// The checkpoint was produced under a different scenario spec.
    SpecMismatch {
        /// Fingerprint of the caller's spec.
        expected: u64,
        /// Fingerprint recorded in the checkpoint.
        found: u64,
    },
    /// The serving strategy does not support durable serialization
    /// (external policies keep the default [`crate::Strategy::durable`]).
    UnsupportedStrategy(String),
    /// An in-memory checkpoint fails validation (invalid fault plan,
    /// out-of-range schedule indices).
    InvalidState(String),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Io(e) => write!(f, "checkpoint i/o failed: {e}"),
            RestoreError::BadMagic => f.write_str("not a checkpoint file (bad magic)"),
            RestoreError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            RestoreError::BadChecksum => f.write_str("checkpoint corrupt (checksum mismatch)"),
            RestoreError::Malformed(msg) => write!(f, "checkpoint payload malformed: {msg}"),
            RestoreError::SpecMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different spec (fingerprint {found:#x}, expected {expected:#x})"
            ),
            RestoreError::UnsupportedStrategy(label) => {
                write!(f, "strategy {label:?} does not support durable checkpoints")
            }
            RestoreError::InvalidState(msg) => write!(f, "checkpoint state invalid: {msg}"),
        }
    }
}

impl std::error::Error for RestoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RestoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RestoreError {
    fn from(e: std::io::Error) -> Self {
        RestoreError::Io(e)
    }
}

/// A 64-bit checksum of the concatenated `parts`, one 64-bit word at a
/// time: each little-endian word `w` of a part steps the running hash
/// `h` to `rotl((h ^ w) * K, 29)` with `K` odd, and the trailing
/// `len % 8` bytes of the part take FNV-1a's byte step
/// `(h ^ b) * FNV_PRIME`.
///
/// Both steps are bijections of `h` for a fixed input (xor, multiply by
/// an odd constant modulo 2^64, rotate) and injective in the input for a
/// fixed `h` (the same three maps applied to `w`). So two equally long
/// inputs that differ only inside one word (or one trailing byte) hash
/// equally up to that step, differently right after it, and differently
/// at the end, because every later step is a bijection of the hash. Any
/// change confined to one aligned 8-byte word — every single-byte flip
/// among them — changes the checksum.
pub(crate) fn checksum64(parts: &[&[u8]]) -> u64 {
    const WORD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        let mut words = part.chunks_exact(8);
        for w in &mut words {
            let w = u64::from_le_bytes(w.try_into().expect("8 bytes"));
            hash = (hash ^ w).wrapping_mul(WORD_MUL).rotate_left(29);
        }
        for &b in words.remainder() {
            hash = (hash ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

/// A fresh staging sibling for one save to `path`:
/// `<path>.<pid>.<n>.tmp`, unique per process and per save within it,
/// so concurrent saves to one path never stage into the same file.
fn staging_path(path: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}.{n}.tmp", std::process::id()));
    PathBuf::from(tmp)
}

/// Append one frame under `magic` to `out`: `magic | VERSION |
/// payload_len | payload | checksum64(magic‖version‖payload)`, with the
/// payload written in place by `payload`.
fn put_frame(out: &mut Vec<u8>, magic: [u8; 4], payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&magic);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&[0; 8]);
    let body = out.len();
    payload(out);
    let len = (out.len() - body) as u64;
    out[start + 8..body].copy_from_slice(&len.to_le_bytes());
    let checksum = checksum64(&[&magic, &VERSION.to_le_bytes(), &out[body..]]);
    out.extend_from_slice(&checksum.to_le_bytes());
}

/// Frame `payload` under `magic` and write it to `path` atomically:
/// stage in a sibling of its own ([`staging_path`]), fsync it, rename
/// into place, then fsync the parent directory so the *rename itself*
/// survives power loss (a synced file under an unsynced directory entry
/// can still resurrect the old name). Concurrent saves each rename a
/// complete frame, so `path` always holds one of them whole. A failed
/// save removes its staging file; one left by a killed writer was never
/// part of a committed checkpoint and readers never look at it
/// ([`read_frame`] opens only `path`).
pub(crate) fn write_frame(path: &Path, magic: [u8; 4], payload: &[u8]) -> Result<(), RestoreError> {
    let mut frame = Vec::with_capacity(payload.len() + 24);
    put_frame(&mut frame, magic, |out| out.extend_from_slice(payload));

    let tmp = staging_path(path);
    let staged = std::fs::File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(&frame)?;
            file.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = staged {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    sync_parent_dir(path)?;
    Ok(())
}

/// The directory holding `path` (`.` for a bare file name).
pub(crate) fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

/// Fsync the directory holding `path`. On unix a rename is durable only
/// once the parent directory's entry block is on disk; elsewhere
/// directories cannot be opened for syncing and the rename is the best
/// available guarantee.
#[cfg(unix)]
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    std::fs::File::open(parent_dir(path))?.sync_all()
}

#[cfg(not(unix))]
fn sync_parent_dir(_path: &Path) -> std::io::Result<()> {
    Ok(())
}

/// Read the frame under `magic` at `path`, validating magic, version,
/// length and checksum before returning the payload and its checksum.
pub(crate) fn read_frame(path: &Path, magic: [u8; 4]) -> Result<(Vec<u8>, u64), RestoreError> {
    let frame = std::fs::read(path)?;
    let (payload, checksum) = decode_frame(&frame, magic)?;
    Ok((payload.to_vec(), checksum))
}

/// Validate a raw frame under `magic` and extract its payload and
/// checksum.
pub(crate) fn decode_frame(frame: &[u8], magic: [u8; 4]) -> Result<(&[u8], u64), RestoreError> {
    if frame.len() < 24 {
        return Err(RestoreError::BadChecksum);
    }
    if frame[0..4] != magic {
        return Err(RestoreError::BadMagic);
    }
    let version = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(RestoreError::BadVersion(version));
    }
    // The length field is untrusted: compare it with what the file holds
    // rather than add to it.
    let payload_len = u64::from_le_bytes(frame[8..16].try_into().expect("8 bytes"));
    if payload_len != (frame.len() - 24) as u64 {
        return Err(RestoreError::BadChecksum);
    }
    let (payload, stored) = frame[16..].split_at(frame.len() - 24);
    let stored = u64::from_le_bytes(stored.try_into().expect("8 bytes"));
    if checksum64(&[&magic, &VERSION.to_le_bytes(), payload]) != stored {
        return Err(RestoreError::BadChecksum);
    }
    Ok((payload, stored))
}

/// One served epoch of a journal: the batch a serving layer pushed as
/// epoch `epoch`, and the mode it served it under. `hbn-server` appends
/// the epochs served since its newest checkpoint frame to a journal
/// segment next to that frame, and recovery replays the segment on top
/// of the restored frame.
///
/// A segment is a run of whole records, each a frame of its own:
///
/// ```text
/// "HBNJ" | version u32 | payload_len u64 | payload | checksum64
/// payload = epoch u64 | degraded u8 | n u64 | n x (processor u32, object u32, is_write u8)
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Global epoch index the batch was served as.
    pub epoch: usize,
    /// Whether the epoch was served under the serving layer's degraded
    /// (estimator) replay instead of the spec's own kernel.
    pub degraded: bool,
    /// The served batch.
    pub batch: Vec<OnlineRequest>,
}

impl JournalRecord {
    /// Append the record to `out` as one `HBNJ` frame.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_frame(out, JOURNAL_MAGIC, |p| {
            put_u64(p, self.epoch as u64);
            put_u8(p, u8::from(self.degraded));
            put_u64(p, self.batch.len() as u64);
            for req in &self.batch {
                put_u32(p, req.processor.0);
                put_u32(p, req.object.0);
                put_u8(p, u8::from(req.is_write));
            }
        });
    }

    /// Decode a journal segment: whole records back to back, the first
    /// for epoch `first_epoch` and each later one for the epoch after its
    /// predecessor's. Each record passes the checks of a checkpoint frame
    /// (magic, version, length, checksum) before its payload is read, and
    /// every request must come from a processor of `net` and name an
    /// object below `max_objects`.
    ///
    /// # Errors
    ///
    /// A torn, corrupt or out-of-order record: the frame errors of
    /// [`RestoreError`], or [`RestoreError::Malformed`] for a payload that
    /// fails the checks above.
    pub fn decode_segment(
        segment: &[u8],
        first_epoch: usize,
        net: &Network,
        max_objects: usize,
    ) -> Result<Vec<JournalRecord>, RestoreError> {
        let mut records = Vec::new();
        let mut rest = segment;
        while !rest.is_empty() {
            if rest.len() < 24 {
                return Err(RestoreError::BadChecksum);
            }
            // The length field is untrusted: the record must fit in what is left.
            let payload_len = u64::from_le_bytes(rest[8..16].try_into().expect("8 bytes"));
            let whole = usize::try_from(payload_len)
                .ok()
                .and_then(|n| n.checked_add(24))
                .filter(|&n| n <= rest.len())
                .ok_or(RestoreError::BadChecksum)?;
            let (frame, tail) = rest.split_at(whole);
            let (payload, _) = decode_frame(frame, JOURNAL_MAGIC)?;
            let epoch = first_epoch + records.len();
            records.push(
                read_record(payload, epoch, net, max_objects).map_err(RestoreError::Malformed)?,
            );
            rest = tail;
        }
        Ok(records)
    }
}

/// The payload of the journal record for `epoch`.
fn read_record(
    payload: &[u8],
    epoch: usize,
    net: &Network,
    max_objects: usize,
) -> Result<JournalRecord, String> {
    let mut dec = Dec::new(payload);
    let found = dec.u64()?;
    if found != epoch as u64 {
        return Err(format!("journal record for epoch {found} where epoch {epoch} was due"));
    }
    let degraded = dec.flag()?;
    let n = dec.len(9)?;
    let mut batch = Vec::with_capacity(n);
    for _ in 0..n {
        let processor = NodeId(dec.u32()?);
        if !net.is_processor(processor) {
            return Err(format!("journal request at non-processor node {}", processor.0));
        }
        let object = dec.u32()?;
        if object as usize >= max_objects {
            return Err(format!(
                "journal request for object {object} >= max_objects {max_objects}"
            ));
        }
        batch.push(OnlineRequest { processor, object: ObjectId(object), is_write: dec.flag()? });
    }
    dec.finish()?;
    Ok(JournalRecord { epoch, degraded, batch })
}

/// A structural fingerprint of a [`ScenarioSpec`]: everything that
/// determines the run bit for bit (name, topology, schedule, strategy,
/// seed, execution config, fault plan), hashed so a checkpoint can
/// reject restoration under a different spec.
pub(crate) fn spec_fingerprint(spec: &ScenarioSpec) -> u64 {
    let mut buf = Vec::new();
    put_str(&mut buf, &spec.name);
    put_str(&mut buf, &spec.topology.to_string());
    put_str(&mut buf, &spec.capacity.to_string());
    put_str(&mut buf, &spec.strategy.to_string());
    put_u64(&mut buf, spec.seed);
    put_u64(&mut buf, spec.epoch_requests as u64);
    put_u64(&mut buf, spec.exec.threshold);
    put_str(&mut buf, &spec.exec.replay.to_string());
    put_u64(&mut buf, spec.exec.sim.injection_rate as u64);
    put_u64(&mut buf, spec.exec.sim.max_slots);
    put_u64(&mut buf, spec.schedule.initial_objects as u64);
    put_u64(&mut buf, spec.schedule.phases.len() as u64);
    for phase in &spec.schedule.phases {
        put_str(&mut buf, &phase.label);
        put_str(&mut buf, &format!("{:?}", phase.kind));
        put_u64(&mut buf, phase.requests as u64);
    }
    put_u64(&mut buf, spec.faults.outage_slots);
    put_u64(&mut buf, spec.faults.events.len() as u64);
    for event in &spec.faults.events {
        put_u64(&mut buf, event.epoch as u64);
        put_str(&mut buf, &format!("{:?}", event.kind));
    }
    checksum64(&[&buf])
}

// --- encoder primitives ---

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_nodes(out: &mut Vec<u8>, nodes: &[NodeId]) {
    put_u64(out, nodes.len() as u64);
    for v in nodes {
        put_u32(out, v.0);
    }
}

pub(crate) fn put_loads(out: &mut Vec<u8>, loads: &LoadMap) {
    let slice = loads.as_slice();
    put_u64(out, slice.len() as u64);
    for &w in slice {
        put_u64(out, w);
    }
}

pub(crate) fn put_ratio(out: &mut Vec<u8>, r: LoadRatio) {
    put_u64(out, r.load);
    put_u64(out, r.bandwidth);
}

pub(crate) fn put_stats(out: &mut Vec<u8>, s: DynamicStats) {
    put_u64(out, s.reads);
    put_u64(out, s.writes);
    put_u64(out, s.replications);
    put_u64(out, s.collapses);
    put_u64(out, s.repairs);
}

// --- bounds-checked decoder ---

/// A bounds-checked little-endian reader over a payload slice. Every
/// take returns `Err` (never panics) on truncation; lengths are
/// validated against the remaining bytes before allocation.
pub(crate) struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Dec<'a> {
        Dec { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.bytes.len() - self.pos < n {
            return Err(format!("truncated payload at byte {}", self.pos));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// A boolean byte: `0` or `1`, anything else is malformed.
    pub(crate) fn flag(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("flag byte {b}")),
        }
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length prefix that must fit in the remaining bytes, with each
    /// element at least `min_elem_bytes` wide — rejects absurd lengths
    /// before any allocation.
    pub(crate) fn len(&mut self, min_elem_bytes: usize) -> Result<usize, String> {
        let n = self.u64()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.bytes.len() - self.pos {
            return Err(format!("length {n} exceeds remaining payload"));
        }
        Ok(n)
    }

    pub(crate) fn string(&mut self) -> Result<String, String> {
        let n = self.len(1)?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| "invalid utf-8".into())
    }

    /// A length-prefixed opaque byte slice (nested payloads).
    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], String> {
        let n = self.len(1)?;
        self.take(n)
    }

    pub(crate) fn nodes(&mut self) -> Result<Vec<NodeId>, String> {
        let n = self.len(4)?;
        (0..n).map(|_| Ok(NodeId(self.u32()?))).collect()
    }

    pub(crate) fn loads(&mut self, net: &Network) -> Result<LoadMap, String> {
        let n = self.len(8)?;
        if n != net.n_nodes() {
            return Err(format!("load map of {n} edges on a {}-node network", net.n_nodes()));
        }
        let mut loads = LoadMap::zero(net);
        for i in 0..n {
            let w = self.u64()?;
            if w > 0 {
                loads.add_edge(EdgeId(i as u32), w);
            }
        }
        Ok(loads)
    }

    pub(crate) fn stats(&mut self) -> Result<DynamicStats, String> {
        Ok(DynamicStats {
            reads: self.u64()?,
            writes: self.u64()?,
            replications: self.u64()?,
            collapses: self.u64()?,
            repairs: self.u64()?,
        })
    }

    pub(crate) fn ratio(&mut self) -> Result<LoadRatio, String> {
        let load = self.u64()?;
        let bandwidth = self.u64()?;
        if bandwidth == 0 {
            return Err("zero-bandwidth load ratio".into());
        }
        Ok(LoadRatio::new(load, bandwidth))
    }

    /// Assert the payload is fully consumed.
    pub(crate) fn finish(self) -> Result<(), String> {
        if self.pos != self.bytes.len() {
            return Err(format!("{} trailing bytes", self.bytes.len() - self.pos));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh directory for one test, removed when the guard drops.
    fn unique_dir(tag: &str) -> hbn_testutil::TestDir {
        hbn_testutil::TestDir::new(std::env::temp_dir(), &format!("hbn_durable_{tag}"))
    }

    #[test]
    fn frame_roundtrip_and_single_byte_flips_fail() {
        let dir = unique_dir("frame");
        let path = dir.join("frame.hbnc");
        let payload = b"the payload".to_vec();
        write_frame(&path, MAGIC, &payload).unwrap();
        assert_eq!(read_frame(&path, MAGIC).unwrap().0, payload);
        assert!(matches!(read_frame(&path, CHUNK_MAGIC), Err(RestoreError::BadMagic)));

        let frame = std::fs::read(&path).unwrap();
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x01;
            assert!(decode_frame(&bad, MAGIC).is_err(), "flip of byte {i} must be detected");
        }
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut], MAGIC).is_err(), "truncation at {cut}");
        }
    }

    /// A length field near `u64::MAX` is corrupt, not an overflow: the
    /// 32-byte frame `magic | version | u64::MAX | 8 zero bytes`.
    #[test]
    fn absurd_payload_length_is_a_checksum_error() {
        let mut frame = MAGIC.to_vec();
        frame.extend_from_slice(&VERSION.to_le_bytes());
        frame.extend_from_slice(&u64::MAX.to_le_bytes());
        frame.extend_from_slice(&[0; 8]);
        frame.extend_from_slice(&[0; 8]);
        assert_eq!(frame.len(), 32);
        assert!(matches!(decode_frame(&frame, MAGIC), Err(RestoreError::BadChecksum)));
    }

    /// Any change confined to one aligned word, or to one trailing byte,
    /// changes the checksum.
    #[test]
    fn checksum_changes_under_any_change_within_one_word() {
        let base: Vec<u8> = (0..45u8).map(|b| b.wrapping_mul(37)).collect();
        let reference = checksum64(&[b"HBNC", &base]);
        for start in (0..base.len()).step_by(8) {
            let end = (start + 8).min(base.len());
            for pattern in [0x01u64, 0x8000_0000_0000_0000, u64::MAX, 0x0123_4567_89ab_cdef] {
                let mut changed = base.clone();
                for (i, byte) in changed[start..end].iter_mut().enumerate() {
                    *byte ^= (pattern >> (8 * i)) as u8;
                }
                if changed != base {
                    assert_ne!(checksum64(&[b"HBNC", &changed]), reference, "word at {start}");
                }
            }
        }
    }

    /// A killed writer leaves a partial staging file: readers ignore it
    /// (the committed frame still decodes), and later saves stage under
    /// names of their own and commit past it.
    #[test]
    fn torn_staging_file_never_shadows_the_frame() {
        let dir = unique_dir("torn");
        let path = dir.join("frame.hbnc");
        let first = b"first committed payload".to_vec();
        write_frame(&path, MAGIC, &first).unwrap();

        // The torn write: half a frame in a staging sibling.
        let torn = staging_path(&path);
        std::fs::write(&torn, &MAGIC[..2]).unwrap();
        assert_eq!(read_frame(&path, MAGIC).unwrap().0, first, "torn staging must not shadow it");

        let second = b"second payload, after the torn writer".to_vec();
        write_frame(&path, MAGIC, &second).unwrap();
        assert_eq!(read_frame(&path, MAGIC).unwrap().0, second);
        assert_eq!(std::fs::read(&torn).unwrap(), MAGIC[..2], "a later save never reuses it");
    }

    /// A kill *before* the first commit leaves only a partial staging
    /// file and no frame at all: restoring reports a clean i/o error for
    /// the missing committed file, never touches the torn sibling.
    #[test]
    fn torn_tmp_without_committed_frame_is_a_clean_error() {
        let dir = unique_dir("torn_only");
        let path = dir.join("never_committed.hbnc");
        std::fs::write(staging_path(&path), b"HBNC torn mid-write").unwrap();
        assert!(matches!(read_frame(&path, MAGIC), Err(RestoreError::Io(_))));
        write_frame(&path, MAGIC, b"now committed").unwrap();
        assert_eq!(read_frame(&path, MAGIC).unwrap().0, b"now committed".to_vec());
    }

    /// Concurrent saves to one path: every save succeeds, the file then
    /// holds one of the saved frames whole, and no staging file is left.
    #[test]
    fn concurrent_saves_to_one_path_all_commit_whole() {
        const WRITERS: usize = 8;
        const SAVES: usize = 16;
        let dir = unique_dir("concurrent");
        let path = dir.join("shared.hbnc");
        let payload = |w: usize, i: usize| format!("writer {w} save {i}").into_bytes();
        let start = std::sync::Barrier::new(WRITERS);
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let (path, start) = (&path, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..SAVES {
                        write_frame(path, MAGIC, &payload(w, i))
                            .expect("every concurrent save commits");
                    }
                });
            }
        });
        let (saved, _) = read_frame(&path, MAGIC).unwrap();
        let candidates: Vec<Vec<u8>> =
            (0..WRITERS).flat_map(|w| (0..SAVES).map(move |i| payload(w, i))).collect();
        assert!(candidates.contains(&saved), "the file must hold one saved frame whole");
        let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert_eq!(entries, vec![path.clone()], "every staging file was renamed into place");
    }

    /// Three records of a balanced(3,2) tenant with 8 objects, from epoch
    /// 5 on, and the segment they make.
    fn journal_fixture() -> (Network, Vec<JournalRecord>, Vec<u8>) {
        let net = crate::TopologyFamily::Balanced { branching: 3, height: 2 }.build();
        let procs = net.processors().to_vec();
        let records: Vec<JournalRecord> = (0..3)
            .map(|i| JournalRecord {
                epoch: 5 + i,
                degraded: i == 1,
                batch: (0..4 + i)
                    .map(|k| OnlineRequest {
                        processor: procs[(i + k) % procs.len()],
                        object: ObjectId(((i * 3 + k) % 8) as u32),
                        is_write: k % 2 == 0,
                    })
                    .collect(),
            })
            .collect();
        let mut segment = Vec::new();
        for record in &records {
            record.encode(&mut segment);
        }
        (net, records, segment)
    }

    #[test]
    fn journal_segment_roundtrips_and_rejects_every_flip_and_cut() {
        let (net, records, segment) = journal_fixture();
        assert_eq!(JournalRecord::decode_segment(&segment, 5, &net, 8).unwrap(), records);
        assert_eq!(JournalRecord::decode_segment(&[], 5, &net, 8).unwrap(), vec![]);
        for i in 0..segment.len() {
            let mut bad = segment.clone();
            bad[i] ^= 0x01;
            assert!(
                JournalRecord::decode_segment(&bad, 5, &net, 8).is_err(),
                "flip of byte {i} must be detected"
            );
        }
        // A cut at a record boundary is a valid shorter segment: the caller
        // checks where the records end. Every other cut is torn.
        let mut boundaries = vec![0];
        for record in &records {
            let mut one = Vec::new();
            record.encode(&mut one);
            boundaries.push(boundaries.last().unwrap() + one.len());
        }
        for cut in 0..segment.len() {
            let decoded = JournalRecord::decode_segment(&segment[..cut], 5, &net, 8);
            match boundaries.iter().position(|&b| b == cut) {
                Some(whole) => assert_eq!(decoded.unwrap(), records[..whole]),
                None => assert!(decoded.is_err(), "truncation at {cut}"),
            }
        }
    }

    #[test]
    fn journal_records_must_be_contiguous_and_in_range() {
        let (net, records, segment) = journal_fixture();
        let malformed = |r| matches!(r, Err(RestoreError::Malformed(_)));
        assert!(malformed(JournalRecord::decode_segment(&segment, 4, &net, 8)), "epoch gap");
        let mut swapped = Vec::new();
        records[1].encode(&mut swapped);
        records[0].encode(&mut swapped);
        assert!(malformed(JournalRecord::decode_segment(&swapped, 5, &net, 8)), "out of order");
        assert!(malformed(JournalRecord::decode_segment(&segment, 5, &net, 4)), "object range");
        let mut at_root = records[0].clone();
        at_root.batch[0].processor = net.root();
        let mut bad = Vec::new();
        at_root.encode(&mut bad);
        assert!(malformed(JournalRecord::decode_segment(&bad, 5, &net, 8)), "non-processor");
        let wrong_magic = [&b"HBNC"[..], &segment[4..]].concat();
        assert!(matches!(
            JournalRecord::decode_segment(&wrong_magic, 5, &net, 8),
            Err(RestoreError::BadMagic)
        ));
    }

    #[test]
    fn decoder_is_bounds_checked() {
        let mut dec = Dec::new(&[1, 2, 3]);
        assert!(dec.u64().is_err());
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX); // absurd length prefix
        let mut dec = Dec::new(&buf);
        assert!(dec.len(8).is_err());
    }
}
