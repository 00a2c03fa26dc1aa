//! Durable checkpoint plumbing: a versioned, checksummed binary frame
//! with atomic writes, plus the little-endian codec primitives the
//! session and strategy serializers share.
//!
//! The on-disk frame is
//!
//! ```text
//! magic "HBNC" | version u32 | payload_len u64 | payload | fnv1a64(magic‖version‖payload)
//! ```
//!
//! `read_frame` validates magic, version, length consistency and the
//! checksum **before** any payload decoding, so a corrupted or truncated
//! file is always a clean [`RestoreError`], never a panic or a silently
//! wrong resume (FNV-1a's per-byte steps are bijections, so any
//! single-byte flip changes the checksum). `write_frame` writes to a
//! staging sibling unique to that save, syncs it, renames into place
//! and fsyncs the parent directory — a crash (or power loss) mid-write
//! leaves the previous checkpoint intact, a stale staging file left by
//! a killed writer is ignored by readers, and concurrent saves to one
//! path never share a staging file: the last rename wins whole.

use crate::spec::ScenarioSpec;
use hbn_dynamic::DynamicStats;
use hbn_load::{LoadMap, LoadRatio};
use hbn_topology::{EdgeId, Network, NodeId};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// File magic of durable checkpoints.
pub(crate) const MAGIC: [u8; 4] = *b"HBNC";
/// Current checkpoint format version. v4 dropped the serve-shard count
/// from the spec fingerprint; v3 added the per-tenant attribution state
/// to the session payload and the capacity profile to the spec
/// fingerprint; v2 added the per-epoch estimator bounds to the epoch
/// record. Older files fail with [`RestoreError::BadVersion`] rather
/// than decode wrongly.
pub(crate) const VERSION: u32 = 4;

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

/// FNV-1a 64-bit over `bytes`.
pub(crate) fn fnv1a64(chunks: &[&[u8]]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for chunk in chunks {
        for &b in *chunk {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
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

/// Frame `payload` and write it to `path` atomically: stage in a
/// sibling of its own ([`staging_path`]), fsync it, rename into place,
/// then fsync the parent directory so the *rename itself* survives power
/// loss (a synced file under an unsynced directory entry can still
/// resurrect the old name). Concurrent saves each rename a complete
/// frame, so `path` always holds one of them whole. A failed save
/// removes its staging file; one left by a killed writer was never part
/// of a committed checkpoint and readers never look at it
/// ([`read_frame`] opens only `path`).
pub(crate) fn write_frame(path: &Path, payload: &[u8]) -> Result<(), RestoreError> {
    let mut frame = Vec::with_capacity(payload.len() + 24);
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&VERSION.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(payload);
    let checksum = fnv1a64(&[&MAGIC, &VERSION.to_le_bytes(), payload]);
    frame.extend_from_slice(&checksum.to_le_bytes());

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

/// Fsync the directory holding `path`. On unix a rename is durable only
/// once the parent directory's entry block is on disk; elsewhere
/// directories cannot be opened for syncing and the rename is the best
/// available guarantee.
#[cfg(unix)]
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    std::fs::File::open(parent)?.sync_all()
}

#[cfg(not(unix))]
fn sync_parent_dir(_path: &Path) -> std::io::Result<()> {
    Ok(())
}

/// Read a frame from `path`, validating magic, version, length and
/// checksum before returning the payload.
pub(crate) fn read_frame(path: &Path) -> Result<Vec<u8>, RestoreError> {
    decode_frame(&std::fs::read(path)?)
}

/// Validate a raw frame and extract its payload.
pub(crate) fn decode_frame(frame: &[u8]) -> Result<Vec<u8>, RestoreError> {
    if frame.len() < 24 {
        return Err(RestoreError::BadChecksum);
    }
    if frame[0..4] != MAGIC {
        return Err(RestoreError::BadMagic);
    }
    let version = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(RestoreError::BadVersion(version));
    }
    let payload_len = u64::from_le_bytes(frame[8..16].try_into().expect("8 bytes")) as usize;
    if frame.len() != 24 + payload_len {
        return Err(RestoreError::BadChecksum);
    }
    let payload = &frame[16..16 + payload_len];
    let stored = u64::from_le_bytes(frame[16 + payload_len..].try_into().expect("8 bytes"));
    if fnv1a64(&[&MAGIC, &VERSION.to_le_bytes(), payload]) != stored {
        return Err(RestoreError::BadChecksum);
    }
    Ok(payload.to_vec())
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
    put_str(&mut buf, &spec.exec.kernel_label());
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
    fnv1a64(&[&buf])
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

    /// A fresh directory for one test, unique per process and per call,
    /// so tests running side by side never share a path.
    fn unique_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("hbn_durable_{tag}_{}_{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn frame_roundtrip_and_single_byte_flips_fail() {
        let dir = unique_dir("frame");
        let path = dir.join("frame.hbnc");
        let payload = b"the payload".to_vec();
        write_frame(&path, &payload).unwrap();
        assert_eq!(read_frame(&path).unwrap(), payload);

        let frame = std::fs::read(&path).unwrap();
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x01;
            assert!(decode_frame(&bad).is_err(), "flip of byte {i} must be detected");
        }
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut]).is_err(), "truncation at {cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A killed writer leaves a partial staging file: readers ignore it
    /// (the committed frame still decodes), and later saves stage under
    /// names of their own and commit past it.
    #[test]
    fn torn_staging_file_never_shadows_the_frame() {
        let dir = unique_dir("torn");
        let path = dir.join("frame.hbnc");
        let first = b"first committed payload".to_vec();
        write_frame(&path, &first).unwrap();

        // The torn write: half a frame in a staging sibling.
        let torn = staging_path(&path);
        std::fs::write(&torn, &MAGIC[..2]).unwrap();
        assert_eq!(read_frame(&path).unwrap(), first, "torn staging must not shadow the frame");

        let second = b"second payload, after the torn writer".to_vec();
        write_frame(&path, &second).unwrap();
        assert_eq!(read_frame(&path).unwrap(), second);
        assert_eq!(std::fs::read(&torn).unwrap(), MAGIC[..2], "a later save never reuses it");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A kill *before* the first commit leaves only a partial staging
    /// file and no frame at all: restoring reports a clean i/o error for
    /// the missing committed file, never touches the torn sibling.
    #[test]
    fn torn_tmp_without_committed_frame_is_a_clean_error() {
        let dir = unique_dir("torn_only");
        let path = dir.join("never_committed.hbnc");
        std::fs::write(staging_path(&path), b"HBNC torn mid-write").unwrap();
        assert!(matches!(read_frame(&path), Err(RestoreError::Io(_))));
        write_frame(&path, b"now committed").unwrap();
        assert_eq!(read_frame(&path).unwrap(), b"now committed".to_vec());
        std::fs::remove_dir_all(&dir).ok();
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
                        write_frame(path, &payload(w, i)).expect("every concurrent save commits");
                    }
                });
            }
        });
        let saved = read_frame(&path).unwrap();
        let candidates: Vec<Vec<u8>> =
            (0..WRITERS).flat_map(|w| (0..SAVES).map(move |i| payload(w, i))).collect();
        assert!(candidates.contains(&saved), "the file must hold one saved frame whole");
        let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert_eq!(entries, vec![path.clone()], "every staging file was renamed into place");
        std::fs::remove_dir_all(&dir).ok();
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
