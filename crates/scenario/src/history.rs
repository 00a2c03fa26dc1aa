//! The epoch history of a session: an append-only log of
//! [`EpochSummary`] records that freezes every `CHUNK_EPOCHS` epochs into
//! an immutable chunk behind an `Arc`, plus the unfrozen tail.
//!
//! A session and every checkpoint cloned from it share the frozen
//! chunks and the list of them, so a clone costs one `Arc` increment
//! plus a copy of at most one chunk's tail, however long the run. On disk each frozen chunk is a frame of its
//! own (magic `HBNH`) next to the checkpoint frames that reference it by
//! digest; a chunk is written at most once per directory, so a save
//! writes only the chunks frozen since the last save there.

use crate::durable::{
    checksum64, put_u64, read_frame, write_frame, Dec, RestoreError, CHUNK_MAGIC, VERSION,
};
use crate::engine::EpochSummary;
use crate::session::{put_epoch, read_epoch};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Epochs per frozen chunk: about 39 KB of durable encoding.
const CHUNK_EPOCHS: usize = 256;

/// `CHUNK_EPOCHS` consecutive summaries, frozen.
struct Chunk {
    epochs: Vec<EpochSummary>,
    /// The checksum of the chunk's file frame, computed once when the
    /// chunk freezes; the encoded bytes are not kept.
    digest: u64,
    /// The directory the chunk's file was last written to or read from.
    saved_in: Mutex<Option<PathBuf>>,
}

impl Chunk {
    /// The directory marker. Every update is one assignment, so a lock a
    /// panicking holder poisoned still guards a valid value.
    fn saved_in(&self) -> MutexGuard<'_, Option<PathBuf>> {
        self.saved_in.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The payload of a chunk file: the epoch count, then each epoch.
fn encode(epochs: &[EpochSummary]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + epochs.len() * 160);
    put_u64(&mut out, epochs.len() as u64);
    for e in epochs {
        put_epoch(&mut out, e);
    }
    out
}

fn decode(payload: &[u8]) -> Result<Vec<EpochSummary>, String> {
    let mut dec = Dec::new(payload);
    let n = dec.len(1)?;
    if n != CHUNK_EPOCHS {
        return Err(format!("history chunk of {n} epochs, expected {CHUNK_EPOCHS}"));
    }
    let epochs = (0..n).map(|_| read_epoch(&mut dec)).collect::<Result<Vec<_>, _>>()?;
    dec.finish()?;
    Ok(epochs)
}

/// Where chunk `k` of a run with spec fingerprint `fingerprint` lives in
/// `dir`. The digest in the name keeps two runs of one spec that share a
/// directory from ever reading each other's chunks.
fn chunk_path(dir: &Path, fingerprint: u64, k: usize, digest: u64) -> PathBuf {
    dir.join(format!("{fingerprint:016x}-{k}-{digest:016x}.hbnh"))
}

/// The append-only epoch history of a session.
#[derive(Clone, Default)]
pub(crate) struct History {
    /// The frozen chunks, oldest first. A freeze copies the list only
    /// while a checkpoint still shares it.
    chunks: Arc<Vec<Arc<Chunk>>>,
    /// The epochs since the last freeze; always fewer than `CHUNK_EPOCHS`.
    tail: Vec<EpochSummary>,
}

impl History {
    /// The number of epochs recorded.
    pub(crate) fn len(&self) -> usize {
        self.chunks.len() * CHUNK_EPOCHS + self.tail.len()
    }

    /// Epoch `i`, if recorded.
    pub(crate) fn get(&self, i: usize) -> Option<&EpochSummary> {
        match self.chunks.get(i / CHUNK_EPOCHS) {
            Some(chunk) => chunk.epochs.get(i % CHUNK_EPOCHS),
            None => self.tail.get(i - self.chunks.len() * CHUNK_EPOCHS),
        }
    }

    /// Append one epoch, freezing the tail into a chunk once it is full.
    pub(crate) fn push(&mut self, epoch: EpochSummary) {
        self.tail.push(epoch);
        if self.tail.len() == CHUNK_EPOCHS {
            let epochs = std::mem::take(&mut self.tail);
            let digest = checksum64(&[&CHUNK_MAGIC, &VERSION.to_le_bytes(), &encode(&epochs)]);
            let chunk = Arc::new(Chunk { epochs, digest, saved_in: Mutex::new(None) });
            Arc::make_mut(&mut self.chunks).push(chunk);
        }
    }

    /// Every epoch, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &EpochSummary> {
        self.chunks.iter().flat_map(|chunk| chunk.epochs.iter()).chain(&self.tail)
    }

    /// Every epoch in one vector, moving the chunks no checkpoint shares.
    pub(crate) fn into_vec(self) -> Vec<EpochSummary> {
        let mut out = Vec::with_capacity(self.len());
        let chunks = Arc::try_unwrap(self.chunks).unwrap_or_else(|shared| shared.to_vec());
        for chunk in chunks {
            match Arc::try_unwrap(chunk) {
                Ok(chunk) => out.extend(chunk.epochs),
                Err(shared) => out.extend_from_slice(&shared.epochs),
            }
        }
        out.extend(self.tail);
        out
    }

    /// The history's part of a checkpoint frame: the digest of every
    /// frozen chunk, then the tail inline.
    pub(crate) fn put_durable(&self, out: &mut Vec<u8>) {
        put_u64(out, self.chunks.len() as u64);
        for chunk in self.chunks.iter() {
            put_u64(out, chunk.digest);
        }
        put_u64(out, self.tail.len() as u64);
        for e in &self.tail {
            put_epoch(out, e);
        }
    }

    /// Write the file of every chunk not yet in `dir`. Chunks are written
    /// oldest first, and each records `dir` only once its file is durable,
    /// so the newest chunk already recorded there vouches for every older
    /// one: the scan back stops at it, and a save costs O(new chunks).
    pub(crate) fn save_chunks(&self, dir: &Path, fingerprint: u64) -> Result<(), RestoreError> {
        let first_new = self
            .chunks
            .iter()
            .rposition(|chunk| chunk.saved_in().as_deref() == Some(dir))
            .map_or(0, |k| k + 1);
        for (k, chunk) in self.chunks.iter().enumerate().skip(first_new) {
            let path = chunk_path(dir, fingerprint, k, chunk.digest);
            write_frame(&path, CHUNK_MAGIC, &encode(&chunk.epochs))?;
            *chunk.saved_in() = Some(dir.to_path_buf());
        }
        Ok(())
    }

    /// Decode the digests and the tail that [`History::put_durable`]
    /// wrote; [`History::restore`] then reads the chunks.
    pub(crate) fn read_durable(dec: &mut Dec<'_>) -> Result<(Vec<u64>, Vec<EpochSummary>), String> {
        let n_chunks = dec.len(8)?;
        let digests = (0..n_chunks).map(|_| dec.u64()).collect::<Result<Vec<_>, _>>()?;
        let n_tail = dec.len(1)?;
        if n_tail >= CHUNK_EPOCHS {
            return Err(format!("history tail of {n_tail} epochs, chunks hold {CHUNK_EPOCHS}"));
        }
        let tail = (0..n_tail).map(|_| read_epoch(dec)).collect::<Result<Vec<_>, _>>()?;
        Ok((digests, tail))
    }

    /// Rebuild a history from chunk files in `dir`, each checked against
    /// its digest, and the decoded `tail`. A missing chunk is
    /// [`RestoreError::Io`]; a corrupt, truncated or foreign one fails by
    /// kind, and one whose checksum is not its digest is
    /// [`RestoreError::BadChecksum`].
    pub(crate) fn restore(
        dir: &Path,
        fingerprint: u64,
        digests: &[u64],
        tail: Vec<EpochSummary>,
    ) -> Result<History, RestoreError> {
        let chunks: Vec<_> = digests
            .iter()
            .enumerate()
            .map(|(k, &digest)| {
                let path = chunk_path(dir, fingerprint, k, digest);
                let (payload, checksum) = read_frame(&path, CHUNK_MAGIC)?;
                if checksum != digest {
                    return Err(RestoreError::BadChecksum);
                }
                let epochs = decode(&payload).map_err(RestoreError::Malformed)?;
                let saved_in = Mutex::new(Some(dir.to_path_buf()));
                Ok(Arc::new(Chunk { epochs, digest, saved_in }))
            })
            .collect::<Result<_, _>>()?;
        Ok(History { chunks: Arc::new(chunks), tail })
    }
}
