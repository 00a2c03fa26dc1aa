//! A tenant's durable log: full checkpoint frames, each followed by a
//! journal segment of the epochs served after it.
//!
//! A watchdog tick appends the epochs served since the previous tick to
//! the newest segment, as [`JournalRecord`]s, and syncs them with one
//! `fdatasync`. A full frame ([`hbn_scenario::SessionCheckpoint::save`])
//! is written at the first supervision step, whenever the newest segment
//! has grown to the newest frame's size, and on
//! [`crate::Server::checkpoint_now`]. Each frame closes the segment before
//! it at the frame's epoch and starts a new one, so segment k holds the
//! epochs from frame k to frame k+1, and rotation deletes a segment
//! together with its frame. Recovery restores the newest readable frame
//! and replays every segment after it, then the entries not yet durable.

use crate::config::ServerConfig;
use crate::error::ServerError;
use crate::tenant::{relock, ServeMode, TenantShared};
use hbn_scenario::{JournalRecord, RestoreError, Session};
use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;

/// Checkpoint frames kept per tenant (the newest 2), each with the
/// journal segment that follows it, so a corrupt newest frame can fall
/// back to the one before and replay the segments after it. Rotation
/// deletes a frame together with its segment; the history chunk files
/// are shared by every retained frame and stay.
const FRAMES_RETAINED: usize = 2;

/// One retained frame and the journal segment that follows it.
struct Frame {
    /// Epoch the frame restores to.
    epoch: usize,
    path: PathBuf,
    /// Size of the frame file: the newest segment rotates once it is as
    /// large.
    bytes: u64,
    segment: PathBuf,
    /// Bytes of whole, synced records in the segment.
    segment_bytes: u64,
    /// The epoch after the segment's last record.
    end: usize,
}

/// What a tenant has on disk. The lock around it also serializes whole
/// supervision steps (ticks, checkpoints, recovery) on the tenant.
#[derive(Default)]
pub(crate) struct Durable {
    /// Retained frames, oldest first.
    frames: Vec<Frame>,
    /// Append handle of the newest segment: `None` before the first frame
    /// and after a failed append whose truncation failed too. Either way
    /// the next step writes a frame.
    append: Option<File>,
    /// Reused encoding of the records one append writes.
    buf: Vec<u8>,
}

impl Durable {
    /// The epochs on disk: the newest frame's plus its segment's.
    pub(crate) fn durable_epochs(&self) -> usize {
        self.frames.last().map_or(0, |f| f.end)
    }

    /// Append the journal entries below epoch `upto` to the newest segment
    /// and sync it, then drop them from memory. A failed append cuts the
    /// segment back to its last whole record.
    fn append(&mut self, shared: &TenantShared, upto: usize) -> Result<(), ServerError> {
        let (Some(file), Some(newest)) = (self.append.as_mut(), self.frames.last_mut()) else {
            return Ok(());
        };
        self.buf.clear();
        let mut n = 0;
        for record in relock(&shared.journal).iter().take_while(|r| r.epoch < upto) {
            record.encode(&mut self.buf);
            n += 1;
        }
        if n == 0 {
            return Ok(());
        }
        if let Err(e) = file.write_all(&self.buf).and_then(|()| file.sync_data()) {
            let whole = newest.segment_bytes;
            if file.set_len(whole).and_then(|()| file.seek(SeekFrom::Start(whole))).is_err() {
                self.append = None;
            }
            return Err(RestoreError::Io(e).into());
        }
        newest.segment_bytes += self.buf.len() as u64;
        newest.end += n;
        relock(&shared.journal).drain(..n);
        Ok(())
    }

    /// Write a full frame at the session's epoch, unless the newest frame
    /// is already there; returns the newest frame's path, `None` when the
    /// tenant has no live session (mid-recovery).
    fn frame(
        &mut self,
        cfg: &ServerConfig,
        shared: &TenantShared,
    ) -> Result<Option<PathBuf>, ServerError> {
        let cp = {
            let slot = relock(&shared.session);
            let Some(sess) = slot.as_ref() else {
                return Ok(None);
            };
            match self.frames.last() {
                Some(newest) if newest.epoch == sess.epoch_index() => {
                    return Ok(Some(newest.path.clone()));
                }
                _ => sess.checkpoint(),
            }
        };
        let epoch = cp.epoch_index();
        // Close the newest segment at this frame's epoch, so that falling
        // back to the frame before replays up to this one.
        self.append(shared, epoch)?;
        let path = cfg.checkpoint_dir.join(format!("{}_e{epoch}.hbnc", shared.name));
        let segment = path.with_extension("hbnj");
        // Created before the frame: the save's directory sync then makes
        // the new segment's entry durable too.
        let file = File::create(&segment).map_err(RestoreError::Io)?;
        let saved = cp.save(&path).and_then(|()| Ok(std::fs::metadata(&path)?.len()));
        let bytes = match saved {
            Ok(bytes) => bytes,
            Err(e) => {
                let _ = std::fs::remove_file(&segment);
                let _ = std::fs::remove_file(&path);
                return Err(e.into());
            }
        };
        self.frames.push(Frame {
            epoch,
            path: path.clone(),
            bytes,
            segment,
            segment_bytes: 0,
            end: epoch,
        });
        self.append = Some(file);
        while self.frames.len() > FRAMES_RETAINED {
            let old = self.frames.remove(0);
            let _ = std::fs::remove_file(&old.path);
            let _ = std::fs::remove_file(&old.segment);
        }
        // Whatever the newest segment did not take is in the frame.
        relock(&shared.journal).retain(|r| r.epoch >= epoch);
        Ok(Some(path))
    }
}

/// The watchdog's step over a healthy tenant: a full frame when one is
/// due, otherwise one append of the epochs served since the last step.
pub(crate) fn tick(cfg: &ServerConfig, shared: &TenantShared) -> Result<(), ServerError> {
    let mut d = relock(&shared.durable);
    let frame_due = match (d.frames.last(), &d.append) {
        (Some(newest), Some(_)) => newest.segment_bytes >= newest.bytes,
        _ => true,
    };
    let step =
        if frame_due { d.frame(cfg, shared).map(drop) } else { d.append(shared, usize::MAX) };
    count(shared, &d, step.is_ok());
    step
}

/// A full frame now ([`crate::Server::checkpoint_now`]).
pub(crate) fn checkpoint(
    cfg: &ServerConfig,
    shared: &TenantShared,
) -> Result<Option<PathBuf>, ServerError> {
    let mut d = relock(&shared.durable);
    let step = d.frame(cfg, shared);
    count(shared, &d, step.is_ok());
    step
}

fn count(shared: &TenantShared, d: &Durable, ok: bool) {
    let mut m = relock(&shared.metrics);
    if ok {
        m.durable_epochs = d.durable_epochs() as u64;
    } else {
        m.checkpoint_failures += 1;
    }
}

/// Rebuild the tenant's session: the newest readable frame (falling back
/// to older ones, or to a fresh session when no frame was ever written),
/// every journal segment from that frame on, then the entries not yet
/// durable. Returns the session and the number of epochs replayed.
pub(crate) fn restore(
    cfg: &ServerConfig,
    shared: &TenantShared,
    d: &Durable,
) -> Result<(Session, u64), ServerError> {
    let lost = |why: String| ServerError::TenantLost { tenant: shared.name.clone(), why };
    let mut restored = None;
    let mut last_err = String::from("no durable checkpoint on disk");
    for (i, f) in d.frames.iter().enumerate().rev() {
        match Session::restore_from_file(&shared.spec, &f.path) {
            Ok(s) => {
                restored = Some((i, s));
                break;
            }
            Err(e) => last_err = format!("{}: {e}", f.path.display()),
        }
    }
    let (from, mut sess) = match restored {
        Some(found) => found,
        // Never checkpointed: the journal in memory is complete from epoch
        // 0, so a fresh session replays the whole history.
        None if d.frames.is_empty() => (0, Session::new(&shared.spec)),
        None => return Err(lost(last_err)),
    };
    let start = sess.epoch_index();
    let replay = |sess: &mut Session, record: &JournalRecord| {
        if record.epoch != sess.epoch_index() {
            return Err(lost(format!(
                "journal resumes at epoch {} after epoch {}",
                record.epoch,
                sess.epoch_index()
            )));
        }
        let mode = if record.degraded { ServeMode::Degraded } else { ServeMode::Exact };
        sess.set_replay_override(mode.kernel(cfg.degraded_sample_every));
        sess.push_epoch(&record.batch)
            .map(drop)
            .map_err(|e| lost(format!("journal replay failed at epoch {}: {e}", record.epoch)))
    };
    for f in &d.frames[from..] {
        let records =
            read_segment(shared, f).map_err(|e| lost(format!("{}: {e}", f.segment.display())))?;
        for record in &records {
            replay(&mut sess, record)?;
        }
        if sess.epoch_index() != f.end {
            return Err(lost(format!(
                "{}: its records end at epoch {}, not at epoch {}",
                f.segment.display(),
                sess.epoch_index(),
                f.end
            )));
        }
    }
    for record in relock(&shared.journal).iter() {
        replay(&mut sess, record)?;
    }
    let replayed = (sess.epoch_index() - start) as u64;
    Ok((sess, replayed))
}

/// The synced records of `f`'s segment, the first for `f`'s epoch.
fn read_segment(shared: &TenantShared, f: &Frame) -> Result<Vec<JournalRecord>, RestoreError> {
    let bytes = std::fs::read(&f.segment)?;
    let synced =
        usize::try_from(f.segment_bytes).ok().and_then(|n| bytes.get(..n)).ok_or_else(|| {
            RestoreError::Malformed(format!(
                "journal segment of {} bytes, {} were synced",
                bytes.len(),
                f.segment_bytes
            ))
        })?;
    JournalRecord::decode_segment(synced, f.epoch, &shared.net, shared.max_objects)
}
