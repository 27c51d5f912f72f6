//! Write-ahead log for the `pxml serve` mutation path.
//!
//! A daemon that applies §6.1 mutations in registry memory loses every
//! acknowledged write on a crash. This module supplies the durability
//! layer: an **append-only, CRC-32-framed mutation journal** whose
//! payloads are the PR 6 ops-file grammar (`pxml_core::render_ops` /
//! `pxml_core::parse_ops`), so the recovery path replays exactly the
//! text the daemon validated live.
//!
//! ## Segment layout
//!
//! One segment file per instance (`<name>.wal`):
//!
//! ```text
//! header  (28 bytes):
//!   [8]  magic  "PXWALSEG"
//!   [4]  u32 LE format version (1)
//!   [8]  u64 LE generation — monotone, bumped at every rotation
//!   [4]  u32 LE snapshot CRC — crc32 of the base snapshot file bytes
//!   [4]  u32 LE header CRC — crc32 of the 24 bytes above
//! records (repeated):
//!   [4]  u32 LE payload length (≤ MAX_RECORD_BYTES)
//!   [8]  u64 LE sequence number (0, 1, 2, … within the segment)
//!   [n]  payload — UTF-8 ops text in the `pxml mutate` grammar
//!   [4]  u32 LE record CRC — crc32 over length ‖ seq ‖ payload
//! ```
//!
//! The **generation header binds each segment to its base snapshot**: a
//! segment only replays against the exact file bytes it journalled on
//! top of. If the snapshot on disk no longer hashes to the header's
//! CRC (an operator replaced it out of band, or a checkpoint crashed
//! between the snapshot rename and the segment rotation), the segment
//! is quarantined as `<name>.wal.orphaned` and a fresh one is started —
//! never replayed against the wrong base.
//!
//! ## Torn tails
//!
//! A crash mid-append leaves a torn record at the end of the segment.
//! [`recover_segment`] reads the **longest valid prefix** — records
//! with an intact CRC and contiguous sequence numbers — and reports the
//! byte offset where validity ended instead of erroring; the writer
//! resumes by truncating the tear away. A corrupt *header* cannot be
//! truncated around (nothing after it can be trusted) and is a typed
//! error, which callers treat as "orphan and start fresh".
//!
//! ## Durability policies
//!
//! [`FsyncPolicy`] decides when appends reach stable storage:
//! `Always` fsyncs every record before the append returns (an
//! acknowledged mutation survives `kill -9`), `Batch(n)` fsyncs every
//! n-th record (bounded loss window, much cheaper), `Os` leaves
//! flushing to the kernel (loss window = the page-cache flush interval).

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::crc::crc32;
use crate::error::{Result, StorageError};

/// Segment file magic.
pub const WAL_MAGIC: &[u8; 8] = b"PXWALSEG";
/// Current segment format version.
pub const WAL_VERSION: u32 = 1;
/// Header size in bytes.
pub const WAL_HEADER_BYTES: usize = 28;
/// Per-record frame overhead (length + seq + CRC).
pub const RECORD_OVERHEAD: usize = 16;
/// Refuse record payloads above 16 MiB before allocating — a torn
/// length field must never balloon memory.
pub const MAX_RECORD_BYTES: u32 = 16 * 1024 * 1024;

/// When appends are forced to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync before every append returns: an acknowledged mutation
    /// survives `kill -9`.
    Always,
    /// fsync every n-th append: at most n−1 acknowledged mutations can
    /// be lost to a crash.
    Batch(u32),
    /// Never fsync explicitly; the kernel flushes on its own schedule.
    Os,
}

impl FsyncPolicy {
    /// Parses `always` / `batch:N` / `os` (the `--fsync` flag grammar).
    pub fn parse(s: &str) -> std::result::Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "os" => Ok(FsyncPolicy::Os),
            other => match other.strip_prefix("batch:") {
                Some(n) => {
                    let n: u32 =
                        n.parse().map_err(|_| format!("bad batch size in --fsync {other:?}"))?;
                    if n == 0 {
                        return Err("--fsync batch:0 is meaningless; use batch:1 or always".into());
                    }
                    Ok(FsyncPolicy::Batch(n))
                }
                None => Err(format!("--fsync wants always|batch:N|os, got {other:?}")),
            },
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Batch(n) => write!(f, "batch:{n}"),
            FsyncPolicy::Os => write!(f, "os"),
        }
    }
}

/// Monotone WAL counters, shared so a metrics exporter can read them
/// while the writer is locked by a mutation.
#[derive(Debug, Default)]
pub struct WalCounters {
    /// Records appended (across rotations).
    pub appends: AtomicU64,
    /// Bytes appended, frame overhead included.
    pub appended_bytes: AtomicU64,
    /// Explicit fsync calls issued by the policy.
    pub fsyncs: AtomicU64,
    /// Wall-clock nanoseconds spent inside fsync.
    pub fsync_nanos: AtomicU64,
    /// Records replayed at attach time (boot or reload).
    pub replayed: AtomicU64,
    /// Segment rotations performed (checkpoints).
    pub rotations: AtomicU64,
}

/// The decoded state of one segment file.
#[derive(Debug)]
pub struct RecoveredSegment {
    /// The segment's generation (from the header).
    pub generation: u64,
    /// CRC-32 of the base snapshot file this segment journals on top of.
    pub snapshot_crc: u32,
    /// The longest valid record prefix, in order.
    pub records: Vec<String>,
    /// Byte offset where validity ended — the resume point. Equals the
    /// file length when the segment is wholly intact.
    pub valid_len: u64,
    /// End offset of each valid record (parallel to `records`); useful
    /// for tests that tear the file at exact record boundaries.
    pub offsets: Vec<u64>,
    /// True when bytes past `valid_len` existed and were disregarded.
    pub torn: bool,
}

fn header_bytes(generation: u64, snapshot_crc: u32) -> [u8; WAL_HEADER_BYTES] {
    let mut h = [0u8; WAL_HEADER_BYTES];
    h[..8].copy_from_slice(WAL_MAGIC);
    h[8..12].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h[12..20].copy_from_slice(&generation.to_le_bytes());
    h[20..24].copy_from_slice(&snapshot_crc.to_le_bytes());
    let crc = crc32(&h[..24]);
    h[24..28].copy_from_slice(&crc.to_le_bytes());
    h
}

fn record_crc(len: u32, seq: u64, payload: &[u8]) -> u32 {
    let mut framed = Vec::with_capacity(12 + payload.len());
    framed.extend_from_slice(&len.to_le_bytes());
    framed.extend_from_slice(&seq.to_le_bytes());
    framed.extend_from_slice(payload);
    crc32(&framed)
}

fn record_frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    let len = payload.len() as u32;
    let mut frame = Vec::with_capacity(RECORD_OVERHEAD + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&record_crc(len, seq, payload).to_le_bytes());
    frame
}

/// Reads a segment file, returning the longest valid record prefix.
///
/// Torn or corrupted **records** end the prefix (never an error); a
/// corrupted **header** is [`StorageError::Corrupt`]-class failure
/// surfaced as [`StorageError::Binary`], because nothing after an
/// untrusted header can be replayed safely.
pub fn recover_segment(path: &Path) -> Result<RecoveredSegment> {
    let bytes = std::fs::read(path)?;
    recover_segment_bytes(&bytes)
}

/// [`recover_segment`] over an in-memory image (the fuzz harness's
/// entry point — no filesystem round-trip per mutation).
pub fn recover_segment_bytes(bytes: &[u8]) -> Result<RecoveredSegment> {
    if bytes.len() < WAL_HEADER_BYTES {
        return Err(StorageError::Binary(format!(
            "wal segment holds {} bytes, shorter than the {WAL_HEADER_BYTES}-byte header",
            bytes.len()
        )));
    }
    if &bytes[..8] != WAL_MAGIC {
        return Err(StorageError::Binary("wal segment magic mismatch".into()));
    }
    let le_u32 = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let le_u64 = |b: &[u8]| {
        u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
    };
    let version = le_u32(&bytes[8..12]);
    if version != WAL_VERSION {
        return Err(StorageError::Version { found: version, supported: WAL_VERSION });
    }
    let stored_crc = le_u32(&bytes[24..28]);
    let actual_crc = crc32(&bytes[..24]);
    if stored_crc != actual_crc {
        return Err(StorageError::Corrupt { expected: stored_crc, actual: actual_crc });
    }
    let generation = le_u64(&bytes[12..20]);
    let snapshot_crc = le_u32(&bytes[20..24]);

    let mut records = Vec::new();
    let mut offsets = Vec::new();
    let mut pos = WAL_HEADER_BYTES;
    let mut next_seq = 0u64;
    loop {
        // Anything that fails from here on is a torn tail: stop at the
        // last fully-valid record instead of erroring.
        if bytes.len() - pos < RECORD_OVERHEAD {
            break;
        }
        let len = le_u32(&bytes[pos..pos + 4]);
        if len > MAX_RECORD_BYTES {
            break;
        }
        let total = RECORD_OVERHEAD + len as usize;
        if bytes.len() - pos < total {
            break;
        }
        let seq = le_u64(&bytes[pos + 4..pos + 12]);
        if seq != next_seq {
            break;
        }
        let payload = &bytes[pos + 12..pos + 12 + len as usize];
        let stored = le_u32(&bytes[pos + 12 + len as usize..pos + total]);
        if stored != record_crc(len, seq, payload) {
            break;
        }
        let Ok(text) = std::str::from_utf8(payload) else { break };
        records.push(text.to_string());
        pos += total;
        offsets.push(pos as u64);
        next_seq += 1;
    }
    Ok(RecoveredSegment {
        generation,
        snapshot_crc,
        records,
        valid_len: pos as u64,
        offsets,
        torn: pos < bytes.len(),
    })
}

/// What [`Wal::attach`] did with the segment it found (surfaced so the
/// daemon can log it and tests can assert on it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttachOutcome {
    /// No segment existed; a fresh one was created.
    Fresh,
    /// An intact (possibly torn-tailed) segment matched the snapshot;
    /// its records are ready to replay.
    Resumed {
        /// Records recovered for replay.
        records: usize,
        /// True when a torn tail was truncated away.
        torn: bool,
    },
    /// The segment was unreadable or bound to a different snapshot; it
    /// was renamed aside and a fresh segment started.
    Orphaned {
        /// Where the old segment went.
        quarantined: PathBuf,
    },
}

/// One instance's journal: the live segment plus append/rotate state.
///
/// The daemon holds one `Wal` per instance behind the slot's mutation
/// lock; every `MUTATE` appends **before** applying, `CHECKPOINT`
/// snapshots and rotates, and boot/`RELOAD` replay through
/// [`Wal::attach`] / [`Wal::live_records`].
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    policy: FsyncPolicy,
    generation: u64,
    /// CRC-32 of the base snapshot the live segment is bound to (the
    /// value in its header).
    snapshot_crc: u32,
    next_seq: u64,
    unsynced: u32,
    /// End offset of the last fully-appended record: where a failed
    /// append truncates back to, so partial frame bytes can never sit
    /// in front of later acknowledged records.
    good_len: u64,
    /// Set when a failed append left bytes that could not be truncated
    /// away. Appends into a poisoned segment are refused (recovery's
    /// prefix scan would silently discard them); a rotation replaces
    /// the file wholesale and clears the poison.
    poisoned: bool,
    counters: Arc<WalCounters>,
}

fn create_segment(path: &Path, generation: u64, snapshot_crc: u32) -> Result<File> {
    let mut f = OpenOptions::new().create(true).write(true).truncate(true).open(path)?;
    f.write_all(&header_bytes(generation, snapshot_crc))?;
    // The header must be durable before any append claims to be: a
    // record without its header is unreadable.
    f.sync_all()?;
    Ok(f)
}

impl Wal {
    /// Opens (or creates) the journal for `name` under `dir`, binding it
    /// to a base snapshot whose file bytes hash to `snapshot_crc`.
    ///
    /// Returns the attach outcome plus the records to replay (empty
    /// unless an intact matching segment was resumed). A segment bound
    /// to a *different* snapshot CRC is quarantined, never replayed.
    pub fn attach(
        dir: &Path,
        name: &str,
        snapshot_crc: u32,
        policy: FsyncPolicy,
    ) -> Result<(Wal, AttachOutcome, Vec<String>)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.wal"));
        // A crash mid-rotation can leave a stale temp segment behind;
        // it was never renamed into place, so it never held acknowledged
        // state.
        let _ = std::fs::remove_file(segment_tmp_path(&path));

        if path.exists() {
            match recover_segment(&path) {
                Ok(seg) if seg.snapshot_crc == snapshot_crc => {
                    let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
                    if seg.torn {
                        // Truncate the tear so resumed appends extend the
                        // valid prefix, not a garbage tail.
                        file.set_len(seg.valid_len)?;
                        file.sync_all()?;
                    }
                    file.seek(SeekFrom::Start(seg.valid_len))?;
                    let outcome =
                        AttachOutcome::Resumed { records: seg.records.len(), torn: seg.torn };
                    let wal = Wal {
                        path,
                        file,
                        policy,
                        generation: seg.generation,
                        snapshot_crc: seg.snapshot_crc,
                        next_seq: seg.records.len() as u64,
                        unsynced: 0,
                        good_len: seg.valid_len,
                        poisoned: false,
                        counters: Arc::new(WalCounters::default()),
                    };
                    wal.counters.replayed.fetch_add(seg.records.len() as u64, Ordering::Relaxed);
                    return Ok((wal, outcome, seg.records));
                }
                Ok(seg) => {
                    // Intact segment, wrong base: the snapshot moved
                    // underneath it (out-of-band replace, or a crash in
                    // the checkpoint window after the snapshot rename).
                    // Those records are either already inside the new
                    // snapshot or journalled against bytes that no
                    // longer exist — quarantine, never guess.
                    let quarantined = orphan_path(&path, seg.generation);
                    std::fs::rename(&path, &quarantined)?;
                    let wal =
                        Self::fresh(&path, seg.generation + 1, snapshot_crc, policy)?;
                    return Ok((wal, AttachOutcome::Orphaned { quarantined }, Vec::new()));
                }
                Err(_) => {
                    let quarantined = orphan_path(&path, 0);
                    std::fs::rename(&path, &quarantined)?;
                    let wal = Self::fresh(&path, 1, snapshot_crc, policy)?;
                    return Ok((wal, AttachOutcome::Orphaned { quarantined }, Vec::new()));
                }
            }
        }
        let wal = Self::fresh(&path, 1, snapshot_crc, policy)?;
        Ok((wal, AttachOutcome::Fresh, Vec::new()))
    }

    fn fresh(path: &Path, generation: u64, snapshot_crc: u32, policy: FsyncPolicy) -> Result<Wal> {
        let file = create_segment(path, generation, snapshot_crc)?;
        Ok(Wal {
            path: path.to_path_buf(),
            file,
            policy,
            generation,
            snapshot_crc,
            next_seq: 0,
            unsynced: 0,
            good_len: WAL_HEADER_BYTES as u64,
            poisoned: false,
            counters: Arc::new(WalCounters::default()),
        })
    }

    /// The live segment's generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// CRC-32 of the base snapshot the live segment is bound to. A
    /// caller recovering a slot compares this against the on-disk file
    /// hash to tell "snapshot unchanged, replay the tail" apart from
    /// "a checkpoint snapshotted but never rotated".
    pub fn snapshot_crc(&self) -> u32 {
        self.snapshot_crc
    }

    /// True when a failed append left bytes that could not be truncated
    /// away; appends are refused until a rotation replaces the segment.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The segment file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Shared monotone counters (appends, fsyncs, fsync nanos, …).
    pub fn counters(&self) -> Arc<WalCounters> {
        Arc::clone(&self.counters)
    }

    /// Ops records appended (or recovered) since the last rotation —
    /// the tail `RELOAD` must replay on top of the on-disk snapshot.
    /// Read back from the segment file rather than kept in memory, so
    /// the journal's footprint does not grow with every append. Only
    /// the first `next_seq` records count: bytes past them belong to an
    /// append that was refused.
    pub fn live_records(&self) -> Result<Vec<String>> {
        let mut seg = recover_segment(&self.path)?;
        if (seg.records.len() as u64) < self.next_seq {
            return Err(StorageError::Binary(format!(
                "wal segment holds {} readable records, {} were acknowledged",
                seg.records.len(),
                self.next_seq
            )));
        }
        seg.records.truncate(self.next_seq as usize);
        Ok(seg.records)
    }

    /// Appends one ops-text record, honouring the fsync policy, and
    /// returns its sequence number. On any error the caller must treat
    /// the mutation as **refused**: nothing may apply that did not land
    /// in the journal first.
    ///
    /// A failed write is physically rolled back — the file is truncated
    /// to the last fully-appended record — so partial frame bytes (an
    /// ENOSPC mid-`write_all`, say) can never sit in the middle of the
    /// segment where recovery's prefix scan would stop dead in front of
    /// later acknowledged records. If even that truncation fails the
    /// segment is poisoned and every further append is refused until a
    /// rotation replaces it.
    pub fn append(&mut self, ops_text: &str) -> Result<u64> {
        if self.poisoned {
            return Err(StorageError::Binary(
                "wal segment is poisoned (an earlier failed append could not be truncated \
                 away); checkpoint to rotate onto a fresh segment"
                    .into(),
            ));
        }
        let payload = ops_text.as_bytes();
        if payload.len() > MAX_RECORD_BYTES as usize {
            return Err(StorageError::Binary(format!(
                "wal record of {} bytes exceeds the {MAX_RECORD_BYTES}-byte ceiling",
                payload.len()
            )));
        }
        let seq = self.next_seq;
        let frame = record_frame(seq, payload);
        if let Err(e) = self.file.write_all(&frame) {
            self.rewind_to_good();
            return Err(e.into());
        }

        let must_sync = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Batch(n) => self.unsynced + 1 >= n,
            FsyncPolicy::Os => false,
        };
        if must_sync {
            if let Err(e) = self.sync() {
                // The frame may or may not have reached the platter; the
                // caller refuses the mutation either way, so the record
                // must not survive into recovery.
                self.rewind_to_good();
                return Err(e);
            }
        } else {
            self.unsynced += 1;
        }
        self.next_seq += 1;
        self.good_len += frame.len() as u64;
        self.counters.appends.fetch_add(1, Ordering::Relaxed);
        self.counters.appended_bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
        Ok(seq)
    }

    /// Truncates the segment back to the last fully-appended record and
    /// re-seats the write cursor there; poisons the segment if either
    /// step fails (a bare `set_len` without the seek would make the next
    /// append punch a zero-filled hole — garbage mid-file again).
    fn rewind_to_good(&mut self) {
        let restored = self.file.set_len(self.good_len).is_ok()
            && self.file.seek(SeekFrom::Start(self.good_len)).is_ok();
        if restored {
            // Best-effort durability for the truncation itself. Even
            // unsynced, the moved cursor already keeps later appends
            // contiguous with the valid prefix, and a crash-surviving
            // stale tail is end-of-file garbage recovery truncates.
            let _ = self.file.sync_data();
        } else {
            self.poisoned = true;
        }
    }

    /// Drops any bytes past the last fully-appended record — the repair
    /// a caller runs when a panic may have interrupted an [`Wal::append`]
    /// midway (the file can hold a partial frame the normal error path
    /// never got to roll back). Idempotent; a no-op on a clean segment.
    pub fn repair(&mut self) {
        if !self.poisoned {
            self.rewind_to_good();
        }
    }

    /// Forces pending appends to stable storage (also used before a
    /// rotation, so no acknowledged record is lost to the segment swap).
    pub fn sync(&mut self) -> Result<()> {
        let t = Instant::now();
        self.file.sync_data()?;
        self.counters.fsync_nanos.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.unsynced = 0;
        Ok(())
    }

    /// Rotates to a fresh segment bound to `new_snapshot_crc`,
    /// atomically: the new segment is written beside the old one and
    /// renamed over it, so a crash leaves either the old journal (whose
    /// records the just-written snapshot already contains — they are
    /// quarantined at next attach by the CRC binding) or the new empty
    /// one. Call **after** the snapshot itself is durably on disk.
    /// Clears a poisoned state: the suspect file is gone wholesale.
    pub fn rotate(&mut self, new_snapshot_crc: u32) -> Result<()> {
        self.rotate_with_tail(new_snapshot_crc, &[])
    }

    /// [`Wal::rotate`] that additionally re-journals `tail` as the new
    /// segment's opening records. This is how `RELOAD` **rebinds** the
    /// journal when the on-disk snapshot changed underneath it: the
    /// fresh segment binds to the snapshot actually being served and
    /// carries the acknowledged tail, so the next boot replays exactly
    /// what the live engine replayed (instead of quarantining a
    /// stale-bound segment and silently losing fsynced mutations).
    ///
    /// The new segment is fully written and fsynced *beside* the live
    /// one before the rename, so a failure at any point leaves the old
    /// journal untouched and the `Wal` state unchanged.
    pub fn rotate_with_tail(&mut self, new_snapshot_crc: u32, tail: &[String]) -> Result<()> {
        if !self.poisoned {
            // Flush the outgoing segment first so its acknowledged
            // records are durable if the swap below fails midway. A
            // poisoned segment is being abandoned precisely because its
            // file state is untrustworthy — don't insist on syncing it.
            self.sync()?;
        }
        let tmp = segment_tmp_path(&self.path);
        let next_gen = self.generation + 1;
        let built = (|| -> Result<(File, u64)> {
            let mut file = create_segment(&tmp, next_gen, new_snapshot_crc)?;
            let mut len = WAL_HEADER_BYTES as u64;
            for (seq, rec) in tail.iter().enumerate() {
                let frame = record_frame(seq as u64, rec.as_bytes());
                file.write_all(&frame)?;
                len += frame.len() as u64;
            }
            if !tail.is_empty() {
                file.sync_all()?;
            }
            Ok((file, len))
        })();
        let (file, len) = match built {
            Ok(v) => v,
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(e);
            }
        };
        if let Err(e) = std::fs::rename(&tmp, &self.path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        self.file = file;
        self.generation = next_gen;
        self.snapshot_crc = new_snapshot_crc;
        self.next_seq = tail.len() as u64;
        self.unsynced = 0;
        self.good_len = len;
        self.poisoned = false;
        self.counters.rotations.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

fn segment_tmp_path(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".rotate.tmp");
    PathBuf::from(s)
}

fn orphan_path(path: &Path, generation: u64) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(format!(".orphaned-g{generation}-p{}", std::process::id()));
    PathBuf::from(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pxml-wal-unit").join(test);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fsync_policy_grammar() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("os"), Ok(FsyncPolicy::Os));
        assert_eq!(FsyncPolicy::parse("batch:64"), Ok(FsyncPolicy::Batch(64)));
        assert!(FsyncPolicy::parse("batch:0").is_err());
        assert!(FsyncPolicy::parse("batch:x").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
        for p in [FsyncPolicy::Always, FsyncPolicy::Batch(7), FsyncPolicy::Os] {
            assert_eq!(FsyncPolicy::parse(&p.to_string()), Ok(p));
        }
    }

    #[test]
    fn append_recover_round_trip() {
        let dir = scratch("round_trip");
        let (mut wal, outcome, replay) =
            Wal::attach(&dir, "inst", 0xAB, FsyncPolicy::Always).unwrap();
        assert_eq!(outcome, AttachOutcome::Fresh);
        assert!(replay.is_empty());
        for i in 0..5 {
            wal.append(&format!("SETEDGE R B{i} PROB 0.5")).unwrap();
        }
        assert_eq!(wal.live_records().unwrap().len(), 5);
        let seg = recover_segment(wal.path()).unwrap();
        assert_eq!(seg.generation, 1);
        assert_eq!(seg.snapshot_crc, 0xAB);
        assert!(!seg.torn);
        assert_eq!(seg.records.len(), 5);
        assert_eq!(seg.records[3], "SETEDGE R B3 PROB 0.5");
        assert_eq!(wal.counters().appends.load(Ordering::Relaxed), 5);
        assert!(wal.counters().fsyncs.load(Ordering::Relaxed) >= 5);
    }

    #[test]
    fn reattach_resumes_and_replays() {
        let dir = scratch("reattach");
        let (mut wal, _, _) = Wal::attach(&dir, "inst", 7, FsyncPolicy::Batch(2)).unwrap();
        wal.append("a").unwrap();
        wal.append("b").unwrap();
        drop(wal);
        let (mut wal, outcome, replay) =
            Wal::attach(&dir, "inst", 7, FsyncPolicy::Batch(2)).unwrap();
        assert_eq!(outcome, AttachOutcome::Resumed { records: 2, torn: false });
        assert_eq!(replay, vec!["a".to_string(), "b".to_string()]);
        // Appends continue the sequence; a second recovery sees all.
        wal.append("c").unwrap();
        drop(wal);
        let seg = recover_segment(&dir.join("inst.wal")).unwrap();
        assert_eq!(seg.records, vec!["a", "b", "c"]);
    }

    #[test]
    fn torn_tail_truncates_to_longest_valid_prefix() {
        let dir = scratch("torn");
        let (mut wal, _, _) = Wal::attach(&dir, "inst", 1, FsyncPolicy::Os).unwrap();
        for i in 0..4 {
            wal.append(&format!("op{i}")).unwrap();
        }
        let path = wal.path().to_path_buf();
        drop(wal);
        let seg = recover_segment(&path).unwrap();
        // Tear mid-way through record 2.
        let tear_at = seg.offsets[1] + 3;
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(tear_at as usize);
        std::fs::write(&path, &bytes).unwrap();
        let (mut wal, outcome, replay) =
            Wal::attach(&dir, "inst", 1, FsyncPolicy::Os).unwrap();
        assert_eq!(outcome, AttachOutcome::Resumed { records: 2, torn: true });
        assert_eq!(replay, vec!["op0", "op1"]);
        // The tear was physically truncated; new appends extend cleanly.
        wal.append("fresh").unwrap();
        wal.sync().unwrap();
        let seg = recover_segment(wal.path()).unwrap();
        assert!(!seg.torn);
        assert_eq!(seg.records, vec!["op0", "op1", "fresh"]);
    }

    #[test]
    fn snapshot_crc_mismatch_quarantines() {
        let dir = scratch("orphan");
        let (mut wal, _, _) = Wal::attach(&dir, "inst", 10, FsyncPolicy::Always).unwrap();
        wal.append("old-base op").unwrap();
        drop(wal);
        let (wal, outcome, replay) =
            Wal::attach(&dir, "inst", 11, FsyncPolicy::Always).unwrap();
        let AttachOutcome::Orphaned { quarantined } = outcome else {
            panic!("expected quarantine, got {outcome:?}");
        };
        assert!(quarantined.exists());
        assert!(replay.is_empty());
        // The fresh segment bumped past the quarantined generation.
        assert_eq!(wal.generation(), 2);
        let orphan = recover_segment(&quarantined).unwrap();
        assert_eq!(orphan.records, vec!["old-base op"]);
    }

    #[test]
    fn corrupt_header_quarantines() {
        let dir = scratch("bad_header");
        let (wal, _, _) = Wal::attach(&dir, "inst", 3, FsyncPolicy::Always).unwrap();
        let path = wal.path().to_path_buf();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[14] ^= 0xFF; // flip generation bits without fixing the header CRC
        std::fs::write(&path, &bytes).unwrap();
        assert!(recover_segment(&path).is_err());
        let (_, outcome, replay) = Wal::attach(&dir, "inst", 3, FsyncPolicy::Always).unwrap();
        assert!(matches!(outcome, AttachOutcome::Orphaned { .. }), "{outcome:?}");
        assert!(replay.is_empty());
    }

    #[test]
    fn live_records_reads_back_only_acknowledged_records() {
        let dir = scratch("live_records");
        let (mut wal, _, _) = Wal::attach(&dir, "inst", 3, FsyncPolicy::Always).unwrap();
        wal.append("a").unwrap();
        wal.append("b").unwrap();
        // A whole frame for seq 2 that no append acknowledged (a write
        // that landed before its fsync failed) is not part of the tail.
        let mut f = OpenOptions::new().append(true).open(wal.path()).unwrap();
        f.write_all(&record_frame(2, b"refused")).unwrap();
        assert_eq!(wal.live_records().unwrap(), ["a", "b"]);
        // A segment that lost acknowledged records is an error, not a
        // shorter tail.
        f.set_len(WAL_HEADER_BYTES as u64).unwrap();
        assert!(wal.live_records().is_err());
    }

    #[test]
    fn rotation_starts_an_empty_segment_with_bumped_generation() {
        let dir = scratch("rotate");
        let (mut wal, _, _) = Wal::attach(&dir, "inst", 5, FsyncPolicy::Always).unwrap();
        wal.append("pre-checkpoint").unwrap();
        wal.rotate(6).unwrap();
        assert_eq!(wal.generation(), 2);
        assert!(wal.live_records().unwrap().is_empty());
        wal.append("post-checkpoint").unwrap();
        drop(wal);
        let seg = recover_segment(&dir.join("inst.wal")).unwrap();
        assert_eq!(seg.generation, 2);
        assert_eq!(seg.snapshot_crc, 6);
        assert_eq!(seg.records, vec!["post-checkpoint"]);
        // Re-attach against the new base resumes the rotated segment.
        let (_, outcome, replay) = Wal::attach(&dir, "inst", 6, FsyncPolicy::Always).unwrap();
        assert_eq!(outcome, AttachOutcome::Resumed { records: 1, torn: false });
        assert_eq!(replay, vec!["post-checkpoint"]);
    }

    #[test]
    fn rotate_with_tail_rebinds_and_rejournals() {
        let dir = scratch("rebind");
        let (mut wal, _, _) = Wal::attach(&dir, "inst", 5, FsyncPolicy::Always).unwrap();
        wal.append("a").unwrap();
        wal.append("b").unwrap();
        assert_eq!(wal.snapshot_crc(), 5);
        // The snapshot moved (CRC 5 → 9): rebind the journal to it,
        // carrying the acknowledged tail into the fresh segment.
        let tail = wal.live_records().unwrap();
        wal.rotate_with_tail(9, &tail).unwrap();
        assert_eq!(wal.generation(), 2);
        assert_eq!(wal.snapshot_crc(), 9);
        assert_eq!(wal.live_records().unwrap(), ["a", "b"]);
        // Appends continue the re-journalled sequence.
        wal.append("c").unwrap();
        drop(wal);
        let seg = recover_segment(&dir.join("inst.wal")).unwrap();
        assert_eq!(seg.snapshot_crc, 9);
        assert!(!seg.torn);
        assert_eq!(seg.records, vec!["a", "b", "c"]);
        // A reboot against the *new* base resumes — no quarantine.
        let (_, outcome, replay) = Wal::attach(&dir, "inst", 9, FsyncPolicy::Always).unwrap();
        assert_eq!(outcome, AttachOutcome::Resumed { records: 3, torn: false });
        assert_eq!(replay, vec!["a", "b", "c"]);
    }

    #[test]
    fn failed_append_residue_is_truncated_so_later_records_survive() {
        let dir = scratch("torn_middle");
        let (mut wal, _, _) = Wal::attach(&dir, "inst", 1, FsyncPolicy::Always).unwrap();
        wal.append("a").unwrap();
        wal.append("b").unwrap();
        // Simulate a torn write_all: partial frame bytes land in the
        // file, then the append error path rolls them back.
        wal.file.write_all(b"\x05\x00\x00\x00gar").unwrap();
        wal.rewind_to_good();
        assert!(!wal.is_poisoned());
        // Later appends extend the valid prefix — recovery must see
        // them (not stop dead at mid-file garbage).
        wal.append("c").unwrap();
        drop(wal);
        let seg = recover_segment(&dir.join("inst.wal")).unwrap();
        assert!(!seg.torn);
        assert_eq!(seg.records, vec!["a", "b", "c"]);
    }

    #[test]
    fn repair_is_idempotent_and_drops_a_panic_torn_frame() {
        let dir = scratch("repair");
        let (mut wal, _, _) = Wal::attach(&dir, "inst", 1, FsyncPolicy::Os).unwrap();
        wal.append("a").unwrap();
        wal.repair(); // clean segment: a no-op
        wal.file.write_all(b"half-a-frame").unwrap();
        wal.repair(); // panic-interrupted append: residue dropped
        wal.append("b").unwrap();
        wal.sync().unwrap();
        let seg = recover_segment(wal.path()).unwrap();
        assert!(!seg.torn);
        assert_eq!(seg.records, vec!["a", "b"]);
    }

    #[test]
    fn poisoned_segment_refuses_appends_until_rotation() {
        let dir = scratch("poison");
        let (mut wal, _, _) = Wal::attach(&dir, "inst", 1, FsyncPolicy::Always).unwrap();
        wal.append("a").unwrap();
        wal.poisoned = true;
        assert!(wal.append("lost-forever").is_err());
        assert!(wal.is_poisoned());
        // Rotation replaces the suspect file wholesale and clears it.
        wal.rotate(2).unwrap();
        assert!(!wal.is_poisoned());
        wal.append("b").unwrap();
        drop(wal);
        let seg = recover_segment(&dir.join("inst.wal")).unwrap();
        assert_eq!(seg.snapshot_crc, 2);
        assert_eq!(seg.records, vec!["b"]);
    }

    #[test]
    fn oversized_record_refused() {
        let dir = scratch("oversized");
        let (mut wal, _, _) = Wal::attach(&dir, "inst", 0, FsyncPolicy::Os).unwrap();
        let huge = "x".repeat(MAX_RECORD_BYTES as usize + 1);
        assert!(wal.append(&huge).is_err());
        // The refusal wrote nothing: the segment still recovers empty.
        drop(wal);
        let seg = recover_segment(&dir.join("inst.wal")).unwrap();
        assert!(seg.records.is_empty());
    }
}
