//! The write-ahead log: durability for rows that have not reached a heap page yet.
//!
//! Every insert appends its encoded row here *before* the tail page in the buffer pool is
//! touched.  A checkpoint (buffer-pool flush + heap fsync) makes the heap authoritative
//! and resets the log.  Recovery replays the log and keeps only rows whose sequence
//! number is above the highest sequence found in the heap — rows that reached disk via an
//! evicted dirty page before the crash are thereby not duplicated.
//!
//! ## On-disk format
//!
//! The byte layout below is a fixed contract: logs written by any earlier build must
//! replay unchanged, so neither the framing nor the checksum may change.
//!
//! * **Frame:** `[u32 len][u32 CRC-32/IEEE][payload]`, little-endian; `len` counts the
//!   payload bytes only and the CRC ([`crc32`]) covers exactly the payload.  Replay stops
//!   at the first truncated or corrupt frame (a torn tail write), which is exactly the
//!   prefix-durability a log needs.
//! * **Shard payload** (a [`WalSet`] record): `[u8 tag_len][tag][row]`, where `tag` is
//!   the table's file base name (at most 254 bytes) and `row` its encoded row; a
//!   tombstone is `[0xFF][u8 tag_len][tag]`.  A private per-table log stores the bare
//!   row as the payload.
//!
//! Appends frame their parts straight into the log's write buffer: the CRC streams
//! over the parts ([`crc32_update`]), so a shard record never exists as a separate
//! `[tag][row]` copy.
//!
//! ## Group commit
//!
//! With [`SyncMode::Always`] the log normally fsyncs after every appended record.  A
//! container ingesting from many sensors in one step can instead enable *group commit*
//! ([`Wal::set_group_commit`]): appends accumulate in a per-log batch buffer, and a
//! single [`Wal::commit`] at the step boundary drains the batch with **one** `write`
//! plus (under `Always`) **one** fsync, amortised across every row ingested in that
//! step.  Durability moves from per-insert to per-step; a crash mid-step can lose at
//! most that step's un-committed batch (the CRC framing keeps replay safe).
//!
//! ## Sharded, shared logs
//!
//! A container hosting many durable tables would still pay one fsync *per table* per
//! step.  [`WalSet`] collapses that: one log file per step-loop shard, shared by every
//! table whose name hashes to that shard (the same [`shard_index`] hash the container
//! uses to assign sensors to workers, so a worker appends only to its own shard's log
//! and the commit phase fsyncs once per *active shard*, not once per table).  Records
//! carry a table tag; recovery filters by tag and the existing replay-above-heap
//! sequence check makes the deferred (per-tag) truncation safe.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gsn_types::{GsnError, GsnResult};
use parking_lot::Mutex;

/// How eagerly the log is forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncMode {
    /// `fsync` after every appended record: no acknowledged element is ever lost, at the
    /// cost of one disk sync per insert.
    Always,
    /// Let the OS page cache decide; `fsync` only at checkpoints. A crash can lose the
    /// tail of un-checkpointed elements (a clean shutdown loses nothing).
    #[default]
    OnCheckpoint,
    /// No logging at all: appends are dropped and replay yields nothing.  For stores
    /// whose contents are *reconstructible* and wiped on restart — the disk-spilled
    /// window store uses this, because a spilled window is a cache of live stream data
    /// that a restarted container rebuilds from scratch anyway.
    Disabled,
}

/// An append-only record log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    sync: SyncMode,
    bytes: u64,
    /// Group commit: batch appends (and defer `SyncMode::Always` fsyncs) to the next
    /// [`commit`](Self::commit).
    group_commit: bool,
    /// Appends since the last fsync while group commit is enabled.
    sync_pending: bool,
    /// Encoded frames accumulated since the last commit while group commit is enabled
    /// (drained by one `write_all` at commit time).
    pending: Vec<u8>,
    /// Records inside `pending`.
    pending_records: u64,
}

impl Wal {
    /// Opens (or creates) the log at `path`.
    pub fn open(path: &Path, sync: SyncMode) -> GsnResult<Wal> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| GsnError::storage(format!("cannot open WAL {path:?}: {e}")))?;
        let bytes = file
            .metadata()
            .map_err(|e| GsnError::storage(format!("cannot stat WAL: {e}")))?
            .len();
        let mut wal = Wal {
            file,
            path: path.to_owned(),
            sync,
            bytes,
            group_commit: false,
            sync_pending: false,
            pending: Vec::new(),
            pending_records: 0,
        };
        wal.seek_end()?;
        Ok(wal)
    }

    /// Enables or disables group commit (see the module docs). Disabling with a sync
    /// still pending forces it immediately so no acknowledged record is left unsynced.
    pub fn set_group_commit(&mut self, enabled: bool) -> GsnResult<()> {
        self.group_commit = enabled;
        if !enabled {
            self.commit()?;
        }
        Ok(())
    }

    /// Drains the group-commit batch with one write and, if a sync is pending, one
    /// fsync (the per-step batched commit).  A no-op when nothing is pending.
    /// Returns the number of records the batch contained.
    pub fn commit(&mut self) -> GsnResult<u64> {
        let records = self.pending_records;
        self.flush_pending()?;
        if self.sync_pending {
            self.file
                .sync_data()
                .map_err(|e| GsnError::storage(format!("cannot sync WAL: {e}")))?;
            self.sync_pending = false;
        }
        Ok(records)
    }

    /// Records accumulated in the group-commit batch since the last commit.
    pub fn pending_records(&self) -> u64 {
        self.pending_records
    }

    /// Writes the accumulated batch to the file (no fsync).
    fn flush_pending(&mut self) -> GsnResult<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.file
            .write_all(&self.pending)
            .map_err(|e| GsnError::storage(format!("cannot append to WAL: {e}")))?;
        self.pending.clear();
        self.pending_records = 0;
        Ok(())
    }

    fn seek_end(&mut self) -> GsnResult<()> {
        self.file
            .seek(SeekFrom::End(0))
            .map_err(|e| GsnError::storage(format!("cannot seek WAL: {e}")))?;
        Ok(())
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current log size in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.bytes
    }

    /// Appends one record, honouring the sync mode ([`SyncMode::Disabled`] drops it).
    pub fn append(&mut self, payload: &[u8]) -> GsnResult<()> {
        self.append_parts(&[payload])
    }

    /// Appends one record whose payload is the concatenation of `parts`, framed
    /// straight into the write buffer: the CRC runs over the parts in turn and no
    /// joined copy of the payload is made.
    pub(crate) fn append_parts(&mut self, parts: &[&[u8]]) -> GsnResult<()> {
        if self.sync == SyncMode::Disabled {
            return Ok(());
        }
        let len: usize = parts.iter().map(|part| part.len()).sum();
        let crc = parts.iter().fold(0, |crc, part| crc32_update(crc, part));
        let frame_bytes = 8 + len as u64;
        let start = self.pending.len();
        self.pending.reserve(8 + len);
        self.pending.extend_from_slice(&(len as u32).to_le_bytes());
        self.pending.extend_from_slice(&crc.to_le_bytes());
        for part in parts {
            self.pending.extend_from_slice(part);
        }
        if self.group_commit {
            // Batch: one write_all (and at most one fsync) at the next commit.
            self.pending_records += 1;
            self.bytes += frame_bytes;
            if self.sync == SyncMode::Always {
                self.sync_pending = true;
            }
            return Ok(());
        }
        if let Err(e) = self.file.write_all(&self.pending) {
            self.pending.truncate(start);
            return Err(GsnError::storage(format!("cannot append to WAL: {e}")));
        }
        self.pending.clear();
        self.pending_records = 0;
        self.bytes += frame_bytes;
        if self.sync == SyncMode::Always {
            self.file
                .sync_data()
                .map_err(|e| GsnError::storage(format!("cannot sync WAL: {e}")))?;
        }
        Ok(())
    }

    /// Reads every intact record from the start of the log (stopping at the first torn
    /// or corrupt frame).
    pub fn replay(&mut self) -> GsnResult<Vec<Vec<u8>>> {
        self.flush_pending()?; // batched records are part of the log's contents
        let mut raw = Vec::with_capacity(self.bytes as usize);
        self.file
            .seek(SeekFrom::Start(0))
            .and_then(|_| self.file.read_to_end(&mut raw))
            .map_err(|e| GsnError::storage(format!("cannot read WAL: {e}")))?;
        self.seek_end()?;
        let mut records = Vec::new();
        let mut cursor: &[u8] = &raw;
        while cursor.len() >= 8 {
            let len = u32::from_le_bytes(cursor[0..4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(cursor[4..8].try_into().unwrap());
            if cursor.len() < 8 + len {
                break; // torn tail
            }
            let payload = &cursor[8..8 + len];
            if crc32(payload) != crc {
                break; // corrupt tail
            }
            records.push(payload.to_vec());
            cursor = &cursor[8 + len..];
        }
        Ok(records)
    }

    /// Truncates the log after a checkpoint made the heap authoritative.
    pub fn reset(&mut self) -> GsnResult<()> {
        if self.sync == SyncMode::Disabled {
            return Ok(());
        }
        self.file
            .set_len(0)
            .and_then(|_| self.file.seek(SeekFrom::Start(0)))
            .map_err(|e| GsnError::storage(format!("cannot reset WAL: {e}")))?;
        self.bytes = 0;
        self.sync_pending = false;
        self.pending.clear();
        self.pending_records = 0;
        self.file
            .sync_data()
            .map_err(|e| GsnError::storage(format!("cannot sync WAL: {e}")))
    }

    /// Forces buffered records (including the group-commit batch) to stable storage.
    pub fn sync(&mut self) -> GsnResult<()> {
        self.sync_pending = false;
        if self.sync == SyncMode::Disabled {
            return Ok(());
        }
        self.flush_pending()?;
        self.file
            .sync_data()
            .map_err(|e| GsnError::storage(format!("cannot sync WAL: {e}")))
    }

    /// Deletes the log file (table dropped). Consumes the log.
    pub fn destroy(self) -> GsnResult<()> {
        let path = self.path.clone();
        drop(self);
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(GsnError::storage(format!(
                "cannot remove WAL {path:?}: {e}"
            ))),
        }
    }
}

// ---------------------------------------------------------------------------------------
// Sharded, shared logs
// ---------------------------------------------------------------------------------------

/// Stable shard assignment: FNV-1a over the *normalised* name, modulo the shard count.
///
/// Normalisation lower-cases and maps `-` to `_`.  This MUST stay identical to the
/// container's `gsn_core::query::shard_index` (sensor → step-loop worker assignment):
/// a durable table is named after its sensor, so with `wal_shards == workers` the
/// worker that runs a sensor's pipeline is the only one appending to that table's WAL
/// shard — appends never cross worker boundaries.
pub fn shard_index(name: &str, shards: usize) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in name.bytes() {
        let byte = if byte == b'-' {
            b'_'
        } else {
            byte.to_ascii_lowercase()
        };
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % shards.max(1) as u64) as usize
}

/// Marker byte that begins a *tombstone* record (`[0xFF][u8 tag_len][tag]`): all earlier
/// records of `tag` in the shard are dead (table dropped or superseded), regardless of
/// their sequence numbers.  Ordinary records are `[u8 tag_len][tag][row]`; tags are
/// therefore limited to 254 bytes.
const TOMBSTONE_MARKER: u8 = 0xFF;

/// One record commit summary per shard, returned by [`WalSet::commit`].
#[derive(Debug, Clone, Copy)]
pub struct ShardCommit {
    /// The shard index.
    pub shard: usize,
    /// Records the drained batch contained.
    pub records: u64,
    /// Whether the commit fsynced the shard file.
    pub synced: bool,
}

#[derive(Debug)]
struct WalShard {
    wal: Wal,
    /// Un-checkpointed logical bytes per table tag (frame overhead included).  A tag at
    /// zero needs nothing from this shard; when *every* tag is at zero the file resets.
    tag_bytes: HashMap<String, u64>,
}

/// A set of shared write-ahead logs, one per step-loop shard, multiplexing every
/// durable table of a container (see the module docs).
///
/// Tables append under their name tag; [`WalSet::commit`] drains each shard with one
/// write + one fsync.  Checkpoints are *logical* per table (the tag's byte count drops
/// to zero); the shard file truncates once every tag is clean, and compacts — rewriting
/// only live tags' records — when it outgrows `compact_bytes` before that happens.
pub struct WalSet {
    dir: PathBuf,
    sync: SyncMode,
    group_commit: bool,
    compact_bytes: u64,
    /// Lazily opened shard logs (a shard with no durable tables never touches disk).
    shards: Vec<Mutex<Option<WalShard>>>,
}

impl std::fmt::Debug for WalSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WalSet({} shards in {:?}, {:?})",
            self.shards.len(),
            self.dir,
            self.sync
        )
    }
}

impl WalSet {
    /// Creates a set of `shards` logs (minimum 1) under `dir`, opened lazily.  `dir` is
    /// created on first use; `compact_bytes` bounds a shard file's size before it is
    /// rewritten to drop checkpointed tags' records.
    pub fn new(
        dir: impl Into<PathBuf>,
        shards: usize,
        sync: SyncMode,
        group_commit: bool,
        compact_bytes: u64,
    ) -> WalSet {
        WalSet {
            dir: dir.into(),
            sync,
            group_commit,
            compact_bytes,
            shards: (0..shards.max(1)).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a table tag appends to.
    pub fn shard_of(&self, tag: &str) -> usize {
        shard_index(tag, self.shards.len())
    }

    fn shard_path(&self, index: usize) -> PathBuf {
        self.dir.join(format!("wal-shard-{index:04}.wal"))
    }

    /// Runs `f` on the (lazily opened) shard `index`.
    fn with_shard<T>(
        &self,
        index: usize,
        f: impl FnOnce(&mut WalShard) -> GsnResult<T>,
    ) -> GsnResult<T> {
        let mut slot = self.shards[index].lock();
        if slot.is_none() {
            std::fs::create_dir_all(&self.dir).map_err(|e| {
                GsnError::storage(format!("cannot create WAL directory {:?}: {e}", self.dir))
            })?;
            let mut wal = Wal::open(&self.shard_path(index), self.sync)?;
            wal.set_group_commit(self.group_commit)?;
            // Rebuild the per-tag accounting from the surviving records.
            let mut tag_bytes: HashMap<String, u64> = HashMap::new();
            for record in wal.replay()? {
                match decode_tagged(&record) {
                    Some(TaggedRecord::Row { tag, .. }) => {
                        *tag_bytes.entry(tag.to_owned()).or_default() += 8 + record.len() as u64;
                    }
                    Some(TaggedRecord::Tombstone { tag }) => {
                        tag_bytes.insert(tag.to_owned(), 0);
                    }
                    None => {} // foreign/corrupt record: ignored, dropped at next compact
                }
            }
            *slot = Some(WalShard { wal, tag_bytes });
        }
        f(slot.as_mut().expect("shard opened above"))
    }

    /// Appends one row record for `tag`, honouring the set's sync/group-commit modes.
    pub fn append(&self, tag: &str, payload: &[u8]) -> GsnResult<()> {
        if self.sync == SyncMode::Disabled {
            return Ok(());
        }
        if tag.len() > 254 {
            return Err(GsnError::storage(format!(
                "WAL table tag `{tag}` exceeds 254 bytes"
            )));
        }
        self.with_shard(self.shard_of(tag), |shard| {
            shard
                .wal
                .append_parts(&[&[tag.len() as u8], tag.as_bytes(), payload])?;
            let frame_bytes = 8 + 1 + tag.len() as u64 + payload.len() as u64;
            match shard.tag_bytes.get_mut(tag) {
                Some(bytes) => *bytes += frame_bytes,
                None => {
                    shard.tag_bytes.insert(tag.to_owned(), frame_bytes);
                }
            }
            Ok(())
        })
    }

    /// Reads every surviving row payload of `tag` from its shard, in append order.  A
    /// tombstone discards everything appended before it.
    pub fn replay_for(&self, tag: &str) -> GsnResult<Vec<Vec<u8>>> {
        if self.sync == SyncMode::Disabled {
            return Ok(Vec::new());
        }
        self.with_shard(self.shard_of(tag), |shard| {
            let mut rows = Vec::new();
            for record in shard.wal.replay()? {
                match decode_tagged(&record) {
                    Some(TaggedRecord::Row { tag: t, row }) if t == tag => rows.push(row.to_vec()),
                    Some(TaggedRecord::Tombstone { tag: t }) if t == tag => rows.clear(),
                    _ => {}
                }
            }
            Ok(rows)
        })
    }

    /// Un-checkpointed logical bytes `tag` holds in its shard.
    pub fn tag_bytes(&self, tag: &str) -> u64 {
        if self.sync == SyncMode::Disabled {
            return 0;
        }
        self.with_shard(self.shard_of(tag), |shard| {
            Ok(shard.tag_bytes.get(tag).copied().unwrap_or(0))
        })
        .unwrap_or(0)
    }

    /// The per-step group commit: drains every open shard's batch with one write (and
    /// at most one fsync) per shard.  Every shard is attempted even when one fails; the
    /// first error wins.  Returns one summary per shard that had records pending.
    pub fn commit(&self) -> GsnResult<Vec<ShardCommit>> {
        let mut commits = Vec::new();
        let mut first_error = None;
        for (index, slot) in self.shards.iter().enumerate() {
            let mut slot = slot.lock();
            let Some(shard) = slot.as_mut() else {
                continue;
            };
            match shard.wal.commit() {
                Ok(records) => {
                    if records > 0 {
                        commits.push(ShardCommit {
                            shard: index,
                            records,
                            synced: self.sync == SyncMode::Always,
                        });
                    }
                }
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(commits),
        }
    }

    /// Marks `tag` checkpointed: its records are no longer needed (the heap is
    /// authoritative).  Truncates the shard file once every tag is clean; compacts it
    /// (dropping clean tags' records) when it outgrew the compaction threshold.
    pub fn checkpoint_tag(&self, tag: &str) -> GsnResult<()> {
        if self.sync == SyncMode::Disabled {
            return Ok(());
        }
        let index = self.shard_of(tag);
        self.with_shard(index, |shard| {
            shard.tag_bytes.insert(tag.to_owned(), 0);
            Self::truncate_or_compact(
                shard,
                &self.shard_path(index),
                self.sync,
                self.compact_bytes,
            )
        })
    }

    /// Drops `tag` entirely (table destroyed, or stale records found next to a fresh
    /// heap): appends a durable tombstone so earlier records never replay, then
    /// truncates/compacts like a checkpoint.
    pub fn drop_tag(&self, tag: &str) -> GsnResult<()> {
        if self.sync == SyncMode::Disabled {
            return Ok(());
        }
        if tag.len() > 254 {
            return Err(GsnError::storage(format!(
                "WAL table tag `{tag}` exceeds 254 bytes"
            )));
        }
        let index = self.shard_of(tag);
        self.with_shard(index, |shard| {
            let had_records =
                shard.tag_bytes.get(tag).copied().unwrap_or(0) > 0 || shard.wal.len_bytes() > 0;
            shard.tag_bytes.insert(tag.to_owned(), 0);
            if had_records {
                shard
                    .wal
                    .append_parts(&[&[TOMBSTONE_MARKER, tag.len() as u8], tag.as_bytes()])?;
                shard.wal.sync()?;
            }
            Self::truncate_or_compact(
                shard,
                &self.shard_path(index),
                self.sync,
                self.compact_bytes,
            )
        })
    }

    /// Truncates the shard when every tag is clean, or rewrites it keeping only live
    /// tags' records when the file outgrew `compact_bytes`.
    fn truncate_or_compact(
        shard: &mut WalShard,
        path: &Path,
        sync: SyncMode,
        compact_bytes: u64,
    ) -> GsnResult<()> {
        if shard.tag_bytes.values().all(|&bytes| bytes == 0) {
            shard.tag_bytes.clear();
            return shard.wal.reset();
        }
        if shard.wal.len_bytes() <= compact_bytes {
            return Ok(());
        }
        // Compact: rewrite only the records of tags that still hold un-checkpointed
        // bytes, via a temp file + atomic rename (a crash mid-compact keeps the old
        // file intact).
        let live = |tag: &str| shard.tag_bytes.get(tag).copied().unwrap_or(0) > 0;
        let survivors: Vec<Vec<u8>> = shard
            .wal
            .replay()?
            .into_iter()
            .filter(|record| match decode_tagged(record) {
                Some(TaggedRecord::Row { tag, .. }) => live(tag),
                Some(TaggedRecord::Tombstone { tag }) => live(tag),
                None => false,
            })
            .collect();
        let tmp = path.with_extension("wal.tmp");
        match std::fs::remove_file(&tmp) {
            Ok(()) | Err(_) => {} // best effort: Wal::open truncates logically via reset below
        }
        {
            let mut fresh = Wal::open(&tmp, SyncMode::OnCheckpoint)?;
            fresh.reset()?; // drop any stale temp contents
            for record in &survivors {
                fresh.append(record)?;
            }
            fresh.sync()?;
        }
        std::fs::rename(&tmp, path)
            .map_err(|e| GsnError::storage(format!("cannot swap compacted WAL {path:?}: {e}")))?;
        shard.wal = {
            let mut wal = Wal::open(path, sync)?;
            wal.set_group_commit(shard.wal.group_commit)?;
            wal
        };
        Ok(())
    }
}

enum TaggedRecord<'a> {
    Row { tag: &'a str, row: &'a [u8] },
    Tombstone { tag: &'a str },
}

/// Decodes a shard record into its tag + row (or tombstone), `None` when malformed.
fn decode_tagged(record: &[u8]) -> Option<TaggedRecord<'_>> {
    let (&first, rest) = record.split_first()?;
    if first == TOMBSTONE_MARKER {
        let (&len, rest) = rest.split_first()?;
        let tag = rest.get(..len as usize)?;
        return Some(TaggedRecord::Tombstone {
            tag: std::str::from_utf8(tag).ok()?,
        });
    }
    let tag = rest.get(..first as usize)?;
    Some(TaggedRecord::Row {
        tag: std::str::from_utf8(tag).ok()?,
        row: &rest[first as usize..],
    })
}

/// The log a [`crate::PersistentBackend`] writes to: either a private per-table file,
/// or a tag inside the container's shared [`WalSet`].
///
/// The `Shared` variant keeps the table's *legacy* private log (when one exists on
/// disk) readable until the next checkpoint: a container upgraded to sharded logging
/// recovers from both, and only discards the private file once the heap is
/// authoritative for everything it held.
#[derive(Debug)]
pub enum TableWal {
    /// A private `<table>.wal` file.
    Own(Wal),
    /// A tag in the container-wide sharded log.
    Shared {
        /// The shared log set.
        set: Arc<WalSet>,
        /// This table's record tag (its sanitised file base name).
        tag: String,
        /// The pre-sharding private log, retained read-only until the next checkpoint.
        legacy: Option<Wal>,
    },
}

impl TableWal {
    /// Appends one encoded row.
    pub fn append(&mut self, payload: &[u8]) -> GsnResult<()> {
        match self {
            TableWal::Own(wal) => wal.append(payload),
            TableWal::Shared { set, tag, .. } => set.append(tag, payload),
        }
    }

    /// Every surviving record for this table, in append order (legacy log first).
    pub fn replay(&mut self) -> GsnResult<Vec<Vec<u8>>> {
        match self {
            TableWal::Own(wal) => wal.replay(),
            TableWal::Shared { set, tag, legacy } => {
                let mut records = match legacy {
                    Some(wal) => wal.replay()?,
                    None => Vec::new(),
                };
                records.extend(set.replay_for(tag)?);
                Ok(records)
            }
        }
    }

    /// Un-checkpointed logical bytes this table holds in its log(s) — drives the
    /// backend's auto-checkpoint threshold and its disk accounting.
    pub fn len_bytes(&self) -> u64 {
        match self {
            TableWal::Own(wal) => wal.len_bytes(),
            TableWal::Shared { set, tag, legacy } => {
                set.tag_bytes(tag) + legacy.as_ref().map_or(0, Wal::len_bytes)
            }
        }
    }

    /// Commits this table's own batched appends (the per-table group commit).  For the
    /// `Shared` variant this is a no-op returning 0: the container commits the whole
    /// [`WalSet`] once per step instead, one fsync per shard.
    pub fn commit(&mut self) -> GsnResult<u64> {
        match self {
            TableWal::Own(wal) => wal.commit(),
            TableWal::Shared { .. } => Ok(0),
        }
    }

    /// Marks this table checkpointed: the heap is authoritative, its log records are
    /// dead.  Own logs sync + truncate; shared tags are logically cleared (see
    /// [`WalSet::checkpoint_tag`]) and any legacy private file is deleted.
    pub fn checkpoint(&mut self) -> GsnResult<()> {
        match self {
            TableWal::Own(wal) => {
                wal.sync()?;
                wal.reset()
            }
            TableWal::Shared { set, tag, legacy } => {
                set.checkpoint_tag(tag)?;
                if let Some(wal) = legacy.take() {
                    wal.destroy()?;
                }
                Ok(())
            }
        }
    }

    /// Discards stale records found next to a *fresh* heap (a dropped predecessor
    /// table's leftovers).
    pub fn clear_stale(&mut self) -> GsnResult<()> {
        match self {
            TableWal::Own(wal) => wal.reset(),
            TableWal::Shared { set, tag, legacy } => {
                set.drop_tag(tag)?;
                if let Some(wal) = legacy.take() {
                    wal.destroy()?;
                }
                Ok(())
            }
        }
    }

    /// Removes this table's log state (table dropped).
    pub fn destroy(self) -> GsnResult<()> {
        match self {
            TableWal::Own(wal) => wal.destroy(),
            TableWal::Shared { set, tag, legacy } => {
                set.drop_tag(&tag)?;
                if let Some(wal) = legacy {
                    wal.destroy()?;
                }
                Ok(())
            }
        }
    }
}

/// Lookup tables for slicing-by-8 CRC-32/IEEE (reflected polynomial `0xEDB88320`),
/// computed at compile time.  `CRC_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, which lets
/// [`crc32_update`] fold eight input bytes per step with eight independent lookups.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut byte = 0;
    while byte < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        byte += 1;
    }
    tables
};

/// CRC-32/IEEE 802.3 of `data` — the checksum of WAL frames and index sidecars.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Extends `crc`, the CRC-32 of some bytes already seen, over `data`: feeding a buffer
/// in any split of slices yields the same value as [`crc32`] over the whole (start
/// from 0).  Table-driven, slicing-by-8.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !crc;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn temp_wal(tag: &str) -> PathBuf {
        crate::testutil::temp_dir(tag).join("table.wal")
    }

    /// The bitwise CRC-32/IEEE the table-driven one must match: one shift/xor round
    /// per input bit.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    /// `len` pseudo-random bytes from `seed` (splitmix64).
    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        let mut bytes = Vec::with_capacity(len + 8);
        while bytes.len() < len {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            bytes.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        bytes.truncate(len);
        bytes
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn table_crc_matches_bitwise_reference(len in 0usize..80 * 1024 + 1, seed in 0u64..u64::MAX) {
            let data = random_bytes(len, seed);
            prop_assert_eq!(crc32(&data), crc32_bitwise(&data));
        }

        #[test]
        fn crc_update_over_any_split_equals_one_shot(
            len in 0usize..4096,
            seed in 0u64..u64::MAX,
            cuts in prop::collection::vec(0usize..4097, 0..6),
        ) {
            let data = random_bytes(len, seed);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(len)).collect();
            cuts.sort_unstable();
            let mut crc = 0;
            let mut from = 0;
            for cut in cuts.into_iter().chain([len]) {
                crc = crc32_update(crc, &data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(crc, crc32(&data));
        }
    }

    /// Pins the on-disk bytes of one shard record and one index sidecar: the frame
    /// layout, the tag prefix and the CRC must never change (logs and sidecars written
    /// by earlier builds replay and validate unchanged).
    #[test]
    fn shard_frame_and_sidecar_bytes_are_pinned() {
        let dir = crate::testutil::temp_dir("wal-golden");
        let set = WalSet::new(&dir, 1, SyncMode::OnCheckpoint, false, u64::MAX);
        let row: Vec<u8> = (0u8..37).map(|i| i.wrapping_mul(29) ^ 0x5A).collect();
        set.append("camera-01", &row).unwrap();
        let frame = std::fs::read(dir.join("wal-shard-0000.wal")).unwrap();
        assert_eq!(
            hex(&frame),
            "2f000000ad0544c90963616d6572612d30315a47600d2ecbf491b25f78650623cce98ab7\
             507d1e3b24c1e28fa85576133cd9fae780ad4e"
        );

        let index = crate::index::SegmentIndex {
            segment_id: 7,
            first_row: 1234,
            pages: vec![
                crate::index::PageSummary {
                    rows: 10,
                    min_ts: 100,
                    max_ts: 250,
                    bytes: 4096,
                },
                crate::index::PageSummary {
                    rows: 0,
                    min_ts: i64::MAX,
                    max_ts: i64::MIN,
                    bytes: 0,
                },
            ],
        };
        crate::index::write_sidecar(&dir, "table", &index).unwrap();
        let sidecar = std::fs::read(crate::index::sidecar_path(&dir, "table", 7)).unwrap();
        assert_eq!(
            hex(&sidecar),
            "47534e494458310007000000d204000000000000020000000a0000006400000000000000\
             fa00000000000000001000000000000000000000ffffffffffffff7f0000000000000080\
             0000000000000000f866fe25"
        );
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn append_and_replay_round_trip() {
        let path = temp_wal("wal-roundtrip");
        {
            let mut wal = Wal::open(&path, SyncMode::OnCheckpoint).unwrap();
            wal.append(b"first").unwrap();
            wal.append(b"").unwrap();
            wal.append(&[9u8; 1000]).unwrap();
        }
        let mut wal = Wal::open(&path, SyncMode::Always).unwrap();
        let records = wal.replay().unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0], b"first");
        assert_eq!(records[1], b"");
        assert_eq!(records[2], vec![9u8; 1000]);
        // Appending after replay continues the log.
        wal.append(b"fourth").unwrap();
        assert_eq!(wal.replay().unwrap().len(), 4);
    }

    #[test]
    fn torn_tail_is_ignored() {
        let path = temp_wal("wal-torn");
        {
            let mut wal = Wal::open(&path, SyncMode::OnCheckpoint).unwrap();
            wal.append(b"intact").unwrap();
        }
        // A frame header promising more bytes than exist.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&100u32.to_le_bytes()).unwrap();
            f.write_all(&0u32.to_le_bytes()).unwrap();
            f.write_all(b"short").unwrap();
        }
        let mut wal = Wal::open(&path, SyncMode::OnCheckpoint).unwrap();
        let records = wal.replay().unwrap();
        assert_eq!(records, vec![b"intact".to_vec()]);
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let path = temp_wal("wal-crc");
        {
            let mut wal = Wal::open(&path, SyncMode::OnCheckpoint).unwrap();
            wal.append(b"good").unwrap();
            wal.append(b"evil").unwrap();
        }
        // Flip a payload byte of the second record.
        {
            let mut bytes = std::fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xFF;
            std::fs::write(&path, bytes).unwrap();
        }
        let mut wal = Wal::open(&path, SyncMode::OnCheckpoint).unwrap();
        assert_eq!(wal.replay().unwrap(), vec![b"good".to_vec()]);
    }

    #[test]
    fn group_commit_defers_syncs_but_loses_nothing() {
        let path = temp_wal("wal-group-commit");
        {
            let mut wal = Wal::open(&path, SyncMode::Always).unwrap();
            wal.set_group_commit(true).unwrap();
            for i in 0..10u8 {
                wal.append(&[i]).unwrap();
            }
            wal.commit().unwrap();
            // Disabling group commit with appends pending syncs immediately.
            wal.append(b"tail").unwrap();
            wal.set_group_commit(false).unwrap();
        }
        let mut wal = Wal::open(&path, SyncMode::Always).unwrap();
        assert_eq!(wal.replay().unwrap().len(), 11);
    }

    #[test]
    fn disabled_mode_logs_nothing() {
        let path = temp_wal("wal-disabled");
        {
            let mut wal = Wal::open(&path, SyncMode::Disabled).unwrap();
            wal.append(b"dropped").unwrap();
            assert_eq!(wal.len_bytes(), 0);
            wal.sync().unwrap();
            wal.reset().unwrap();
            assert!(wal.replay().unwrap().is_empty());
        }
        // Nothing survives: a durable re-open of the same path replays nothing.
        let mut wal = Wal::open(&path, SyncMode::OnCheckpoint).unwrap();
        assert!(wal.replay().unwrap().is_empty());
    }

    #[test]
    fn reset_empties_the_log() {
        let path = temp_wal("wal-reset");
        let mut wal = Wal::open(&path, SyncMode::OnCheckpoint).unwrap();
        wal.append(b"data").unwrap();
        assert!(wal.len_bytes() > 0);
        wal.reset().unwrap();
        assert_eq!(wal.len_bytes(), 0);
        assert!(wal.replay().unwrap().is_empty());
        // Usable after reset.
        wal.append(b"again").unwrap();
        assert_eq!(wal.replay().unwrap().len(), 1);
    }

    #[test]
    fn shard_index_matches_container_hash() {
        // Same FNV-1a + normalisation as gsn_core::query::shard_index — checked against
        // hand-computed vectors so neither copy can drift silently.
        assert_eq!(shard_index("wind-meter", 7), shard_index("WIND_METER", 7));
        assert_eq!(shard_index("anything", 1), 0);
        let spread: std::collections::HashSet<usize> = (0..64)
            .map(|i| shard_index(&format!("sensor-{i}"), 8))
            .collect();
        assert!(spread.len() > 1, "64 names must not all land in one shard");
    }

    #[test]
    fn wal_set_multiplexes_tags_and_replays_per_tag() {
        let dir = crate::testutil::temp_dir("walset-tags");
        let set = WalSet::new(&dir, 4, SyncMode::OnCheckpoint, false, 1 << 20);
        for i in 0..5u8 {
            set.append("alpha", &[b'a', i]).unwrap();
            set.append("beta", &[b'b', i]).unwrap();
        }
        let alpha = set.replay_for("alpha").unwrap();
        let beta = set.replay_for("beta").unwrap();
        assert_eq!(alpha.len(), 5);
        assert_eq!(beta.len(), 5);
        assert!(alpha.iter().all(|r| r[0] == b'a'));
        assert!(beta.iter().all(|r| r[0] == b'b'));
        assert!(set.tag_bytes("alpha") > 0);
        // A fresh set over the same directory rebuilds the accounting from disk.
        let reopened = WalSet::new(&dir, 4, SyncMode::OnCheckpoint, false, 1 << 20);
        assert_eq!(reopened.replay_for("alpha").unwrap(), alpha);
        assert_eq!(reopened.tag_bytes("beta"), set.tag_bytes("beta"));
    }

    #[test]
    fn wal_set_commit_drains_each_shard_once() {
        let dir = crate::testutil::temp_dir("walset-commit");
        let set = WalSet::new(&dir, 2, SyncMode::Always, true, 1 << 20);
        for i in 0..8u8 {
            set.append(&format!("table-{i}"), &[i]).unwrap();
        }
        let commits = set.commit().unwrap();
        let total: u64 = commits.iter().map(|c| c.records).sum();
        assert_eq!(total, 8);
        assert!(commits.len() <= 2, "at most one commit per shard");
        assert!(commits.iter().all(|c| c.synced));
        // Nothing pending → nothing committed.
        assert!(set.commit().unwrap().is_empty());
    }

    #[test]
    fn wal_set_checkpoint_clears_tag_and_resets_when_all_clean() {
        let dir = crate::testutil::temp_dir("walset-checkpoint");
        let set = WalSet::new(&dir, 1, SyncMode::OnCheckpoint, false, 1 << 20);
        set.append("left", b"l1").unwrap();
        set.append("right", b"r1").unwrap();
        set.checkpoint_tag("left").unwrap();
        assert_eq!(set.tag_bytes("left"), 0);
        // Right's records survive the left checkpoint…
        assert_eq!(set.replay_for("right").unwrap(), vec![b"r1".to_vec()]);
        // …and once right is clean too, the single shard file truncates.
        set.checkpoint_tag("right").unwrap();
        assert!(set.replay_for("left").unwrap().is_empty());
        assert!(set.replay_for("right").unwrap().is_empty());
    }

    #[test]
    fn wal_set_tombstone_survives_reopen() {
        let dir = crate::testutil::temp_dir("walset-tombstone");
        {
            let set = WalSet::new(&dir, 1, SyncMode::OnCheckpoint, false, u64::MAX);
            set.append("doomed", b"old row").unwrap();
            set.append("keeper", b"live row").unwrap();
            set.drop_tag("doomed").unwrap();
        }
        // The drop is durable: a re-opened set must not resurrect the dead tag's rows
        // even though its records still sit in the shard file before the tombstone.
        let set = WalSet::new(&dir, 1, SyncMode::OnCheckpoint, false, u64::MAX);
        assert!(set.replay_for("doomed").unwrap().is_empty());
        assert_eq!(set.tag_bytes("doomed"), 0);
        assert_eq!(
            set.replay_for("keeper").unwrap(),
            vec![b"live row".to_vec()]
        );
    }

    #[test]
    fn wal_set_compacts_oversized_shard_keeping_live_tags() {
        let dir = crate::testutil::temp_dir("walset-compact");
        // Tiny compaction threshold forces a rewrite on the first checkpoint.
        let set = WalSet::new(&dir, 1, SyncMode::OnCheckpoint, false, 64);
        for i in 0..20u8 {
            set.append("bulk", &[i; 32]).unwrap();
        }
        set.append("live", b"must survive").unwrap();
        set.checkpoint_tag("bulk").unwrap();
        // The shard was rewritten: far smaller than the bulk records it held…
        let shard_file = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().ends_with(".wal"))
            .expect("shard file exists");
        assert!(shard_file.metadata().unwrap().len() < 512);
        // …but the live tag's record survived, including across a reopen.
        assert_eq!(
            set.replay_for("live").unwrap(),
            vec![b"must survive".to_vec()]
        );
        let reopened = WalSet::new(&dir, 1, SyncMode::OnCheckpoint, false, 64);
        assert_eq!(
            reopened.replay_for("live").unwrap(),
            vec![b"must survive".to_vec()]
        );
        assert!(reopened.replay_for("bulk").unwrap().is_empty());
    }

    #[test]
    fn table_wal_shared_replays_legacy_then_shard_and_migrates_on_checkpoint() {
        let dir = crate::testutil::temp_dir("tablewal-migrate");
        let legacy_path = dir.join("sensor.wal");
        {
            let mut legacy = Wal::open(&legacy_path, SyncMode::OnCheckpoint).unwrap();
            legacy.append(b"pre-sharding row").unwrap();
        }
        let set = Arc::new(WalSet::new(&dir, 2, SyncMode::OnCheckpoint, false, 1 << 20));
        let mut wal = TableWal::Shared {
            set: Arc::clone(&set),
            tag: "sensor".to_owned(),
            legacy: Some(Wal::open(&legacy_path, SyncMode::OnCheckpoint).unwrap()),
        };
        wal.append(b"post-sharding row").unwrap();
        // Replay order: the legacy private log first, then the shard records.
        assert_eq!(
            wal.replay().unwrap(),
            vec![b"pre-sharding row".to_vec(), b"post-sharding row".to_vec()]
        );
        assert!(wal.len_bytes() > 0);
        // Checkpoint retires the legacy file and clears the shard tag.
        wal.checkpoint().unwrap();
        assert!(!legacy_path.exists());
        assert_eq!(wal.len_bytes(), 0);
        assert!(wal.replay().unwrap().is_empty());
    }
}
