//! Segmented heaps: a stream table's pages split across fixed-capacity segment files.
//!
//! One ever-growing heap file cannot reclaim space: pruning only advances a logical
//! watermark while the file keeps every dead page.  A [`SegmentedHeap`] instead stores a
//! table as an ordered sequence of [`HeapFile`] segments of at most
//! [`MAX_SEGMENT_PAGES`] pages each:
//!
//! * the **tail** segment is the only writer — appends fill it page by page and roll to
//!   a fresh segment when it is full (the old tail is fsynced and sealed);
//! * sealed segments are immutable, so the retention pass (see `retention`) can
//!   **delete** a head segment whose rows are all below the prune watermark, or
//!   **compact** a partially-dead one by rewriting its live rows into a replacement
//!   segment — reclaiming file space for long-lived bounded tables;
//! * every segment header records `first_row`, the global index of its first row, so
//!   the exact sequence→row mapping survives restarts, head deletion and compaction
//!   (sequences are contiguous from 1: the row with sequence `s` has global index
//!   `s - 1`, wherever it physically lives).
//!
//! ## Page addressing
//!
//! Buffer-pool page ids are *stable global* ids: `segment_id << SEGMENT_PAGE_BITS |
//! local_page`.  Deleting or compacting a segment never renumbers the surviving pages
//! of other segments, so resident buffer-pool frames and in-flight scan cursors stay
//! valid across reclamation (a compacted segment gets a fresh id and fresh page ids).
//!
//! ## Crash safety of compaction
//!
//! A replacement segment is written to a `.seg.tmp` file, fsynced, atomically renamed
//! to its final name, and only then is the original deleted.  Its header names the
//! segment it `replaces`: if a crash leaves both files, the next open keeps the
//! replacement and deletes the superseded original; a crash before the rename leaves
//! only a `.tmp` file, which open discards.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use gsn_types::{GsnError, GsnResult, StreamSchema};

use crate::buffer::PageIo;
use crate::heap::HeapFile;
use crate::page::{Page, PageId, PAGE_SIZE};

/// Bits of a global page id addressing the page *within* its segment.
pub const SEGMENT_PAGE_BITS: u32 = 8;

/// Hard upper bound on pages per segment (local page addressing width): 256 pages
/// = 2 MiB of 8 KiB pages.
pub const MAX_SEGMENT_PAGES: u32 = 1 << SEGMENT_PAGE_BITS;

/// Default segment capacity: 128 pages ≈ 1 MiB per segment file.
pub const DEFAULT_SEGMENT_PAGES: u32 = 128;

/// Largest allocatable segment id: global page ids pack `segment_id` into the high
/// `32 − SEGMENT_PAGE_BITS` bits, so ids past 2²⁴ − 1 would collide.  Allocation
/// refuses to cross this (≈16.7 M segments ≈ 16 TiB of churn at the default size)
/// rather than silently wrapping page ids.
pub const MAX_SEGMENT_ID: u32 = (1 << (32 - SEGMENT_PAGE_BITS)) - 1;

/// Builds the stable global page id of `local` within segment `segment_id`.
pub fn global_page_id(segment_id: u32, local: PageId) -> PageId {
    debug_assert!(local < MAX_SEGMENT_PAGES);
    debug_assert!(segment_id <= MAX_SEGMENT_ID);
    (segment_id << SEGMENT_PAGE_BITS) | local
}

/// The segment id a global page id belongs to.
pub fn segment_of(pid: PageId) -> u32 {
    pid >> SEGMENT_PAGE_BITS
}

/// The local page index of a global page id within its segment.
pub fn local_of(pid: PageId) -> PageId {
    pid & (MAX_SEGMENT_PAGES - 1)
}

/// What [`SegmentedHeap::write_replacement`] produced: the compaction hand-over result.
#[derive(Debug)]
pub struct ReplacementOutcome {
    /// The freshly allocated segment id holding the rewritten live rows.
    pub new_segment_id: u32,
    /// File bytes of the deleted original segment.
    pub old_bytes: u64,
    /// File bytes of the replacement segment.
    pub new_bytes: u64,
    /// Global page ids of the deleted original (for buffer-pool discards).
    pub old_page_ids: Vec<PageId>,
}

/// An ordered sequence of heap segments storing one persistent stream table.
#[derive(Debug)]
pub struct SegmentedHeap {
    dir: PathBuf,
    base: String,
    schema: Arc<StreamSchema>,
    /// Configured capacity per segment (≤ [`MAX_SEGMENT_PAGES`]).
    segment_pages: u32,
    /// Segments ordered by `first_row` (row order == segment order).
    segments: Vec<HeapFile>,
    next_segment_id: u32,
}

impl SegmentedHeap {
    /// Opens (or prepares to create) the segmented heap for table `base` under `dir`.
    /// Returns the heap and whether any segment already existed.
    ///
    /// Recovery duties handled here: `.seg.tmp` leftovers of an interrupted compaction
    /// are discarded, a completed replacement deletes the segment it supersedes, and a
    /// torn freshly-created segment (shorter than its header page) is removed.
    pub fn create_or_open(
        dir: &Path,
        base: &str,
        schema: Arc<StreamSchema>,
        segment_pages: u32,
    ) -> GsnResult<(SegmentedHeap, bool)> {
        let segment_pages = segment_pages.clamp(1, MAX_SEGMENT_PAGES);
        let mut segments: Vec<HeapFile> = Vec::new();
        let entries = std::fs::read_dir(dir)
            .map_err(|e| GsnError::storage(format!("cannot list data directory {dir:?}: {e}")))?;
        let prefix = format!("{base}.");
        for entry in entries {
            let entry =
                entry.map_err(|e| GsnError::storage(format!("cannot list data dir: {e}")))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !name.starts_with(&prefix) {
                continue;
            }
            let path = entry.path();
            if name.ends_with(".seg.tmp") {
                // Interrupted compaction: the original is still intact.
                let _ = std::fs::remove_file(&path);
                continue;
            }
            if !name.ends_with(".seg") {
                continue;
            }
            match HeapFile::open(&path, Arc::clone(&schema)) {
                Ok(segment) => segments.push(segment),
                Err(e) => {
                    // A file shorter than its header page is a torn create (the crash
                    // happened before the first header write completed): discard it.
                    let len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                    if len < crate::page::PAGE_SIZE as u64 {
                        let _ = std::fs::remove_file(&path);
                    } else {
                        return Err(e);
                    }
                }
            }
        }

        // Completed compaction hand-over: a replacement deletes what it supersedes.
        let present: std::collections::HashSet<u32> =
            segments.iter().map(HeapFile::segment_id).collect();
        let superseded: std::collections::HashSet<u32> = segments
            .iter()
            .filter(|s| s.replaces() != 0 && present.contains(&s.replaces()))
            .map(HeapFile::replaces)
            .collect();
        let mut kept = Vec::with_capacity(segments.len());
        for segment in segments {
            if superseded.contains(&segment.segment_id()) {
                let _ = segment.destroy();
            } else {
                kept.push(segment);
            }
        }
        kept.sort_by_key(|s| (s.first_row(), s.segment_id()));
        let existed = !kept.is_empty();
        let next_segment_id = kept
            .iter()
            .map(HeapFile::segment_id)
            .max()
            .unwrap_or(0)
            .saturating_add(1);
        Ok((
            SegmentedHeap {
                dir: dir.to_owned(),
                base: base.to_owned(),
                schema,
                segment_pages,
                segments: kept,
                next_segment_id,
            },
            existed,
        ))
    }

    /// Removes every segment (and tmp) file of table `base` under `dir` without opening
    /// them — the fresh-start path of the disk-spilled window store.
    pub fn wipe(dir: &Path, base: &str) -> GsnResult<()> {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return Ok(());
        };
        let prefix = format!("{base}.");
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let is_segment = name.ends_with(".seg") || name.ends_with(".seg.tmp");
            let is_sidecar = name.ends_with(".idx") || name.ends_with(".idx.tmp");
            if name.starts_with(&prefix) && (is_segment || is_sidecar) {
                std::fs::remove_file(entry.path()).map_err(|e| {
                    GsnError::storage(format!("cannot wipe segment file {name}: {e}"))
                })?;
            }
        }
        Ok(())
    }

    fn segment_path(&self, id: u32) -> PathBuf {
        self.dir.join(format!("{}.{id:08}.seg", self.base))
    }

    fn segment_index(&self, id: u32) -> Option<usize> {
        self.segments.iter().position(|s| s.segment_id() == id)
    }

    /// Number of segment files.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The segments in row order.
    pub fn segments(&self) -> impl Iterator<Item = &HeapFile> {
        self.segments.iter()
    }

    /// The tail (actively written) segment's id, if any segment exists.
    pub fn tail_segment_id(&self) -> Option<u32> {
        self.segments.last().map(HeapFile::segment_id)
    }

    /// The highest prune watermark persisted in any segment header.
    pub fn watermark(&self) -> u64 {
        self.segments
            .iter()
            .map(HeapFile::watermark)
            .max()
            .unwrap_or(0)
    }

    /// The smallest `first_row` across segments (`None` when empty): rows below it were
    /// reclaimed by a previous incarnation, so they are dead even if no watermark write
    /// recorded that.
    pub fn min_first_row(&self) -> Option<u64> {
        self.segments.first().map(HeapFile::first_row)
    }

    /// Persists the prune watermark into the tail segment header (a no-op before the
    /// first page is written).
    pub fn set_watermark(&mut self, watermark: u64) -> GsnResult<()> {
        match self.segments.last_mut() {
            Some(tail) => tail.set_watermark(watermark),
            None => Ok(()),
        }
    }

    /// Total file bytes across all segments.
    pub fn file_bytes(&self) -> u64 {
        self.segments.iter().map(HeapFile::file_bytes).sum()
    }

    /// Fsyncs the tail segment (sealed segments were synced when they rolled).
    pub fn sync(&mut self) -> GsnResult<()> {
        match self.segments.last_mut() {
            Some(tail) => tail.sync(),
            None => Ok(()),
        }
    }

    /// Allocates the next segment id, refusing to overflow the page-id packing.
    fn allocate_segment_id(&mut self) -> GsnResult<u32> {
        if self.next_segment_id > MAX_SEGMENT_ID {
            return Err(GsnError::storage(format!(
                "table `{}` exhausted its segment id space ({MAX_SEGMENT_ID} segments)",
                self.base
            )));
        }
        let id = self.next_segment_id;
        self.next_segment_id += 1;
        Ok(id)
    }

    fn roll(&mut self, first_row: u64) -> GsnResult<()> {
        if let Some(tail) = self.segments.last_mut() {
            tail.sync()?; // seal: everything before the new segment is durable
        }
        let id = self.allocate_segment_id()?;
        let segment = HeapFile::create(
            &self.segment_path(id),
            Arc::clone(&self.schema),
            id,
            first_row,
            0,
        )?;
        self.segments.push(segment);
        Ok(())
    }

    /// The global id of the next page an append will fill, rolling to a fresh segment
    /// (with `first_row` recorded in its header) when the tail is full.
    pub fn next_page_id(&mut self, first_row: u64) -> GsnResult<PageId> {
        let needs_roll = match self.segments.last() {
            Some(tail) => tail.page_count() >= self.segment_pages,
            None => true,
        };
        if needs_roll {
            self.roll(first_row)?;
        }
        let tail = self.segments.last().expect("tail segment exists");
        Ok(global_page_id(tail.segment_id(), tail.page_count()))
    }

    /// Appends as many of the whole pages in `run` as the tail segment has room for,
    /// with one positioned write, rolling first (with `first_row` in the new header)
    /// when the tail is full.  Returns the global id of the first page written and the
    /// number of pages written; their ids are consecutive.  A caller with a longer run
    /// calls again for the rest, which continues in a fresh segment.
    pub(crate) fn append_pages(
        &mut self,
        run: &[u8],
        first_row: u64,
    ) -> GsnResult<(PageId, usize)> {
        let first = self.next_page_id(first_row)?;
        let segment_pages = self.segment_pages;
        let tail = self.segments.last_mut().expect("tail segment exists");
        let room = (segment_pages - tail.page_count()) as usize;
        let count = (run.len() / PAGE_SIZE).min(room);
        tail.write_pages(tail.page_count(), &run[..count * PAGE_SIZE])?;
        Ok((first, count))
    }

    /// Ensures the tail segment has room for a `pages`-page overflow chain, rolling
    /// early so the chain stays within one segment when it can (chains larger than a
    /// whole segment are allowed to span segments).
    pub fn reserve_chain(&mut self, pages: u32, first_row: u64) -> GsnResult<()> {
        if pages > self.segment_pages {
            return Ok(());
        }
        if let Some(tail) = self.segments.last() {
            if tail.page_count() + pages > self.segment_pages {
                self.roll(first_row)?;
            }
        }
        Ok(())
    }

    /// Deletes a (sealed, fully dead) segment, returning the file bytes freed and the
    /// global page ids it occupied (for buffer-pool discards).
    pub fn delete_segment(&mut self, id: u32) -> GsnResult<(u64, Vec<PageId>)> {
        if self.tail_segment_id() == Some(id) {
            return Err(GsnError::internal("cannot delete the tail segment"));
        }
        let idx = self
            .segment_index(id)
            .ok_or_else(|| GsnError::internal(format!("no such segment {id}")))?;
        let segment = self.segments.remove(idx);
        let pids: Vec<PageId> = (0..segment.page_count())
            .map(|local| global_page_id(id, local))
            .collect();
        let bytes = segment.destroy()?;
        Ok((bytes, pids))
    }

    /// Compaction hand-over: writes `pages` (the surviving live rows of segment
    /// `old_id`, already packed) as a fresh replacement segment with `first_row` in its
    /// header, atomically swaps it in and deletes the original.
    pub fn write_replacement(
        &mut self,
        old_id: u32,
        first_row: u64,
        pages: &[Page],
    ) -> GsnResult<ReplacementOutcome> {
        if self.tail_segment_id() == Some(old_id) {
            return Err(GsnError::internal("cannot compact the tail segment"));
        }
        if pages.len() as u32 > MAX_SEGMENT_PAGES {
            return Err(GsnError::internal(
                "replacement segment exceeds the page addressing width",
            ));
        }
        let idx = self
            .segment_index(old_id)
            .ok_or_else(|| GsnError::internal(format!("no such segment {old_id}")))?;
        let new_id = self.allocate_segment_id()?;
        let final_path = self.segment_path(new_id);
        let tmp_path = final_path.with_extension("seg.tmp");
        let mut replacement = HeapFile::create(
            &tmp_path,
            Arc::clone(&self.schema),
            new_id,
            first_row,
            old_id,
        )?;
        for (local, page) in pages.iter().enumerate() {
            replacement.write_page(local as PageId, page)?;
        }
        replacement.sync()?;
        replacement.persist_as(&final_path)?;
        let new_bytes = replacement.file_bytes();

        let old = std::mem::replace(&mut self.segments[idx], replacement);
        let old_page_ids: Vec<PageId> = (0..old.page_count())
            .map(|local| global_page_id(old_id, local))
            .collect();
        let old_bytes = old.destroy()?;
        Ok(ReplacementOutcome {
            new_segment_id: new_id,
            old_bytes,
            new_bytes,
            old_page_ids,
        })
    }

    /// Deletes every segment file (table dropped). Consumes the heap and returns the
    /// bytes freed.
    pub fn destroy(self) -> GsnResult<u64> {
        let mut freed = 0;
        for segment in self.segments {
            freed += segment.destroy()?;
        }
        Ok(freed)
    }
}

impl PageIo for SegmentedHeap {
    fn read_page(&mut self, id: PageId) -> GsnResult<Page> {
        let idx = self
            .segment_index(segment_of(id))
            .ok_or_else(|| GsnError::storage(format!("page {id} belongs to no segment")))?;
        self.segments[idx].read_page(local_of(id))
    }

    fn write_page(&mut self, id: PageId, page: &Page) -> GsnResult<()> {
        let idx = self
            .segment_index(segment_of(id))
            .ok_or_else(|| GsnError::storage(format!("page {id} belongs to no segment")))?;
        self.segments[idx].write_page(local_of(id), page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsn_types::DataType;

    fn schema() -> Arc<StreamSchema> {
        Arc::new(StreamSchema::from_pairs(&[("v", DataType::Integer)]).unwrap())
    }

    fn record_page(tag: &[u8]) -> Page {
        let mut page = Page::new();
        page.append(tag).unwrap();
        page
    }

    #[test]
    fn pages_roll_across_segments_and_reopen() {
        let dir = crate::testutil::temp_dir("segheap-roll");
        {
            let (mut heap, existed) =
                SegmentedHeap::create_or_open(&dir, "t", schema(), 2).unwrap();
            assert!(!existed);
            for i in 0..5u64 {
                let pid = heap.next_page_id(i).unwrap();
                heap.write_page(pid, &record_page(&[i as u8])).unwrap();
            }
            // 5 pages at 2 pages/segment = 3 segments.
            assert_eq!(heap.segment_count(), 3);
            heap.set_watermark(3).unwrap();
            heap.sync().unwrap();
        }
        let (mut heap, existed) = SegmentedHeap::create_or_open(&dir, "t", schema(), 2).unwrap();
        assert!(existed);
        assert_eq!(heap.segment_count(), 3);
        assert_eq!(heap.watermark(), 3);
        assert_eq!(heap.min_first_row(), Some(0));
        let firsts: Vec<u64> = heap.segments().map(HeapFile::first_row).collect();
        assert_eq!(firsts, vec![0, 2, 4]);
        // Global ids remain addressable after reopen.
        let pid = global_page_id(heap.segments().nth(1).unwrap().segment_id(), 1);
        assert_eq!(heap.read_page(pid).unwrap().record(0), Some(&[3u8][..]));
    }

    #[test]
    fn delete_and_replacement_reclaim_files() {
        let dir = crate::testutil::temp_dir("segheap-reclaim");
        let (mut heap, _) = SegmentedHeap::create_or_open(&dir, "t", schema(), 2).unwrap();
        for i in 0..6u64 {
            let pid = heap.next_page_id(i).unwrap();
            heap.write_page(pid, &record_page(&[i as u8])).unwrap();
        }
        assert_eq!(heap.segment_count(), 3);
        let head_id = heap.segments().next().unwrap().segment_id();
        let bytes_before = heap.file_bytes();
        let (freed, pids) = heap.delete_segment(head_id).unwrap();
        assert!(freed > 0);
        assert_eq!(pids.len(), 2);
        assert_eq!(heap.segment_count(), 2);
        assert!(heap.file_bytes() < bytes_before);

        // Compact the (now) head segment down to one page.
        let victim = heap.segments().next().unwrap().segment_id();
        let outcome = heap
            .write_replacement(victim, 3, &[record_page(b"live")])
            .unwrap();
        assert!(outcome.new_bytes < outcome.old_bytes);
        assert_eq!(outcome.old_page_ids.len(), 2);
        assert_eq!(heap.segment_count(), 2);
        let replacement = heap.segments().next().unwrap();
        assert_eq!(replacement.segment_id(), outcome.new_segment_id);
        assert_eq!(replacement.first_row(), 3);
        let pid = global_page_id(outcome.new_segment_id, 0);
        assert_eq!(heap.read_page(pid).unwrap().record(0), Some(&b"live"[..]));

        // The deleted segment's pages are gone.
        assert!(heap.read_page(outcome.old_page_ids[0]).is_err());
    }

    #[test]
    fn tail_segment_is_protected() {
        let dir = crate::testutil::temp_dir("segheap-tail");
        let (mut heap, _) = SegmentedHeap::create_or_open(&dir, "t", schema(), 2).unwrap();
        let pid = heap.next_page_id(0).unwrap();
        heap.write_page(pid, &record_page(b"x")).unwrap();
        let tail = heap.tail_segment_id().unwrap();
        assert!(heap.delete_segment(tail).is_err());
        assert!(heap.write_replacement(tail, 0, &[]).is_err());
    }

    #[test]
    fn interrupted_compaction_resolves_on_open() {
        let dir = crate::testutil::temp_dir("segheap-crash");
        let old_first_row;
        {
            let (mut heap, _) = SegmentedHeap::create_or_open(&dir, "t", schema(), 2).unwrap();
            for i in 0..4u64 {
                let pid = heap.next_page_id(i).unwrap();
                heap.write_page(pid, &record_page(&[i as u8])).unwrap();
            }
            old_first_row = 0;
            heap.sync().unwrap();
        }
        // Simulate the crash window after rename, before the original was deleted:
        // hand-write a replacement for segment 1 that declares `replaces = 1`.
        {
            let mut replacement = HeapFile::create(
                &dir.join("t.00000099.seg"),
                schema(),
                99,
                old_first_row + 1,
                1,
            )
            .unwrap();
            replacement
                .write_page(0, &record_page(b"compacted"))
                .unwrap();
            replacement.sync().unwrap();
        }
        // And a stale tmp from an interrupted earlier attempt.
        std::fs::write(dir.join("t.00000098.seg.tmp"), b"half written").unwrap();

        let (heap, existed) = SegmentedHeap::create_or_open(&dir, "t", schema(), 2).unwrap();
        assert!(existed);
        // Original segment 1 was superseded and deleted; tmp discarded.
        assert!(heap.segments().all(|s| s.segment_id() != 1));
        assert!(heap.segments().any(|s| s.segment_id() == 99));
        assert!(!dir.join("t.00000098.seg.tmp").exists());
    }

    #[test]
    fn wipe_removes_all_segment_files() {
        let dir = crate::testutil::temp_dir("segheap-wipe");
        {
            let (mut heap, _) = SegmentedHeap::create_or_open(&dir, "t", schema(), 2).unwrap();
            let pid = heap.next_page_id(0).unwrap();
            heap.write_page(pid, &record_page(b"x")).unwrap();
        }
        // An unrelated table's file must survive the wipe.
        let (mut other, _) = SegmentedHeap::create_or_open(&dir, "other", schema(), 2).unwrap();
        let pid = other.next_page_id(0).unwrap();
        other.write_page(pid, &record_page(b"y")).unwrap();
        drop(other);

        SegmentedHeap::wipe(&dir, "t").unwrap();
        let (heap, existed) = SegmentedHeap::create_or_open(&dir, "t", schema(), 2).unwrap();
        assert!(!existed);
        assert_eq!(heap.segment_count(), 0);
        let (other, existed) = SegmentedHeap::create_or_open(&dir, "other", schema(), 2).unwrap();
        assert!(existed);
        assert_eq!(other.segment_count(), 1);
    }

    #[test]
    fn page_runs_fill_the_tail_then_continue_in_a_fresh_segment() {
        let dir = crate::testutil::temp_dir("segheap-runs");
        let (mut heap, _) = SegmentedHeap::create_or_open(&dir, "t", schema(), 4).unwrap();
        let pid = heap.next_page_id(0).unwrap();
        heap.write_page(pid, &record_page(b"head")).unwrap();
        let run: Vec<u8> = (0..5u8)
            .flat_map(|i| *record_page(&[i]).as_bytes())
            .collect();
        // Three pages fit the tail segment; the other two roll into a new one.
        let (first, written) = heap.append_pages(&run, 1).unwrap();
        assert_eq!((first, written), (pid + 1, 3));
        let (second, rest) = heap.append_pages(&run[written * PAGE_SIZE..], 2).unwrap();
        assert_eq!(rest, 2);
        assert_eq!(heap.segment_count(), 2);
        assert_eq!(heap.segments().nth(1).unwrap().first_row(), 2);
        for (i, id) in (first..first + 3).chain(second..second + 2).enumerate() {
            assert_eq!(heap.read_page(id).unwrap().record(0), Some(&[i as u8][..]));
        }
    }

    #[test]
    fn global_page_id_round_trips() {
        let pid = global_page_id(7, 31);
        assert_eq!(segment_of(pid), 7);
        assert_eq!(local_of(pid), 31);
    }
}
