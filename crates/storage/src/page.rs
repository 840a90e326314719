//! Fixed-size slotted pages: the unit of disk I/O and buffer-pool caching.
//!
//! A heap file is a sequence of [`PAGE_SIZE`]-byte pages.  Each page packs variable-length
//! records (encoded stream element rows, see `gsn_types::codec`) back to back from the
//! front, with a slot directory of `(offset, length)` pairs growing from the back — the
//! classic slotted layout, append-friendly because GSN tables only ever append at the
//! tail and prune from the head:
//!
//! ```text
//! +--------+-----------------------------+------------------+
//! | header | record 0 | record 1 | ...   | ... slot1 slot0 |
//! +--------+-----------------------------+------------------+
//!   4 B      grows ->                        <- grows
//! ```
//!
//! Rows larger than a page's usable space are *chained* across dedicated pages by the
//! persistent backend (see `backend`); the page itself only deals in records that fit.
//! A chain page holds exactly one record, which `format_single_record` lays out in
//! place inside a larger write buffer.

use gsn_types::{GsnError, GsnResult};

/// The size of one page in bytes.  8 KiB fits several typical sensor rows per page while
/// keeping a camera frame (32–75 KB in the paper's experiments) to a handful of overflow
/// pages.
pub const PAGE_SIZE: usize = 8192;

/// Page header: slot count (u16) + free-space offset (u16).
const HEADER_SIZE: usize = 4;
/// Slot entry: record offset (u16) + record length (u16).
const SLOT_SIZE: usize = 4;

/// The largest record a single page can hold.
pub const MAX_INLINE_RECORD: usize = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE;

/// Identifies a page within one heap file (0-based data page number).
pub type PageId = u32;

/// A fixed-size slotted page of records.
#[derive(Clone)]
pub struct Page {
    bytes: Box<[u8; PAGE_SIZE]>,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Page({} records, {} bytes free)",
            self.record_count(),
            self.free_space()
        )
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::new()
    }
}

impl Page {
    /// An empty page.
    pub fn new() -> Page {
        let mut page = Page {
            bytes: vec![0u8; PAGE_SIZE].into_boxed_slice().try_into().unwrap(),
        };
        page.set_record_count(0);
        page.set_free_start(HEADER_SIZE as u16);
        page
    }

    /// Interprets raw bytes as a page, validating the header.
    pub fn from_bytes(bytes: [u8; PAGE_SIZE]) -> GsnResult<Page> {
        let page = Page {
            bytes: Box::new(bytes),
        };
        let count = page.record_count();
        let free = page.free_start() as usize;
        if !(HEADER_SIZE..=PAGE_SIZE).contains(&free)
            || HEADER_SIZE + count * SLOT_SIZE > PAGE_SIZE
            || free > PAGE_SIZE - count * SLOT_SIZE
        {
            return Err(GsnError::storage("corrupt page header"));
        }
        for slot in 0..count {
            let (offset, len) = page.slot(slot);
            if offset < HEADER_SIZE || offset + len > free {
                return Err(GsnError::storage(format!("corrupt page slot {slot}")));
            }
        }
        Ok(page)
    }

    /// The raw page bytes (for disk I/O).
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.bytes
    }

    fn record_count_raw(&self) -> u16 {
        u16::from_le_bytes([self.bytes[0], self.bytes[1]])
    }

    fn set_record_count(&mut self, count: u16) {
        self.bytes[0..2].copy_from_slice(&count.to_le_bytes());
    }

    fn free_start(&self) -> u16 {
        u16::from_le_bytes([self.bytes[2], self.bytes[3]])
    }

    fn set_free_start(&mut self, offset: u16) {
        self.bytes[2..4].copy_from_slice(&offset.to_le_bytes());
    }

    /// Number of records stored in this page.
    pub fn record_count(&self) -> usize {
        self.record_count_raw() as usize
    }

    /// True when the page holds no records.
    pub fn is_empty(&self) -> bool {
        self.record_count() == 0
    }

    fn slot_position(&self, slot: usize) -> usize {
        PAGE_SIZE - (slot + 1) * SLOT_SIZE
    }

    fn slot(&self, slot: usize) -> (usize, usize) {
        let pos = self.slot_position(slot);
        let offset = u16::from_le_bytes([self.bytes[pos], self.bytes[pos + 1]]) as usize;
        let len = u16::from_le_bytes([self.bytes[pos + 2], self.bytes[pos + 3]]) as usize;
        (offset, len)
    }

    /// Bytes still available for one more record (accounting for its slot entry).
    pub fn free_space(&self) -> usize {
        let used_front = self.free_start() as usize;
        let used_back = self.record_count() * SLOT_SIZE;
        PAGE_SIZE
            .saturating_sub(used_front)
            .saturating_sub(used_back)
            .saturating_sub(SLOT_SIZE)
    }

    /// True when `record` fits into this page.
    pub fn fits(&self, record: &[u8]) -> bool {
        record.len() <= self.free_space()
    }

    /// Appends a record, returning its slot index, or `None` when the page is full.
    pub fn append(&mut self, record: &[u8]) -> Option<usize> {
        self.append_parts(&[record])
    }

    /// Appends one record whose bytes are the concatenation of `parts`, copied straight
    /// into the page (no joined temporary), returning its slot index, or `None` when
    /// the page is full.
    pub(crate) fn append_parts(&mut self, parts: &[&[u8]]) -> Option<usize> {
        let len: usize = parts.iter().map(|part| part.len()).sum();
        if len > self.free_space() || len > MAX_INLINE_RECORD {
            return None;
        }
        let slot = self.record_count();
        let offset = self.free_start() as usize;
        place_record(&mut self.bytes[..], slot, offset, parts);
        Some(slot)
    }

    /// Borrows the record in `slot`.
    pub fn record(&self, slot: usize) -> Option<&[u8]> {
        if slot >= self.record_count() {
            return None;
        }
        let (offset, len) = self.slot(slot);
        Some(&self.bytes[offset..offset + len])
    }

    /// Iterates over all records in slot order.
    pub fn records(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.record_count()).map(move |slot| {
            let (offset, len) = self.slot(slot);
            &self.bytes[offset..offset + len]
        })
    }
}

/// Lays out `out` — exactly one page of bytes — as a page holding the single record
/// `parts` (concatenated): byte-for-byte what [`Page::new`] plus one
/// [`Page::append_parts`] produce, but written in place, so a run of pages can be built
/// inside one write buffer.
///
/// # Panics
/// When `out` is not [`PAGE_SIZE`] bytes or the record exceeds [`MAX_INLINE_RECORD`].
pub(crate) fn format_single_record(out: &mut [u8], parts: &[&[u8]]) {
    assert_eq!(out.len(), PAGE_SIZE, "a page is PAGE_SIZE bytes");
    let len: usize = parts.iter().map(|part| part.len()).sum();
    assert!(
        len <= MAX_INLINE_RECORD,
        "record of {len} bytes exceeds a page"
    );
    place_record(out, 0, HEADER_SIZE, parts);
    out[HEADER_SIZE + len..PAGE_SIZE - SLOT_SIZE].fill(0);
}

/// Copies `parts` to `offset` as record `slot` and updates the slot entry and header.
/// The caller has checked that the record fits.
fn place_record(bytes: &mut [u8], slot: usize, offset: usize, parts: &[&[u8]]) {
    let mut end = offset;
    for part in parts {
        bytes[end..end + part.len()].copy_from_slice(part);
        end += part.len();
    }
    let pos = PAGE_SIZE - (slot + 1) * SLOT_SIZE;
    bytes[pos..pos + 2].copy_from_slice(&(offset as u16).to_le_bytes());
    bytes[pos + 2..pos + 4].copy_from_slice(&((end - offset) as u16).to_le_bytes());
    bytes[0..2].copy_from_slice(&((slot + 1) as u16).to_le_bytes());
    bytes[2..4].copy_from_slice(&(end as u16).to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_read_back() {
        let mut page = Page::new();
        let a = page.append(b"alpha").unwrap();
        let b = page.append(b"bravo-bravo").unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(page.record(0), Some(&b"alpha"[..]));
        assert_eq!(page.record(1), Some(&b"bravo-bravo"[..]));
        assert_eq!(page.record(2), None);
        assert_eq!(page.record_count(), 2);
        let collected: Vec<&[u8]> = page.records().collect();
        assert_eq!(collected, vec![&b"alpha"[..], &b"bravo-bravo"[..]]);
    }

    #[test]
    fn fills_up_and_rejects_when_full() {
        let mut page = Page::new();
        let record = [7u8; 100];
        let mut count = 0;
        while page.append(&record).is_some() {
            count += 1;
        }
        // 100 B of data + 4 B slot per record out of 8188 usable bytes.
        assert_eq!(count, (PAGE_SIZE - HEADER_SIZE) / (100 + SLOT_SIZE));
        assert!(page.free_space() < 100);
        // Small records still fit after large ones stop fitting.
        assert!(page.append(&[1u8; 8]).is_some());
    }

    #[test]
    fn empty_records_are_allowed() {
        let mut page = Page::new();
        page.append(b"").unwrap();
        page.append(b"x").unwrap();
        assert_eq!(page.record(0), Some(&b""[..]));
        assert_eq!(page.record(1), Some(&b"x"[..]));
    }

    #[test]
    fn oversized_record_is_rejected() {
        let mut page = Page::new();
        assert!(page.append(&vec![0u8; MAX_INLINE_RECORD + 1]).is_none());
        assert!(page.append(&vec![0u8; MAX_INLINE_RECORD]).is_some());
    }

    #[test]
    fn in_place_single_record_page_matches_an_appended_page() {
        let chunk = vec![0xABu8; MAX_INLINE_RECORD - 1];
        for parts in [
            &[&b"\x03"[..], &chunk[..]][..],
            &[&b""[..]][..],
            &[&b"ab"[..], b"c"][..],
        ] {
            let mut expected = Page::new();
            expected.append_parts(parts).unwrap();
            let mut out = vec![0xFFu8; PAGE_SIZE];
            format_single_record(&mut out, parts);
            assert_eq!(&out[..], &expected.as_bytes()[..]);
        }
        // append_parts joins its parts exactly as append does.
        let mut page = Page::new();
        page.append_parts(&[b"al", b"", b"pha"]).unwrap();
        assert_eq!(page.record(0), Some(&b"alpha"[..]));
    }

    #[test]
    fn round_trips_through_bytes() {
        let mut page = Page::new();
        page.append(b"one").unwrap();
        page.append(b"two").unwrap();
        let restored = Page::from_bytes(*page.as_bytes()).unwrap();
        assert_eq!(restored.record_count(), 2);
        assert_eq!(restored.record(1), Some(&b"two"[..]));
    }

    #[test]
    fn corrupt_headers_are_rejected() {
        let mut bytes = [0u8; PAGE_SIZE];
        // free_start below the header.
        bytes[2..4].copy_from_slice(&1u16.to_le_bytes());
        assert!(Page::from_bytes(bytes).is_err());
        // Slot pointing past free space.
        let mut page = Page::new();
        page.append(b"data").unwrap();
        let mut raw = *page.as_bytes();
        let pos = PAGE_SIZE - SLOT_SIZE;
        raw[pos..pos + 2].copy_from_slice(&7000u16.to_le_bytes());
        assert!(Page::from_bytes(raw).is_err());
    }
}
