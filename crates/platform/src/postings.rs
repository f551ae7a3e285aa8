//! Delta + varint compressed positional postings with block skip pointers.
//!
//! A posting list stores `(doc, positions)` entries ascending by doc id.
//! The compressed layout encodes each entry as
//!
//! ```text
//! [doc_delta varint][blob_len varint][blob]
//! blob = [npos varint][pos_0 varint][pos_delta varint]...
//! ```
//!
//! where `doc_delta` is against the previous entry's doc id (the first
//! entry's base is 0) and `blob_len` lets a scan skip an entry's positions
//! without decoding them. Every [`BLOCK`] entries a skip pointer records
//! the byte offset, entry ordinal and delta base of the next block, so a
//! [`Cursor`] probing for a target doc id can jump whole blocks; only
//! entries actually *decoded* count as scanned, which is what the
//! `index.postings_scanned` histogram observes.

use wf_types::DocId;

/// Entries per skip block. Small enough that a probe decodes at most a
/// handful of entries after the jump, large enough that the skip table
/// stays a negligible fraction of the postings bytes.
pub const BLOCK: usize = 32;

/// Appends `v` to `out` as an LEB128 varint.
pub fn write_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint at `*pos`, advancing it. Returns `None` on
/// truncated input or a value overflowing u64.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        let chunk = (byte & 0x7f) as u64;
        if shift >= 64 || (shift == 63 && chunk > 1) {
            return None;
        }
        v |= chunk << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// A skip pointer: the start of one block of [`BLOCK`] entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Skip {
    /// Doc id of the last entry *before* this block (the delta base).
    base_doc: u64,
    /// Byte offset of the block's first entry.
    offset: usize,
    /// Ordinal of the block's first entry.
    index: usize,
}

/// A compressed positional posting list (ascending by doc id).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompressedPostings {
    bytes: Vec<u8>,
    skips: Vec<Skip>,
    count: usize,
    last_doc: u64,
}

impl CompressedPostings {
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a list from entries already ascending by doc id.
    pub fn from_entries<P: AsRef<[u32]>>(entries: &[(DocId, P)]) -> Self {
        let mut out = Self::new();
        for (doc, positions) in entries {
            out.push(*doc, positions.as_ref());
        }
        out
    }

    /// Appends one entry; `doc` must exceed every doc already present.
    pub fn push(&mut self, doc: DocId, positions: &[u32]) {
        assert!(
            self.count == 0 || doc.0 > self.last_doc,
            "postings must be pushed in ascending doc order"
        );
        let mut blob = Vec::with_capacity(positions.len() + 1);
        write_varint(positions.len() as u64, &mut blob);
        let mut prev = 0u32;
        for (i, &p) in positions.iter().enumerate() {
            let delta = if i == 0 { p } else { p - prev };
            write_varint(delta as u64, &mut blob);
            prev = p;
        }
        self.push_blob(doc, &blob);
    }

    /// Appends one entry whose position blob is already encoded; only the
    /// doc-id delta and the blob length are written afresh.
    fn push_blob(&mut self, doc: DocId, blob: &[u8]) {
        if self.count > 0 && self.count.is_multiple_of(BLOCK) {
            self.skips.push(Skip {
                base_doc: self.last_doc,
                offset: self.bytes.len(),
                index: self.count,
            });
        }
        write_varint(
            doc.0 - if self.count == 0 { 0 } else { self.last_doc },
            &mut self.bytes,
        );
        write_varint(blob.len() as u64, &mut self.bytes);
        self.bytes.extend_from_slice(blob);
        self.last_doc = doc.0;
        self.count += 1;
    }

    /// The list with `batch` (strictly ascending by doc id) upserted and
    /// `drop` left out, in one pass over the old list. Entries the batch
    /// does not replace are copied as their encoded position blobs, so
    /// the result is byte-identical to decoding, merging and
    /// re-encoding with [`CompressedPostings::from_entries`].
    pub fn merged<P: AsRef<[u32]>>(&self, batch: &[(DocId, P)], drop: Option<DocId>) -> Self {
        let mut out = Self {
            bytes: Vec::with_capacity(self.bytes.len() + 4 * batch.len()),
            ..Self::default()
        };
        let mut cursor = self.cursor();
        let mut old = cursor.next();
        let mut new = batch.iter().peekable();
        loop {
            match (old, new.peek()) {
                (Some(doc), Some((next, positions))) if *next <= doc => {
                    out.push(*next, positions.as_ref());
                    if *next == doc {
                        old = cursor.next();
                    }
                    new.next();
                }
                (Some(doc), _) => {
                    if drop != Some(doc) {
                        out.push_blob(doc, cursor.blob());
                    }
                    old = cursor.next();
                }
                (None, Some((next, positions))) => {
                    out.push(*next, positions.as_ref());
                    new.next();
                }
                (None, None) => return out,
            }
        }
    }

    /// Number of documents in the list.
    pub fn doc_count(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Encoded size in bytes (postings only, excluding the skip table).
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Highest doc id in the list.
    pub fn last_doc(&self) -> Option<DocId> {
        (self.count > 0).then_some(DocId(self.last_doc))
    }

    /// Decodes the full list back to `(doc, positions)` entries.
    pub fn decode(&self) -> Vec<(DocId, Vec<u32>)> {
        let mut out = Vec::with_capacity(self.count);
        let mut cursor = self.cursor();
        while let Some(doc) = cursor.next() {
            out.push((doc, cursor.positions()));
        }
        out
    }

    /// Decodes doc ids only, skipping every position blob.
    pub fn docs(&self) -> Vec<DocId> {
        let mut out = Vec::with_capacity(self.count);
        let mut cursor = self.cursor();
        while let Some(doc) = cursor.next() {
            out.push(doc);
        }
        out
    }

    /// A scanning cursor positioned before the first entry.
    pub fn cursor(&self) -> Cursor<'_> {
        Cursor {
            postings: self,
            pos: 0,
            index: 0,
            prev_doc: 0,
            current: None,
            scanned: 0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct CurrentEntry {
    doc: u64,
    blob_start: usize,
    blob_end: usize,
}

/// Forward scanner over a [`CompressedPostings`] list. Decoded entries are
/// tallied in [`Cursor::scanned`]; block jumps via the skip table are free,
/// which is exactly the pruning the postings-scanned histogram should see.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    postings: &'a CompressedPostings,
    /// Byte offset of the next undecoded entry.
    pos: usize,
    /// Ordinal of the next undecoded entry.
    index: usize,
    /// Delta base for the next entry.
    prev_doc: u64,
    current: Option<CurrentEntry>,
    scanned: u64,
}

impl<'a> Cursor<'a> {
    /// Posting entries decoded by this cursor so far.
    pub fn scanned(&self) -> u64 {
        self.scanned
    }

    /// Doc id the cursor is parked on, if any.
    pub fn current(&self) -> Option<DocId> {
        self.current.map(|c| DocId(c.doc))
    }

    /// Decodes the next entry sequentially.
    #[allow(clippy::should_implement_trait)] // cursor advance, not an Iterator
    pub fn next(&mut self) -> Option<DocId> {
        if self.index >= self.postings.count {
            self.current = None;
            return None;
        }
        let bytes = &self.postings.bytes;
        let delta = read_varint(bytes, &mut self.pos).expect("valid postings");
        let blob_len = read_varint(bytes, &mut self.pos).expect("valid postings") as usize;
        let doc = self.prev_doc + delta;
        let entry = CurrentEntry {
            doc,
            blob_start: self.pos,
            blob_end: self.pos + blob_len,
        };
        self.pos = entry.blob_end;
        self.prev_doc = doc;
        self.index += 1;
        self.scanned += 1;
        self.current = Some(entry);
        Some(DocId(doc))
    }

    /// Advances to the first entry with doc id `>= target`, jumping whole
    /// blocks via the skip table where possible. Returns that doc id, or
    /// `None` when the list is exhausted (the cursor stays exhausted).
    pub fn advance_to(&mut self, target: DocId) -> Option<DocId> {
        if let Some(c) = self.current {
            if c.doc >= target.0 {
                return Some(DocId(c.doc));
            }
        }
        // Jump to the furthest block whose delta base is still below the
        // target; everything skipped over is never decoded.
        let skips = &self.postings.skips;
        let cut = skips.partition_point(|s| s.base_doc < target.0);
        if cut > 0 {
            let s = skips[cut - 1];
            if s.index > self.index {
                self.pos = s.offset;
                self.index = s.index;
                self.prev_doc = s.base_doc;
                self.current = None;
            }
        }
        while let Some(doc) = self.next() {
            if doc.0 >= target.0 {
                return Some(doc);
            }
        }
        None
    }

    /// The current entry's encoded position blob (empty when the cursor
    /// is not parked on an entry).
    fn blob(&self) -> &'a [u8] {
        self.current
            .map_or(&[], |c| &self.postings.bytes[c.blob_start..c.blob_end])
    }

    /// Decodes the positions of the current entry.
    pub fn positions(&self) -> Vec<u32> {
        if self.current.is_none() {
            return Vec::new();
        }
        let blob = self.blob();
        let mut pos = 0usize;
        let npos = read_varint(blob, &mut pos).expect("valid blob") as usize;
        let mut out = Vec::with_capacity(npos);
        let mut prev = 0u32;
        for i in 0..npos {
            let delta = read_varint(blob, &mut pos).expect("valid blob") as u32;
            prev = if i == 0 { delta } else { prev + delta };
            out.push(prev);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(specs: &[(u64, &[u32])]) -> Vec<(DocId, Vec<u32>)> {
        specs
            .iter()
            .map(|&(d, ps)| (DocId(d), ps.to_vec()))
            .collect()
    }

    #[test]
    fn varint_round_trip_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(v, &mut buf);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        assert_eq!(read_varint(&[], &mut 0), None);
        assert_eq!(read_varint(&[0x80], &mut 0), None);
        // 11 continuation bytes overflow 64 bits
        let over = [0xff; 10];
        let mut with_term = over.to_vec();
        with_term.push(0x7f);
        assert_eq!(read_varint(&with_term, &mut 0), None);
    }

    #[test]
    fn encode_decode_round_trip() {
        let es = entries(&[
            (0, &[0, 1, 7]),
            (1, &[3]),
            (5, &[]),
            (1000, &[100, 200, 4096]),
            (u64::MAX, &[u32::MAX]),
        ]);
        let cp = CompressedPostings::from_entries(&es);
        assert_eq!(cp.doc_count(), es.len());
        assert_eq!(cp.decode(), es);
        assert_eq!(cp.docs(), es.iter().map(|(d, _)| *d).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_entry_lists() {
        let empty = CompressedPostings::new();
        assert!(empty.is_empty());
        assert!(empty.decode().is_empty());
        assert_eq!(empty.cursor().scanned(), 0);
        assert_eq!(empty.last_doc(), None);

        let single = CompressedPostings::from_entries(&entries(&[(42, &[7])]));
        assert_eq!(single.doc_count(), 1);
        assert_eq!(single.last_doc(), Some(DocId(42)));
        let mut c = single.cursor();
        assert_eq!(c.advance_to(DocId(42)), Some(DocId(42)));
        assert_eq!(c.positions(), vec![7]);
        assert_eq!(c.advance_to(DocId(43)), None);
    }

    #[test]
    fn cursor_skips_blocks_without_scanning() {
        // 10 blocks of postings; probing the tail must not decode the head.
        let es: Vec<(DocId, Vec<u32>)> = (0..(BLOCK as u64 * 10))
            .map(|d| (DocId(d * 3), vec![0]))
            .collect();
        let cp = CompressedPostings::from_entries(&es);
        let mut c = cp.cursor();
        let target = es[es.len() - 2].0;
        assert_eq!(c.advance_to(target), Some(target));
        assert!(
            c.scanned() <= BLOCK as u64,
            "skip table should bound decodes to one block, scanned {}",
            c.scanned()
        );
        let mut full = cp.cursor();
        while full.next().is_some() {}
        assert_eq!(full.scanned(), es.len() as u64);
    }

    /// The slow path `merged` replaces: decode, merge, re-encode.
    fn decode_merge_encode(
        list: &CompressedPostings,
        batch: &[(DocId, Vec<u32>)],
        drop: Option<DocId>,
    ) -> CompressedPostings {
        let mut es = list.decode();
        es.retain(|e| Some(e.0) != drop);
        for (doc, positions) in batch {
            match es.binary_search_by_key(doc, |e| e.0) {
                Ok(i) => es[i].1 = positions.clone(),
                Err(i) => es.insert(i, (*doc, positions.clone())),
            }
        }
        CompressedPostings::from_entries(&es)
    }

    /// `merged` must equal the slow path field by field: bytes, skip
    /// table, count and last doc.
    fn assert_merge_matches(
        list: &[(DocId, Vec<u32>)],
        batch: &[(DocId, Vec<u32>)],
        drop: Option<DocId>,
    ) {
        let cp = CompressedPostings::from_entries(list);
        let fast = cp.merged(batch, drop);
        let slow = decode_merge_encode(&cp, batch, drop);
        assert_eq!(
            fast.bytes, slow.bytes,
            "bytes for batch {batch:?} drop {drop:?}"
        );
        assert_eq!(
            fast.skips, slow.skips,
            "skips for batch {batch:?} drop {drop:?}"
        );
        assert_eq!(fast, slow);
    }

    /// Docs `start, start + step, ...` (`n` of them), each with positions
    /// derived from the doc id so replaced entries are distinguishable.
    fn run(start: u64, step: u64, n: u64, salt: u32) -> Vec<(DocId, Vec<u32>)> {
        (0..n)
            .map(|i| {
                let d = start + i * step;
                (DocId(d), vec![salt, salt + 1 + (d % 5) as u32])
            })
            .collect()
    }

    #[test]
    fn merged_with_empty_batch_is_a_byte_copy() {
        let list = run(3, 2, 40, 0);
        assert_merge_matches(&list, &[], None);
        assert_merge_matches(&[], &[], None);
        let cp = CompressedPostings::from_entries(&list);
        assert_eq!(cp.merged::<Vec<u32>>(&[], None), cp);
    }

    #[test]
    fn merged_batch_before_after_and_interleaved() {
        let list = run(100, 4, 20, 0);
        assert_merge_matches(&list, &run(0, 1, 10, 7), None); // before
        assert_merge_matches(&list, &run(1_000, 3, 10, 7), None); // after
        assert_merge_matches(&list, &run(98, 4, 25, 7), None); // interleaved
        assert_merge_matches(&list, &run(101, 1, 90, 7), None); // dense mix
        assert_merge_matches(&[], &run(5, 5, 10, 7), None); // into empty
    }

    #[test]
    fn merged_batch_replaces_existing_docs() {
        let list = run(10, 10, 12, 0);
        // every other existing doc, with new positions
        let replace: Vec<_> = run(10, 20, 6, 50);
        assert_merge_matches(&list, &replace, None);
        // replace all, with some positions emptied
        let mut all = run(10, 10, 12, 9);
        all[3].1.clear();
        assert_merge_matches(&list, &all, None);
        let merged = CompressedPostings::from_entries(&list).merged(&all, None);
        assert_eq!(merged.decode(), all);
    }

    #[test]
    fn merged_drops_first_last_only_and_absent() {
        let list = run(4, 3, 10, 0);
        assert_merge_matches(&list, &[], Some(DocId(4))); // first
        assert_merge_matches(&list, &[], Some(DocId(31))); // last
        assert_merge_matches(&list, &[], Some(DocId(5))); // absent, inside
        assert_merge_matches(&list, &[], Some(DocId(999))); // absent, past end
        let only = run(8, 1, 1, 0);
        assert_merge_matches(&only, &[], Some(DocId(8)));
        assert!(CompressedPostings::from_entries(&only)
            .merged::<Vec<u32>>(&[], Some(DocId(8)))
            .is_empty());
        // drop alongside an upsert elsewhere
        assert_merge_matches(&list, &run(6, 9, 3, 4), Some(DocId(13)));
    }

    #[test]
    fn merged_across_block_boundaries() {
        let n = BLOCK as u64 * 3 + 5;
        let list = run(0, 2, n, 0);
        // odd docs shift every later entry past a block boundary
        assert_merge_matches(&list, &run(1, 2, n, 3), None);
        // one entry before the first boundary moves it by one
        assert_merge_matches(&list, &run(1, 1, 1, 3), None);
        // dropping an entry pulls the next block's head into this one
        assert_merge_matches(&list, &[], Some(DocId(2)));
        assert_merge_matches(&list, &[], Some(DocId(2 * BLOCK as u64)));
        // a list exactly one block long, then grown past it
        let block = run(0, 1, BLOCK as u64, 0);
        assert_merge_matches(&block, &run(BLOCK as u64, 1, 1, 1), None);
        assert_merge_matches(&block, &[], Some(DocId(BLOCK as u64 - 1)));
    }

    #[test]
    fn merged_handles_max_doc_id() {
        let wide = entries(&[(0, &[3]), (u64::MAX, &[u32::MAX])]);
        assert_merge_matches(&wide, &entries(&[(1, &[1])]), None);
        assert_merge_matches(&wide, &entries(&[(u64::MAX, &[0, 9])]), None);
        assert_merge_matches(&wide, &[], Some(DocId(u64::MAX)));
        assert_merge_matches(&wide, &[], Some(DocId(0)));
        assert_merge_matches(&entries(&[(7, &[])]), &entries(&[(u64::MAX, &[2])]), None);
    }

    #[test]
    fn advance_to_between_docs_lands_on_next() {
        let cp = CompressedPostings::from_entries(&entries(&[(2, &[1]), (8, &[2]), (9, &[3])]));
        let mut c = cp.cursor();
        assert_eq!(c.advance_to(DocId(3)), Some(DocId(8)));
        assert_eq!(c.positions(), vec![2]);
        // non-advancing repeat is free
        let scanned = c.scanned();
        assert_eq!(c.advance_to(DocId(8)), Some(DocId(8)));
        assert_eq!(c.scanned(), scanned);
        assert_eq!(c.advance_to(DocId(9)), Some(DocId(9)));
    }
}
