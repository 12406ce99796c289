//! A page-backed B+tree.
//!
//! This is the engine's clustered index: leaves hold the full row payload,
//! keyed by the order-preserving bytes of [`crate::key`], so key
//! comparisons are plain `memcmp` against page memory — no decoding, no
//! allocation on the search path. Range scans descend once and then walk
//! the leaf sibling chain, which is what makes the paper's zone joins
//! (`WHERE zoneID = @z AND ra BETWEEN ..`) cheap.
//!
//! ## Node layout (one 8 KiB page)
//!
//! ```text
//! 0      : node type (0 = leaf, 1 = inner)
//! 1..3   : entry count, u16 LE
//! 3..5   : free_end, u16 LE (cells grow down from the page end)
//! 5..9   : extra, u32 LE — leaf: right-sibling page; inner: leftmost child
//! 9..9+4n: slot array, key-sorted: (cell offset u16, cell len u16)
//! ```
//!
//! Cells: `[key_len u16][key bytes][payload]`; inner payloads are a child
//! page id (u32 LE). Deletes remove the slot and leave a cell hole; inserts
//! compact the page when the hole space is needed. Underfull nodes are not
//! rebalanced — the workloads here are bulk-load and append heavy, and a
//! simulator does not need delete-side rebalancing (documented trade-off).

use crate::buffer::BufferPool;
use crate::error::{DbError, DbResult};
use crate::page::PAGE_SIZE;
use crate::store::{PageId, NO_PAGE};
use std::ops::Bound;
use std::sync::Arc;

const T_LEAF: u8 = 0;
const T_INNER: u8 = 1;
const HDR: usize = 9;
const SLOT: usize = 4;

/// Root-to-leaf descents (point lookups and range-scan seeks). One seek
/// per query is the B+tree promise the zone join relies on; a regression
/// here shows up as this counter outpacing query counts.
fn seeks() -> &'static obs::Counter {
    static C: std::sync::OnceLock<obs::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| obs::counter("stardb.btree.seeks"))
}

/// Largest key+payload combination a single node accepts. Half a page keeps
/// splits always possible.
pub const MAX_ENTRY: usize = (PAGE_SIZE - HDR - SLOT) / 2 - 8;

// ---- raw node accessors -------------------------------------------------

#[inline]
fn node_type(p: &[u8]) -> u8 {
    p[0]
}
#[inline]
fn set_node_type(p: &mut [u8], t: u8) {
    p[0] = t;
}
#[inline]
fn count(p: &[u8]) -> usize {
    u16::from_le_bytes([p[1], p[2]]) as usize
}
#[inline]
fn set_count(p: &mut [u8], n: usize) {
    p[1..3].copy_from_slice(&(n as u16).to_le_bytes());
}
#[inline]
fn free_end(p: &[u8]) -> usize {
    u16::from_le_bytes([p[3], p[4]]) as usize
}
#[inline]
fn set_free_end(p: &mut [u8], v: usize) {
    p[3..5].copy_from_slice(&(v as u16).to_le_bytes());
}
#[inline]
fn extra(p: &[u8]) -> u32 {
    u32::from_le_bytes([p[5], p[6], p[7], p[8]])
}
#[inline]
fn set_extra(p: &mut [u8], v: u32) {
    p[5..9].copy_from_slice(&v.to_le_bytes());
}
#[inline]
fn slot(p: &[u8], i: usize) -> (usize, usize) {
    let b = HDR + i * SLOT;
    (
        u16::from_le_bytes([p[b], p[b + 1]]) as usize,
        u16::from_le_bytes([p[b + 2], p[b + 3]]) as usize,
    )
}
#[inline]
fn set_slot(p: &mut [u8], i: usize, off: usize, len: usize) {
    let b = HDR + i * SLOT;
    p[b..b + 2].copy_from_slice(&(off as u16).to_le_bytes());
    p[b + 2..b + 4].copy_from_slice(&(len as u16).to_le_bytes());
}

#[inline]
fn cell(p: &[u8], i: usize) -> &[u8] {
    let (off, len) = slot(p, i);
    &p[off..off + len]
}

#[inline]
fn cell_key(p: &[u8], i: usize) -> &[u8] {
    let c = cell(p, i);
    let klen = u16::from_le_bytes([c[0], c[1]]) as usize;
    &c[2..2 + klen]
}

#[inline]
fn cell_payload(p: &[u8], i: usize) -> &[u8] {
    let c = cell(p, i);
    let klen = u16::from_le_bytes([c[0], c[1]]) as usize;
    &c[2 + klen..]
}

fn init_node(p: &mut [u8], t: u8) {
    set_node_type(p, t);
    set_count(p, 0);
    set_free_end(p, PAGE_SIZE);
    set_extra(p, NO_PAGE.0);
}

/// Binary search: position of the first entry with key >= `key`, plus
/// whether an exact match sits there.
fn search(p: &[u8], key: &[u8]) -> (usize, bool) {
    let n = count(p);
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        match cell_key(p, mid).cmp(key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Equal => return (mid, true),
            std::cmp::Ordering::Greater => hi = mid,
        }
    }
    (lo, false)
}

/// For an inner node: the child to descend into for `key`.
fn child_for(p: &[u8], key: &[u8]) -> DbResult<PageId> {
    let (pos, exact) = search(p, key);
    // Entry i separates: keys < entries[i].key go left of it. An exact
    // match belongs to the right child (separators are copied-up leaf
    // keys: the key itself lives right).
    let idx = if exact { pos + 1 } else { pos };
    if idx == 0 {
        Ok(PageId(extra(p)))
    } else {
        let raw: [u8; 4] = cell_payload(p, idx - 1)
            .try_into()
            .map_err(|_| DbError::Corrupt("inner node child pointer truncated".into()))?;
        Ok(PageId(u32::from_le_bytes(raw)))
    }
}

fn contiguous_free(p: &[u8]) -> usize {
    free_end(p) - (HDR + count(p) * SLOT)
}

fn total_free(p: &[u8]) -> usize {
    let live: usize = (0..count(p)).map(|i| slot(p, i).1).sum();
    PAGE_SIZE - HDR - count(p) * SLOT - live
}

fn compact_node(p: &mut [u8]) {
    let n = count(p);
    let mut cells: Vec<(usize, Vec<u8>)> = (0..n).map(|i| (i, cell(p, i).to_vec())).collect();
    let mut end = PAGE_SIZE;
    // Rewrite from the page end; order within the payload area is
    // irrelevant as slots carry the offsets.
    for (i, bytes) in cells.drain(..) {
        end -= bytes.len();
        p[end..end + bytes.len()].copy_from_slice(&bytes);
        set_slot(p, i, end, bytes.len());
    }
    set_free_end(p, end);
}

/// Insert a cell at slot position `pos`. Caller must have verified fit.
fn insert_at(p: &mut [u8], pos: usize, key: &[u8], payload: &[u8]) {
    let cell_len = 2 + key.len() + payload.len();
    if contiguous_free(p) < cell_len + SLOT {
        compact_node(p);
    }
    debug_assert!(contiguous_free(p) >= cell_len + SLOT, "insert_at without room");
    let n = count(p);
    let off = free_end(p) - cell_len;
    p[off..off + 2].copy_from_slice(&(key.len() as u16).to_le_bytes());
    p[off + 2..off + 2 + key.len()].copy_from_slice(key);
    p[off + 2 + key.len()..off + cell_len].copy_from_slice(payload);
    set_free_end(p, off);
    // Shift the slot array open.
    let start = HDR + pos * SLOT;
    let end = HDR + n * SLOT;
    p.copy_within(start..end, start + SLOT);
    set_slot(p, pos, off, cell_len);
    set_count(p, n + 1);
}

/// Remove the slot at `pos` (cell bytes become a hole).
fn remove_at(p: &mut [u8], pos: usize) {
    let n = count(p);
    let start = HDR + (pos + 1) * SLOT;
    let end = HDR + n * SLOT;
    p.copy_within(start..end, start - SLOT);
    set_count(p, n - 1);
}

fn fits(p: &[u8], key: &[u8], payload: &[u8]) -> bool {
    total_free(p) >= 2 + key.len() + payload.len() + SLOT
}

// ---- the tree ------------------------------------------------------------

/// A unique-key B+tree over a buffer pool.
pub struct BTree {
    pool: Arc<BufferPool>,
    root: PageId,
    len: u64,
    /// When set, every read resolves pages at this snapshot epoch
    /// through the MVCC version table ([`BufferPool::with_page_at`]).
    snap: Option<u64>,
}

enum Ins {
    Done,
    Split { sep: Vec<u8>, right: PageId },
}

impl BTree {
    /// Create an empty tree.
    pub fn create(pool: Arc<BufferPool>) -> DbResult<Self> {
        let root = pool.allocate()?;
        pool.with_page_mut(root, |p| init_node(p, T_LEAF))?;
        Ok(BTree { pool, root, len: 0, snap: None })
    }

    /// Re-attach a tree recovered from a WAL catalog: root and length were
    /// serialized at commit, node contents replay from the log.
    pub fn attach(pool: Arc<BufferPool>, root: PageId, len: u64) -> Self {
        BTree { pool, root, len, snap: None }
    }

    /// A read-only view of this tree as committed (its `root`/`len` now)
    /// pinned at snapshot epoch `snap`: reads resolve copy-on-write page
    /// versions, so the view is stable while writers commit concurrently.
    pub(crate) fn at(&self, snap: u64) -> Self {
        BTree { pool: self.pool.clone(), root: self.root, len: self.len, snap: Some(snap) }
    }

    /// The current root page (serialized into WAL commit catalogs).
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Read a page at this tree's visibility: the pinned snapshot when one
    /// is set, the live frame otherwise.
    fn read<R>(&self, pid: PageId, f: impl FnOnce(&[u8]) -> R) -> DbResult<R> {
        match self.snap {
            Some(s) => self.pool.with_page_at(pid, s, f),
            None => self.pool.with_page(pid, f),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Point lookup: the payload stored under `key`.
    pub fn get(&self, key: &[u8]) -> DbResult<Option<Vec<u8>>> {
        self.get_with(key, <[u8]>::to_vec)
    }

    /// Point lookup without a copy: `visit` is lent the payload stored
    /// under `key` straight from the leaf cell, under the latch of the
    /// page holding it — so, like a [`BTree::scan_range_with`] visitor, it
    /// must not read through the same buffer pool. `None` when the key is
    /// absent.
    pub(crate) fn get_with<R>(
        &self,
        key: &[u8],
        visit: impl FnOnce(&[u8]) -> R,
    ) -> DbResult<Option<R>> {
        seeks().incr();
        let mut pid = self.root;
        let mut visit = Some(visit);
        loop {
            enum Step<R> {
                Descend(PageId),
                Found(Option<R>),
            }
            let step = self.read(pid, |p| -> DbResult<Step<R>> {
                if node_type(p) == T_INNER {
                    Ok(Step::Descend(child_for(p, key)?))
                } else {
                    let (pos, exact) = search(p, key);
                    let visit = visit.take().expect("a leaf ends the descent");
                    Ok(Step::Found(exact.then(|| visit(cell_payload(p, pos)))))
                }
            })??;
            match step {
                Step::Descend(c) => pid = c,
                Step::Found(v) => return Ok(v),
            }
        }
    }

    /// Whether one node can hold `key` with `payload`
    /// ([`DbError::RecordTooLarge`] otherwise): the check [`BTree::insert`]
    /// makes, for a writer that must know before it changes any tree.
    pub(crate) fn check_entry(key: &[u8], payload: &[u8]) -> DbResult<()> {
        if 2 + key.len() + payload.len() > MAX_ENTRY {
            return Err(DbError::RecordTooLarge {
                size: key.len() + payload.len(),
                max: MAX_ENTRY,
            });
        }
        Ok(())
    }

    /// Insert a unique key. [`DbError::DuplicateKey`] if present.
    pub fn insert(&mut self, key: &[u8], payload: &[u8]) -> DbResult<()> {
        Self::check_entry(key, payload)?;
        match self.insert_rec(self.root, key, payload)? {
            Ins::Done => {}
            Ins::Split { sep, right } => {
                let new_root = self.pool.allocate()?;
                let old_root = self.root;
                self.pool.with_page_mut(new_root, |p| {
                    init_node(p, T_INNER);
                    set_extra(p, old_root.0);
                    insert_at(p, 0, &sep, &right.0.to_le_bytes());
                })?;
                self.root = new_root;
            }
        }
        self.len += 1;
        Ok(())
    }

    fn insert_rec(&mut self, pid: PageId, key: &[u8], payload: &[u8]) -> DbResult<Ins> {
        enum Plan {
            Leaf,
            Inner(PageId),
        }
        let plan = self.pool.with_page(pid, |p| -> DbResult<Plan> {
            if node_type(p) == T_INNER {
                Ok(Plan::Inner(child_for(p, key)?))
            } else {
                Ok(Plan::Leaf)
            }
        })??;
        match plan {
            Plan::Leaf => self.leaf_insert(pid, key, payload),
            Plan::Inner(child) => {
                match self.insert_rec(child, key, payload)? {
                    Ins::Done => Ok(Ins::Done),
                    Ins::Split { sep, right } => {
                        // Insert the separator into this node; may cascade.
                        self.node_insert(pid, &sep, &right.0.to_le_bytes(), T_INNER)
                    }
                }
            }
        }
    }

    fn leaf_insert(&mut self, pid: PageId, key: &[u8], payload: &[u8]) -> DbResult<Ins> {
        let dup = self.pool.with_page(pid, |p| search(p, key).1)?;
        if dup {
            return Err(DbError::DuplicateKey(format!("{key:02x?}")));
        }
        self.node_insert(pid, key, payload, T_LEAF)
    }

    /// Insert into a node of known type, splitting on overflow.
    fn node_insert(&mut self, pid: PageId, key: &[u8], payload: &[u8], t: u8) -> DbResult<Ins> {
        let inserted = self.pool.with_page_mut(pid, |p| {
            debug_assert_eq!(node_type(p), t);
            if fits(p, key, payload) {
                let (pos, exact) = search(p, key);
                debug_assert!(!exact, "duplicate checked by caller");
                insert_at(p, pos, key, payload);
                true
            } else {
                false
            }
        })?;
        if inserted {
            return Ok(Ins::Done);
        }
        // Split: pull all entries out, partition by bytes, rebuild.
        let right_pid = self.pool.allocate()?;
        let (entries, old_extra) = self.pool.with_page(pid, |p| {
            let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..count(p))
                .map(|i| (cell_key(p, i).to_vec(), cell_payload(p, i).to_vec()))
                .collect();
            (entries, extra(p))
        })?;
        // Merge the pending entry into the sorted list.
        let mut entries = entries;
        let pos = entries.partition_point(|(k, _)| k.as_slice() < key);
        entries.insert(pos, (key.to_vec(), payload.to_vec()));
        // Split at the byte midpoint so both halves keep headroom even with
        // skewed entry sizes.
        let total: usize = entries.iter().map(|(k, v)| 2 + k.len() + v.len() + SLOT).sum();
        let mut acc = 0usize;
        let mut mid = entries.len() / 2; // fallback
        for (i, (k, v)) in entries.iter().enumerate() {
            acc += 2 + k.len() + v.len() + SLOT;
            if acc >= total / 2 {
                mid = (i + 1).min(entries.len() - 1).max(1);
                break;
            }
        }
        let right_entries = entries.split_off(mid);
        let (sep, right_first_payload) = (right_entries[0].0.clone(), right_entries[0].1.clone());

        if t == T_LEAF {
            let old_sibling = self.pool.with_page_mut(pid, |p| {
                let sibling = extra(p);
                init_node(p, T_LEAF);
                set_extra(p, right_pid.0);
                for (i, (k, v)) in entries.iter().enumerate() {
                    insert_at(p, i, k, v);
                }
                sibling
            })?;
            self.pool.with_page_mut(right_pid, |p| {
                init_node(p, T_LEAF);
                set_extra(p, old_sibling);
                for (i, (k, v)) in right_entries.iter().enumerate() {
                    insert_at(p, i, k, v);
                }
            })?;
            Ok(Ins::Split { sep, right: right_pid })
        } else {
            // Inner split: the separator moves up; the right node's
            // leftmost child is the promoted entry's child.
            let raw: [u8; 4] = right_first_payload.as_slice().try_into().map_err(|_| {
                DbError::Corrupt("promoted separator carries no child pointer".into())
            })?;
            let promoted_child = u32::from_le_bytes(raw);
            self.pool.with_page_mut(pid, |p| {
                init_node(p, T_INNER);
                set_extra(p, old_extra);
                for (i, (k, v)) in entries.iter().enumerate() {
                    insert_at(p, i, k, v);
                }
            })?;
            self.pool.with_page_mut(right_pid, |p| {
                init_node(p, T_INNER);
                set_extra(p, promoted_child);
                for (i, (k, v)) in right_entries[1..].iter().enumerate() {
                    insert_at(p, i, k, v);
                }
            })?;
            Ok(Ins::Split { sep, right: right_pid })
        }
    }

    /// Delete `key`; `Ok(true)` when it existed. Leaves may become
    /// underfull (documented simulator trade-off: no rebalancing).
    pub fn delete(&mut self, key: &[u8]) -> DbResult<bool> {
        let mut pid = self.root;
        loop {
            enum Step {
                Descend(PageId),
                Removed(bool),
            }
            let step = self.pool.with_page_mut(pid, |p| -> DbResult<Step> {
                if node_type(p) == T_INNER {
                    Ok(Step::Descend(child_for(p, key)?))
                } else {
                    let (pos, exact) = search(p, key);
                    if exact {
                        remove_at(p, pos);
                    }
                    Ok(Step::Removed(exact))
                }
            })??;
            match step {
                Step::Descend(c) => pid = c,
                Step::Removed(found) => {
                    if found {
                        self.len -= 1;
                    }
                    return Ok(found);
                }
            }
        }
    }

    /// Reset the tree to empty (the clustered-table `TRUNCATE`).
    pub fn truncate(&mut self) -> DbResult<()> {
        let root = self.pool.allocate()?;
        self.pool.with_page_mut(root, |p| init_node(p, T_LEAF))?;
        self.root = root;
        self.len = 0;
        Ok(())
    }

    /// Leftmost leaf (scan start).
    fn leftmost_leaf(&self) -> DbResult<PageId> {
        let mut pid = self.root;
        loop {
            let next = self.read(pid, |p| {
                (node_type(p) == T_INNER).then(|| PageId(extra(p)))
            })?;
            match next {
                Some(c) => pid = c,
                None => return Ok(pid),
            }
        }
    }

    /// Leaf where a scan starting at `bound` begins, plus the entry index.
    fn seek(&self, bound: Bound<&[u8]>) -> DbResult<(PageId, usize)> {
        seeks().incr();
        let key = match bound {
            Bound::Unbounded => return Ok((self.leftmost_leaf()?, 0)),
            Bound::Included(k) | Bound::Excluded(k) => k,
        };
        let mut pid = self.root;
        loop {
            enum Step {
                Descend(PageId),
                At(usize),
            }
            let step = self.read(pid, |p| -> DbResult<Step> {
                if node_type(p) == T_INNER {
                    Ok(Step::Descend(child_for(p, key)?))
                } else {
                    let (pos, exact) = search(p, key);
                    let pos = if exact && matches!(bound, Bound::Excluded(_)) {
                        pos + 1
                    } else {
                        pos
                    };
                    Ok(Step::At(pos))
                }
            })??;
            match step {
                Step::Descend(c) => pid = c,
                Step::At(pos) => return Ok((pid, pos)),
            }
        }
    }

    /// Visit every `(key, payload)` in `[lo, hi]` in key order, without
    /// copying: `visit` is called with slices borrowed straight from page
    /// memory. Return `false` from `visit` to stop early.
    ///
    /// This is the hot path of the zone-index neighbor search.
    pub fn scan_range_with(
        &self,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
        mut visit: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> DbResult<()> {
        let (mut pid, mut pos) = self.seek(lo)?;
        loop {
            enum Step {
                Next(PageId),
                Stop,
            }
            let step = self.read(pid, |p| {
                let n = count(p);
                for i in pos..n {
                    let k = cell_key(p, i);
                    let in_range = match hi {
                        Bound::Unbounded => true,
                        Bound::Included(h) => k <= h,
                        Bound::Excluded(h) => k < h,
                    };
                    if !in_range {
                        return Step::Stop;
                    }
                    if !visit(k, cell_payload(p, i)) {
                        return Step::Stop;
                    }
                }
                let sibling = extra(p);
                if sibling == NO_PAGE.0 {
                    Step::Stop
                } else {
                    Step::Next(PageId(sibling))
                }
            })?;
            match step {
                Step::Next(next) => {
                    pid = next;
                    pos = 0;
                }
                Step::Stop => return Ok(()),
            }
        }
    }

    /// Full scan in key order, materialized (tests and small trees).
    pub fn scan_all(&self) -> DbResult<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out = Vec::new();
        self.scan_range_with(Bound::Unbounded, Bound::Unbounded, |k, v| {
            out.push((k.to_vec(), v.to_vec()));
            true
        })?;
        Ok(out)
    }

    /// Tree height (leaf = 1); used by tests and the stats report.
    pub fn height(&self) -> DbResult<usize> {
        let mut h = 1;
        let mut pid = self.root;
        loop {
            let next = self.read(pid, |p| {
                (node_type(p) == T_INNER).then(|| PageId(extra(p)))
            })?;
            match next {
                Some(c) => {
                    h += 1;
                    pid = c;
                }
                None => return Ok(h),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::DiskProfile;
    use crate::store::MemStore;

    fn tree() -> BTree {
        let pool = Arc::new(BufferPool::new(
            Arc::new(MemStore::new()),
            256,
            DiskProfile::instant(),
        ));
        BTree::create(pool).unwrap()
    }

    fn k(i: u64) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    fn keys_in(t: &BTree, lo: Bound<&[u8]>, hi: Bound<&[u8]>) -> Vec<Vec<u8>> {
        let mut keys = Vec::new();
        t.scan_range_with(lo, hi, |key, _| {
            keys.push(key.to_vec());
            true
        })
        .unwrap();
        keys
    }

    #[test]
    fn insert_get_small() {
        let mut t = tree();
        t.insert(&k(5), b"five").unwrap();
        t.insert(&k(3), b"three").unwrap();
        t.insert(&k(9), b"nine").unwrap();
        assert_eq!(t.get(&k(3)).unwrap().unwrap(), b"three");
        assert_eq!(t.get(&k(9)).unwrap().unwrap(), b"nine");
        assert!(t.get(&k(4)).unwrap().is_none());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut t = tree();
        t.insert(&k(1), b"a").unwrap();
        assert!(matches!(t.insert(&k(1), b"b"), Err(DbError::DuplicateKey(_))));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn many_sequential_inserts_split_and_stay_sorted() {
        let mut t = tree();
        let n = 20_000u64;
        for i in 0..n {
            t.insert(&k(i), &i.to_le_bytes()).unwrap();
        }
        assert_eq!(t.len(), n);
        assert!(t.height().unwrap() >= 2, "20k entries must split");
        let all = t.scan_all().unwrap();
        assert_eq!(all.len(), n as usize);
        for (i, (key, val)) in all.iter().enumerate() {
            assert_eq!(key, &k(i as u64));
            assert_eq!(val, &(i as u64).to_le_bytes());
        }
    }

    #[test]
    fn reverse_and_shuffled_inserts() {
        let mut t = tree();
        // Deterministic pseudo-shuffle via multiplication by an odd constant.
        let n = 10_000u64;
        for i in 0..n {
            let key = i.wrapping_mul(2654435761) % n;
            // Skip duplicates from the modular map by offsetting.
            let key = key * n + i;
            t.insert(&k(key), b"v").unwrap();
        }
        let all = t.scan_all().unwrap();
        assert_eq!(all.len(), n as usize);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "keys must be sorted");
    }

    #[test]
    fn range_scan_inclusive_exclusive() {
        let mut t = tree();
        for i in 0..100 {
            t.insert(&k(i), b"").unwrap();
        }
        let r = keys_in(&t, Bound::Included(&k(10)), Bound::Included(&k(20)));
        assert_eq!(r.len(), 11);
        assert_eq!(r[0], k(10));
        assert_eq!(r[10], k(20));
        let r = keys_in(&t, Bound::Excluded(&k(10)), Bound::Excluded(&k(20)));
        assert_eq!(r.len(), 9);
        assert_eq!(r[0], k(11));
    }

    #[test]
    fn range_scan_across_leaf_boundaries() {
        let mut t = tree();
        let n = 5_000u64;
        for i in 0..n {
            t.insert(&k(i), &[0u8; 64]).unwrap();
        }
        let r = keys_in(&t, Bound::Included(&k(100)), Bound::Excluded(&k(4_900)));
        assert_eq!(r.len(), 4_800);
    }

    #[test]
    fn early_termination_stops_scan() {
        let mut t = tree();
        for i in 0..1000 {
            t.insert(&k(i), b"").unwrap();
        }
        let mut seen = 0;
        t.scan_range_with(Bound::Unbounded, Bound::Unbounded, |_, _| {
            seen += 1;
            seen < 7
        })
        .unwrap();
        assert_eq!(seen, 7);
    }

    #[test]
    fn delete_removes_and_reports() {
        let mut t = tree();
        for i in 0..100 {
            t.insert(&k(i), b"x").unwrap();
        }
        assert!(t.delete(&k(50)).unwrap());
        assert!(!t.delete(&k(50)).unwrap());
        assert!(t.get(&k(50)).unwrap().is_none());
        assert_eq!(t.len(), 99);
        assert_eq!(t.scan_all().unwrap().len(), 99);
    }

    #[test]
    fn truncate_resets() {
        let mut t = tree();
        for i in 0..1000 {
            t.insert(&k(i), b"x").unwrap();
        }
        t.truncate().unwrap();
        assert!(t.is_empty());
        assert_eq!(t.scan_all().unwrap().len(), 0);
        t.insert(&k(1), b"again").unwrap();
        assert_eq!(t.get(&k(1)).unwrap().unwrap(), b"again");
    }

    #[test]
    fn variable_size_payloads() {
        let mut t = tree();
        for i in 0..2000u64 {
            let payload = vec![b'p'; (i % 200) as usize];
            t.insert(&k(i), &payload).unwrap();
        }
        for i in (0..2000u64).step_by(97) {
            assert_eq!(t.get(&k(i)).unwrap().unwrap().len(), (i % 200) as usize);
        }
    }

    #[test]
    fn oversized_entry_rejected() {
        let mut t = tree();
        let err = t.insert(&k(1), &vec![0u8; MAX_ENTRY + 1]).unwrap_err();
        assert!(matches!(err, DbError::RecordTooLarge { .. }));
    }

    #[test]
    fn interleaved_insert_delete_reuse() {
        let mut t = tree();
        for round in 0..5u64 {
            for i in 0..500 {
                t.insert(&k(round * 10_000 + i), b"payload-bytes").unwrap();
            }
            for i in 0..250 {
                assert!(t.delete(&k(round * 10_000 + i * 2)).unwrap());
            }
        }
        assert_eq!(t.len(), 5 * 250);
        let all = t.scan_all().unwrap();
        assert_eq!(all.len(), 5 * 250);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
