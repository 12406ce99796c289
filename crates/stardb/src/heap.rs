//! Heap files: unordered row storage over the buffer pool.

use crate::buffer::BufferPool;
use crate::error::{DbError, DbResult};
use crate::page;
use crate::store::PageId;
use std::sync::Arc;
use std::sync::OnceLock;

fn inserts() -> &'static obs::Counter {
    static C: OnceLock<obs::Counter> = OnceLock::new();
    C.get_or_init(|| obs::counter("stardb.heap.inserts"))
}

/// Address of a record inside a heap file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowId {
    /// Page holding the record.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

/// An unordered collection of records. Inserts fill the last page and
/// allocate a new one when full; free space from deletes is reused when the
/// page is revisited by an update, matching the simple heap organization
/// the engine needs.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    pages: Vec<PageId>,
    /// When set, every read resolves pages at this snapshot epoch through
    /// the MVCC version table, exactly as in [`crate::btree::BTree`].
    snap: Option<u64>,
}

impl HeapFile {
    /// Create an empty heap file.
    pub fn create(pool: Arc<BufferPool>) -> DbResult<Self> {
        let first = pool.allocate()?;
        pool.with_page_mut(first, page::init)?;
        Ok(HeapFile { pool, pages: vec![first], snap: None })
    }

    /// Re-attach a heap recovered from a WAL catalog: the page list was
    /// serialized at commit, the page contents replay from the log.
    pub fn attach(pool: Arc<BufferPool>, pages: Vec<PageId>) -> DbResult<Self> {
        if pages.is_empty() {
            return Err(DbError::Corrupt("recovered heap with no pages".into()));
        }
        Ok(HeapFile { pool, pages, snap: None })
    }

    /// A read-only view of this heap as committed at snapshot epoch `snap`:
    /// the page list as it stands now, every page read at that epoch.
    pub(crate) fn at(&self, snap: u64) -> HeapFile {
        HeapFile { pool: self.pool.clone(), pages: self.pages.clone(), snap: Some(snap) }
    }

    /// Read a page at this heap's visibility: the pinned snapshot when one
    /// is set, the live frame otherwise.
    fn read<R>(&self, pid: PageId, f: impl FnOnce(&[u8]) -> R) -> DbResult<R> {
        match self.snap {
            Some(s) => self.pool.with_page_at(pid, s, f),
            None => self.pool.with_page(pid, f),
        }
    }

    /// Number of pages the heap occupies.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// The heap's page list, in scan order (serialized into WAL commit
    /// catalogs).
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Insert a record, returning its address.
    pub fn insert(&mut self, record: &[u8]) -> DbResult<RowId> {
        if record.len() > page::MAX_CELL {
            return Err(DbError::RecordTooLarge { size: record.len(), max: page::MAX_CELL });
        }
        inserts().incr();
        let last = *self
            .pages
            .last()
            .ok_or_else(|| DbError::Corrupt("heap lost its page list".into()))?;
        if let Some(slot) = self.pool.with_page_mut(last, |p| page::insert(p, record))? {
            return Ok(RowId { page: last, slot });
        }
        let fresh = self.pool.allocate()?;
        let slot = self
            .pool
            .with_page_mut(fresh, |p| {
                page::init(p);
                page::insert(p, record)
            })?
            .ok_or_else(|| {
                DbError::Corrupt(format!("fresh page rejected a {}-byte cell", record.len()))
            })?;
        self.pages.push(fresh);
        Ok(RowId { page: fresh, slot })
    }

    /// Fetch a record by address.
    pub fn get(&self, id: RowId) -> DbResult<Option<Vec<u8>>> {
        self.read(id.page, |p| page::get(p, id.slot).map(<[u8]>::to_vec))
    }

    /// Delete a record.
    pub fn delete(&mut self, id: RowId) -> DbResult<()> {
        self.pool.with_page_mut(id.page, |p| page::delete(p, id.slot))?
    }

    /// Replace a record in place.
    pub fn update(&mut self, id: RowId, record: &[u8]) -> DbResult<()> {
        self.pool.with_page_mut(id.page, |p| page::update(p, id.slot, record))?
    }

    /// Remove every record but keep the file (the engine's `TRUNCATE
    /// TABLE`). Pages beyond the first are abandoned to the store — a
    /// simulator-grade free-space story, documented as such.
    pub fn truncate(&mut self) -> DbResult<()> {
        let first = self.pages[0];
        self.pool.with_page_mut(first, page::init)?;
        self.pages.truncate(1);
        Ok(())
    }

    /// Visit the live records of the `page_idx`-th page from `from_slot`
    /// on, in slot order, as `(slot, bytes)` borrowed from the page under
    /// one latch. `visit` returns `Ok(false)` to stop; the result is
    /// `true` when the page ran out and `false` when `visit` stopped it.
    pub fn visit_page(
        &self,
        page_idx: usize,
        from_slot: u16,
        mut visit: impl FnMut(u16, &[u8]) -> DbResult<bool>,
    ) -> DbResult<bool> {
        self.read(self.pages[page_idx], |p| {
            for slot in from_slot..page::slot_count(p) as u16 {
                if let Some(cell) = page::get(p, slot) {
                    if !visit(slot, cell)? {
                        return Ok(false);
                    }
                }
            }
            Ok(true)
        })?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::DiskProfile;
    use crate::store::{MemStore, PageStore};
    use std::sync::atomic::{AtomicU32, Ordering};

    fn heap() -> HeapFile {
        let pool = Arc::new(BufferPool::new(
            Arc::new(MemStore::new()),
            16,
            DiskProfile::instant(),
        ));
        HeapFile::create(pool).unwrap()
    }

    /// Every live record in page order, through the page visitor.
    fn scan(h: &HeapFile) -> DbResult<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        for idx in 0..h.page_count() {
            h.visit_page(idx, 0, |_, cell| {
                out.push(cell.to_vec());
                Ok(true)
            })?;
        }
        Ok(out)
    }

    /// A store whose `read_page` fails for one page id (`u32::MAX`: none).
    struct FailingReads {
        inner: MemStore,
        fail: AtomicU32,
    }

    impl PageStore for FailingReads {
        fn read_page(&self, id: PageId, buf: &mut [u8]) -> DbResult<()> {
            if id.0 == self.fail.load(Ordering::SeqCst) {
                return Err(DbError::Corrupt(format!("injected read failure on page {id}")));
            }
            self.inner.read_page(id, buf)
        }
        fn write_page(&self, id: PageId, buf: &[u8]) -> DbResult<()> {
            self.inner.write_page(id, buf)
        }
        fn allocate(&self) -> DbResult<PageId> {
            self.inner.allocate()
        }
        fn page_count(&self) -> u32 {
            self.inner.page_count()
        }
    }

    #[test]
    fn scan_surfaces_a_failed_page_read() {
        let store =
            Arc::new(FailingReads { inner: MemStore::new(), fail: AtomicU32::new(u32::MAX) });
        // Two frames under a six-page heap: scanning to the end evicts the
        // early pages, so re-reading one of them goes to the store.
        let pool = Arc::new(BufferPool::new(store.clone(), 2, DiskProfile::instant()));
        let mut h = HeapFile::create(pool).unwrap();
        while h.page_count() < 6 {
            h.insert(&[7u8; 1000]).unwrap();
        }
        let all = scan(&h).unwrap();
        store.fail.store(h.pages()[2].0, Ordering::SeqCst);
        let err = scan(&h).expect_err("a failed read must not end the scan as a short result");
        assert!(err.to_string().contains("injected read failure"), "{err}");
        store.fail.store(u32::MAX, Ordering::SeqCst);
        assert_eq!(scan(&h).unwrap(), all);
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut h = heap();
        let id = h.insert(b"galaxy").unwrap();
        assert_eq!(h.get(id).unwrap().unwrap(), b"galaxy");
    }

    #[test]
    fn spills_to_new_pages() {
        let mut h = heap();
        let record = vec![7u8; 1000];
        let ids: Vec<_> = (0..50).map(|_| h.insert(&record).unwrap()).collect();
        assert!(h.page_count() > 1, "50 KB cannot fit one page");
        for id in ids {
            assert_eq!(h.get(id).unwrap().unwrap(), record);
        }
    }

    #[test]
    fn scan_sees_all_records_once() {
        let mut h = heap();
        for i in 0..500u32 {
            h.insert(&i.to_le_bytes()).unwrap();
        }
        let mut seen: Vec<u32> = scan(&h)
            .unwrap()
            .into_iter()
            .map(|bytes| u32::from_le_bytes(bytes.try_into().unwrap()))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn delete_hides_record_from_scan() {
        let mut h = heap();
        let a = h.insert(b"a").unwrap();
        let _b = h.insert(b"b").unwrap();
        h.delete(a).unwrap();
        assert!(h.get(a).unwrap().is_none());
        assert_eq!(scan(&h).unwrap(), vec![b"b".to_vec()]);
    }

    #[test]
    fn update_replaces_bytes() {
        let mut h = heap();
        let id = h.insert(b"old").unwrap();
        h.update(id, b"new-and-longer").unwrap();
        assert_eq!(h.get(id).unwrap().unwrap(), b"new-and-longer");
    }

    #[test]
    fn truncate_empties_heap() {
        let mut h = heap();
        for _ in 0..100 {
            h.insert(&[1u8; 500]).unwrap();
        }
        h.truncate().unwrap();
        assert!(scan(&h).unwrap().is_empty());
        assert_eq!(h.page_count(), 1);
        // And the heap is usable again.
        let id = h.insert(b"fresh").unwrap();
        assert_eq!(h.get(id).unwrap().unwrap(), b"fresh");
    }

    #[test]
    fn oversized_record_rejected() {
        let mut h = heap();
        let err = h.insert(&vec![0u8; page::MAX_CELL + 1]).unwrap_err();
        assert!(matches!(err, DbError::RecordTooLarge { .. }));
    }
}
