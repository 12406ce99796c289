//! The database facade: a catalog of heap and clustered tables over one
//! buffer pool, with task-scoped statistics and cursors.

use crate::btree::BTree;
use crate::buffer::{BufferPool, DiskProfile, IoSnapshot};
use crate::colbatch::ColumnBatch;
use crate::error::{DbError, DbResult};
use crate::heap::HeapFile;
use crate::key::{encode_fields, encode_key};
use crate::mvcc::MvccState;
use crate::row::Row;
use crate::schema::{Column, Schema};
use crate::stats::{TableStats, TaskStats};
use crate::store::{FileStore, MemStore, PageId, PageStore};
use crate::value::{DataType, Value};
use crate::wal::{Wal, WalConfig};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::ops::Bound;
use std::sync::Arc;
use std::time::Instant;

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct DbConfig {
    /// Buffer pool size in 8 KiB frames.
    pub buffer_frames: usize,
    /// Latency model for the simulated disk.
    pub disk: DiskProfile,
}

impl DbConfig {
    /// The paper-like server profile: a 2 GB buffer pool (the TAM-era SQL
    /// cluster nodes had 2 GB of RAM) over a modeled spinning disk.
    pub fn server() -> Self {
        DbConfig { buffer_frames: 262_144, disk: DiskProfile::spinning_disk() }
    }

    /// Small pool, no modeled latency — unit tests.
    pub fn in_memory() -> Self {
        DbConfig { buffer_frames: 4096, disk: DiskProfile::instant() }
    }

    /// A deliberately tiny pool to force eviction (failure-injection and
    /// I/O-shape tests).
    pub fn tiny(frames: usize) -> Self {
        DbConfig { buffer_frames: frames, disk: DiskProfile::instant() }
    }
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig::server()
    }
}

enum Storage {
    Heap { file: HeapFile, rows: u64 },
    Clustered { tree: BTree, key_cols: Vec<usize> },
}

/// A nonclustered index: a B-tree from `(index-key..., clustered-key...)`
/// to an empty payload, the SQL Server layout where secondary indexes
/// locate rows through the clustering key.
struct SecondaryIndex {
    name: String,
    cols: Vec<usize>,
    tree: BTree,
}

/// The encoded clustering key of `row`: its address in the clustered tree
/// and the *locator* every secondary-index entry for it ends with.
fn locator(key_cols: &[usize], row: &Row) -> DbResult<Vec<u8>> {
    let mut key = Vec::with_capacity(key_cols.len() * 9);
    encode_fields(key_cols.iter().map(|&i| &row[i]), &mut key)?;
    Ok(key)
}

/// The entry an index over `cols` holds for `row`: the index columns'
/// fields, then the row's locator (key fields concatenate, so the locator's
/// bytes are used as they are). Checked against what the key codec and a
/// B-tree node can hold, so a writer can refuse a row before it touches any
/// tree — an index must never lack an entry for a stored row.
fn index_entry(cols: &[usize], row: &Row, locator: &[u8]) -> DbResult<Vec<u8>> {
    let mut entry = Vec::with_capacity(cols.len() * 9 + locator.len());
    encode_fields(cols.iter().map(|&i| &row[i]), &mut entry)?;
    entry.extend_from_slice(locator);
    BTree::check_entry(&entry, &[])?;
    Ok(entry)
}

/// One table: schema plus storage at one visibility — the live pages for
/// [`Database`], the pages of one commit for [`DbSnapshot`]. Every read
/// path of both types is a method of this one view.
struct Table {
    schema: Schema,
    storage: Storage,
    indexes: Vec<SecondaryIndex>,
    /// Mutation epoch: stamped from the database-wide monotonic counter on
    /// every data change (insert/delete/truncate and table creation).
    /// Derived read-optimized structures (the zone snapshot cache) record
    /// the epoch they were built at and treat any difference as stale.
    /// Epochs are never reused, so a drop + recreate cannot alias an old
    /// snapshot onto a new table.
    epoch: u64,
    /// Epoch of the last [`Database::commit`] that included a mutation of
    /// this table (0 before the first). Commit epochs draw from the same
    /// monotonic counter as mutation epochs, so the two never collide.
    commit_epoch: u64,
}

/// The catalog as of the last commit, every table re-attached at that
/// commit's epoch ([`Table::at`]). Snapshots hold an `Arc` to the version
/// they pinned; commit swaps in a fresh one.
struct CommittedCatalog {
    epoch: u64,
    tables: HashMap<String, Table>,
}

// ---- read path -----------------------------------------------------------
//
// One view (`Table`), one resumable position over it (`ScanPos`), and the
// named adapters `Database` and `DbSnapshot` forward to. DESIGN.md §6c
// ("Read path") states the latch contract once.

fn lookup<'a>(tables: &'a HashMap<String, Table>, name: &str) -> DbResult<&'a Table> {
    tables.get(&Database::norm(name)).ok_or_else(|| DbError::NoSuchTable(name.to_owned()))
}

/// The clustered-key bounds of the rows between the `lo` and `hi` key
/// *prefixes*, both inclusive. No encoded field begins with 0xFF, so
/// appending it to `hi` admits every key extending that prefix and nothing
/// beyond it.
fn prefix_range(lo: &[Value], hi: &[Value]) -> (Bound<Vec<u8>>, Bound<Vec<u8>>) {
    let mut hi = encode_key(hi);
    hi.push(0xFF);
    (Bound::Included(encode_key(lo)), Bound::Included(hi))
}

fn as_slice(bound: &Bound<Vec<u8>>) -> Bound<&[u8]> {
    bound.as_ref().map(Vec::as_slice)
}

impl Table {
    /// This table as committed at `epoch`: the same schema over storage
    /// whose every page read resolves at that epoch. Snapshots serve the
    /// table read path only, so secondary indexes are not carried over.
    fn at(&self, epoch: u64) -> Table {
        let storage = match &self.storage {
            Storage::Heap { file, rows } => Storage::Heap { file: file.at(epoch), rows: *rows },
            Storage::Clustered { tree, key_cols } => {
                Storage::Clustered { tree: tree.at(epoch), key_cols: key_cols.clone() }
            }
        };
        Table {
            schema: self.schema.clone(),
            storage,
            indexes: Vec::new(),
            epoch: self.epoch,
            commit_epoch: self.commit_epoch,
        }
    }

    fn row_count(&self) -> u64 {
        match &self.storage {
            Storage::Heap { rows, .. } => *rows,
            Storage::Clustered { tree, .. } => tree.len(),
        }
    }

    /// The clustered index and its key columns; `name` is for the error a
    /// heap table gets.
    fn clustered(&self, name: &str) -> DbResult<(&BTree, &[usize])> {
        match &self.storage {
            Storage::Clustered { tree, key_cols } => Ok((tree, key_cols)),
            Storage::Heap { .. } => Err(DbError::TypeError(format!("{name} is not clustered"))),
        }
    }

    fn index(&self, index: &str) -> DbResult<&SecondaryIndex> {
        self.indexes
            .iter()
            .find(|i| i.name.eq_ignore_ascii_case(index))
            .ok_or_else(|| DbError::NoSuchTable(format!("index {index}")))
    }

    /// The position before the first row: page order for a heap, key order
    /// for a clustered table.
    fn start(&self) -> ScanPos {
        match &self.storage {
            Storage::Heap { .. } => ScanPos::Heap { page: 0, slot: 0 },
            Storage::Clustered { .. } => {
                ScanPos::Clustered { from: Bound::Unbounded, hi: Bound::Unbounded }
            }
        }
    }

    /// The position before the first row of a clustered table whose key
    /// lies between the `lo` and `hi` prefixes ([`prefix_range`]).
    fn start_range(&self, name: &str, lo: &[Value], hi: &[Value]) -> DbResult<ScanPos> {
        self.clustered(name)?;
        let (from, hi) = prefix_range(lo, hi);
        Ok(ScanPos::Clustered { from, hi })
    }

    fn get(&self, name: &str, key: &[Value]) -> DbResult<Option<Row>> {
        let arity = self.schema.arity();
        self.clustered(name)?.0.get_with(&encode_key(key), |p| Row::decode(p, arity))?.transpose()
    }

    fn dtypes(&self) -> Vec<DataType> {
        self.schema.columns().iter().map(|c| c.dtype).collect()
    }

    fn scan_with(&self, mut visit: impl FnMut(&Row) -> DbResult<bool>) -> DbResult<()> {
        let arity = self.schema.arity();
        self.start().resume(self, usize::MAX, |payload| visit(&Row::decode(payload, arity)?))
    }

    fn scan_raw(&self, name: &str, mut visit: impl FnMut(&[u8]) -> bool) -> DbResult<()> {
        self.clustered(name)?;
        self.start().resume(self, usize::MAX, |payload| Ok(visit(payload)))
    }

    fn range_scan_prefix_raw(
        &self,
        name: &str,
        lo: &[Value],
        hi: &[Value],
        mut visit: impl FnMut(&[u8]) -> bool,
    ) -> DbResult<()> {
        self.start_range(name, lo, hi)?.resume(self, usize::MAX, |payload| Ok(visit(payload)))
    }
}

/// Feed the entries of `tree` from `from` up to `hi`, in key order and
/// borrowed from the page, to `sink` until `max` were fed or `sink` returns
/// `Ok(false)`. Returns the key of the entry the walk stopped at — the
/// only bytes copied — or `None` when the range ran out first. One seek.
fn walk_tree(
    tree: &BTree,
    from: &Bound<Vec<u8>>,
    hi: &Bound<Vec<u8>>,
    max: usize,
    mut sink: impl FnMut(&[u8], &[u8]) -> DbResult<bool>,
) -> DbResult<Option<Vec<u8>>> {
    let mut fed = 0;
    // The key of the entry the walk stops at, or the sink's error.
    let mut stop = Ok(None);
    tree.scan_range_with(as_slice(from), as_slice(hi), |key, payload| {
        fed += 1;
        stop = sink(key, payload).map(|more| (!more || fed == max).then(|| key.to_vec()));
        matches!(stop, Ok(None))
    })?;
    stop
}

/// Where a scan of one [`Table`] stands between calls: a heap address or a
/// clustered-key bound and nothing else, so no latch and no page pin
/// outlives a call. A full scan is one [`ScanPos::resume`] with no row
/// limit; [`Cursor`] and [`BatchScan`] keep one and resume it a row or a
/// batch at a time.
enum ScanPos {
    /// The next heap record to examine: an index into the page list and a
    /// slot on that page.
    Heap { page: usize, slot: u16 },
    /// The clustered keys still to visit; after a call that stopped at a
    /// row, `from` excludes that row's key.
    Clustered { from: Bound<Vec<u8>>, hi: Bound<Vec<u8>> },
    /// Every row has been visited.
    Done,
}

impl ScanPos {
    /// Feed the next rows of `table` to `sink` as payloads borrowed from
    /// the page, until `max` rows were fed, `sink` returns `Ok(false)`, or
    /// the rows run out (which leaves [`ScanPos::Done`]). Each call seeks
    /// once from the remembered key (clustered) or re-reads the remembered
    /// page (heap); only the key of the row a call stops at is copied.
    ///
    /// `sink` runs under the buffer-pool latch of the page it reads from:
    /// it must not call back into the database (DESIGN.md, "Read path").
    fn resume(
        &mut self,
        table: &Table,
        max: usize,
        mut sink: impl FnMut(&[u8]) -> DbResult<bool>,
    ) -> DbResult<()> {
        if max == 0 {
            return Ok(());
        }
        let mut fed = 0;
        match (&mut *self, &table.storage) {
            (ScanPos::Done, _) => return Ok(()),
            (ScanPos::Heap { page, slot }, Storage::Heap { file, .. }) => {
                while *page < file.page_count() {
                    let ran_out = file.visit_page(*page, *slot, |at, payload| {
                        *slot = at + 1;
                        fed += 1;
                        Ok(sink(payload)? && fed < max)
                    })?;
                    if !ran_out {
                        return Ok(());
                    }
                    (*page, *slot) = (*page + 1, 0);
                }
            }
            (ScanPos::Clustered { from, hi }, Storage::Clustered { tree, .. }) => {
                if let Some(key) = walk_tree(tree, from, hi, max, |_, payload| sink(payload))? {
                    *from = Bound::Excluded(key);
                    return Ok(());
                }
            }
            _ => return Err(DbError::Corrupt("scan position does not match table storage".into())),
        }
        *self = ScanPos::Done;
        Ok(())
    }
}

// ---- catalog codec --------------------------------------------------------
//
// Commit and checkpoint records carry the serialized catalog: table
// schemas, heap page lists, B-tree roots, index definitions, and the epoch
// counter. A hand-rolled little-endian codec keeps the format stable and
// dependency-free; corruption of these bytes is caught one level down by
// the WAL record checksum, so the decoder treats any structural surprise
// as [`DbError::WalCorrupt`].

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn dtype_tag(t: DataType) -> u8 {
    match t {
        DataType::BigInt => 0,
        DataType::Int => 1,
        DataType::Real => 2,
        DataType::Float => 3,
        DataType::Text => 4,
    }
}

fn dtype_from(tag: u8) -> DbResult<DataType> {
    Ok(match tag {
        0 => DataType::BigInt,
        1 => DataType::Int,
        2 => DataType::Real,
        3 => DataType::Float,
        4 => DataType::Text,
        other => return Err(DbError::WalCorrupt(format!("unknown dtype tag {other}"))),
    })
}

/// Bounds-checked reader over catalog bytes.
struct CatReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> CatReader<'a> {
    fn take(&mut self, n: usize) -> DbResult<&'a [u8]> {
        if self.buf.len() - self.at < n {
            return Err(DbError::WalCorrupt("catalog truncated".into()));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> DbResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> DbResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> DbResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> DbResult<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| DbError::WalCorrupt("catalog string is not utf-8".into()))
    }

    fn done(&self) -> bool {
        self.at == self.buf.len()
    }
}

/// An embedded database instance: one buffer pool, many tables.
///
/// Instances are single-writer by construction (methods take `&mut self`
/// for writes); the partitioned MaxBCG runner gives each worker thread its
/// own `Database`, exactly like the paper's share-nothing SQL Server
/// cluster.
///
/// ```
/// use stardb::{Database, DbConfig};
///
/// let mut db = Database::new(DbConfig::in_memory());
/// db.execute_sql("CREATE TABLE star (id BIGINT PRIMARY KEY, mag FLOAT)").unwrap();
/// db.execute_sql("INSERT INTO star VALUES (1, 17.5), (2, 19.0)").unwrap();
/// let (cols, rows) = db
///     .execute_sql("SELECT COUNT(*) AS n FROM star WHERE mag < 18")
///     .unwrap()
///     .rows()
///     .unwrap();
/// assert_eq!(cols, vec!["n"]);
/// assert_eq!(rows[0].i64(0).unwrap(), 1);
/// ```
pub struct Database {
    pool: Arc<BufferPool>,
    tables: HashMap<String, Table>,
    /// Database-wide monotonic epoch source (see [`Table::epoch`]).
    next_epoch: u64,
    /// Snapshot/version state (hooks are installed into the pool only for
    /// durable databases — see [`Database::open`]).
    mvcc: Arc<MvccState>,
    /// The write-ahead log, present for durable databases.
    wal: Option<Arc<Wal>>,
    /// Catalog as of the last commit, shared with snapshot handles.
    committed: Arc<RwLock<Arc<CommittedCatalog>>>,
    /// Tables mutated since the last commit (normalized names).
    dirty_tables: HashSet<String>,
    /// Schema-level changes (create/drop table or index) since the last
    /// commit — they change the catalog without dirtying table data.
    catalog_dirty: bool,
    /// Serialized catalog of the last WAL commit (checkpoint reuses it).
    last_catalog: Vec<u8>,
    /// Profile of the most recent profiled SELECT (set while telemetry is
    /// enabled, and always by `EXPLAIN ANALYZE`); `None` after an
    /// unprofiled SELECT. Interior mutability because SELECTs run through
    /// `&Database`.
    last_profile: parking_lot::Mutex<Option<crate::sql::QueryProfile>>,
    /// Zone-join build sides (the drained rows and the map over them)
    /// from full unfiltered scans, one per table, keyed by
    /// [`Database::table_version`] epochs — stale ones are dropped on
    /// lookup, so writers never invalidate explicitly. Interior mutability
    /// because SELECTs run through `&Database`.
    zone_builds: parking_lot::Mutex<HashMap<String, Arc<crate::zonemap::ZoneBuild>>>,
}

/// Wall time of non-trivial commits (WAL append + fsync for durable
/// databases, epoch/catalog bookkeeping for in-memory ones), feeding the
/// `stardb.wal.commit_latency_ns` histogram's p50/p95/p99.
fn commit_latency() -> &'static obs::Histogram {
    static H: std::sync::OnceLock<obs::Histogram> = std::sync::OnceLock::new();
    H.get_or_init(|| obs::histogram("stardb.wal.commit_latency_ns"))
}

impl Database {
    /// Create an empty database.
    pub fn new(config: DbConfig) -> Self {
        let pool = Arc::new(BufferPool::new(
            Arc::new(MemStore::new()),
            config.buffer_frames,
            config.disk,
        ));
        Database {
            pool,
            tables: HashMap::new(),
            next_epoch: 0,
            mvcc: Arc::new(MvccState::new()),
            wal: None,
            committed: Arc::new(RwLock::new(Arc::new(CommittedCatalog {
                epoch: 0,
                tables: HashMap::new(),
            }))),
            dirty_tables: HashSet::new(),
            catalog_dirty: false,
            last_catalog: Vec::new(),
            last_profile: parking_lot::Mutex::new(None),
            zone_builds: parking_lot::Mutex::new(HashMap::new()),
        }
    }

    /// Open (or create) a durable database at `dir`: a page file plus a
    /// write-ahead log, with MVCC copy-on-write hooks installed in the
    /// buffer pool. Opening runs recovery — committed transactions are
    /// replayed, torn tail records are detected by checksum and truncated
    /// — and re-attaches every table from the last consistent commit's
    /// catalog. See [`crate::wal`] for the full protocol.
    pub fn open(dir: &std::path::Path, config: DbConfig, wal_cfg: WalConfig) -> DbResult<Database> {
        std::fs::create_dir_all(dir).map_err(|e| DbError::io("create db dir", &e))?;
        let store = FileStore::open_repair(&dir.join("pages.db"))
            .map_err(|e| DbError::io("open page file", &e))?;
        let (wal, recovery) = Wal::open(&dir.join("wal"), wal_cfg, Arc::new(store))?;
        let pool = Arc::new(BufferPool::new(
            wal.clone() as Arc<dyn PageStore>,
            config.buffer_frames,
            config.disk,
        ));
        let mvcc = Arc::new(MvccState::new());
        pool.enable_mvcc(mvcc.clone());
        let mut db = Database {
            pool,
            tables: HashMap::new(),
            next_epoch: recovery.epoch,
            mvcc,
            wal: Some(wal),
            committed: Arc::new(RwLock::new(Arc::new(CommittedCatalog {
                epoch: recovery.epoch,
                tables: HashMap::new(),
            }))),
            dirty_tables: HashSet::new(),
            catalog_dirty: false,
            last_catalog: Vec::new(),
            last_profile: parking_lot::Mutex::new(None),
            zone_builds: parking_lot::Mutex::new(HashMap::new()),
        };
        if let Some(bytes) = recovery.catalog {
            db.decode_catalog(&bytes)?;
            db.last_catalog = bytes;
        }
        if recovery.epoch > 0 {
            // Future snapshots pin at the recovered epoch.
            db.mvcc.commit(recovery.epoch);
        }
        *db.committed.write() = Arc::new(db.build_committed(recovery.epoch));
        Ok(db)
    }

    /// The write-ahead log of a durable database (`None` for in-memory
    /// instances). Exposed for the chaos drills, which arm crash points.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Claim the next mutation epoch (monotonic, never reused).
    fn fresh_epoch(&mut self) -> u64 {
        self.next_epoch += 1;
        self.next_epoch
    }

    /// Serialize the current catalog (see the codec notes above).
    fn encode_catalog(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u64(&mut buf, self.next_epoch);
        let mut names: Vec<&String> = self.tables.keys().collect();
        names.sort();
        put_u32(&mut buf, names.len() as u32);
        for name in names {
            let t = &self.tables[name];
            put_str(&mut buf, name);
            put_u64(&mut buf, t.epoch);
            put_u64(&mut buf, t.commit_epoch);
            put_u32(&mut buf, t.schema.arity() as u32);
            for c in t.schema.columns() {
                put_str(&mut buf, &c.name);
                buf.push(dtype_tag(c.dtype));
                buf.push(u8::from(c.nullable));
            }
            match &t.storage {
                Storage::Heap { file, rows } => {
                    buf.push(0);
                    put_u64(&mut buf, *rows);
                    put_u32(&mut buf, file.pages().len() as u32);
                    for p in file.pages() {
                        put_u32(&mut buf, p.0);
                    }
                }
                Storage::Clustered { tree, key_cols } => {
                    buf.push(1);
                    put_u32(&mut buf, tree.root().0);
                    put_u64(&mut buf, tree.len());
                    put_u32(&mut buf, key_cols.len() as u32);
                    for &k in key_cols {
                        put_u32(&mut buf, k as u32);
                    }
                }
            }
            put_u32(&mut buf, t.indexes.len() as u32);
            for idx in &t.indexes {
                put_str(&mut buf, &idx.name);
                put_u32(&mut buf, idx.cols.len() as u32);
                for &c in &idx.cols {
                    put_u32(&mut buf, c as u32);
                }
                put_u32(&mut buf, idx.tree.root().0);
                put_u64(&mut buf, idx.tree.len());
            }
        }
        buf
    }

    /// Rebuild the table map from a recovered catalog, re-attaching heaps
    /// and trees over the (already replayed) pool.
    fn decode_catalog(&mut self, bytes: &[u8]) -> DbResult<()> {
        let mut r = CatReader { buf: bytes, at: 0 };
        self.next_epoch = r.u64()?;
        let n_tables = r.u32()? as usize;
        let mut tables = HashMap::with_capacity(n_tables);
        for _ in 0..n_tables {
            let name = r.str()?;
            let epoch = r.u64()?;
            let commit_epoch = r.u64()?;
            let n_cols = r.u32()? as usize;
            let mut cols = Vec::with_capacity(n_cols);
            for _ in 0..n_cols {
                let cname = r.str()?;
                let dtype = dtype_from(r.u8()?)?;
                let nullable = r.u8()? != 0;
                cols.push(if nullable {
                    Column::nullable(&cname, dtype)
                } else {
                    Column::new(&cname, dtype)
                });
            }
            let schema = Schema::new(cols);
            let storage = match r.u8()? {
                0 => {
                    let rows = r.u64()?;
                    let n_pages = r.u32()? as usize;
                    let mut pages = Vec::with_capacity(n_pages);
                    for _ in 0..n_pages {
                        pages.push(PageId(r.u32()?));
                    }
                    Storage::Heap { file: HeapFile::attach(self.pool.clone(), pages)?, rows }
                }
                1 => {
                    let root = PageId(r.u32()?);
                    let len = r.u64()?;
                    let n_keys = r.u32()? as usize;
                    let mut key_cols = Vec::with_capacity(n_keys);
                    for _ in 0..n_keys {
                        key_cols.push(r.u32()? as usize);
                    }
                    Storage::Clustered {
                        tree: BTree::attach(self.pool.clone(), root, len),
                        key_cols,
                    }
                }
                other => {
                    return Err(DbError::WalCorrupt(format!("unknown storage tag {other}")))
                }
            };
            let n_indexes = r.u32()? as usize;
            let mut indexes = Vec::with_capacity(n_indexes);
            for _ in 0..n_indexes {
                let iname = r.str()?;
                let n_icols = r.u32()? as usize;
                let mut icols = Vec::with_capacity(n_icols);
                for _ in 0..n_icols {
                    icols.push(r.u32()? as usize);
                }
                let root = PageId(r.u32()?);
                let len = r.u64()?;
                indexes.push(SecondaryIndex {
                    name: iname,
                    cols: icols,
                    tree: BTree::attach(self.pool.clone(), root, len),
                });
            }
            tables.insert(name, Table { schema, storage, indexes, epoch, commit_epoch });
        }
        if !r.done() {
            return Err(DbError::WalCorrupt("catalog has trailing bytes".into()));
        }
        self.tables = tables;
        Ok(())
    }

    /// Snapshot-facing view of the current tables, stamped `epoch`.
    fn build_committed(&self, epoch: u64) -> CommittedCatalog {
        let tables = self.tables.iter().map(|(name, t)| (name.clone(), t.at(epoch))).collect();
        CommittedCatalog { epoch, tables }
    }

    /// Commit everything since the last commit as one transaction: flush
    /// dirty frames into the WAL's staged overlay, append their page
    /// images plus a commit record carrying the serialized catalog (group
    /// commit — one fsync for the whole batch), stamp MVCC pending
    /// versions with the commit epoch, and publish a fresh committed
    /// catalog for new snapshots. Returns the commit epoch (for an
    /// unchanged database: the previous one, with nothing written).
    ///
    /// In-memory databases skip the log but still advance commit epochs,
    /// so [`Database::table_version`] and snapshots behave identically.
    pub fn commit(&mut self) -> DbResult<u64> {
        if self.dirty_tables.is_empty() && !self.catalog_dirty {
            return Ok(self.committed.read().epoch);
        }
        let t0 = Instant::now();
        let epoch = self.fresh_epoch();
        if let Some(wal) = self.wal.clone() {
            self.pool.flush_all()?;
            let catalog = self.encode_catalog();
            wal.commit(epoch, &catalog)?;
            self.last_catalog = catalog;
        }
        self.mvcc.commit(epoch);
        for name in std::mem::take(&mut self.dirty_tables) {
            if let Some(t) = self.tables.get_mut(&name) {
                t.commit_epoch = epoch;
            }
        }
        self.catalog_dirty = false;
        *self.committed.write() = Arc::new(self.build_committed(epoch));
        commit_latency().record(t0.elapsed().as_nanos() as u64);
        Ok(epoch)
    }

    /// Commit, then checkpoint the WAL: committed pages are written
    /// through to the page file and fsync'd, the log rolls to a fresh
    /// segment, and older segments are deleted. No-op (beyond the commit)
    /// for in-memory databases.
    pub fn checkpoint(&mut self) -> DbResult<u64> {
        let epoch = self.commit()?;
        if let Some(wal) = self.wal.clone() {
            if self.last_catalog.is_empty() {
                self.last_catalog = self.encode_catalog();
            }
            wal.checkpoint(epoch, &self.last_catalog)?;
        }
        Ok(epoch)
    }

    /// Cleanly shut down a durable database: commit and checkpoint, so the
    /// next [`Database::open`] recovers from the checkpoint record alone.
    pub fn close(mut self) -> DbResult<()> {
        self.checkpoint()?;
        Ok(())
    }

    /// Pin an owned, `Send + Sync` snapshot of the last committed state.
    ///
    /// The snapshot sees exactly the tables and rows of the commit it
    /// pinned — scans, range scans, and point gets resolve page reads
    /// through the MVCC version table, so a writer may keep mutating and
    /// committing concurrently (durable databases install the
    /// copy-on-write hooks; see [`Database::open`]). Superseded page
    /// versions are held until the snapshot drops, then reclaimed by the
    /// watermark GC.
    pub fn snapshot(&self) -> DbSnapshot {
        loop {
            let epoch = self.mvcc.pin_snapshot();
            let catalog = self.committed.read().clone();
            if catalog.epoch == epoch {
                return DbSnapshot { mvcc: self.mvcc.clone(), catalog };
            }
            // A commit raced between the pin and the catalog read; retry
            // against the newer epoch.
            self.mvcc.unpin_snapshot(epoch);
        }
    }

    /// The shared buffer pool (stats, direct index construction).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Current I/O counters.
    pub fn io_stats(&self) -> IoSnapshot {
        self.pool.stats()
    }

    fn norm(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    fn table(&self, name: &str) -> DbResult<&Table> {
        lookup(&self.tables, name)
    }

    fn table_mut(&mut self, name: &str) -> DbResult<&mut Table> {
        self.tables
            .get_mut(&Self::norm(name))
            .ok_or_else(|| DbError::NoSuchTable(name.to_owned()))
    }

    /// `true` when `name` exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&Self::norm(name))
    }

    /// All table names (sorted, for deterministic listings).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// Schema of a table.
    pub fn schema_of(&self, name: &str) -> DbResult<&Schema> {
        Ok(&self.table(name)?.schema)
    }

    /// Create a heap table.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> DbResult<()> {
        let key = Self::norm(name);
        if self.tables.contains_key(&key) {
            return Err(DbError::TableExists(name.to_owned()));
        }
        let file = HeapFile::create(self.pool.clone())?;
        let epoch = self.fresh_epoch();
        self.dirty_tables.insert(key.clone());
        self.catalog_dirty = true;
        self.tables.insert(
            key,
            Table {
                schema,
                storage: Storage::Heap { file, rows: 0 },
                indexes: Vec::new(),
                epoch,
                commit_epoch: 0,
            },
        );
        Ok(())
    }

    /// Create a table clustered on `key_cols` (a unique composite key —
    /// the engine's `CREATE CLUSTERED INDEX`).
    pub fn create_clustered_table(
        &mut self,
        name: &str,
        schema: Schema,
        key_cols: &[&str],
    ) -> DbResult<()> {
        let key = Self::norm(name);
        if self.tables.contains_key(&key) {
            return Err(DbError::TableExists(name.to_owned()));
        }
        if key_cols.is_empty() {
            return Err(DbError::SchemaMismatch(
                "clustered table needs at least one key column".into(),
            ));
        }
        let key_cols = key_cols
            .iter()
            .map(|c| schema.col(c))
            .collect::<DbResult<Vec<usize>>>()?;
        let tree = BTree::create(self.pool.clone())?;
        let epoch = self.fresh_epoch();
        self.dirty_tables.insert(key.clone());
        self.catalog_dirty = true;
        self.tables.insert(
            key,
            Table {
                schema,
                storage: Storage::Clustered { tree, key_cols },
                indexes: Vec::new(),
                epoch,
                commit_epoch: 0,
            },
        );
        Ok(())
    }

    /// Drop a table.
    pub fn drop_table(&mut self, name: &str) -> DbResult<()> {
        let key = Self::norm(name);
        self.tables
            .remove(&key)
            .map(|_| {
                self.dirty_tables.remove(&key);
                self.zone_builds.get_mut().remove(&key);
                self.catalog_dirty = true;
            })
            .ok_or_else(|| DbError::NoSuchTable(name.to_owned()))
    }

    /// Remove all rows (`TRUNCATE TABLE`), emptying secondary indexes too.
    pub fn truncate(&mut self, name: &str) -> DbResult<()> {
        let epoch = self.fresh_epoch();
        self.dirty_tables.insert(Self::norm(name));
        let table = self.table_mut(name)?;
        table.epoch = epoch;
        for idx in &mut table.indexes {
            idx.tree.truncate()?;
        }
        match &mut table.storage {
            Storage::Heap { file, rows } => {
                file.truncate()?;
                *rows = 0;
                Ok(())
            }
            Storage::Clustered { tree, .. } => tree.truncate(),
        }
    }

    /// Insert one row, maintaining any secondary indexes. Every key the
    /// insert will write — the clustered one and one entry per index — is
    /// encoded and checked before the first tree changes, so a refused row
    /// ([`DbError::RecordTooLarge`], or [`DbError::SchemaMismatch`] for a
    /// text key holding NUL) leaves table and indexes as they were.
    pub fn insert(&mut self, name: &str, row: Row) -> DbResult<()> {
        let epoch = self.fresh_epoch();
        self.dirty_tables.insert(Self::norm(name));
        let table = self.table_mut(name)?;
        table.epoch = epoch;
        table.schema.check_row(row.values())?;
        match &mut table.storage {
            Storage::Heap { file, rows } => {
                if !table.indexes.is_empty() {
                    return Err(DbError::TypeError(
                        "secondary indexes require a clustered table".into(),
                    ));
                }
                file.insert(&row.encode())?;
                *rows += 1;
                Ok(())
            }
            Storage::Clustered { tree, key_cols } => {
                let key = locator(key_cols, &row)?;
                let payload = row.encode();
                BTree::check_entry(&key, &payload)?;
                let entries = table
                    .indexes
                    .iter()
                    .map(|idx| index_entry(&idx.cols, &row, &key))
                    .collect::<DbResult<Vec<_>>>()?;
                tree.insert(&key, &payload)?;
                for (idx, entry) in table.indexes.iter_mut().zip(&entries) {
                    idx.tree.insert(entry, &[])?;
                }
                Ok(())
            }
        }
    }

    /// Insert many rows.
    pub fn insert_rows(
        &mut self,
        name: &str,
        rows: impl IntoIterator<Item = Row>,
    ) -> DbResult<u64> {
        let mut n = 0;
        for row in rows {
            self.insert(name, row)?;
            n += 1;
        }
        Ok(n)
    }

    /// The table's current mutation epoch. Every insert, delete, and
    /// truncate moves it forward (monotonically, database-wide, so a
    /// drop + recreate can never repeat an epoch). Snapshot-style caches
    /// record the epoch at build time and compare it before trusting their
    /// contents; a mismatch — or a missing table — means stale.
    pub fn table_epoch(&self, name: &str) -> DbResult<u64> {
        Ok(self.table(name)?.epoch)
    }

    /// The table's *visible* version for derived caches: its last commit
    /// epoch while the table has no uncommitted changes, the live mutation
    /// epoch while it does. Under the commit protocol a cache keyed on
    /// this value stays valid across read-only tasks (commits that touch
    /// other tables do not move it) and invalidates the moment the table
    /// itself changes — committed or not.
    pub fn table_version(&self, name: &str) -> DbResult<u64> {
        let t = self.table(name)?;
        Ok(if self.dirty_tables.contains(&Self::norm(name)) {
            t.epoch
        } else {
            t.commit_epoch
        })
    }

    /// The cached zone-join build side of `table` at version `epoch`, if
    /// one is held. One built at any other version is stale: it is dropped
    /// from the cache and `None` returned, so callers rebuild and re-store.
    pub(crate) fn cached_zone_build(
        &self,
        table: &str,
        epoch: u64,
    ) -> Option<Arc<crate::zonemap::ZoneBuild>> {
        let mut builds = self.zone_builds.lock();
        let key = Self::norm(table);
        match builds.get(&key) {
            Some(b) if b.map.epoch() == epoch => Some(b.clone()),
            Some(_) => {
                builds.remove(&key);
                None
            }
            None => None,
        }
    }

    /// Cache a zone-join build side drained by a full unfiltered scan of
    /// `table`, in place of any the table had.
    pub(crate) fn store_zone_build(&self, table: &str, build: Arc<crate::zonemap::ZoneBuild>) {
        self.zone_builds.lock().insert(Self::norm(table), build);
    }

    /// Row count.
    pub fn row_count(&self, name: &str) -> DbResult<u64> {
        Ok(self.table(name)?.row_count())
    }

    /// Point lookup by clustered key.
    pub fn get(&self, name: &str, key: &[Value]) -> DbResult<Option<Row>> {
        self.table(name)?.get(name, key)
    }

    /// The positions of a clustered table's key columns.
    pub fn clustered_key_cols(&self, name: &str) -> DbResult<Vec<usize>> {
        Ok(self.table(name)?.clustered(name)?.1.to_vec())
    }

    /// Create a nonclustered index over `cols` of a clustered table,
    /// backfilling it from existing rows. Index names are unique per table.
    /// Every entry is encoded and checked (as [`Database::insert`] checks
    /// its own) before the tree is created, so a row the index cannot hold
    /// fails the statement and leaves the table without the index.
    pub fn create_index(&mut self, table: &str, index: &str, cols: &[&str]) -> DbResult<()> {
        let t = self.table(table)?;
        let (_, key_cols) = t.clustered(table)?;
        if t.indexes.iter().any(|i| i.name.eq_ignore_ascii_case(index)) {
            return Err(DbError::TableExists(format!("index {index}")));
        }
        let col_ids: Vec<usize> = cols.iter().map(|c| t.schema.col(c)).collect::<DbResult<_>>()?;
        let mut entries = Vec::new();
        t.scan_with(|row| {
            entries.push(index_entry(&col_ids, row, &locator(key_cols, row)?)?);
            Ok(true)
        })?;
        let mut tree = BTree::create(self.pool.clone())?;
        for entry in &entries {
            tree.insert(entry, &[])?;
        }
        let t = self.table_mut(table)?;
        t.indexes.push(SecondaryIndex { name: index.to_owned(), cols: col_ids, tree });
        self.dirty_tables.insert(Self::norm(table));
        self.catalog_dirty = true;
        Ok(())
    }

    /// Drop a nonclustered index.
    pub fn drop_index(&mut self, table: &str, index: &str) -> DbResult<()> {
        let t = self.table_mut(table)?;
        let before = t.indexes.len();
        t.indexes.retain(|i| !i.name.eq_ignore_ascii_case(index));
        if t.indexes.len() == before {
            return Err(DbError::NoSuchTable(format!("index {index}")));
        }
        self.catalog_dirty = true;
        Ok(())
    }

    /// Names of a table's nonclustered indexes.
    pub fn index_names(&self, table: &str) -> DbResult<Vec<String>> {
        Ok(self.table(table)?.indexes.iter().map(|i| i.name.clone()).collect())
    }

    /// Open a streaming batched scan over the entries of a nonclustered
    /// index whose key lies between the `lo` and `hi` index-key prefixes
    /// (inclusive, prefix semantics as in
    /// [`Database::range_scan_prefix_raw`]), in index-key order. `needed[c]`
    /// says whether the caller reads table column `c`; see [`IndexScan`].
    pub(crate) fn index_scan(
        &self,
        table: &str,
        index: &str,
        lo: &[Value],
        hi: &[Value],
        needed: &[bool],
    ) -> DbResult<IndexScan> {
        let t = self.table(table)?;
        let fields = self.index_entry_cols(table, index)?;
        let (from, hi) = prefix_range(lo, hi);
        Ok(IndexScan {
            table: Self::norm(table),
            index: index.to_owned(),
            pos: ScanPos::Clustered { from, hi },
            split: t.index(index)?.cols.len(),
            dtypes: t.dtypes(),
            on_entry: (0..needed.len()).map(|c| needed[c] && fields.contains(&c)).collect(),
            fields,
            needed: needed.to_vec(),
        })
    }

    /// The column positions one entry of a nonclustered index holds, field
    /// by field: the index columns, then the clustering-key columns (a
    /// column can be both). A plan that reads nothing else needs no row.
    pub(crate) fn index_entry_cols(&self, table: &str, index: &str) -> DbResult<Vec<usize>> {
        let t = self.table(table)?;
        let mut fields = t.index(index)?.cols.clone();
        fields.extend_from_slice(t.clustered(table)?.1);
        Ok(fields)
    }

    /// The column positions a nonclustered index covers, in index order.
    pub fn index_key_cols(&self, table: &str, index: &str) -> DbResult<Vec<usize>> {
        Ok(self.table(table)?.index(index)?.cols.clone())
    }

    /// Parse and execute one SQL statement (see [`crate::sql`]).
    pub fn execute_sql(&mut self, sql: &str) -> DbResult<crate::sql::SqlOutput> {
        crate::sql::execute(self, sql)
    }

    /// The profile of the most recent profiled SELECT: its ANALYZE-rendered
    /// plan lines and per-operator stats. SELECTs are profiled while
    /// telemetry is enabled ([`obs::enabled`]) and always by
    /// `EXPLAIN ANALYZE`; an unprofiled SELECT clears this to `None`.
    pub fn last_profile(&self) -> Option<crate::sql::QueryProfile> {
        self.last_profile.lock().clone()
    }

    /// Store (or clear) the last-SELECT profile. Engine-internal.
    pub(crate) fn set_last_profile(&self, prof: Option<crate::sql::QueryProfile>) {
        *self.last_profile.lock() = prof;
    }

    /// Delete by clustered key; `Ok(true)` if a row was removed.
    pub fn delete_by_key(&mut self, name: &str, key: &[Value]) -> DbResult<bool> {
        let epoch = self.fresh_epoch();
        self.dirty_tables.insert(Self::norm(name));
        let table = self.table_mut(name)?;
        table.epoch = epoch;
        let Storage::Clustered { tree, .. } = &mut table.storage else {
            return Err(DbError::TypeError(format!("{name} is not clustered")));
        };
        let key = encode_key(key);
        let arity = table.schema.arity();
        let Some(row) = tree.get_with(&key, |p| Row::decode(p, arity))?.transpose()? else {
            return Ok(false);
        };
        tree.delete(&key)?;
        for idx in &mut table.indexes {
            idx.tree.delete(&index_entry(&idx.cols, &row, &key)?)?;
        }
        Ok(true)
    }

    /// Stream every row through `visit`; return `false` to stop early.
    /// Clustered tables stream in key order, heaps in page order.
    ///
    /// `visit` runs while the engine holds the buffer-pool latch: it must
    /// not call back into this database (materialize first and re-enter
    /// after the scan).
    pub fn scan_with(
        &self,
        name: &str,
        visit: impl FnMut(&Row) -> DbResult<bool>,
    ) -> DbResult<()> {
        self.table(name)?.scan_with(visit)
    }

    /// Materialize a full table (convenience for small tables and tests).
    pub fn scan(&self, name: &str) -> DbResult<Vec<Row>> {
        let mut out = Vec::new();
        self.scan_with(name, |row| {
            out.push(row.clone());
            Ok(true)
        })?;
        Ok(out)
    }

    /// Stream the undecoded payloads, borrowed from the page, of the rows
    /// whose clustered key lies between the `lo` and `hi` key *prefixes*,
    /// both inclusive — `hi` admits every key extending it. This is the
    /// access path of the zone join: e.g. for a key `(zoneID, ra, objid)`,
    /// `lo = (z, ra_min)`, `hi = (z, ra_max)`. Return `false` to stop;
    /// `visit` is bound by the latch contract of [`Database::scan_with`].
    pub fn range_scan_prefix_raw(
        &self,
        name: &str,
        lo: &[Value],
        hi: &[Value],
        visit: impl FnMut(&[u8]) -> bool,
    ) -> DbResult<()> {
        self.table(name)?.range_scan_prefix_raw(name, lo, hi, visit)
    }

    /// Bulk extraction: stream every raw row payload of a clustered table
    /// in clustered-key order; return `false` to stop early. This is the
    /// snapshot-build path — one sequential pass, no per-row decode by the
    /// engine, so read-optimized caches (the zone snapshot) can be
    /// materialized at memory speed. `visit` is bound by the latch
    /// contract of [`Database::scan_with`].
    pub fn scan_raw(&self, name: &str, visit: impl FnMut(&[u8]) -> bool) -> DbResult<()> {
        self.table(name)?.scan_raw(name, visit)
    }

    /// Open a row-at-a-time cursor (the paper's `DECLARE c CURSOR`).
    pub fn cursor(&self, name: &str) -> DbResult<Cursor> {
        Ok(Cursor { table: Self::norm(name), pos: self.table(name)?.start() })
    }

    /// Planner-facing statistics for a table (currently the row count).
    pub fn table_stats(&self, name: &str) -> DbResult<TableStats> {
        Ok(TableStats { rows: self.row_count(name)? })
    }

    /// Open a streaming batched scan over the whole table (clustered
    /// tables in key order, heaps in page order). The scan holds no latch
    /// between batches — like [`Cursor`], each fetch re-descends from the
    /// last key — so the pull-based executor can interleave fetches with
    /// arbitrary database reads.
    pub fn batch_scan(&self, name: &str) -> DbResult<BatchScan> {
        Ok(BatchScan { table: Self::norm(name), pos: self.table(name)?.start(), needed: None })
    }

    /// Open a streaming batched scan over the clustered-key range between
    /// the `lo` and `hi` key *prefixes*, both inclusive (`hi` admits every
    /// key extending it, as in [`Database::range_scan_prefix_raw`]).
    pub fn batch_range_scan(&self, name: &str, lo: &[Value], hi: &[Value]) -> DbResult<BatchScan> {
        let pos = self.table(name)?.start_range(name, lo, hi)?;
        Ok(BatchScan { table: Self::norm(name), pos, needed: None })
    }

    /// A `Send + Sync` read-only snapshot handle for concurrent readers.
    ///
    /// The returned [`DbReader`] derefs to [`Database`], so every `&self`
    /// read path — [`Database::get`], [`Database::scan_with`],
    /// [`Database::range_scan_prefix_raw`], cursors — is available from
    /// many threads at once; the sharded buffer pool latches per page
    /// shard underneath. Writes still require `&mut Database`, so the
    /// borrow checker guarantees no writer coexists with outstanding
    /// readers: the handle really is a snapshot for its lifetime.
    pub fn reader(&self) -> DbReader<'_> {
        DbReader { db: self }
    }

    /// Run a named task, capturing its [`TaskStats`]: wall time of the body
    /// plus the I/O-counter delta it produced. The task ends with a
    /// checkpoint (every dirty page written back), so bulk-writing tasks
    /// like the paper's `spZone` show their physical I/O even when the
    /// buffer pool could have held everything — matching how SQL Server's
    /// statistics attribute writes to the statement that dirtied the pages.
    pub fn run_task<T>(
        &mut self,
        name: &str,
        body: impl FnOnce(&mut Database) -> DbResult<T>,
    ) -> DbResult<(T, TaskStats)> {
        let _span = obs::span(name);
        let before = self.pool.stats();
        let start = Instant::now();
        let out = body(self)?;
        let cpu = start.elapsed();
        self.pool.flush_all()?;
        // Each task is one transaction: group-commit whatever it dirtied
        // (no-op for read-only tasks, no log for in-memory databases).
        self.commit()?;
        let io = self.pool.stats().since(&before);
        // The modeled I/O wait is not part of the measured wall time (the
        // engine never sleeps), so the measured time *is* the cpu time.
        Ok((out, TaskStats::from_delta(name, cpu, io)))
    }
}

/// A shared read-only view of a [`Database`], safe to copy into worker
/// threads (see [`Database::reader`]). While any `DbReader` is alive the
/// borrow checker keeps the database immutable, so readers never observe a
/// write in progress.
#[derive(Clone, Copy)]
pub struct DbReader<'a> {
    db: &'a Database,
}

impl std::ops::Deref for DbReader<'_> {
    type Target = Database;
    fn deref(&self) -> &Database {
        self.db
    }
}

// Compile-time proof that reader handles may cross threads: scoped worker
// pools (maxbcg's candidate fan-out) rely on it.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DbReader<'static>>();
};

/// An owned, pinned view of one committed transaction (see
/// [`Database::snapshot`]). Unlike [`DbReader`], which borrows the database
/// and therefore excludes writers, a `DbSnapshot` holds no borrow: a writer
/// may insert and commit concurrently, and the snapshot keeps serving the
/// rows of the epoch it pinned. Page reads resolve through the MVCC version
/// table; dropping the snapshot releases the pin so the watermark GC can
/// reclaim superseded versions.
pub struct DbSnapshot {
    mvcc: Arc<MvccState>,
    catalog: Arc<CommittedCatalog>,
}

impl DbSnapshot {
    /// The commit epoch this snapshot is pinned to.
    pub fn epoch(&self) -> u64 {
        self.catalog.epoch
    }

    /// All table names in the pinned catalog (sorted).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.catalog.tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// `true` when `name` existed at the pinned commit.
    pub fn has_table(&self, name: &str) -> bool {
        self.catalog.tables.contains_key(&Database::norm(name))
    }

    fn table(&self, name: &str) -> DbResult<&Table> {
        lookup(&self.catalog.tables, name)
    }

    /// Row count of `name` at the pinned commit.
    pub fn row_count(&self, name: &str) -> DbResult<u64> {
        Ok(self.table(name)?.row_count())
    }

    /// Point lookup by clustered key, as of the pinned commit.
    pub fn get(&self, name: &str, key: &[Value]) -> DbResult<Option<Row>> {
        self.table(name)?.get(name, key)
    }

    /// [`Database::scan_with`] as of the pinned commit.
    pub fn scan_with(
        &self,
        name: &str,
        visit: impl FnMut(&Row) -> DbResult<bool>,
    ) -> DbResult<()> {
        self.table(name)?.scan_with(visit)
    }

    /// [`Database::scan_raw`] as of the pinned commit.
    pub fn scan_raw(&self, name: &str, visit: impl FnMut(&[u8]) -> bool) -> DbResult<()> {
        self.table(name)?.scan_raw(name, visit)
    }

    /// [`Database::range_scan_prefix_raw`] as of the pinned commit.
    pub fn range_scan_prefix_raw(
        &self,
        name: &str,
        lo: &[Value],
        hi: &[Value],
        visit: impl FnMut(&[u8]) -> bool,
    ) -> DbResult<()> {
        self.table(name)?.range_scan_prefix_raw(name, lo, hi, visit)
    }
}

impl Drop for DbSnapshot {
    fn drop(&mut self) {
        self.mvcc.unpin_snapshot(self.catalog.epoch);
    }
}

// Snapshots are built to cross threads: a pinned reader scans from a worker
// while the owning thread keeps committing.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DbSnapshot>();
};

/// A row-at-a-time cursor. Each [`Cursor::fetch_next`] re-descends the
/// index (clustered) or re-reads the page (heap) — deliberately faithful to
/// the cost profile of SQL cursors, which §2.6 of the paper singles out as
/// "very slow". The cursor-vs-set-based ablation bench quantifies this.
pub struct Cursor {
    table: String,
    pos: ScanPos,
}

impl Cursor {
    /// Fetch the next row, or `None` at the end (`@@fetch_status < 0`).
    pub fn fetch_next(&mut self, db: &Database) -> DbResult<Option<Row>> {
        let table = db.table(&self.table)?;
        let mut row = None;
        self.pos.resume(table, 1, |payload| {
            row = Some(Row::decode(payload, table.schema.arity())?);
            Ok(true)
        })?;
        Ok(row)
    }
}

/// One column-major batch fetched by [`BatchScan::fetch_columns`]: every
/// stored row examined lands in the batch (predicates run columnwise
/// *after* the fetch, producing selection vectors), so `batch.len()` is
/// also the pruning denominator.
pub struct ColChunk {
    /// The examined rows, decoded straight into column buffers.
    pub batch: ColumnBatch,
}

/// A streaming batched table scan: the planner's pull-based leaf operator
/// (see [`Database::batch_scan`] / [`Database::batch_range_scan`]).
///
/// Between fetches the scan holds nothing but the last clustered key (or
/// heap address) examined; each fetch re-descends the B-tree from there,
/// exactly like [`Cursor`], but amortizes the descent over a whole batch.
pub struct BatchScan {
    table: String,
    pos: ScanPos,
    /// Which table columns fetched batches hold; `None` holds them all.
    needed: Option<Vec<bool>>,
}

impl BatchScan {
    /// Decode only the columns the caller reads: column `c` of every
    /// fetched batch is present when `needed[c]` and absent otherwise
    /// (framing-checked and stepped over; see [`crate::colbatch`]).
    pub(crate) fn project(mut self, needed: &[bool]) -> BatchScan {
        self.needed = Some(needed.to_vec());
        self
    }

    /// Fetch up to `max` stored rows as a column-major batch, decoding
    /// page payloads straight into typed buffers with no per-row `Row`
    /// materialization — the executor's leaf. No predicate runs here:
    /// filtering happens columnwise on the returned batch, so every
    /// examined row is in it.
    /// Returns `None` once the scan is exhausted.
    pub fn fetch_columns(&mut self, db: &Database, max: usize) -> DbResult<Option<ColChunk>> {
        if matches!(self.pos, ScanPos::Done) {
            return Ok(None);
        }
        let table = db.table(&self.table)?;
        let dtypes = table.dtypes();
        let mut batch = match &self.needed {
            Some(needed) => ColumnBatch::with_projection(&dtypes, needed, max),
            None => ColumnBatch::with_capacity(&dtypes, max),
        };
        self.pos.resume(table, max, |payload| batch.push_wire(payload).map(|()| true))?;
        if batch.is_empty() {
            self.pos = ScanPos::Done;
            return Ok(None);
        }
        Ok(Some(ColChunk { batch }))
    }
}

/// One batch of index entries fetched by [`IndexScan::fetch_entries`].
pub(crate) struct IndexChunk {
    /// The examined entries in index order, decoded from their key bytes
    /// into the table's layout: the needed columns an entry holds are
    /// present, every other column is absent. Cell for cell what a fetch
    /// of the rows would hold.
    pub(crate) batch: ColumnBatch,
    /// Each entry's locator — the suffix of its key, which is the encoded
    /// clustering key of its row — end to end.
    locators: Vec<u8>,
    /// Entry `i`'s locator is `locators[bounds[i]..bounds[i + 1]]`.
    bounds: Vec<u32>,
}

impl IndexChunk {
    fn locator(&self, i: usize) -> &[u8] {
        &self.locators[self.bounds[i] as usize..self.bounds[i + 1] as usize]
    }
}

/// A streaming batched scan of a nonclustered index range
/// ([`Database::index_scan`]), resumable exactly like [`BatchScan`]: one
/// seek per fetched batch of entries, no latch and no pin between batches.
///
/// A batch is read in two steps so a predicate can run between them.
/// [`IndexScan::fetch_entries`] decodes the entries themselves — an entry
/// *is* the row's index and clustering columns, so a caller that needs no
/// other column is done, and one that filters on those columns filters
/// here. [`IndexScan::fetch_rows`] then reads the rows of the entries the
/// caller kept, one clustered point read each.
///
/// Index ≡ table is an invariant [`Database::insert`] and
/// [`Database::delete_by_key`] maintain; both steps report a breach — an
/// entry that does not decode as its columns, a locator with no row — as
/// [`DbError::Corrupt`], never by skipping.
pub(crate) struct IndexScan {
    table: String,
    index: String,
    /// Over the index tree; only the clustered-key variants occur.
    pos: ScanPos,
    /// The table column each field of an entry holds.
    fields: Vec<usize>,
    /// The field a locator starts at (= the number of index columns).
    split: usize,
    dtypes: Vec<DataType>,
    needed: Vec<bool>,
    /// `needed`, restricted to the columns an entry holds.
    on_entry: Vec<bool>,
}

impl IndexScan {
    /// Fetch up to `max` entries; `None` once the range is exhausted.
    pub(crate) fn fetch_entries(
        &mut self,
        db: &Database,
        max: usize,
    ) -> DbResult<Option<IndexChunk>> {
        let ScanPos::Clustered { from, hi } = &mut self.pos else {
            return Ok(None);
        };
        let index = db.table(&self.table)?.index(&self.index)?;
        let mut chunk = IndexChunk {
            batch: ColumnBatch::with_projection(&self.dtypes, &self.on_entry, max),
            locators: Vec::new(),
            bounds: vec![0],
        };
        let stopped_at = walk_tree(&index.tree, from, hi, max, |key, _| {
            let at = chunk.batch.push_key(key, &self.fields, self.split)?;
            chunk.locators.extend_from_slice(&key[at..]);
            chunk.bounds.push(chunk.locators.len() as u32);
            Ok(true)
        })?;
        match stopped_at {
            Some(key) => *from = Bound::Excluded(key),
            None => self.pos = ScanPos::Done,
        }
        Ok((!chunk.batch.is_empty()).then_some(chunk))
    }

    /// The rows of entries `sel` of `chunk`, in that order, holding the
    /// needed columns: each a point read by locator whose payload is
    /// decoded straight from the leaf it lives on.
    pub(crate) fn fetch_rows(
        &self,
        db: &Database,
        chunk: &IndexChunk,
        sel: &[u32],
    ) -> DbResult<ColumnBatch> {
        let (tree, _) = db.table(&self.table)?.clustered(&self.table)?;
        let mut batch = ColumnBatch::with_projection(&self.dtypes, &self.needed, sel.len());
        for &i in sel {
            tree.get_with(chunk.locator(i as usize), |payload| batch.push_wire(payload))?
                .ok_or_else(|| {
                    DbError::Corrupt(format!("index {} holds an entry with no row", self.index))
                })??;
        }
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn galaxy_schema() -> Schema {
        Schema::new(vec![
            Column::new("objid", DataType::BigInt),
            Column::new("ra", DataType::Float),
            Column::new("dec", DataType::Float),
            Column::new("i", DataType::Real),
        ])
    }

    fn db() -> Database {
        Database::new(DbConfig::in_memory())
    }

    fn g(objid: i64, ra: f64, dec: f64, i: f32) -> Row {
        Row(vec![Value::BigInt(objid), Value::Float(ra), Value::Float(dec), Value::Real(i)])
    }

    #[test]
    fn heap_table_crud() {
        let mut d = db();
        d.create_table("galaxy", galaxy_schema()).unwrap();
        d.insert("galaxy", g(1, 180.0, 2.0, 17.5)).unwrap();
        d.insert("galaxy", g(2, 181.0, 2.1, 18.5)).unwrap();
        assert_eq!(d.row_count("galaxy").unwrap(), 2);
        let rows = d.scan("GALAXY").unwrap();
        assert_eq!(rows.len(), 2);
        d.truncate("galaxy").unwrap();
        assert_eq!(d.row_count("galaxy").unwrap(), 0);
    }

    #[test]
    fn clustered_table_ordered_and_unique() {
        let mut d = db();
        d.create_clustered_table("galaxy", galaxy_schema(), &["objid"]).unwrap();
        for id in [5i64, 1, 3, 2, 4] {
            d.insert("galaxy", g(id, 180.0 + id as f64, 0.0, 17.0)).unwrap();
        }
        let rows = d.scan("galaxy").unwrap();
        let ids: Vec<i64> = rows.iter().map(|r| r.i64(0).unwrap()).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        assert!(matches!(
            d.insert("galaxy", g(3, 0.0, 0.0, 0.0)),
            Err(DbError::DuplicateKey(_))
        ));
        let row = d.get("galaxy", &[Value::BigInt(4)]).unwrap().unwrap();
        assert_eq!(row.f64(1).unwrap(), 184.0);
        assert!(d.get("galaxy", &[Value::BigInt(99)]).unwrap().is_none());
    }

    #[test]
    fn scan_with_early_stop() {
        let mut d = db();
        d.create_table("t", galaxy_schema()).unwrap();
        for i in 0..100 {
            d.insert("t", g(i, 0.0, 0.0, 0.0)).unwrap();
        }
        let mut n = 0;
        d.scan_with("t", |_| {
            n += 1;
            Ok(n < 10)
        })
        .unwrap();
        assert_eq!(n, 10);
    }

    #[test]
    fn schema_violations_rejected() {
        let mut d = db();
        d.create_table("t", galaxy_schema()).unwrap();
        let bad = Row(vec![Value::Text("no".into()), Value::Float(0.0), Value::Float(0.0), Value::Real(0.0)]);
        assert!(matches!(d.insert("t", bad), Err(DbError::SchemaMismatch(_))));
    }

    #[test]
    fn missing_table_errors() {
        let d = db();
        assert!(matches!(d.scan("ghost"), Err(DbError::NoSuchTable(_))));
    }

    #[test]
    fn create_duplicate_table_errors() {
        let mut d = db();
        d.create_table("t", galaxy_schema()).unwrap();
        assert!(matches!(
            d.create_table("T", galaxy_schema()),
            Err(DbError::TableExists(_))
        ));
    }

    #[test]
    fn run_task_reports_io_delta() {
        let mut d = db();
        d.create_clustered_table("t", galaxy_schema(), &["objid"]).unwrap();
        let ((), stats) = d
            .run_task("load", |db| {
                for i in 0..1000 {
                    db.insert("t", g(i, f64::from(i as i32), 0.0, 0.0))?;
                }
                Ok(())
            })
            .unwrap();
        assert!(stats.logical_reads > 1000, "inserts must touch pages");
        assert_eq!(stats.name, "load");
        // A second task sees only its own delta.
        let (rows, stats2) = d.run_task("scan", |db| db.scan("t")).unwrap();
        assert_eq!(rows.len(), 1000);
        assert!(stats2.logical_reads < stats.logical_reads);
    }

    /// The rows an index range holds, through both steps of [`IndexScan`]
    /// in batches of `max` entries: every column of every entry's row.
    fn index_rows(
        d: &Database,
        table: &str,
        index: &str,
        lo: &[Value],
        hi: &[Value],
        max: usize,
    ) -> DbResult<Vec<Row>> {
        let all = vec![true; d.schema_of(table)?.arity()];
        let mut scan = d.index_scan(table, index, lo, hi, &all)?;
        let mut rows = Vec::new();
        while let Some(chunk) = scan.fetch_entries(d, max)? {
            assert!(chunk.batch.len() <= max);
            let sel: Vec<u32> = (0..chunk.batch.len() as u32).collect();
            rows.extend(scan.fetch_rows(d, &chunk, &sel)?.to_rows());
        }
        assert!(scan.fetch_entries(d, max)?.is_none(), "stays done");
        Ok(rows)
    }

    /// Every index of `table` holds exactly one entry per stored row, and
    /// it is that row's index and clustering columns.
    fn assert_indexes_mirror_table(d: &Database, table: &str) {
        let rows = d.scan(table).unwrap();
        for index in d.index_names(table).unwrap() {
            let fields = d.index_entry_cols(table, &index).unwrap();
            let mut want: Vec<Vec<u8>> = rows
                .iter()
                .map(|r| encode_key(&fields.iter().map(|&c| r[c].clone()).collect::<Vec<_>>()))
                .collect();
            want.sort();
            let tree = &d.table(table).unwrap().index(&index).unwrap().tree;
            let got: Vec<Vec<u8>> = tree.scan_all().unwrap().into_iter().map(|(k, _)| k).collect();
            assert!(got == want, "{index} diverged from {table}");
            assert_eq!(tree.len(), rows.len() as u64);
        }
    }

    #[test]
    fn secondary_index_lifecycle() {
        let mut d = db();
        d.create_clustered_table("galaxy", galaxy_schema(), &["objid"]).unwrap();
        for id in 0..200i64 {
            d.insert("galaxy", g(id, 180.0 + f64::from(id as i32) * 0.01, 0.0, (id % 7) as f32))
                .unwrap();
        }
        d.create_index("galaxy", "ix_i", &["i"]).unwrap();
        assert_eq!(d.index_names("galaxy").unwrap(), vec!["ix_i"]);
        let ids_between = |d: &Database, lo: f32, hi: f32| -> Vec<i64> {
            index_rows(d, "galaxy", "ix_i", &[Value::Real(lo)], &[Value::Real(hi)], 7)
                .unwrap()
                .iter()
                .map(|row| row.i64(0).unwrap())
                .collect()
        };
        // Seek i = 3 through the index: ids 3, 10, 17, ...
        let ids = ids_between(&d, 3.0, 3.0);
        assert_eq!(ids.len(), 200 / 7 + 1);
        assert!(ids.iter().all(|id| id % 7 == 3));
        // Inserts and deletes maintain the index.
        d.insert("galaxy", g(1000, 185.0, 0.0, 3.0)).unwrap();
        d.delete_by_key("galaxy", &[Value::BigInt(3)]).unwrap();
        let ids2 = ids_between(&d, 3.0, 3.0);
        assert!(ids2.contains(&1000));
        assert!(!ids2.contains(&3));
        // Range over the index prefix.
        let n = ids_between(&d, 0.0, 1.0).len();
        assert!(n > 40, "i in {{0,1}} covers ~2/7 of rows, got {n}");
        // A seeded insert/delete sequence keeps every index the projection
        // of the table's rows.
        d.create_index("galaxy", "ix_radec", &["ra", "dec"]).unwrap();
        let mut state = 2005u64;
        for _ in 0..400 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let id = (state >> 33) as i64 % 300;
            if d.get("galaxy", &[Value::BigInt(id)]).unwrap().is_some() {
                assert!(d.delete_by_key("galaxy", &[Value::BigInt(id)]).unwrap());
            } else {
                d.insert("galaxy", g(id, (state >> 40) as f64 * 1e-4, -0.0, (id % 5) as f32))
                    .unwrap();
            }
        }
        assert!(!d.delete_by_key("galaxy", &[Value::BigInt(5000)]).unwrap());
        assert_indexes_mirror_table(&d, "galaxy");
        // Truncate empties the index.
        d.truncate("galaxy").unwrap();
        assert!(ids_between(&d, 0.0, 9.0).is_empty());
        d.drop_index("galaxy", "ix_i").unwrap();
        assert!(d.drop_index("galaxy", "ix_i").is_err());
    }

    /// A key an index cannot hold is refused before any tree changes: a
    /// stored row with no entry is a row no index scan would ever return.
    #[test]
    fn refused_index_keys_leave_table_and_indexes_unchanged() {
        let schema = || {
            Schema::new(vec![
                Column::new("id", DataType::BigInt),
                Column::new("tag", DataType::Text),
            ])
        };
        let t = |id: i64, tag: &str| Row(vec![Value::BigInt(id), Value::Text(tag.to_owned())]);
        let mut d = db();
        d.create_clustered_table("t", schema(), &["id"]).unwrap();
        // The row fits a node; the entry of an index naming `tag` twice
        // (legal, if pointless) holds it twice and does not.
        let wide = "w".repeat(crate::btree::MAX_ENTRY / 2);
        d.create_index("t", "ix_tag", &["tag"]).unwrap();
        d.create_index("t", "ix_twice", &["tag", "tag"]).unwrap();
        d.insert("t", t(1, "a")).unwrap();
        assert!(matches!(d.insert("t", t(2, &wide)), Err(DbError::RecordTooLarge { .. })));
        assert!(matches!(d.insert("t", t(3, "nul\0inside")), Err(DbError::SchemaMismatch(_))));
        assert_eq!(d.scan("t").unwrap(), vec![t(1, "a")]);
        assert_indexes_mirror_table(&d, "t");
        // The backfill checks the same way, before the index exists.
        d.drop_index("t", "ix_twice").unwrap();
        d.insert("t", t(2, &wide)).unwrap();
        assert!(matches!(
            d.create_index("t", "ix_twice", &["tag", "tag"]),
            Err(DbError::RecordTooLarge { .. })
        ));
        assert_eq!(d.index_names("t").unwrap(), vec!["ix_tag"]);
        assert_indexes_mirror_table(&d, "t");
        // A clustering key is a key too.
        d.create_clustered_table("k", schema(), &["tag"]).unwrap();
        assert!(matches!(d.insert("k", t(1, "\0")), Err(DbError::SchemaMismatch(_))));
        assert_eq!(d.row_count("k").unwrap(), 0);
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let mut d = db();
        d.create_clustered_table("t", galaxy_schema(), &["objid"]).unwrap();
        d.create_index("t", "ix", &["ra"]).unwrap();
        assert!(matches!(d.create_index("t", "IX", &["dec"]), Err(DbError::TableExists(_))));
    }

    #[test]
    fn heap_tables_reject_indexes_on_insert() {
        let mut d = db();
        d.create_table("h", galaxy_schema()).unwrap();
        assert!(d.create_index("h", "ix", &["ra"]).is_err());
    }

    #[test]
    fn epochs_move_on_every_mutation_and_never_repeat() {
        let mut d = db();
        d.create_clustered_table("t", galaxy_schema(), &["objid"]).unwrap();
        let e0 = d.table_epoch("t").unwrap();
        d.insert("t", g(1, 180.0, 0.0, 17.0)).unwrap();
        let e1 = d.table_epoch("t").unwrap();
        assert!(e1 > e0, "insert must bump the epoch");
        d.delete_by_key("t", &[Value::BigInt(1)]).unwrap();
        let e2 = d.table_epoch("t").unwrap();
        assert!(e2 > e1, "delete must bump the epoch");
        d.truncate("t").unwrap();
        let e3 = d.table_epoch("t").unwrap();
        assert!(e3 > e2, "truncate must bump the epoch");
        // Reads never move the epoch.
        d.scan("t").unwrap();
        d.get("t", &[Value::BigInt(1)]).unwrap();
        assert_eq!(d.table_epoch("t").unwrap(), e3);
        // Drop + recreate cannot alias an old epoch.
        d.drop_table("t").unwrap();
        assert!(d.table_epoch("t").is_err());
        d.create_clustered_table("t", galaxy_schema(), &["objid"]).unwrap();
        assert!(d.table_epoch("t").unwrap() > e3, "recreated table must get a fresh epoch");
        // Epochs are per table: mutating one leaves the other untouched.
        d.create_table("other", galaxy_schema()).unwrap();
        let et = d.table_epoch("t").unwrap();
        d.insert("other", g(9, 0.0, 0.0, 0.0)).unwrap();
        assert_eq!(d.table_epoch("t").unwrap(), et);
    }

    // ---- the read path, one test per property, every view -----------------

    fn zone_schema() -> Schema {
        Schema::new(vec![
            Column::new("zoneid", DataType::Int),
            Column::new("ra", DataType::Float),
            Column::new("objid", DataType::BigInt),
            Column::new("pad", DataType::Text),
        ])
    }

    const ZONE_KEY: [&str; 3] = ["zoneid", "ra", "objid"];

    /// Row `j` of the zone corpus: zone `j / 100`, ra step `j % 100`,
    /// objid `j + 1`, wide enough that 500 rows span many pages.
    fn zone_row(j: i32) -> Row {
        Row(vec![
            Value::Int(j / 100),
            Value::Float(f64::from(j % 100) * 0.1),
            Value::BigInt(i64::from(j) + 1),
            Value::Text("p".repeat(100)),
        ])
    }

    /// Create heap table `h` and clustered table `c` over the same 500 rows,
    /// inserted in a scrambled order so page order differs from key order.
    /// Returns the row numbers in insertion order.
    fn load_zones(d: &mut Database) -> Vec<i32> {
        d.create_table("h", zone_schema()).unwrap();
        d.create_clustered_table("c", zone_schema(), &ZONE_KEY).unwrap();
        let order: Vec<i32> = (0..500).map(|i| i * 37 % 500).collect();
        for &j in &order {
            d.insert("h", zone_row(j)).unwrap();
            d.insert("c", zone_row(j)).unwrap();
        }
        order
    }

    /// The two types that hand out the shared view.
    #[derive(Clone, Copy)]
    enum View<'a> {
        Live(&'a Database),
        Pinned(&'a DbSnapshot),
    }

    impl View<'_> {
        fn row_count(self, t: &str) -> DbResult<u64> {
            match self {
                View::Live(d) => d.row_count(t),
                View::Pinned(s) => s.row_count(t),
            }
        }
        fn get(self, t: &str, key: &[Value]) -> DbResult<Option<Row>> {
            match self {
                View::Live(d) => d.get(t, key),
                View::Pinned(s) => s.get(t, key),
            }
        }
        fn scan_with(self, t: &str, visit: impl FnMut(&Row) -> DbResult<bool>) -> DbResult<()> {
            match self {
                View::Live(d) => d.scan_with(t, visit),
                View::Pinned(s) => s.scan_with(t, visit),
            }
        }
        fn scan_raw(self, t: &str, visit: impl FnMut(&[u8]) -> bool) -> DbResult<()> {
            match self {
                View::Live(d) => d.scan_raw(t, visit),
                View::Pinned(s) => s.scan_raw(t, visit),
            }
        }
        fn range_raw(
            self,
            t: &str,
            lo: &[Value],
            hi: &[Value],
            visit: impl FnMut(&[u8]) -> bool,
        ) -> DbResult<()> {
            match self {
                View::Live(d) => d.range_scan_prefix_raw(t, lo, hi, visit),
                View::Pinned(s) => s.range_scan_prefix_raw(t, lo, hi, visit),
            }
        }
    }

    fn encoded(order: &[i32]) -> Vec<Vec<u8>> {
        order.iter().map(|&j| zone_row(j).encode()).collect()
    }

    fn drain(mut scan: BatchScan, db: &Database, max: usize) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(chunk) = scan.fetch_columns(db, max).unwrap() {
            assert!(chunk.batch.len() <= max);
            out.extend(chunk.batch.to_rows().iter().map(Row::encode));
        }
        assert!(scan.fetch_columns(db, max).unwrap().is_none(), "stays done");
        out
    }

    /// Every read entry point of `view` returns the rows `expect` (row
    /// numbers in scan order) of table `t`, compared on `Row::encode` bytes.
    /// A live view adds the resumable entry points, which only a `Database`
    /// opens.
    fn check_reads(view: View, t: &str, clustered: bool, expect: &[i32]) {
        let db = match view {
            View::Live(db) => Some(db),
            View::Pinned(_) => None,
        };
        let want = encoded(expect);
        assert_eq!(view.row_count(t).unwrap(), want.len() as u64);
        let mut got = Vec::new();
        view.scan_with(t, |row| {
            got.push(row.encode());
            Ok(true)
        })
        .unwrap();
        assert!(got == want, "{t}: scan_with diverged");
        let mut seen = 0;
        view.scan_with(t, |_| {
            seen += 1;
            Ok(false)
        })
        .unwrap();
        assert_eq!(seen, 1, "{t}: early stop");

        if let Some(db) = db {
            let mut cursor = db.cursor(t).unwrap();
            let mut walked = Vec::new();
            while let Some(row) = cursor.fetch_next(db).unwrap() {
                walked.push(row.encode());
            }
            assert!(walked == want, "{t}: cursor walk diverged");
            assert!(cursor.fetch_next(db).unwrap().is_none(), "stays done");
            for max in [1, 7, 1024] {
                assert!(drain(db.batch_scan(t).unwrap(), db, max) == want, "{t}: batches of {max}");
            }
        }

        // Zone 2, ra steps 30..=50: both bounds sit on stored keys, and `hi`
        // is a two-column prefix of the three-column key.
        let (lo, hi) = (&zone_row(230).0[..2], &zone_row(250).0[..2]);
        if !clustered {
            assert!(matches!(view.scan_raw(t, |_| true), Err(DbError::TypeError(_))));
            assert!(matches!(view.range_raw(t, lo, hi, |_| true), Err(DbError::TypeError(_))));
            assert!(matches!(view.get(t, lo), Err(DbError::TypeError(_))));
            if let Some(db) = db {
                assert!(matches!(db.batch_range_scan(t, lo, hi), Err(DbError::TypeError(_))));
            }
            return;
        }
        let mut raw = Vec::new();
        view.scan_raw(t, |p| {
            raw.push(p.to_vec());
            true
        })
        .unwrap();
        assert!(raw == want, "{t}: scan_raw diverged");
        let mut seen = 0;
        view.scan_raw(t, |_| {
            seen += 1;
            false
        })
        .unwrap();
        assert_eq!(seen, 1, "{t}: raw early stop");

        let range = |lo: &[Value], hi: &[Value]| {
            let mut out = Vec::new();
            view.range_raw(t, lo, hi, |p| {
                out.push(p.to_vec());
                true
            })
            .unwrap();
            out
        };
        let in_window: Vec<i32> =
            expect.iter().copied().filter(|j| (230..=250).contains(j)).collect();
        assert_eq!(in_window.len(), 21);
        assert!(range(lo, hi) == encoded(&in_window), "{t}: inclusive prefix bounds");
        if let Some(db) = db {
            let scan = db.batch_range_scan(t, lo, hi).unwrap();
            assert!(drain(scan, db, 7) == encoded(&in_window), "{t}: batched range");
        }
        // One-column prefix: every key extending it, nothing of zone 4.
        let zone3: Vec<i32> = expect.iter().copied().filter(|j| j / 100 == 3).collect();
        assert!(range(&[Value::Int(3)], &[Value::Int(3)]) == encoded(&zone3), "{t}: zone prefix");
        // A full key as both bounds admits exactly that row.
        let key = &zone_row(123).0[..3];
        assert!(range(key, key) == encoded(&[123]), "{t}: full-key bounds");
        assert!(range(&[Value::Int(9)], &[Value::Int(9)]).is_empty());

        assert_eq!(view.get(t, key).unwrap().unwrap().encode(), zone_row(123).encode());
        assert!(view.get(t, &zone_row(777).0[..3]).unwrap().is_none());
    }

    #[test]
    fn every_view_reads_the_same_rows_through_every_entry_point() {
        let mut d = db();
        let heap_order = load_zones(&mut d);
        let key_order: Vec<i32> = (0..500).collect();
        check_reads(View::Live(&d), "h", false, &heap_order);
        check_reads(View::Live(&d), "c", true, &key_order);
        let reader = d.reader();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    check_reads(View::Live(&reader), "h", false, &heap_order);
                    check_reads(View::Live(&reader), "c", true, &key_order);
                });
            }
        });

        // A snapshot pinned on a durable database keeps serving the rows of
        // its commit while the writer inserts between them and commits.
        let dir = std::env::temp_dir().join(format!("stardb-readpath-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut d = Database::open(&dir, DbConfig::in_memory(), WalConfig::default()).unwrap();
        let heap_order = load_zones(&mut d);
        d.commit().unwrap();
        let snap = d.snapshot();
        assert!(snap.has_table("C") && snap.table_names() == ["c", "h"]);
        let (committed, commits) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            // One pass per later commit, each overlapping the writer's next.
            scope.spawn(|| {
                for () in commits {
                    check_reads(View::Pinned(&snap), "h", false, &heap_order);
                    check_reads(View::Pinned(&snap), "c", true, &key_order);
                }
            });
            for batch in 0..6 {
                for i in 0..20 {
                    // New keys inside zones 0..5, between the pinned ones.
                    let mut row = zone_row((batch * 20 + i) * 4);
                    row.0[2] = Value::BigInt(10_000 + i64::from(batch * 20 + i));
                    d.insert("h", row.clone()).unwrap();
                    d.insert("c", row).unwrap();
                }
                d.commit().unwrap();
                committed.send(()).unwrap();
            }
            drop(committed);
        });
        assert!(snap.epoch() < d.snapshot().epoch());
        assert_eq!(d.row_count("c").unwrap(), 620);
        assert_eq!(d.snapshot().row_count("h").unwrap(), 620);
        drop(snap);
        d.close().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn index_range_scan_reports_malformed_index_keys() {
        let mut d = db();
        d.create_clustered_table("galaxy", galaxy_schema(), &["objid"]).unwrap();
        for id in 0..20i64 {
            d.insert("galaxy", g(id, 180.0, 0.0, (id % 4) as f32)).unwrap();
        }
        d.create_index("galaxy", "ix_i", &["i"]).unwrap();
        let probe = |d: &Database| {
            index_rows(d, "galaxy", "ix_i", &[Value::Real(2.0)], &[Value::Real(2.5)], 1024)
        };
        assert_eq!(probe(&d).unwrap().len(), 5);
        fn index(d: &mut Database) -> &mut BTree {
            &mut d.tables.get_mut("galaxy").unwrap().indexes[0].tree
        }
        // Each planted entry must fail the scan, not be skipped; removing
        // it heals the index.
        let mut plant = |what: &str, entry: Vec<u8>| {
            index(&mut d).insert(&entry, &[]).unwrap();
            assert!(matches!(probe(&d), Err(DbError::Corrupt(_))), "{what} must not be skipped");
            index(&mut d).delete(&entry).unwrap();
            assert_eq!(probe(&d).unwrap().len(), 5);
        };
        // An entry with no clustering key behind the index columns.
        plant("short key", encode_key(&[Value::Real(2.0)]));
        // An entry whose bytes are no key encoding at all.
        let mut junk = encode_key(&[Value::Real(2.0)]);
        junk.extend_from_slice(&[0x7E, 0x01]);
        plant("junk key", junk);
        // One field too many.
        plant("long key", encode_key(&[Value::Real(2.0), Value::BigInt(7), Value::BigInt(7)]));
        // A field of another type than its column.
        plant("text locator", encode_key(&[Value::Real(2.0), Value::Text("7".into())]));
        // A float no REAL column can have held.
        plant("wide float", encode_key(&[Value::Float(2.000_000_000_1), Value::BigInt(7)]));
        // A well-formed entry whose row is gone.
        plant("dangling locator", encode_key(&[Value::Real(2.0), Value::BigInt(999)]));

        // An INT field outside i32, in an index over an INT column.
        d.create_clustered_table("c", zone_schema(), &ZONE_KEY).unwrap();
        d.insert("c", zone_row(1)).unwrap();
        d.create_index("c", "ix_zone", &["zoneid"]).unwrap();
        let all = |d: &Database| index_rows(d, "c", "ix_zone", &[], &[], 1024);
        assert_eq!(all(&d).unwrap().len(), 1);
        let mut wide = zone_row(2).0;
        wide.insert(0, Value::BigInt(i64::from(i32::MAX) + 1));
        wide.truncate(4);
        d.tables.get_mut("c").unwrap().indexes[0].tree.insert(&encode_key(&wide), &[]).unwrap();
        assert!(matches!(all(&d), Err(DbError::Corrupt(_))), "an INT beyond i32 must not wrap");
    }

    #[test]
    fn heap_scans_read_a_page_once_per_batch_and_once_per_cursor_fetch() {
        let mut d = db();
        let rows = load_zones(&mut d).len() as u64;
        let Storage::Heap { file, .. } = &d.tables["h"].storage else { panic!("h is a heap") };
        let pages = file.page_count() as u64;
        assert!(pages >= 8, "{pages} pages");
        let reads = |d: &Database| d.io_stats().logical_reads;

        let before = reads(&d);
        let (_, out) = d.execute_sql("SELECT COUNT(*) FROM h").unwrap().rows().unwrap();
        assert_eq!(out[0].i64(0).unwrap(), rows as i64);
        // The executor pulls 1024-row batches, plus one empty pull at the end.
        let batches = rows.div_ceil(1024) + 1;
        let batched = reads(&d) - before;
        assert!(batched <= 2 * pages + batches, "{batched} page reads for {pages} pages");

        // A cursor re-reads its page on every fetch: the paper's slow path.
        let before = reads(&d);
        let mut cursor = d.cursor("h").unwrap();
        while cursor.fetch_next(&d).unwrap().is_some() {}
        let stepped = reads(&d) - before;
        assert!((rows..=rows + pages + 1).contains(&stepped), "{stepped} reads for {rows} fetches");
    }

    #[test]
    fn every_resume_is_one_seek() {
        obs::set_enabled(true);
        let mut d = db();
        load_zones(&mut d);
        let seeks = obs::counter("stardb.btree.seeks");
        // The counter is process-global and other tests seek concurrently:
        // an exact delta on one attempt proves the count, a wrong count
        // would be wrong on every attempt.
        let exact = |what: &str, want: u64, run: &dyn Fn()| {
            let hit = (0..50).any(|_| {
                let before = seeks.get();
                run();
                seeks.get() - before == want
            });
            assert!(hit, "{what}: never {want} seeks");
        };
        exact("cursor walk", 501, &|| {
            let mut cursor = d.cursor("c").unwrap();
            while cursor.fetch_next(&d).unwrap().is_some() {}
        });
        exact("batches of 7", 72, &|| {
            drain(d.batch_scan("c").unwrap(), &d, 7);
        });
        exact("one batch", 1, &|| {
            drain(d.batch_scan("c").unwrap(), &d, 1024);
        });
        exact("scan_raw", 1, &|| d.scan_raw("c", |_| true).unwrap());
        exact("range_scan_prefix_raw", 1, &|| {
            d.range_scan_prefix_raw("c", &[Value::Int(1)], &[Value::Int(3)], |_| true).unwrap();
        });
        exact("get", 1, &|| {
            d.get("c", &zone_row(42).0[..3]).unwrap().unwrap();
        });

        // An index range: one seek per batch of entries, plus one per row
        // read — and none of those when the entries are the answer.
        d.create_index("c", "ix_ra", &["ra"]).unwrap();
        // 21 ra steps in each of 5 zones; an entry holds every key column.
        const ENTRIES: usize = 105;
        const KEY_ONLY: [bool; 4] = [true, true, true, false];
        /// Walk the range in batches of `max`, reading the rows of the
        /// entries `keep` picks when the pad column is needed.
        fn walk(d: &Database, needed: &[bool], max: usize, keep: impl Fn(usize) -> bool) -> usize {
            let (lo, hi) = ([Value::Float(1.0)], [Value::Float(3.05)]);
            let mut scan = d.index_scan("c", "ix_ra", &lo, &hi, needed).unwrap();
            let (mut seen, mut kept) = (0, 0);
            while let Some(chunk) = scan.fetch_entries(d, max).unwrap() {
                let sel: Vec<u32> =
                    (0..chunk.batch.len()).filter(|&i| keep(seen + i)).map(|i| i as u32).collect();
                seen += chunk.batch.len();
                if needed[3] {
                    kept += scan.fetch_rows(d, &chunk, &sel).unwrap().len();
                }
            }
            assert_eq!(seen, ENTRIES);
            kept
        }
        exact("index-only, batches of 8", 14, &|| {
            walk(&d, &KEY_ONLY, 8, |_| true);
        });
        exact("index-only, one batch", 1, &|| {
            walk(&d, &KEY_ONLY, 1024, |_| true);
        });
        exact("filtered lookups, batches of 8", 14 + 35, &|| {
            assert_eq!(walk(&d, &[true; 4], 8, |i| i % 3 == 0), 35);
        });

        // The same in pages, through SQL: an index-only statement reads the
        // pages of one index walk and nothing of the clustered tree; one
        // more needed column costs a descent of it per entry.
        let reads = |d: &Database| d.io_stats().logical_reads;
        let before = reads(&d);
        walk(&d, &KEY_ONLY, 1024, |_| true);
        let index_walk = reads(&d) - before;
        let height = d.table("c").unwrap().clustered("c").unwrap().0.height().unwrap() as u64;
        assert!(height >= 2 && index_walk >= 2);
        let mut select = |cols: &str| {
            let before = reads(&d);
            let sql = format!("SELECT {cols} FROM c WHERE ra BETWEEN 1.0 AND 3.05");
            let (_, rows) = d.execute_sql(&sql).unwrap().rows().unwrap();
            assert_eq!(rows.len(), ENTRIES);
            reads(&d) - before
        };
        assert_eq!(select("objid, zoneid"), index_walk);
        assert_eq!(select("objid, pad"), index_walk + ENTRIES as u64 * height);
    }

    #[test]
    fn drop_table_removes() {
        let mut d = db();
        d.create_table("t", galaxy_schema()).unwrap();
        d.drop_table("t").unwrap();
        assert!(!d.has_table("t"));
        assert!(d.drop_table("t").is_err());
    }
}
