//! The spilled store: dictionary codes on disk, read page by page
//! through a buffer pool.
//!
//! The resident store caps the extension at what fits in RAM; the
//! paper's target — 100M-row legacy databases — does not. This module
//! keeps each encoded column's per-row `u32` codes (NULL = 0, exactly
//! the [`crate::encode::ColumnDict`] code space) in a spill file of
//! fixed [`PAGE_BYTES`] pages behind a small header, while the
//! *dictionary* halves (decode table, encode index, NULL count, fused
//! code counts) stay resident as a codes-free [`ColumnDict::slim`]
//! copy.
//!
//! A [`PagedColumn`] is a [`CodeSource`]: each page is one chunk, read
//! through a shared LRU [`BufferPool`] as its pager, so the one
//! kernel family of [`crate::encode`] — the same code that scans
//! resident columns — runs over it unchanged, and the resident working
//! set is bounded by the pool capacity, not the extension size.
//!
//! [`PagedBackend`] is the shared [`ColumnarBackend`] over the
//! [`SpilledStore`]: spill-on-encode from the same generation-tagged
//! dictionary build the encoded backend performs, invalidation by
//! eviction ([`BufferPool::evict_file`]) when a table mutates, and a
//! reference fallback (counted in
//! [`BackendExecStats::fallback_failures`]) if a spill file ever
//! fails — an I/O error degrades a probe to the slow path, never to a
//! wrong answer.

use crate::attr::AttrId;
use crate::backend::{
    write_recover, BackendExecStats, ColumnCache, ColumnStore, ColumnarBackend, Tagged,
};
use crate::bufpool::{BufferPool, PageCacheStats, PageKey};
use crate::database::Database;
use crate::encode::{CodeSource, ColumnDict};
use crate::schema::RelId;
use crate::spill::{SpillCacheStats, SpilledTable};
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Size of one on-disk code page in bytes (64 KiB).
pub const PAGE_BYTES: usize = 64 * 1024;
/// Codes per page (`PAGE_BYTES / 4`).
pub const PAGE_CODES: usize = PAGE_BYTES / 4;
/// Spill-file magic: format name + version.
const MAGIC: &[u8; 8] = b"DBREPG01";
/// Header bytes: magic, page size (u32), page count (u32), rows
/// (u64), FNV-1a checksum of the valid code stream (u64). All LE.
pub const HEADER_BYTES: usize = 32;

/// Typed failures of the paged store. Everything I/O-shaped carries a
/// rendered message (`std::io::Error` is neither `Clone` nor `Eq`,
/// which the [`crate::error::DbreError`] taxonomy requires).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageError {
    /// Underlying filesystem failure, rendered.
    Io(String),
    /// The file does not start with the spill-file magic.
    BadMagic,
    /// The header parsed but declares an impossible layout (e.g. a
    /// foreign page size).
    BadHeader(String),
    /// The file is shorter than its header claims.
    Truncated {
        /// Bytes the header implies.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The code stream does not hash to the header checksum.
    Checksum {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes on disk.
        actual: u64,
    },
    /// A page number past the end of the file was requested.
    PageOutOfBounds {
        /// Requested page.
        page: u32,
        /// Pages in the file.
        pages: u32,
    },
}

impl std::fmt::Display for PageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageError::Io(m) => write!(f, "page file I/O error: {m}"),
            PageError::BadMagic => write!(f, "not a DBRE page file (bad magic)"),
            PageError::BadHeader(m) => write!(f, "bad page file header: {m}"),
            PageError::Truncated { expected, actual } => {
                write!(
                    f,
                    "page file truncated: {actual} bytes, header claims {expected}"
                )
            }
            PageError::Checksum { expected, actual } => {
                write!(
                    f,
                    "page file checksum mismatch: header {expected:#018x}, data {actual:#018x}"
                )
            }
            PageError::PageOutOfBounds { page, pages } => {
                write!(f, "page {page} out of bounds (file has {pages} pages)")
            }
        }
    }
}

impl std::error::Error for PageError {}

fn io_err(e: std::io::Error) -> PageError {
    PageError::Io(e.to_string())
}

/// FNV-1a over a code stream — cheap, dependency-free, good enough to
/// catch truncation-with-padding and bit rot in a spill file.
fn fnv1a64(mut hash: u64, codes: &[u32]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for c in codes {
        for b in c.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(PRIME);
        }
    }
    hash
}
/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over raw bytes — the source-content half of the spill-cache
/// key ([`crate::spill`]) and the dictionary-file trailer hash.
pub(crate) fn fnv1a64_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Seed for [`fnv1a64_bytes`] streams (the FNV offset basis).
pub(crate) const FNV_BYTES_SEED: u64 = FNV_OFFSET;

/// Process-unique spill-file ids; a rebuilt column gets a fresh id,
/// so the buffer pool can never serve pages of a dead generation.
static NEXT_FILE_ID: AtomicU64 = AtomicU64::new(1);

/// One column's codes spilled to disk: a header plus fixed-size pages
/// of little-endian `u32` codes, the last page zero-padded. Owned
/// files (created by [`PageFile::spill`]) are deleted on drop; files
/// opened from a path ([`PageFile::open`]) are left in place.
#[derive(Debug)]
pub struct PageFile {
    path: PathBuf,
    id: u64,
    pages: u32,
    rows: u64,
    checksum: u64,
    handle: Mutex<File>,
    owned: bool,
}

impl PageFile {
    /// Writes `codes` to a fresh spill file in the system temp
    /// directory and reopens it for reading.
    pub fn spill(codes: &[u32]) -> Result<PageFile, PageError> {
        let mut w = PageFileWriter::create_temp()?;
        w.append(codes)?;
        w.finish()
    }

    /// Opens an existing spill file, validating magic, header layout
    /// and physical length (a truncated file fails here, not on a
    /// later page read). The file is *not* deleted on drop.
    pub fn open(path: &Path) -> Result<PageFile, PageError> {
        let mut f = File::open(path).map_err(io_err)?;
        let mut header = [0u8; HEADER_BYTES];
        f.read_exact(&mut header).map_err(|_| {
            let actual = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            PageError::Truncated {
                expected: HEADER_BYTES as u64,
                actual,
            }
        })?;
        if &header[0..8] != MAGIC {
            return Err(PageError::BadMagic);
        }
        let page_bytes = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        if page_bytes as usize != PAGE_BYTES {
            return Err(PageError::BadHeader(format!(
                "page size {page_bytes}, this build uses {PAGE_BYTES}"
            )));
        }
        let pages = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
        let mut rows8 = [0u8; 8];
        rows8.copy_from_slice(&header[16..24]);
        let rows = u64::from_le_bytes(rows8);
        let mut sum8 = [0u8; 8];
        sum8.copy_from_slice(&header[24..32]);
        let checksum = u64::from_le_bytes(sum8);
        if rows.div_ceil(PAGE_CODES as u64) != u64::from(pages) {
            return Err(PageError::BadHeader(format!(
                "{rows} rows do not fit {pages} pages"
            )));
        }
        let expected = HEADER_BYTES as u64 + u64::from(pages) * PAGE_BYTES as u64;
        let actual = f.metadata().map_err(io_err)?.len();
        if actual < expected {
            return Err(PageError::Truncated { expected, actual });
        }
        Ok(PageFile {
            path: path.to_path_buf(),
            id: NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed),
            pages,
            rows,
            checksum,
            handle: Mutex::new(f),
            owned: false,
        })
    }

    /// The process-unique id pages of this file are keyed under in
    /// the buffer pool.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Pages in the file.
    pub fn pages(&self) -> u32 {
        self.pages
    }

    /// Rows (valid codes) the file holds.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The on-disk location (mostly for tests and diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads one page, trimmed to its valid codes (the tail page's
    /// zero padding never escapes — padding would be indistinguishable
    /// from NULLs).
    pub fn read_page(&self, page: u32) -> Result<Vec<u32>, PageError> {
        if page >= self.pages {
            return Err(PageError::PageOutOfBounds {
                page,
                pages: self.pages,
            });
        }
        let valid =
            (self.rows - u64::from(page) * PAGE_CODES as u64).min(PAGE_CODES as u64) as usize;
        let mut buf = vec![0u8; valid * 4];
        {
            let mut f = match self.handle.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            f.seek(SeekFrom::Start(
                HEADER_BYTES as u64 + u64::from(page) * PAGE_BYTES as u64,
            ))
            .map_err(io_err)?;
            if let Err(e) = f.read_exact(&mut buf) {
                if e.kind() != std::io::ErrorKind::UnexpectedEof {
                    return Err(io_err(e));
                }
                // The file shrank after `open` validated its length:
                // report what is there now.
                return Err(PageError::Truncated {
                    expected: HEADER_BYTES as u64 + u64::from(self.pages) * PAGE_BYTES as u64,
                    actual: f.metadata().map_err(io_err)?.len(),
                });
            }
        }
        Ok(buf
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    /// Streams every page and compares the code stream against the
    /// header checksum — the integrity check for files of unknown
    /// provenance (crash recovery, the fuzz corpus).
    pub fn verify_checksum(&self) -> Result<(), PageError> {
        let mut hash = FNV_OFFSET;
        for p in 0..self.pages {
            hash = fnv1a64(hash, &self.read_page(p)?);
        }
        if hash != self.checksum {
            return Err(PageError::Checksum {
                expected: self.checksum,
                actual: hash,
            });
        }
        Ok(())
    }
}

impl Drop for PageFile {
    fn drop(&mut self) {
        if self.owned {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// Incremental spill-file writer: codes arrive value by value (or in
/// slices), pages flush as they fill, and the header — whose page
/// count, row count and checksum are unknown until the stream ends —
/// is patched in by [`PageFileWriter::finish`]. The byte layout is
/// exactly [`PageFile::spill`]'s, so a streamed ingest and a
/// materialize-then-spill produce identical files.
///
/// This is the streaming-ingest seam (`import_csv_spilled` in
/// [`crate::csv`]): a CSV parse can encode straight to disk without
/// ever holding a `Table` or a full code vector in memory.
pub struct PageFileWriter {
    path: PathBuf,
    id: u64,
    w: BufWriter<File>,
    /// Codes of the page being filled (< [`PAGE_CODES`] entries).
    buf: Vec<u32>,
    /// Reusable zero-padded serialization buffer for one page.
    page_bytes: Vec<u8>,
    pages: u32,
    rows: u64,
    hash: u64,
    owned: bool,
}

impl PageFileWriter {
    /// A writer over a fresh temp-dir spill file; the finished
    /// [`PageFile`] is owned (deleted on drop), like
    /// [`PageFile::spill`]'s.
    pub fn create_temp() -> Result<PageFileWriter, PageError> {
        let id = NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("dbre-pages-{}-{}.col", std::process::id(), id));
        PageFileWriter::create(path, id, true)
    }

    /// A writer over an explicit path — the spill-cache store path
    /// ([`crate::spill`]). The finished [`PageFile`] is *not* owned:
    /// it persists for future runs. An existing file is truncated,
    /// which is exactly the overwrite-a-stale-entry behaviour the
    /// cache wants.
    pub fn create_at(path: &Path) -> Result<PageFileWriter, PageError> {
        let id = NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed);
        PageFileWriter::create(path.to_path_buf(), id, false)
    }

    fn create(path: PathBuf, id: u64, owned: bool) -> Result<PageFileWriter, PageError> {
        let mut w = BufWriter::new(File::create(&path).map_err(io_err)?);
        // Header placeholder; the real one lands in `finish`.
        w.write_all(&[0u8; HEADER_BYTES]).map_err(io_err)?;
        Ok(PageFileWriter {
            path,
            id,
            w,
            buf: Vec::with_capacity(PAGE_CODES),
            page_bytes: vec![0u8; PAGE_BYTES],
            pages: 0,
            rows: 0,
            hash: FNV_OFFSET,
            owned,
        })
    }

    /// Appends one code, flushing a page when the buffer fills.
    #[inline]
    pub fn push(&mut self, code: u32) -> Result<(), PageError> {
        self.buf.push(code);
        if self.buf.len() == PAGE_CODES {
            self.flush_page()?;
        }
        Ok(())
    }

    /// Appends a slice of codes.
    pub fn append(&mut self, codes: &[u32]) -> Result<(), PageError> {
        for &c in codes {
            self.push(c)?;
        }
        Ok(())
    }

    /// Rows appended so far (including the unflushed partial page).
    pub fn rows(&self) -> u64 {
        self.rows + self.buf.len() as u64
    }

    /// The file being written (for error-path cleanup by callers —
    /// the writer itself never deletes anything).
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn flush_page(&mut self) -> Result<(), PageError> {
        self.hash = fnv1a64(self.hash, &self.buf);
        self.rows += self.buf.len() as u64;
        self.page_bytes.iter_mut().for_each(|b| *b = 0);
        for (dst, c) in self.page_bytes.chunks_exact_mut(4).zip(&self.buf) {
            dst.copy_from_slice(&c.to_le_bytes());
        }
        self.w.write_all(&self.page_bytes).map_err(io_err)?;
        self.pages += 1;
        self.buf.clear();
        Ok(())
    }

    /// Flushes the tail page, patches the real header over the
    /// placeholder and reopens the file as a readable [`PageFile`].
    pub fn finish(mut self) -> Result<PageFile, PageError> {
        if !self.buf.is_empty() {
            self.flush_page()?;
        }
        self.w.flush().map_err(io_err)?;
        let PageFileWriter {
            path,
            id,
            w,
            pages,
            rows,
            hash,
            owned,
            ..
        } = self;
        let mut f = w.into_inner().map_err(|e| PageError::Io(e.to_string()))?;
        let mut header = [0u8; HEADER_BYTES];
        header[0..8].copy_from_slice(MAGIC);
        header[8..12].copy_from_slice(&(PAGE_BYTES as u32).to_le_bytes());
        header[12..16].copy_from_slice(&pages.to_le_bytes());
        header[16..24].copy_from_slice(&rows.to_le_bytes());
        header[24..32].copy_from_slice(&hash.to_le_bytes());
        f.seek(SeekFrom::Start(0)).map_err(io_err)?;
        f.write_all(&header).map_err(io_err)?;
        drop(f);
        let handle = File::open(&path).map_err(io_err)?;
        Ok(PageFile {
            path,
            id,
            pages,
            rows,
            checksum: hash,
            handle: Mutex::new(handle),
            owned,
        })
    }
}

/// One column of the paged store: the resident slim dictionary plus
/// the spilled code pages.
#[derive(Debug)]
pub struct PagedColumn {
    /// Codes-free dictionary ([`ColumnDict::slim`]): decode/encode
    /// tables and NULL count, no per-row vector.
    dict: Arc<ColumnDict>,
    rows: usize,
    file: PageFile,
}

impl PagedColumn {
    /// Spills a fully built dictionary's codes to disk and keeps only
    /// the slim half resident.
    pub fn from_dict(full: &ColumnDict) -> Result<PagedColumn, PageError> {
        let file = PageFile::spill(full.codes())?;
        Ok(PagedColumn {
            dict: Arc::new(full.slim()),
            rows: full.rows(),
            file,
        })
    }

    /// Wraps an already-written spill file and its slim dictionary —
    /// the spill-cache load and streaming-ingest paths
    /// ([`crate::spill`], `import_csv_spilled`); [`from_dict`]
    /// remains the encode-from-memory path.
    ///
    /// [`from_dict`]: PagedColumn::from_dict
    pub fn new(dict: Arc<ColumnDict>, file: PageFile) -> PagedColumn {
        PagedColumn {
            rows: file.rows() as usize,
            dict,
            file,
        }
    }

    /// The resident slim dictionary.
    pub fn dict(&self) -> &Arc<ColumnDict> {
        &self.dict
    }

    /// Rows the column encodes.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The spill file.
    pub fn file(&self) -> &PageFile {
        &self.file
    }

    /// One page of codes through the pool.
    pub fn page(&self, pool: &BufferPool, page: u32) -> Result<Arc<Vec<u32>>, PageError> {
        pool.get_or_load(
            PageKey {
                file: self.file.id,
                page,
            },
            || self.file.read_page(page),
        )
    }

    /// Rehydrates the full per-row code vector by streaming every
    /// page — the bridge for consumers that need random access
    /// (the `column_dict()` seam).
    pub fn read_all_codes(&self, pool: &BufferPool) -> Result<Vec<u32>, PageError> {
        let mut codes = Vec::with_capacity(self.rows);
        for p in 0..self.file.pages {
            codes.extend_from_slice(&self.page(pool, p)?);
        }
        Ok(codes)
    }
}

/// Spilled codes: chunk `i` is page `i` of the spill file, read
/// through the buffer pool, which pins each page for as long as a
/// kernel holds it.
impl CodeSource for PagedColumn {
    type Pager = BufferPool;
    type Error = PageError;
    type Chunk<'a> = PageCodes;
    const PREFETCH: bool = true;

    fn dict(&self) -> &ColumnDict {
        &self.dict
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn chunk(&self, pool: &BufferPool, i: usize) -> Result<PageCodes, PageError> {
        self.page(pool, i as u32).map(PageCodes)
    }
}

/// One pooled page of codes, pinned while a kernel reads it.
#[derive(Debug, Clone)]
pub struct PageCodes(Arc<Vec<u32>>);

impl std::ops::Deref for PageCodes {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.0
    }
}

/// The spilled store: a freshly built column's codes go to a page
/// file at once, only the slim dictionary stays resident, and every
/// scan reads pages through a capacity-bounded [`BufferPool`] — the
/// resident working set is bounded by the pool, not the extension.
///
/// A table mutation (generation bump) replaces the spill file and
/// purges its pages from the pool (invalidation by eviction). A spill
/// or read failure degrades the probe to the `Value`-based reference
/// semantics and increments [`BackendExecStats::fallback_failures`] —
/// unless the table is a streamed extension, which has no in-memory
/// rows to fall back to: that probe panics loudly instead, and the
/// session's per-stage isolation surfaces it as a stage error.
pub struct SpilledStore {
    pool: Arc<BufferPool>,
    /// Rehydrated full dictionaries for the `column_dict()` seam —
    /// built on demand by streaming every page, then cached per
    /// generation like any other derived structure.
    hydrated: ColumnCache<ColumnDict>,
    fallbacks: AtomicU64,
    /// Streamed-ingest tables adopted from the persistent spill cache
    /// (encode skipped entirely).
    spill_hits: AtomicU64,
    /// Streamed-ingest tables that had to encode (cold cache, or no
    /// `--spill-dir` configured).
    spill_misses: AtomicU64,
}

impl Default for SpilledStore {
    fn default() -> Self {
        SpilledStore::with_pool(Arc::new(BufferPool::default()))
    }
}

impl SpilledStore {
    fn with_pool(pool: Arc<BufferPool>) -> Self {
        SpilledStore {
            pool,
            hydrated: RwLock::new(HashMap::new()),
            fallbacks: AtomicU64::new(0),
            spill_hits: AtomicU64::new(0),
            spill_misses: AtomicU64::new(0),
        }
    }

    /// Degrades a failed probe to the reference path — unless one of
    /// the involved tables is a streamed extension, where the
    /// reference path would compute over *empty* in-memory columns. A
    /// loud panic (caught and surfaced by the session's per-stage
    /// isolation) beats a silently wrong answer.
    fn note_fallback_or_die(&self, db: &Database, rels: &[RelId], err: &PageError) {
        for &rel in rels {
            assert!(
                db.table(rel).is_materialized(),
                "paged backend failed on a streamed extension with no in-memory fallback: {err}"
            );
        }
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
    }
}

impl ColumnStore for SpilledStore {
    const NAME: &'static str = "paged";
    type Error = PageError;
    type Column = PagedColumn;

    fn pager(&self) -> &BufferPool {
        &self.pool
    }

    fn build(&self, db: &Database, rel: RelId, attr: AttrId) -> Result<PagedColumn, PageError> {
        // A streamed extension's rows exist only in the paged store —
        // there is no in-memory column to (re-)encode from. A miss
        // here means the adopted columns were invalidated (the table
        // mutated); rebuilding from the empty in-memory column would
        // silently encode zero rows.
        if !db.table(rel).is_materialized() {
            return Err(PageError::Io(format!(
                "column {} of relation {} is a streamed extension with no spilled pages",
                attr.0, rel.0
            )));
        }
        PagedColumn::from_dict(&ColumnDict::build(db.table(rel).column(attr)))
    }

    fn full_dict(
        &self,
        db: &Database,
        rel: RelId,
        attr: AttrId,
        col: Arc<PagedColumn>,
    ) -> Result<Arc<ColumnDict>, PageError> {
        crate::backend::get_or_build(
            &self.hydrated,
            (rel, attr),
            db.generation(rel),
            || Ok(col.dict.rehydrate(col.read_all_codes(&self.pool)?)),
            |_| {},
        )
    }

    fn degrade<T>(
        &self,
        db: &Database,
        rels: &[RelId],
        err: PageError,
        reference: impl FnOnce() -> T,
    ) -> T {
        self.note_fallback_or_die(db, rels, &err);
        reference()
    }

    fn retire(&self, stale: &PagedColumn) {
        self.pool.evict_file(stale.file.id);
    }

    fn exec_stats(&self) -> BackendExecStats {
        BackendExecStats {
            fallback_failures: self.fallbacks.load(Ordering::Relaxed),
            ..BackendExecStats::default()
        }
    }

    fn page_stats(&self) -> PageCacheStats {
        self.pool.stats()
    }

    fn spill_stats(&self) -> SpillCacheStats {
        SpillCacheStats {
            hits: self.spill_hits.load(Ordering::Relaxed),
            misses: self.spill_misses.load(Ordering::Relaxed),
        }
    }
}

/// The out-of-core counting backend: the encoded kernels streaming
/// over spilled code pages through a capacity-bounded [`BufferPool`].
/// Column encoding happens exactly as in the encoded backend (one
/// interning pass per column per table generation); the per-row codes
/// then live in the [`SpilledStore`].
pub type PagedBackend = ColumnarBackend<SpilledStore>;

impl PagedBackend {
    /// A paged backend with the default 64 MiB buffer pool.
    pub fn new() -> Self {
        PagedBackend::default()
    }

    /// A paged backend whose pool holds at most `bytes` of page data.
    pub fn with_capacity_bytes(bytes: usize) -> Self {
        PagedBackend::with_pool(Arc::new(BufferPool::with_capacity_bytes(bytes)))
    }

    /// A paged backend over an explicit (possibly shared) pool.
    pub fn with_pool(pool: Arc<BufferPool>) -> Self {
        ColumnarBackend::with_store(SpilledStore::with_pool(pool))
    }

    /// The backend's buffer pool.
    pub fn pool(&self) -> &BufferPool {
        &self.store.pool
    }

    /// Adopts a streamed-ingest table's columns: the spill files were
    /// written (or loaded from the persistent cache) by
    /// `import_csv_spilled`, so no encode pass runs here. Columns are
    /// installed under the table's *current* generation; the spill
    /// hit/miss counters record whether the cache skipped encode.
    pub fn adopt_spilled(&self, db: &Database, rel: RelId, table: &SpilledTable) {
        let gen = db.generation(rel);
        let mut columns = write_recover(&self.columns);
        for (i, col) in table.columns().iter().enumerate() {
            let tagged = Tagged {
                gen,
                value: Arc::clone(col),
            };
            if let Some(stale) = columns.insert((rel, AttrId(i as u16)), tagged) {
                self.store.retire(&stale.value);
            }
        }
        drop(columns);
        let counter = if table.from_cache() {
            &self.store.spill_hits
        } else {
            &self.store.spill_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CountBackend, EncodedBackend, ReferenceBackend};
    use crate::deps::Fd;
    use crate::schema::Relation;
    use crate::value::{Domain, Value};

    fn sample_db() -> (Database, RelId, RelId) {
        let mut db = Database::new();
        let l = db
            .add_relation(Relation::of("L", &[("a", Domain::Int), ("b", Domain::Int)]))
            .unwrap();
        let r = db
            .add_relation(Relation::of("R", &[("c", Domain::Int)]))
            .unwrap();
        for (a, b) in [(1, 10), (1, 10), (2, 20), (3, 20), (4, 30)] {
            db.insert(l, vec![Value::Int(a), Value::Int(b)]).unwrap();
        }
        db.insert(l, vec![Value::Null, Value::Int(40)]).unwrap();
        for c in [1, 2, 3, 9] {
            db.insert(r, vec![Value::Int(c)]).unwrap();
        }
        (db, l, r)
    }

    #[test]
    fn page_file_round_trips_codes() {
        let codes: Vec<u32> = (0..PAGE_CODES as u32 * 2 + 17).map(|i| i % 977).collect();
        let f = PageFile::spill(&codes).unwrap();
        assert_eq!(f.pages(), 3);
        assert_eq!(f.rows(), codes.len() as u64);
        let mut back = Vec::new();
        for p in 0..f.pages() {
            back.extend_from_slice(&f.read_page(p).unwrap());
        }
        assert_eq!(back, codes);
        f.verify_checksum().unwrap();
        assert!(matches!(
            f.read_page(3),
            Err(PageError::PageOutOfBounds { page: 3, pages: 3 })
        ));
    }

    #[test]
    fn spill_file_is_deleted_on_drop() {
        let f = PageFile::spill(&[1, 2, 3]).unwrap();
        let path = f.path().to_path_buf();
        assert!(path.exists());
        drop(f);
        assert!(!path.exists());
    }

    #[test]
    fn open_rejects_truncation_magic_and_checksum() {
        let codes: Vec<u32> = (0..PAGE_CODES as u32 + 5).collect();
        let f = PageFile::spill(&codes).unwrap();
        let bytes = std::fs::read(f.path()).unwrap();
        let dir = std::env::temp_dir();
        let stamp = std::process::id();

        // Truncated mid-page.
        let t = dir.join(format!("dbre-test-trunc-{stamp}.col"));
        std::fs::write(&t, &bytes[..bytes.len() - PAGE_BYTES / 2]).unwrap();
        assert!(matches!(
            PageFile::open(&t),
            Err(PageError::Truncated { .. })
        ));

        // Foreign magic.
        let m = dir.join(format!("dbre-test-magic-{stamp}.col"));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        std::fs::write(&m, &bad).unwrap();
        assert!(matches!(PageFile::open(&m), Err(PageError::BadMagic)));

        // Flipped code bytes: header parses, checksum catches it.
        let c = dir.join(format!("dbre-test-sum-{stamp}.col"));
        let mut bad = bytes.clone();
        bad[HEADER_BYTES + 8] ^= 0xff;
        std::fs::write(&c, &bad).unwrap();
        let opened = PageFile::open(&c).unwrap();
        assert!(matches!(
            opened.verify_checksum(),
            Err(PageError::Checksum { .. })
        ));

        for p in [t, m, c] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn short_read_reports_the_current_length() {
        // A file truncated after `open` validated it: the page read
        // comes up short and must report what is on disk now.
        let codes: Vec<u32> = (0..PAGE_CODES as u32 * 2 + 9).collect();
        let spilled = PageFile::spill(&codes).unwrap();
        let path = std::env::temp_dir().join(format!(
            "dbre-test-short-read-{}-{}.col",
            std::process::id(),
            spilled.id()
        ));
        std::fs::copy(spilled.path(), &path).unwrap();
        let f = PageFile::open(&path).unwrap();
        assert_eq!(f.pages(), 3);
        let short = HEADER_BYTES as u64 + PAGE_BYTES as u64 + 100;
        File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(short)
            .unwrap();
        f.read_page(0).unwrap();
        assert_eq!(
            f.read_page(1),
            Err(PageError::Truncated {
                expected: HEADER_BYTES as u64 + 3 * PAGE_BYTES as u64,
                actual: short,
            })
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mutation_invalidates_and_purges_pages() {
        let (mut db, l, _) = sample_db();
        let paged = PagedBackend::new();
        assert_eq!(paged.count_distinct(&db, l, &[AttrId(0)]), 4);
        let old_file = paged.column(&db, l, AttrId(0)).unwrap().file().id();
        db.insert(l, vec![Value::Int(99), Value::Int(1)]).unwrap();
        assert_eq!(paged.count_distinct(&db, l, &[AttrId(0)]), 5);
        let new_file = paged.column(&db, l, AttrId(0)).unwrap().file().id();
        assert_ne!(old_file, new_file, "mutation must respill the column");
    }

    #[test]
    fn column_dict_rehydrates_full_codes() {
        let (db, l, _) = sample_db();
        let paged = PagedBackend::new();
        let dict = CountBackend::column_dict(&paged, &db, l, AttrId(0)).unwrap();
        let direct = ColumnDict::build(db.table(l).column(AttrId(0)));
        assert_eq!(dict.codes(), direct.codes());
        assert_eq!(dict.cardinality(), direct.cardinality());
        assert_eq!(dict.null_count(), direct.null_count());
    }

    /// The resident and the spilled store over a 1-page pool (constant
    /// churn): every multi-page test runs its probes through both, so
    /// resident codes cross chunk boundaries as well as spilled ones.
    fn both_stores() -> (EncodedBackend, PagedBackend) {
        (
            EncodedBackend::new(),
            PagedBackend::with_capacity_bytes(PAGE_BYTES),
        )
    }

    #[test]
    fn multi_page_columns_stream_correctly() {
        // Enough rows for several pages, with NULLs and duplicates.
        let mut db = Database::new();
        let rel = db
            .add_relation(Relation::of("T", &[("x", Domain::Int), ("y", Domain::Int)]))
            .unwrap();
        let rows = PAGE_CODES * 2 + 123;
        for i in 0..rows {
            let x = if i % 97 == 0 {
                Value::Null
            } else {
                Value::Int((i % 1009) as i64)
            };
            db.insert(rel, vec![x, Value::Int((i % 31) as i64)])
                .unwrap();
        }
        let reference = ReferenceBackend;
        let (encoded, paged) = both_stores();
        for backend in [&encoded as &dyn CountBackend, &paged] {
            let name = backend.name();
            for attrs in [vec![AttrId(0)], vec![AttrId(1)], vec![AttrId(0), AttrId(1)]] {
                assert_eq!(
                    backend.count_distinct(&db, rel, &attrs),
                    reference.count_distinct(&db, rel, &attrs),
                    "{name} {attrs:?}"
                );
                assert_eq!(
                    *backend.lhs_groups(&db, rel, &attrs),
                    *reference.lhs_groups(&db, rel, &attrs),
                    "{name} {attrs:?}"
                );
            }
            assert_eq!(
                *backend.partition1(&db, rel, AttrId(0)),
                *reference.partition1(&db, rel, AttrId(0)),
                "{name}"
            );
            assert_eq!(backend.exec_stats().fallback_failures, 0, "{name}");
        }
        assert!(paged.page_stats().evictions > 0, "1-page pool must churn");
    }

    #[test]
    fn writer_streams_byte_identical_to_spill() {
        // The streaming writer must produce the exact on-disk format of
        // the materialize-then-spill path, byte for byte — the spill
        // cache and the differential ingest test both lean on this.
        let codes: Vec<u32> = (0..PAGE_CODES as u32 * 3 + 41)
            .map(|i| i.wrapping_mul(2654435761))
            .collect();
        let whole = PageFile::spill(&codes).unwrap();
        let mut w = PageFileWriter::create_temp().unwrap();
        // Feed through a mix of push() and append() with awkward splits.
        for &c in &codes[..7] {
            w.push(c).unwrap();
        }
        w.append(&codes[7..PAGE_CODES + 3]).unwrap();
        for &c in &codes[PAGE_CODES + 3..] {
            w.push(c).unwrap();
        }
        assert_eq!(w.rows(), codes.len() as u64);
        let streamed = w.finish().unwrap();
        assert_eq!(
            std::fs::read(whole.path()).unwrap(),
            std::fs::read(streamed.path()).unwrap()
        );
        streamed.verify_checksum().unwrap();
        assert_eq!(streamed.rows(), codes.len() as u64);
    }

    #[test]
    fn empty_writer_matches_empty_spill() {
        let whole = PageFile::spill(&[]).unwrap();
        let streamed = PageFileWriter::create_temp().unwrap().finish().unwrap();
        assert_eq!(
            std::fs::read(whole.path()).unwrap(),
            std::fs::read(streamed.path()).unwrap()
        );
        assert_eq!(streamed.pages(), 0);
        assert_eq!(streamed.rows(), 0);
    }

    #[test]
    fn fd_holds_matches_reference() {
        // Multi-page table where some FDs hold and some fail, with
        // NULL-heavy LHS columns (NULL-LHS rows are exempt per the
        // paper's SQL probe semantics).
        let mut db = Database::new();
        let rel = db
            .add_relation(Relation::of(
                "T",
                &[
                    ("a", Domain::Int),
                    ("b", Domain::Int),
                    ("c", Domain::Int),
                    ("k", Domain::Int),
                ],
            ))
            .unwrap();
        let rows = PAGE_CODES + 517;
        for i in 0..rows as i64 {
            let a = if i % 13 == 0 {
                Value::Null
            } else {
                Value::Int(i % 200)
            };
            // b is a function of a's code (holds), c is noisy (fails).
            let b = Value::Int((i % 200) * 3);
            let c = Value::Int(i % 7);
            db.insert(rel, vec![a, b, c, Value::Int(i)]).unwrap();
        }
        let fd = |rel, lhs: &[u16], rhs: &[u16]| Fd {
            rel,
            lhs: crate::attr::AttrSet::from_indices(lhs.iter().copied()),
            rhs: crate::attr::AttrSet::from_indices(rhs.iter().copied()),
        };
        // Constant RHS: {} → const holds without a scan.
        let mut db2 = Database::new();
        let r2 = db2
            .add_relation(Relation::of("C", &[("u", Domain::Int), ("v", Domain::Int)]))
            .unwrap();
        for i in 0..10 {
            db2.insert(r2, vec![Value::Int(i), Value::Int(7)]).unwrap();
        }
        let (encoded, paged) = both_stores();
        for backend in [&encoded as &dyn CountBackend, &paged] {
            let name = backend.name();
            for (lhs, rhs) in [
                (&[0u16][..], &[1u16][..]), // a → b: holds (NULL-a rows exempt)
                (&[0], &[2]),               // a → c: fails
                (&[1], &[0]),               // b → a: fails (NULL vs non-NULL under same b)
                (&[0, 2], &[1]),            // ac → b: holds
                (&[0, 1], &[2]),            // ab → c: fails
                (&[3], &[0, 1, 2]),         // key → everything: holds
                (&[], &[1]),                // {} → b: fails (b not constant)
                (&[0], &[1, 2]),            // multi-RHS: fails because of c
            ] {
                let fd = fd(rel, lhs, rhs);
                assert_eq!(
                    backend.fd_holds(&db, &fd),
                    db.fd_holds(&fd),
                    "{name} lhs={lhs:?} rhs={rhs:?}"
                );
            }
            let fd2 = fd(r2, &[], &[1]);
            assert!(backend.fd_holds(&db2, &fd2), "{name}");
            assert!(db2.fd_holds(&fd2));
            assert_eq!(backend.exec_stats().fallback_failures, 0, "{name}");
        }
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn chunked_kernels_match_reference_across_thread_counts() {
        // DBRE_PAGED_THREADS is read per kernel call; every thread
        // count must give byte-identical answers, over resident and
        // spilled codes alike. Concurrent tests seeing the transient
        // value is fine — that is exactly the invariant under test.
        let mut db = Database::new();
        let rel = db
            .add_relation(Relation::of("P", &[("x", Domain::Int), ("y", Domain::Int)]))
            .unwrap();
        let rows = PAGE_CODES * 5 + 321;
        for i in 0..rows {
            let x = if i % 53 == 0 {
                Value::Null
            } else {
                Value::Int((i % 2111) as i64)
            };
            db.insert(rel, vec![x, Value::Int((i % 17) as i64)])
                .unwrap();
        }
        let reference = ReferenceBackend;
        let fds = [
            Fd {
                rel,
                lhs: crate::attr::AttrSet::from_indices([0u16]),
                rhs: crate::attr::AttrSet::from_indices([1u16]),
            },
            Fd {
                rel,
                lhs: crate::attr::AttrSet::from_indices([0u16, 1]),
                rhs: crate::attr::AttrSet::from_indices([0u16]),
            },
        ];
        for threads in ["1", "2", "5"] {
            std::env::set_var("DBRE_PAGED_THREADS", threads);
            let (encoded, paged) = (EncodedBackend::new(), PagedBackend::new());
            for backend in [&encoded as &dyn CountBackend, &paged] {
                let name = backend.name();
                for attrs in [vec![AttrId(0)], vec![AttrId(0), AttrId(1)]] {
                    assert_eq!(
                        backend.count_distinct(&db, rel, &attrs),
                        reference.count_distinct(&db, rel, &attrs),
                        "{name} threads={threads} attrs={attrs:?}"
                    );
                    assert_eq!(
                        *backend.lhs_groups(&db, rel, &attrs),
                        *reference.lhs_groups(&db, rel, &attrs),
                        "{name} threads={threads} attrs={attrs:?}"
                    );
                }
                assert_eq!(
                    *backend.partition1(&db, rel, AttrId(0)),
                    *reference.partition1(&db, rel, AttrId(0)),
                    "{name} threads={threads}"
                );
                for fd in &fds {
                    assert_eq!(
                        backend.fd_holds(&db, fd),
                        db.fd_holds(fd),
                        "{name} threads={threads} {fd:?}"
                    );
                }
                assert_eq!(backend.exec_stats().fallback_failures, 0);
            }
        }
        std::env::remove_var("DBRE_PAGED_THREADS");
    }

    #[test]
    fn adopt_spilled_serves_streamed_extension() {
        // A materialized twin provides the expected answers; the
        // streamed database never holds the values in memory.
        let mut twin = Database::new();
        let spec = [("x", Domain::Int), ("y", Domain::Text)];
        let trel = twin.add_relation(Relation::of("S", &spec)).unwrap();
        let rows = PAGE_CODES + 77;
        for i in 0..rows {
            let x = if i % 11 == 0 {
                Value::Null
            } else {
                Value::Int((i % 301) as i64)
            };
            twin.insert(trel, vec![x, Value::str(format!("s{}", i % 40))])
                .unwrap();
        }

        // Spill the twin's columns by hand, as streaming ingest would.
        let mut cols = Vec::new();
        for a in [AttrId(0), AttrId(1)] {
            let dict = ColumnDict::build(twin.table(trel).column(a));
            let file = PageFile::spill(dict.codes()).unwrap();
            cols.push(Arc::new(PagedColumn::new(Arc::new(dict.slim()), file)));
        }
        let spilled = crate::spill::SpilledTable::new(cols, rows, true);

        let mut db = Database::new();
        let rel = db.add_relation(Relation::of("S", &spec)).unwrap();
        db.set_streamed_extension(rel, rows);
        assert!(!db.table(rel).is_materialized());

        let paged = PagedBackend::new();
        paged.adopt_spilled(&db, rel, &spilled);
        assert_eq!(
            paged.spill_stats(),
            crate::spill::SpillCacheStats { hits: 1, misses: 0 }
        );

        let reference = ReferenceBackend;
        for attrs in [vec![AttrId(0)], vec![AttrId(1)], vec![AttrId(0), AttrId(1)]] {
            assert_eq!(
                paged.count_distinct(&db, rel, &attrs),
                reference.count_distinct(&twin, trel, &attrs),
                "{attrs:?}"
            );
        }
        assert_eq!(
            *paged.lhs_groups(&db, rel, &[AttrId(0)]),
            *reference.lhs_groups(&twin, trel, &[AttrId(0)])
        );
        let fd = Fd {
            rel,
            lhs: crate::attr::AttrSet::from_indices([0u16]),
            rhs: crate::attr::AttrSet::from_indices([1u16]),
        };
        let tfd = Fd {
            rel: trel,
            ..fd.clone()
        };
        assert_eq!(
            CountBackend::fd_holds(&paged, &db, &fd),
            twin.fd_holds(&tfd)
        );
        // The slim dictionaries still answer column_dict (rehydrated).
        let dict = CountBackend::column_dict(&paged, &db, rel, AttrId(0)).unwrap();
        let direct = ColumnDict::build(twin.table(trel).column(AttrId(0)));
        assert_eq!(dict.codes(), direct.codes());
        assert_eq!(paged.exec_stats().fallback_failures, 0);
    }

    #[test]
    #[should_panic(expected = "streamed extension")]
    fn streamed_extension_without_adoption_dies_instead_of_lying() {
        // Without adopt_spilled there are no pages AND no in-memory
        // values: the reference fallback would silently answer from an
        // empty column. The backend must refuse.
        let mut db = Database::new();
        let rel = db
            .add_relation(Relation::of("V", &[("x", Domain::Int)]))
            .unwrap();
        db.set_streamed_extension(rel, 5);
        let paged = PagedBackend::new();
        let _ = paged.count_distinct(&db, rel, &[AttrId(0)]);
    }
}
