//! The spilled store: dictionary codes on disk, read page by page
//! through a buffer pool.
//!
//! A resident extension is capped at what fits in RAM; the paper's
//! target — 100M-row legacy databases — is not. Streamed ingest
//! (`import_csv_spilled` in [`crate::csv`]) therefore writes each
//! column's per-row `u32` codes (NULL = 0, exactly the
//! [`crate::encode::ColumnDict`] code space) to a spill file of fixed
//! [`PAGE_BYTES`] pages behind a small header, and installs in the
//! [`crate::database::Database`] a table whose columns keep their
//! dictionaries resident and their codes on those pages
//! ([`PagedColumn`]).
//!
//! The kernels of [`crate::encode`] read a paged column's codes one
//! page at a time through a shared LRU [`BufferPool`], so the resident
//! working set is bounded by the pool capacity, not the extension
//! size. `Value`-level readers decode a paged column from its own page
//! file, page by page, so no reader refuses a streamed table. A page
//! that cannot be read fails the read naming the relation and the
//! file.
//!
//! [`PagedBackend`] is the shared [`ColumnarBackend`] under the name
//! `paged`: a workload's pool size belongs to it. It counts the
//! spill-cache hits and misses of the tables it is handed
//! ([`PagedBackend::adopt_spilled`]).

use crate::backend::ColumnarBackend;
use crate::bufpool::{BufferPool, PageKey};
use crate::database::Database;
use crate::schema::RelId;
use crate::spill::SpilledTable;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
/// files (written to the temp directory by
/// [`PageFileWriter::create_temp`]) are deleted on drop; files opened
/// from a path ([`PageFile::open`]) or written to one are left in
/// place.
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
/// is patched in by [`PageFileWriter::finish`]. The bytes depend only
/// on the codes, however they were split into calls.
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
    /// [`PageFile`] is owned (deleted on drop).
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

/// The codes of one paged column: the spill file streamed ingest
/// wrote, and the relation it belongs to, which a failed read names.
/// Its dictionary sits in the [`crate::encode::ColumnDict`] that holds
/// it.
#[derive(Debug)]
pub struct PagedColumn {
    file: PageFile,
    relation: String,
}

impl PagedColumn {
    /// Codes of `relation` on `file` — the streaming-ingest and
    /// spill-cache load paths ([`crate::spill`], `import_csv_spilled`).
    pub fn new(file: PageFile, relation: &str) -> PagedColumn {
        PagedColumn {
            file,
            relation: relation.to_string(),
        }
    }

    /// Rows the column encodes.
    pub fn rows(&self) -> usize {
        self.file.rows() as usize
    }

    /// The spill file.
    pub fn file(&self) -> &PageFile {
        &self.file
    }

    /// `err`, naming the file it came from.
    fn in_file(&self, err: PageError) -> PageError {
        PageError::Io(format!("{}: {err}", self.file.path.display()))
    }

    /// One page of codes through the pool.
    pub fn page(&self, pool: &BufferPool, page: u32) -> Result<Arc<Vec<u32>>, PageError> {
        pool.get_or_load(
            PageKey {
                file: self.file.id,
                page,
            },
            || self.file.read_page(page).map_err(|e| self.in_file(e)),
        )
    }

    /// The full per-row code vector, every page read through the pool.
    pub fn read_all(&self, pool: &BufferPool) -> Result<Vec<u32>, PageError> {
        let mut codes = Vec::with_capacity(self.rows());
        for p in 0..self.file.pages {
            codes.extend_from_slice(&self.page(pool, p)?);
        }
        Ok(codes)
    }

    /// Page `page`, read from the file itself — the `Value`-level
    /// readers' path, which holds no pool.
    ///
    /// # Panics
    ///
    /// When the page cannot be read, naming the relation and the file.
    pub(crate) fn read_or_die(&self, page: usize) -> Vec<u32> {
        self.file.read_page(page as u32).unwrap_or_else(|err| {
            panic!(
                "cannot read the spilled pages of relation `{}`: {}",
                self.relation,
                self.in_file(err)
            )
        })
    }

    /// Every page, read as [`PagedColumn::read_or_die`] reads one.
    pub(crate) fn read_all_or_die(&self) -> Vec<u32> {
        let mut codes = Vec::with_capacity(self.rows());
        for p in 0..self.file.pages as usize {
            codes.extend_from_slice(&self.read_or_die(p));
        }
        codes
    }
}

/// The out-of-core counting backend: the columnar backend under the
/// name `paged`, sized by its pool. It reads the paged columns of a
/// streamed table through a capacity-bounded [`BufferPool`], so a
/// streamed extension's resident working set is bounded by the pool,
/// not the extension; resident columns are read in place, as under
/// the encoded backend.
pub type PagedBackend = ColumnarBackend<true>;

impl PagedBackend {
    /// Counts one spill-cache hit for a table whose encode the cache
    /// skipped, or one miss for a table that had to encode. The table's
    /// paged columns are already the database's: nothing else is
    /// installed.
    pub fn adopt_spilled(&self, db: &Database, rel: RelId, table: &SpilledTable) {
        let _ = (db, rel);
        let counter = if table.from_cache() {
            &self.spill_hits
        } else {
            &self.spill_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// `table`'s columns with their codes written to temporary page files
/// through a [`PageFileWriter`] and interned again by a
/// [`crate::encode::DictBuilder`] — the table streamed ingest installs
/// for the same cells, as relation `relation`.
#[cfg(test)]
pub(crate) fn paged_twin(table: &crate::table::Table, relation: &str) -> crate::table::Table {
    use crate::attr::AttrId;
    use crate::encode::DictBuilder;
    let columns = (0..table.arity())
        .map(|i| {
            let mut b = DictBuilder::new();
            let mut w = PageFileWriter::create_temp().unwrap();
            for v in table.values(AttrId(i as u16)) {
                w.push(b.intern(v)).unwrap();
            }
            b.finish_paged(Arc::new(PagedColumn::new(w.finish().unwrap(), relation)))
        })
        .collect();
    crate::table::Table::from_columns(columns).unwrap()
}

/// `db`'s streamed twin: the same schema, every relation's columns
/// paged ([`paged_twin`]), read by a paged backend over a `pool_bytes`
/// pool.
#[cfg(test)]
pub(crate) fn streamed_twin(db: &Database, pool_bytes: usize) -> (Database, PagedBackend) {
    let mut twin = Database::new();
    for (rel, relation) in db.schema.iter() {
        let table = paged_twin(db.table(rel), &relation.name);
        twin.add_relation_with_table(relation.clone(), table)
            .unwrap();
    }
    (twin, PagedBackend::with_capacity_bytes(pool_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrId;
    use crate::backend::{CountBackend, EncodedBackend, ReferenceBackend};
    use crate::counting::EquiJoin;
    use crate::deps::{Fd, IndSide};
    use crate::schema::Relation;
    use crate::stats::StatsEngine;
    use crate::value::{Domain, Value};

    /// `codes` written to a fresh owned temp file in one append.
    fn spill(codes: &[u32]) -> PageFile {
        let mut w = PageFileWriter::create_temp().unwrap();
        w.append(codes).unwrap();
        w.finish().unwrap()
    }

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
        let f = spill(&codes);
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
        let f = spill(&[1, 2, 3]);
        let path = f.path().to_path_buf();
        assert!(path.exists());
        drop(f);
        assert!(!path.exists());
    }

    #[test]
    fn open_rejects_truncation_magic_and_checksum() {
        let codes: Vec<u32> = (0..PAGE_CODES as u32 + 5).collect();
        let f = spill(&codes);
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
        let spilled = spill(&codes);
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

    /// A write to a paged column brings its codes into memory first:
    /// the table reads back its old rows plus the new one, and the
    /// pages stay as they were for every table still sharing them.
    #[test]
    fn a_write_to_a_paged_column_brings_it_into_memory() {
        let (mut db, l, _) = sample_db();
        let (mut twin, paged) = streamed_twin(&db, PAGE_BYTES * 4);
        let before = twin.clone();
        assert_eq!(*paged.lhs_groups(&twin, l, &[AttrId(0)]), vec![vec![0, 1]]);
        assert_eq!(paged.pool().resident_pages(), 1, "the page was read");
        db.insert(l, vec![Value::Int(99), Value::Int(1)]).unwrap();
        twin.insert(l, vec![Value::Int(99), Value::Int(1)]).unwrap();
        assert!(twin.table(l).column(AttrId(0)).pages().is_none());
        assert_eq!(twin.table(l), db.table(l));
        assert_eq!(paged.count_distinct(&twin, l, &[AttrId(0)]), 5);
        assert!(before.table(l).column(AttrId(0)).pages().is_some());
        assert_eq!(before.table(l).len(), db.table(l).len() - 1);
    }

    /// `column_dict` serves a paged column's codes read through the
    /// pool, and the engine reads them once per generation.
    #[test]
    fn column_dict_reads_paged_codes_once_per_generation() {
        let (db, l, _) = sample_db();
        let (twin, paged) = streamed_twin(&db, PAGE_BYTES);
        let engine = StatsEngine::with_backend(Box::new(paged));
        let dict = engine.column_dict(&twin, l, AttrId(0)).unwrap();
        assert!(dict.pages().is_none());
        assert_eq!(dict.codes(), db.table(l).column(AttrId(0)).codes());
        let reads = engine.page_stats();
        assert_eq!(reads.misses, 1);
        engine.column_dict(&twin, l, AttrId(0)).unwrap();
        assert_eq!(engine.page_stats(), reads);
    }

    /// A resident table's columns stay in memory under the paged
    /// backend too: its probes answer as the reference does, no column
    /// holds a page file, and the pool counts nothing.
    #[test]
    fn resident_tables_are_never_paged() {
        let (db, l, r) = sample_db();
        let paged = PagedBackend::with_capacity_bytes(PAGE_BYTES);
        let reference = ReferenceBackend;
        let both = [AttrId(0), AttrId(1)];
        assert_eq!(
            paged.count_distinct(&db, l, &both),
            reference.count_distinct(&db, l, &both)
        );
        assert_eq!(
            *paged.lhs_groups(&db, l, &both),
            *reference.lhs_groups(&db, l, &both)
        );
        assert_eq!(
            *paged.partition1(&db, l, AttrId(1)),
            *reference.partition1(&db, l, AttrId(1))
        );
        let fd = Fd {
            rel: l,
            lhs: crate::attr::AttrSet::from_indices([0u16]),
            rhs: crate::attr::AttrSet::from_indices([1u16]),
        };
        assert_eq!(paged.fd_holds(&db, &fd), db.fd_holds(&fd));
        let dict = CountBackend::column_dict(&paged, &db, r, AttrId(0)).unwrap();
        assert!(Arc::ptr_eq(&dict, db.table(r).column(AttrId(0))));
        assert_eq!(
            paged.page_stats(),
            crate::bufpool::PageCacheStats::default()
        );
        assert_eq!(paged.pool().resident_pages(), 0);
    }

    /// The resident codes and the same codes streamed over a 1-page
    /// pool (constant churn): the multi-page tests run their probes
    /// through `EncodedBackend` on the table and `PagedBackend` on its
    /// streamed twin, so resident codes cross chunk boundaries as well
    /// as spilled ones.
    #[test]
    fn multi_page_columns_stream_correctly() {
        // Enough rows for several pages, with NULLs and duplicates.
        let mut db = Database::new();
        let xyz = [("x", Domain::Int), ("y", Domain::Int), ("z", Domain::Int)];
        let rel = db.add_relation(Relation::of("T", &xyz)).unwrap();
        let rows = PAGE_CODES * 2 + 123;
        for i in 0..rows {
            let x = if i % 97 == 0 {
                Value::Null
            } else {
                Value::Int((i % 1009) as i64)
            };
            // z follows x's period, so the three-column groups are the
            // (x, y) repeats 31 * 1009 rows apart — on different pages.
            let z = Value::Int((i % 1009 % 7) as i64);
            db.insert(rel, vec![x, Value::Int((i % 31) as i64), z])
                .unwrap();
        }
        // U's (x, y) pairs follow T's over twice x's period, so about
        // half of them occur in T, most only on another page; its z
        // agrees with T's for about a seventh of those.
        let u = db.add_relation(Relation::of("U", &xyz)).unwrap();
        for i in 0..PAGE_CODES + 77 {
            let xyz = [i * 2 % 2017, i * 2 % 31, i % 7];
            db.insert(u, xyz.map(|v| Value::Int(v as i64)).to_vec())
                .unwrap();
        }
        let joins: Vec<EquiJoin> = [vec![0, 1, 2], vec![1, 0]]
            .into_iter()
            .map(|attrs: Vec<u16>| {
                let attrs: Vec<AttrId> = attrs.into_iter().map(AttrId).collect();
                EquiJoin::try_new(IndSide::new(rel, attrs.clone()), IndSide::new(u, attrs)).unwrap()
            })
            .collect();
        for join in &joins {
            let stats = ReferenceBackend.join_stats(&db, join);
            assert!(
                0 < stats.n_join && stats.n_join < stats.n_right,
                "{stats:?}"
            );
        }
        let reference = ReferenceBackend;
        let encoded = EncodedBackend::new();
        let (twin, paged) = streamed_twin(&db, PAGE_BYTES);
        for (backend, bdb) in [(&encoded as &dyn CountBackend, &db), (&paged, &twin)] {
            let name = backend.name();
            for attrs in [
                vec![AttrId(0)],
                vec![AttrId(1)],
                vec![AttrId(0), AttrId(1)],
                vec![AttrId(1), AttrId(2), AttrId(0)],
            ] {
                assert_eq!(
                    backend.count_distinct(bdb, rel, &attrs),
                    reference.count_distinct(&db, rel, &attrs),
                    "{name} {attrs:?}"
                );
                assert_eq!(
                    *backend.lhs_groups(bdb, rel, &attrs),
                    *reference.lhs_groups(&db, rel, &attrs),
                    "{name} {attrs:?}"
                );
            }
            assert_eq!(
                *backend.partition1(bdb, rel, AttrId(0)),
                *reference.partition1(&db, rel, AttrId(0)),
                "{name}"
            );
            for join in &joins {
                assert_eq!(
                    backend.join_stats(bdb, join),
                    reference.join_stats(&db, join),
                    "{name} {join:?}"
                );
            }
            for attrs in [
                vec![AttrId(0), AttrId(1)],
                vec![AttrId(2), AttrId(1), AttrId(0)],
            ] {
                assert_eq!(
                    *backend.projection(bdb, rel, &attrs),
                    *reference.projection(&db, rel, &attrs),
                    "{name} {attrs:?}"
                );
            }
        }
        assert!(paged.page_stats().evictions > 0, "1-page pool must churn");
    }

    #[test]
    fn writer_bytes_do_not_depend_on_how_codes_arrive() {
        // Codes pushed one at a time or appended in slices with awkward
        // splits make the same file, byte for byte — the spill cache
        // and the differential ingest test both lean on this.
        let codes: Vec<u32> = (0..PAGE_CODES as u32 * 3 + 41)
            .map(|i| i.wrapping_mul(2654435761))
            .collect();
        let whole = spill(&codes);
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
    fn empty_writer_writes_an_empty_file() {
        let whole = spill(&[]);
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
        let encoded = EncodedBackend::new();
        let (twin, paged) = streamed_twin(&db, PAGE_BYTES);
        let (twin2, paged2) = streamed_twin(&db2, PAGE_BYTES);
        let arms = [
            (
                &encoded as &dyn CountBackend,
                &db,
                &encoded as &dyn CountBackend,
                &db2,
            ),
            (&paged, &twin, &paged2, &twin2),
        ];
        for (backend, bdb, backend2, bdb2) in arms {
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
                    backend.fd_holds(bdb, &fd),
                    db.fd_holds(&fd),
                    "{name} lhs={lhs:?} rhs={rhs:?}"
                );
            }
            let fd2 = fd(r2, &[], &[1]);
            assert!(backend2.fd_holds(bdb2, &fd2), "{name}");
            assert!(db2.fd_holds(&fd2));
        }
    }

    /// Adoption counts a table's spill-cache hit or miss and nothing
    /// else: the paged columns already serve the probes.
    #[test]
    fn adopt_spilled_only_counts_the_cache() {
        let (db, l, _) = sample_db();
        let (twin, paged) = streamed_twin(&db, PAGE_BYTES);
        for from_cache in [true, false, true] {
            let spilled = SpilledTable::new(Vec::new(), 0, from_cache);
            paged.adopt_spilled(&twin, l, &spilled);
        }
        assert_eq!(
            paged.spill_stats(),
            crate::spill::SpillCacheStats { hits: 2, misses: 1 }
        );
        assert_eq!(
            paged.page_stats(),
            crate::bufpool::PageCacheStats::default()
        );
        let reference = ReferenceBackend;
        assert_eq!(
            paged.count_distinct(&twin, l, &[AttrId(0), AttrId(1)]),
            reference.count_distinct(&db, l, &[AttrId(0), AttrId(1)])
        );
    }
}
