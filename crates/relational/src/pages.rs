//! The paged columnar store: dictionary codes on disk, counting
//! kernels streaming over fixed-size pages.
//!
//! The in-memory backends cap the extension at what fits in RAM; the
//! paper's target — 100M-row legacy databases — does not. This module
//! keeps each encoded column's per-row `u32` codes (NULL = 0, exactly
//! the [`crate::encode::ColumnDict`] code space) in a spill file of
//! fixed [`PAGE_BYTES`] pages behind a small header, while the
//! *dictionary* halves (decode table, encode index, NULL count) stay
//! resident as a codes-free [`ColumnDict::slim`] copy. Every counting
//! kernel the pipeline needs — `count_distinct`, `join_stats`,
//! `lhs_groups`, counting-sort partitions — re-runs the PR 3 encoded
//! kernels page slice by page slice through a shared LRU
//! [`BufferPool`], so the resident working set is bounded by the pool
//! capacity, not the extension size.
//!
//! Cross-column kernels that never touch per-row codes —
//! [`crate::encode::intersect_count`], [`crate::encode::code_translation`],
//! [`crate::encode::decode_set_cols`] — are reused *unchanged* on the
//! slim dictionaries; only the row-scan loops needed paged twins.
//!
//! [`PagedBackend`] packages the store as the fourth
//! `BackendChoice`: spill-on-encode from the same generation-tagged
//! dictionary build the encoded backend performs, invalidation by
//! eviction ([`BufferPool::evict_file`]) when a table mutates, and a
//! reference fallback (counted in
//! [`BackendExecStats::fallback_failures`]) if a spill file ever
//! fails — an I/O error degrades a probe to the slow path, never to a
//! wrong answer or a panic.

use crate::attr::AttrId;
use crate::backend::{lhs_groups_reference, read_recover, write_recover, Tagged};
use crate::backend::{BackendExecStats, CountBackend};
use crate::bufpool::{BufferPool, PageCacheStats, PageKey};
use crate::counting::{join_stats, EquiJoin, JoinStats};
use crate::database::Database;
use crate::deps::Fd;
use crate::encode::{decode_set_cols, intersect_count, ColumnDict, EncodedSet, NULL_CODE};
use crate::fasthash::{FxHashMap, FxHashSet};
use crate::partitions::StrippedPartition;
use crate::schema::RelId;
use crate::sketch::ColumnSketch;
use crate::spill::{SpillCacheStats, SpilledTable};
use crate::table::ProjKey;
use std::collections::{HashMap, HashSet};
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
            f.read_exact(&mut buf).map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    PageError::Truncated {
                        expected: HEADER_BYTES as u64 + u64::from(self.pages) * PAGE_BYTES as u64,
                        actual: 0,
                    }
                } else {
                    io_err(e)
                }
            })?;
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

/// Worker threads for chunked page scans. Off-feature this is 1 (the
/// chunked kernels collapse to their serial shape); with the
/// `parallel` feature it follows the machine, overridable through
/// `DBRE_PAGED_THREADS` (clamped to 1..=64) so scaling can be
/// measured — and the parallel code paths exercised — regardless of
/// the host's core count.
fn paged_threads() -> usize {
    #[cfg(not(feature = "parallel"))]
    {
        1
    }
    #[cfg(feature = "parallel")]
    {
        if let Ok(v) = std::env::var("DBRE_PAGED_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.clamp(1, 64);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Splits `pages` into at most `threads` contiguous ranges. Chunk
/// boundaries depend only on (pages, threads), so a merge in chunk
/// order is deterministic.
fn page_chunks(pages: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    if pages == 0 {
        return Vec::new();
    }
    let n = threads.clamp(1, pages);
    let per = pages.div_ceil(n);
    (0..pages)
        .step_by(per)
        .map(|s| s..(s + per).min(pages))
        .collect()
}

/// Runs `f` over every chunk, one scoped thread per chunk when the
/// `parallel` feature is on and there is more than one chunk, inline
/// otherwise. Results come back **in chunk order** regardless of
/// completion order — the determinism the merges rely on.
fn run_chunks<R, F>(chunks: &[std::ops::Range<usize>], f: F) -> Vec<Result<R, PageError>>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> Result<R, PageError> + Sync,
{
    #[cfg(feature = "parallel")]
    if chunks.len() > 1 {
        let mut out: Vec<Option<Result<R, PageError>>> = Vec::new();
        out.resize_with(chunks.len(), || None);
        std::thread::scope(|scope| {
            for (slot, chunk) in out.iter_mut().zip(chunks) {
                let fr = &f;
                scope.spawn(move || {
                    *slot = Some(fr(chunk.clone()));
                });
            }
        });
        return out
            .into_iter()
            .map(|r| {
                // Invariant: the scope joins every worker, and each
                // worker's only job is to fill its slot.
                #[allow(clippy::expect_used)]
                r.expect("chunk worker filled its slot before scope exit")
            })
            .collect();
    }
    chunks.iter().map(|c| f(c.clone())).collect()
}

/// How many page groups the prefetching reader may run ahead of the
/// consumer.
#[cfg(feature = "parallel")]
const PREFETCH_DEPTH: usize = 2;

/// Streams `range`'s pages over `cols` in lockstep, calling
/// `f(base_row, slices)` once per page in order. Holding the `Arc`s
/// across the callback keeps the data alive even if the pool evicts
/// the entry mid-iteration, so a capacity-1 pool is slow but never
/// wrong.
///
/// Under the `parallel` feature a reader thread fetches pages through
/// the pool ahead of the consumer (bounded by [`PREFETCH_DEPTH`]),
/// overlapping page I/O with kernel compute. Pages are still
/// requested and delivered strictly in order, so results and counter
/// totals are identical to the plain loop.
fn stream_page_range<F>(
    cols: &[&PagedColumn],
    pool: &BufferPool,
    range: std::ops::Range<usize>,
    mut f: F,
) -> Result<(), PageError>
where
    F: FnMut(usize, &[&[u32]]),
{
    #[cfg(feature = "parallel")]
    if range.len() > 1 {
        return std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::sync_channel(PREFETCH_DEPTH);
            let reader = range.clone();
            scope.spawn(move || {
                for p in reader {
                    let group: Result<Vec<Arc<Vec<u32>>>, PageError> =
                        cols.iter().map(|c| c.page(pool, p as u32)).collect();
                    let stop = group.is_err();
                    if tx.send(group).is_err() || stop {
                        return;
                    }
                }
            });
            for (p, group) in range.clone().zip(rx.iter()) {
                let owned = group?;
                let slices: Vec<&[u32]> = owned.iter().map(|a| a.as_slice()).collect();
                f(p * PAGE_CODES, &slices);
            }
            Ok(())
        });
    }
    for p in range {
        let owned: Vec<Arc<Vec<u32>>> = cols
            .iter()
            .map(|c| c.page(pool, p as u32))
            .collect::<Result<_, _>>()?;
        let slices: Vec<&[u32]> = owned.iter().map(|a| a.as_slice()).collect();
        f(p * PAGE_CODES, &slices);
    }
    Ok(())
}

#[inline]
fn pack2(hi: u32, lo: u32) -> u64 {
    (u64::from(hi) << 32) | u64::from(lo)
}

/// Paged twin of [`crate::encode::distinct_codes_cols`]: the distinct
/// non-NULL projected code tuples, streamed page by page — in
/// parallel per-chunk partials unioned afterwards when the `parallel`
/// feature (and more than one thread) is in play. Set contents are
/// identical either way; only insertion order differs, which no
/// consumer observes.
pub fn distinct_codes_paged(
    cols: &[&PagedColumn],
    rows: usize,
    pool: &BufferPool,
) -> Result<EncodedSet, PageError> {
    let chunks = page_chunks(rows.div_ceil(PAGE_CODES), paged_threads());
    match cols {
        [] => {
            let mut s: FxHashSet<Box<[u32]>> = FxHashSet::default();
            if rows > 0 {
                s.insert(Box::from([]));
            }
            Ok(EncodedSet::Wide(s))
        }
        [c] => Ok(EncodedSet::Unary {
            card: c.dict.cardinality() as u32,
        }),
        [ca, cb] => {
            let cap = (ca.dict.cardinality() as u64 * cb.dict.cardinality() as u64).min(rows as u64)
                as usize;
            let parts = run_chunks(&chunks, |r| {
                let mut set: FxHashSet<u64> = FxHashSet::default();
                stream_page_range(cols, pool, r, |_, slices| {
                    for (&x, &y) in slices[0].iter().zip(slices[1]) {
                        if x != NULL_CODE && y != NULL_CODE {
                            set.insert(pack2(x, y));
                        }
                    }
                })?;
                Ok(set)
            });
            let mut set: FxHashSet<u64> =
                FxHashSet::with_capacity_and_hasher(cap, Default::default());
            for part in parts {
                set.extend(part?);
            }
            Ok(EncodedSet::Packed(set))
        }
        _ => {
            let parts = run_chunks(&chunks, |r| {
                let mut set: FxHashSet<Box<[u32]>> = FxHashSet::default();
                let mut scratch: Vec<u32> = vec![0; cols.len()];
                stream_page_range(cols, pool, r, |_, slices| {
                    'rows: for i in 0..slices[0].len() {
                        for (s, c) in scratch.iter_mut().zip(slices) {
                            let code = c[i];
                            if code == NULL_CODE {
                                continue 'rows;
                            }
                            *s = code;
                        }
                        if !set.contains(scratch.as_slice()) {
                            set.insert(scratch.clone().into_boxed_slice());
                        }
                    }
                })?;
                Ok(set)
            });
            let mut set: FxHashSet<Box<[u32]>> = FxHashSet::default();
            for part in parts {
                set.extend(part?);
            }
            Ok(EncodedSet::Wide(set))
        }
    }
}

/// Paged twin of [`crate::encode::count_distinct_cols`], including
/// the dense-bitset pair fast path.
pub fn count_distinct_paged(
    cols: &[&PagedColumn],
    rows: usize,
    pool: &BufferPool,
) -> Result<usize, PageError> {
    match cols {
        [c] => Ok(c.dict.cardinality()),
        [ca, cb] => {
            let domain = ca.dict.cardinality() as u64 * cb.dict.cardinality() as u64;
            const BITSET_MAX: u64 = 1 << 22;
            if domain > 0 && domain <= BITSET_MAX {
                let width = cb.dict.cardinality() as u64;
                let words = (domain as usize).div_ceil(64);
                let chunks = page_chunks(rows.div_ceil(PAGE_CODES), paged_threads());
                let parts = run_chunks(&chunks, |r| {
                    let mut bits = vec![0u64; words];
                    stream_page_range(cols, pool, r, |_, slices| {
                        for (&x, &y) in slices[0].iter().zip(slices[1]) {
                            if x == NULL_CODE || y == NULL_CODE {
                                continue;
                            }
                            let idx = (u64::from(x) - 1) * width + (u64::from(y) - 1);
                            bits[(idx / 64) as usize] |= 1u64 << (idx % 64);
                        }
                    })?;
                    Ok(bits)
                });
                let mut acc = vec![0u64; words];
                for part in parts {
                    for (a, b) in acc.iter_mut().zip(part?) {
                        *a |= b;
                    }
                }
                Ok(acc.iter().map(|w| w.count_ones() as usize).sum())
            } else {
                Ok(distinct_codes_paged(cols, rows, pool)?.len())
            }
        }
        _ => Ok(distinct_codes_paged(cols, rows, pool)?.len()),
    }
}

/// Per-code occurrence counts of one column. The resident dictionary
/// carries them for free since the counts fusion
/// ([`ColumnDict::code_counts`]); any dictionary without them (a
/// foreign length is treated as "unavailable" by convention) costs
/// one chunked counting pass over the pages. Index 0 is the NULL
/// count.
fn code_counts_paged(col: &PagedColumn, pool: &BufferPool) -> Result<Vec<u32>, PageError> {
    let domain = col.dict.cardinality() + 1;
    let dc = col.dict.code_counts();
    if dc.len() == domain {
        return Ok(dc.iter().map(|&n| n as u32).collect());
    }
    let cols = [col];
    let chunks = page_chunks(col.rows.div_ceil(PAGE_CODES), paged_threads());
    let parts = run_chunks(&chunks, |r| {
        let mut counts: Vec<u32> = vec![0; domain];
        stream_page_range(&cols, pool, r, |_, slices| {
            for &c in slices[0] {
                counts[c as usize] += 1;
            }
        })?;
        Ok(counts)
    });
    let mut acc = vec![0u32; domain];
    for part in parts {
        for (a, b) in acc.iter_mut().zip(part?) {
            *a += b;
        }
    }
    Ok(acc)
}

/// Builds the counting-sort slot table: `slots[c]` is the dense group
/// index of code `c`, `u32::MAX` for codes that form no group
/// (occurrence < 2, or NULL when `skip_null`). Returns the slot table
/// and each group's size.
fn group_slots(counts: &[u32], skip_null: bool) -> (Vec<u32>, Vec<usize>) {
    let mut slots: Vec<u32> = vec![u32::MAX; counts.len()];
    let mut sizes: Vec<usize> = Vec::new();
    let start = usize::from(skip_null);
    for (c, &n) in counts.iter().enumerate().skip(start) {
        if n >= 2 {
            slots[c] = sizes.len() as u32;
            sizes.push(n as usize);
        }
    }
    (slots, sizes)
}

/// The chunked counting-sort fill pass shared by [`lhs_groups_paged`]
/// and [`partition1_paged`]: every row whose code has a slot lands in
/// its group, chunk partials concatenated in chunk order so row ids
/// stay ascending — byte-identical to the serial fill.
fn fill_groups_paged(
    col: &PagedColumn,
    rows: usize,
    pool: &BufferPool,
    slots: &[u32],
    sizes: &[usize],
) -> Result<Vec<Vec<usize>>, PageError> {
    let cols = [col];
    let chunks = page_chunks(rows.div_ceil(PAGE_CODES), paged_threads());
    let parts = run_chunks(&chunks, |r| {
        let mut part: Vec<Vec<usize>> = vec![Vec::new(); sizes.len()];
        stream_page_range(&cols, pool, r, |base, slices| {
            for (i, &c) in slices[0].iter().enumerate() {
                let s = slots[c as usize];
                if s != u32::MAX {
                    part[s as usize].push(base + i);
                }
            }
        })?;
        Ok(part)
    });
    let mut groups: Vec<Vec<usize>> = sizes.iter().map(|&n| Vec::with_capacity(n)).collect();
    for part in parts {
        for (g, p) in groups.iter_mut().zip(part?) {
            g.extend(p);
        }
    }
    Ok(groups)
}

/// Paged twin of [`crate::encode::lhs_groups_cols`]: SQL-semantics
/// row groups (size ≥ 2), page base offsets restoring global row ids.
/// Unary group sizes come straight from the dictionary's fused
/// occurrence counts (no counting pass); the fill pass — and the
/// hash-grouped multi-column arms — run as per-chunk partials merged
/// in chunk order, so the result is byte-identical to the serial
/// scan.
pub fn lhs_groups_paged(
    cols: &[&PagedColumn],
    rows: usize,
    pool: &BufferPool,
) -> Result<Vec<Vec<usize>>, PageError> {
    let chunks = page_chunks(rows.div_ceil(PAGE_CODES), paged_threads());
    match cols {
        [] => Ok(if rows >= 2 {
            vec![(0..rows).collect()]
        } else {
            Vec::new()
        }),
        [col] => {
            let counts = code_counts_paged(col, pool)?;
            // slots[NULL_CODE] stays MAX (SQL semantics: NULL rows
            // never group), so the fill pass needs no NULL check.
            let (slots, sizes) = group_slots(&counts, true);
            let mut groups = fill_groups_paged(col, rows, pool, &slots, &sizes)?;
            groups.sort();
            Ok(groups)
        }
        [_, _] => {
            let parts = run_chunks(&chunks, |r| {
                let mut map: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
                stream_page_range(cols, pool, r, |base, slices| {
                    for (i, (&x, &y)) in slices[0].iter().zip(slices[1]).enumerate() {
                        if x != NULL_CODE && y != NULL_CODE {
                            map.entry(pack2(x, y)).or_default().push(base + i);
                        }
                    }
                })?;
                Ok(map)
            });
            let mut map: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
            for part in parts {
                for (k, v) in part? {
                    map.entry(k).or_default().extend(v);
                }
            }
            let mut groups: Vec<Vec<usize>> = map.into_values().filter(|g| g.len() >= 2).collect();
            groups.sort();
            Ok(groups)
        }
        _ => {
            let parts = run_chunks(&chunks, |r| {
                let mut map: FxHashMap<Box<[u32]>, Vec<usize>> = FxHashMap::default();
                let mut scratch: Vec<u32> = vec![0; cols.len()];
                stream_page_range(cols, pool, r, |base, slices| {
                    'rows: for i in 0..slices[0].len() {
                        for (s, c) in scratch.iter_mut().zip(slices) {
                            let code = c[i];
                            if code == NULL_CODE {
                                continue 'rows;
                            }
                            *s = code;
                        }
                        if let Some(g) = map.get_mut(scratch.as_slice()) {
                            g.push(base + i);
                        } else {
                            map.insert(scratch.clone().into_boxed_slice(), vec![base + i]);
                        }
                    }
                })?;
                Ok(map)
            });
            let mut map: FxHashMap<Box<[u32]>, Vec<usize>> = FxHashMap::default();
            for part in parts {
                for (k, v) in part? {
                    map.entry(k).or_default().extend(v);
                }
            }
            let mut groups: Vec<Vec<usize>> = map.into_values().filter(|g| g.len() >= 2).collect();
            groups.sort();
            Ok(groups)
        }
    }
}

/// Paged twin of [`crate::encode::partition1_col`]: the unary
/// stripped partition (mining convention, NULL = NULL). Class sizes
/// come from the dictionary's fused occurrence counts — NULL included
/// as its own class — so only the chunked fill pass touches pages.
pub fn partition1_paged(
    col: &PagedColumn,
    pool: &BufferPool,
) -> Result<StrippedPartition, PageError> {
    let counts = code_counts_paged(col, pool)?;
    let (slots, sizes) = group_slots(&counts, false);
    let mut classes = fill_groups_paged(col, col.rows, pool, &slots, &sizes)?;
    classes.sort();
    Ok(StrippedPartition {
        classes,
        rows: col.rows,
    })
}

/// Paged FD check, SQL semantics (matches the `CountBackend` default:
/// NULL-LHS rows are skipped, the RHS is compared structurally —
/// same-dictionary code equality *is* structural `Value` equality,
/// `NULL = NULL` and `NaN = NaN` included).
///
/// One chunked pass over LHS and RHS pages together, keeping a single
/// RHS **witness tuple** per LHS group instead of materializing row
/// groups — allocation is bounded by the number of duplicated LHS
/// values, never the extension, which is what lets an out-of-core FD
/// probe run in pool-sized memory. Codes are dense `u32`s (a real
/// code can never be `u32::MAX`), so `u32::MAX` marks "group not seen
/// yet".
pub fn fd_holds_paged(
    lhs: &[&PagedColumn],
    rhs: &[&PagedColumn],
    rows: usize,
    pool: &BufferPool,
) -> Result<bool, PageError> {
    if rhs.is_empty() || rows < 2 {
        return Ok(true);
    }
    let arity = rhs.len();
    let chunks = page_chunks(rows.div_ceil(PAGE_CODES), paged_threads());
    match lhs {
        [] => {
            // One group of every row: holds iff each RHS column is
            // constant under structural equality — all NULL, or one
            // value and no NULLs. Pure dictionary metadata, no scan.
            Ok(rhs.iter().all(|c| {
                let nulls = c.dict.null_count();
                nulls == rows || (c.dict.cardinality() == 1 && nulls == 0)
            }))
        }
        [l] => {
            let counts = code_counts_paged(l, pool)?;
            let (slots, sizes) = group_slots(&counts, true);
            if sizes.is_empty() {
                // Every non-NULL LHS value is unique: nothing to agree on.
                return Ok(true);
            }
            let mut scan: Vec<&PagedColumn> = Vec::with_capacity(1 + arity);
            scan.push(l);
            scan.extend(rhs.iter().copied());
            let parts = run_chunks(&chunks, |r| {
                let mut witness: Vec<u32> = vec![u32::MAX; sizes.len() * arity];
                let mut ok = true;
                stream_page_range(&scan, pool, r, |_, slices| {
                    if !ok {
                        return;
                    }
                    for (i, &c) in slices[0].iter().enumerate() {
                        let s = slots[c as usize];
                        if s == u32::MAX {
                            continue;
                        }
                        let base = s as usize * arity;
                        if witness[base] == u32::MAX {
                            for j in 0..arity {
                                witness[base + j] = slices[1 + j][i];
                            }
                        } else {
                            for j in 0..arity {
                                if witness[base + j] != slices[1 + j][i] {
                                    ok = false;
                                    return;
                                }
                            }
                        }
                    }
                })?;
                Ok(ok.then_some(witness))
            });
            let mut acc: Option<Vec<u32>> = None;
            for part in parts {
                let Some(w) = part? else { return Ok(false) };
                match &mut acc {
                    None => acc = Some(w),
                    Some(a) => {
                        for g in 0..sizes.len() {
                            let base = g * arity;
                            if w[base] == u32::MAX {
                                continue;
                            }
                            if a[base] == u32::MAX {
                                a[base..base + arity].copy_from_slice(&w[base..base + arity]);
                            } else if a[base..base + arity] != w[base..base + arity] {
                                return Ok(false);
                            }
                        }
                    }
                }
            }
            Ok(true)
        }
        _ => {
            let k = lhs.len();
            let mut scan: Vec<&PagedColumn> = Vec::with_capacity(k + arity);
            scan.extend(lhs.iter().copied());
            scan.extend(rhs.iter().copied());
            let parts = run_chunks(&chunks, |r| {
                let mut map: FxHashMap<Box<[u32]>, Box<[u32]>> = FxHashMap::default();
                let mut key: Vec<u32> = vec![0; k];
                let mut ok = true;
                stream_page_range(&scan, pool, r, |_, slices| {
                    if !ok {
                        return;
                    }
                    'rows: for i in 0..slices[0].len() {
                        for (s, c) in key.iter_mut().zip(&slices[..k]) {
                            let code = c[i];
                            if code == NULL_CODE {
                                continue 'rows;
                            }
                            *s = code;
                        }
                        if let Some(w) = map.get(key.as_slice()) {
                            for (j, &wj) in w.iter().enumerate() {
                                if wj != slices[k + j][i] {
                                    ok = false;
                                    return;
                                }
                            }
                        } else {
                            let w: Box<[u32]> = (0..arity).map(|j| slices[k + j][i]).collect();
                            map.insert(key.clone().into_boxed_slice(), w);
                        }
                    }
                })?;
                Ok(ok.then_some(map))
            });
            let mut acc: FxHashMap<Box<[u32]>, Box<[u32]>> = FxHashMap::default();
            for part in parts {
                let Some(m) = part? else { return Ok(false) };
                for (key, w) in m {
                    match acc.entry(key) {
                        std::collections::hash_map::Entry::Occupied(e) => {
                            if *e.get() != w {
                                return Ok(false);
                            }
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(w);
                        }
                    }
                }
            }
            Ok(true)
        }
    }
}

/// The out-of-core counting backend: encoded kernels streaming over
/// spilled code pages through a capacity-bounded [`BufferPool`].
///
/// Column encoding happens exactly as in the encoded backend (one
/// interning pass per column per table generation), but the per-row
/// codes are spilled to a page file immediately and only the slim
/// dictionary stays resident. A table mutation (generation bump)
/// replaces the spill file and purges its pages from the pool; a
/// spill or read failure degrades the probe to the `Value`-based
/// reference semantics and increments
/// [`BackendExecStats::fallback_failures`].
pub struct PagedBackend {
    pool: Arc<BufferPool>,
    columns: RwLock<HashMap<(RelId, AttrId), Tagged<PagedColumn>>>,
    /// Rehydrated full dictionaries for the `column_dict()` seam —
    /// built on demand by streaming every page, then cached per
    /// generation like any other derived structure.
    hydrated: RwLock<HashMap<(RelId, AttrId), Tagged<ColumnDict>>>,
    fallbacks: AtomicU64,
    /// Streamed-ingest tables adopted from the persistent spill cache
    /// (encode skipped entirely).
    spill_hits: AtomicU64,
    /// Streamed-ingest tables that had to encode (cold cache, or no
    /// `--spill-dir` configured).
    spill_misses: AtomicU64,
}

impl Default for PagedBackend {
    fn default() -> Self {
        PagedBackend::new()
    }
}

impl PagedBackend {
    /// A paged backend with the default 64 MiB buffer pool.
    pub fn new() -> Self {
        PagedBackend::with_pool(Arc::new(BufferPool::default()))
    }

    /// A paged backend whose pool holds at most `bytes` of page data.
    pub fn with_capacity_bytes(bytes: usize) -> Self {
        PagedBackend::with_pool(Arc::new(BufferPool::with_capacity_bytes(bytes)))
    }

    /// A paged backend over an explicit (possibly shared) pool.
    pub fn with_pool(pool: Arc<BufferPool>) -> Self {
        PagedBackend {
            pool,
            columns: RwLock::new(HashMap::new()),
            hydrated: RwLock::new(HashMap::new()),
            fallbacks: AtomicU64::new(0),
            spill_hits: AtomicU64::new(0),
            spill_misses: AtomicU64::new(0),
        }
    }

    /// The backend's buffer pool.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// The paged encoding of one column, spilled once per table
    /// generation. A stale entry's pages are purged from the pool
    /// before the replacement is adopted (invalidation by eviction).
    pub fn paged_column(
        &self,
        db: &Database,
        rel: RelId,
        attr: AttrId,
    ) -> Result<Arc<PagedColumn>, PageError> {
        let gen = db.generation(rel);
        let key = (rel, attr);
        if let Some(entry) = read_recover(&self.columns).get(&key) {
            if entry.gen == gen {
                return Ok(Arc::clone(&entry.value));
            }
        }
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
        let full = ColumnDict::build(db.table(rel).column(attr));
        let value = Arc::new(PagedColumn::from_dict(&full)?);
        drop(full);
        let mut columns = write_recover(&self.columns);
        if let Some(entry) = columns.get(&key) {
            if entry.gen == gen {
                return Ok(Arc::clone(&entry.value));
            }
        }
        if let Some(stale) = columns.insert(
            key,
            Tagged {
                gen,
                value: Arc::clone(&value),
            },
        ) {
            self.pool.evict_file(stale.value.file.id);
        }
        Ok(value)
    }

    fn attr_columns(
        &self,
        db: &Database,
        rel: RelId,
        attrs: &[AttrId],
    ) -> Result<Vec<Arc<PagedColumn>>, PageError> {
        attrs
            .iter()
            .map(|a| self.paged_column(db, rel, *a))
            .collect()
    }

    fn note_fallback(&self) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
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
        self.note_fallback();
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
            let key = (rel, AttrId(i as u16));
            if let Some(stale) = columns.insert(
                key,
                Tagged {
                    gen,
                    value: Arc::clone(col),
                },
            ) {
                self.pool.evict_file(stale.value.file.id);
            }
        }
        drop(columns);
        if table.from_cache() {
            self.spill_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.spill_misses.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl CountBackend for PagedBackend {
    fn name(&self) -> &'static str {
        "paged"
    }

    fn count_distinct(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> usize {
        let rows = db.table(rel).len();
        let probe = self.attr_columns(db, rel, attrs).and_then(|cols| {
            let refs: Vec<&PagedColumn> = cols.iter().map(Arc::as_ref).collect();
            count_distinct_paged(&refs, rows, &self.pool)
        });
        match probe {
            Ok(n) => n,
            Err(e) => {
                self.note_fallback_or_die(db, &[rel], &e);
                db.table(rel).count_distinct(attrs)
            }
        }
    }

    fn join_stats(&self, db: &Database, join: &EquiJoin) -> JoinStats {
        let probe = (|| -> Result<JoinStats, PageError> {
            let lrows = db.table(join.left.rel).len();
            let rrows = db.table(join.right.rel).len();
            let lcols = self.attr_columns(db, join.left.rel, &join.left.attrs)?;
            let rcols = self.attr_columns(db, join.right.rel, &join.right.attrs)?;
            let lrefs: Vec<&PagedColumn> = lcols.iter().map(Arc::as_ref).collect();
            let rrefs: Vec<&PagedColumn> = rcols.iter().map(Arc::as_ref).collect();
            let lset = distinct_codes_paged(&lrefs, lrows, &self.pool)?;
            let rset = distinct_codes_paged(&rrefs, rrows, &self.pool)?;
            // The intersection kernel reads only dictionary lookups
            // (`code_translation`, `code_of`), never per-row codes, so
            // the slim dictionaries drive it unchanged.
            let ldicts: Vec<&ColumnDict> = lcols.iter().map(|c| c.dict.as_ref()).collect();
            let rdicts: Vec<&ColumnDict> = rcols.iter().map(|c| c.dict.as_ref()).collect();
            let n_join = intersect_count(&ldicts, &lset, &rdicts, &rset);
            Ok(JoinStats {
                n_left: lset.len(),
                n_right: rset.len(),
                n_join,
            })
        })();
        match probe {
            Ok(s) => s,
            Err(e) => {
                self.note_fallback_or_die(db, &[join.left.rel, join.right.rel], &e);
                join_stats(db, join)
            }
        }
    }

    fn lhs_groups(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<Vec<Vec<usize>>> {
        let rows = db.table(rel).len();
        let probe = self.attr_columns(db, rel, attrs).and_then(|cols| {
            let refs: Vec<&PagedColumn> = cols.iter().map(Arc::as_ref).collect();
            lhs_groups_paged(&refs, rows, &self.pool)
        });
        match probe {
            Ok(groups) => Arc::new(groups),
            Err(e) => {
                self.note_fallback_or_die(db, &[rel], &e);
                Arc::new(lhs_groups_reference(db, rel, attrs))
            }
        }
    }

    fn projection(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<HashSet<ProjKey>> {
        let rows = db.table(rel).len();
        let probe = self.attr_columns(db, rel, attrs).and_then(|cols| {
            let refs: Vec<&PagedColumn> = cols.iter().map(Arc::as_ref).collect();
            let set = distinct_codes_paged(&refs, rows, &self.pool)?;
            // Decoding touches only the decode tables of the slim
            // dictionaries.
            let dicts: Vec<&ColumnDict> = cols.iter().map(|c| c.dict.as_ref()).collect();
            Ok(decode_set_cols(&dicts, &set))
        });
        match probe {
            Ok(set) => Arc::new(set),
            Err(e) => {
                self.note_fallback_or_die(db, &[rel], &e);
                Arc::new(db.table(rel).distinct_projection(attrs))
            }
        }
    }

    fn partition1(&self, db: &Database, rel: RelId, attr: AttrId) -> Arc<StrippedPartition> {
        let probe = self
            .paged_column(db, rel, attr)
            .and_then(|col| partition1_paged(&col, &self.pool));
        match probe {
            Ok(p) => Arc::new(p),
            Err(e) => {
                self.note_fallback_or_die(db, &[rel], &e);
                Arc::new(StrippedPartition::for_attribute(db.table(rel), attr))
            }
        }
    }

    fn fd_holds(&self, db: &Database, fd: &Fd) -> bool {
        let rows = db.table(fd.rel).len();
        let lhs: Vec<AttrId> = fd.lhs.iter().collect();
        let rhs: Vec<AttrId> = fd.rhs.iter().collect();
        let probe = (|| -> Result<bool, PageError> {
            let lcols = self.attr_columns(db, fd.rel, &lhs)?;
            let rcols = self.attr_columns(db, fd.rel, &rhs)?;
            let lrefs: Vec<&PagedColumn> = lcols.iter().map(Arc::as_ref).collect();
            let rrefs: Vec<&PagedColumn> = rcols.iter().map(Arc::as_ref).collect();
            fd_holds_paged(&lrefs, &rrefs, rows, &self.pool)
        })();
        match probe {
            Ok(b) => b,
            Err(e) => {
                self.note_fallback_or_die(db, &[fd.rel], &e);
                db.fd_holds(fd)
            }
        }
    }

    fn prewarm(&self, db: &Database, rel: RelId) {
        // Spill every column while the rows are hot; a failed spill is
        // retried (and fallback-counted) by whichever probe needs it.
        let arity = db.table(rel).arity();
        for i in 0..arity {
            let _ = self.paged_column(db, rel, AttrId(i as u16));
        }
    }

    fn column_dict(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnDict>> {
        let gen = db.generation(rel);
        let key = (rel, attr);
        if let Some(entry) = read_recover(&self.hydrated).get(&key) {
            if entry.gen == gen {
                return Some(Arc::clone(&entry.value));
            }
        }
        let col = match self.paged_column(db, rel, attr) {
            Ok(c) => c,
            Err(e) => {
                self.note_fallback_or_die(db, &[rel], &e);
                return None;
            }
        };
        let codes = match col.read_all_codes(&self.pool) {
            Ok(c) => c,
            Err(e) => {
                self.note_fallback_or_die(db, &[rel], &e);
                return None;
            }
        };
        let value = Arc::new(col.dict.rehydrate(codes));
        let mut hydrated = write_recover(&self.hydrated);
        if let Some(entry) = hydrated.get(&key) {
            if entry.gen == gen {
                return Some(Arc::clone(&entry.value));
            }
        }
        hydrated.insert(
            key,
            Tagged {
                gen,
                value: Arc::clone(&value),
            },
        );
        Some(value)
    }

    fn column_sketch(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnSketch>> {
        // The resident slim dictionary carries the whole value set and
        // the fused counts — everything a sketch summarizes — so this
        // never streams a single code page (unlike `column_dict`,
        // which rehydrates the full column). Streamed-ingest columns
        // loaded from a warm spill entry arrive with the sketch
        // preseeded from persisted hashes. A spill failure simply
        // yields no sketch: pruning is disabled, answers unchanged.
        self.paged_column(db, rel, attr)
            .ok()
            .and_then(|col| col.dict.sketch())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{EncodedBackend, ReferenceBackend};
    use crate::deps::IndSide;
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
    fn paged_backend_matches_reference_and_encoded() {
        let (db, l, r) = sample_db();
        let reference = ReferenceBackend;
        let encoded = EncodedBackend::new();
        // One page worth of pool is enough for correctness.
        let paged = PagedBackend::with_capacity_bytes(PAGE_BYTES);
        let join = EquiJoin::try_new(IndSide::single(l, AttrId(0)), IndSide::single(r, AttrId(0)))
            .unwrap();
        for attrs in [vec![AttrId(0)], vec![AttrId(0), AttrId(1)]] {
            assert_eq!(
                paged.count_distinct(&db, l, &attrs),
                reference.count_distinct(&db, l, &attrs)
            );
            assert_eq!(
                *paged.lhs_groups(&db, l, &attrs),
                *reference.lhs_groups(&db, l, &attrs)
            );
            assert_eq!(
                *paged.projection(&db, l, &attrs),
                *reference.projection(&db, l, &attrs)
            );
        }
        assert_eq!(paged.join_stats(&db, &join), encoded.join_stats(&db, &join));
        assert_eq!(
            *paged.partition1(&db, l, AttrId(1)),
            *reference.partition1(&db, l, AttrId(1))
        );
        assert_eq!(paged.exec_stats().fallback_failures, 0);
        let stats = paged.page_stats();
        assert!(stats.hits + stats.misses > 0, "probes must touch the pool");
    }

    #[test]
    fn mutation_invalidates_and_purges_pages() {
        let (mut db, l, _) = sample_db();
        let paged = PagedBackend::new();
        assert_eq!(paged.count_distinct(&db, l, &[AttrId(0)]), 4);
        let old_file = paged.paged_column(&db, l, AttrId(0)).unwrap().file().id();
        db.insert(l, vec![Value::Int(99), Value::Int(1)]).unwrap();
        assert_eq!(paged.count_distinct(&db, l, &[AttrId(0)]), 5);
        let new_file = paged.paged_column(&db, l, AttrId(0)).unwrap().file().id();
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
        let paged = PagedBackend::with_capacity_bytes(PAGE_BYTES); // 1-page pool: constant churn
        for attrs in [vec![AttrId(0)], vec![AttrId(1)], vec![AttrId(0), AttrId(1)]] {
            assert_eq!(
                paged.count_distinct(&db, rel, &attrs),
                reference.count_distinct(&db, rel, &attrs),
                "{attrs:?}"
            );
        }
        assert_eq!(
            *paged.lhs_groups(&db, rel, &[AttrId(1)]),
            *reference.lhs_groups(&db, rel, &[AttrId(1)])
        );
        assert_eq!(
            *paged.partition1(&db, rel, AttrId(0)),
            *reference.partition1(&db, rel, AttrId(0))
        );
        assert!(paged.page_stats().evictions > 0, "1-page pool must churn");
        assert_eq!(paged.exec_stats().fallback_failures, 0);
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
        let paged = PagedBackend::with_capacity_bytes(PAGE_BYTES);
        let fd = |lhs: &[u16], rhs: &[u16]| Fd {
            rel,
            lhs: crate::attr::AttrSet::from_indices(lhs.iter().copied()),
            rhs: crate::attr::AttrSet::from_indices(rhs.iter().copied()),
        };
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
            let fd = fd(lhs, rhs);
            assert_eq!(
                CountBackend::fd_holds(&paged, &db, &fd),
                db.fd_holds(&fd),
                "lhs={lhs:?} rhs={rhs:?}"
            );
        }
        // Constant RHS: {} → const holds without a scan.
        let mut db2 = Database::new();
        let r2 = db2
            .add_relation(Relation::of("C", &[("u", Domain::Int), ("v", Domain::Int)]))
            .unwrap();
        for i in 0..10 {
            db2.insert(r2, vec![Value::Int(i), Value::Int(7)]).unwrap();
        }
        let fd2 = Fd {
            rel: r2,
            lhs: crate::attr::AttrSet::empty(),
            rhs: crate::attr::AttrSet::from_indices([1u16]),
        };
        assert!(CountBackend::fd_holds(&paged, &db2, &fd2));
        assert!(db2.fd_holds(&fd2));
        assert_eq!(paged.exec_stats().fallback_failures, 0);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn chunked_kernels_match_reference_across_thread_counts() {
        // DBRE_PAGED_THREADS is read per kernel call; every thread
        // count must give byte-identical answers. Concurrent paged
        // tests seeing the transient value is fine — that is exactly
        // the invariant under test.
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
        for threads in ["1", "2", "5"] {
            std::env::set_var("DBRE_PAGED_THREADS", threads);
            let paged = PagedBackend::new();
            for attrs in [vec![AttrId(0)], vec![AttrId(0), AttrId(1)]] {
                assert_eq!(
                    paged.count_distinct(&db, rel, &attrs),
                    reference.count_distinct(&db, rel, &attrs),
                    "threads={threads} attrs={attrs:?}"
                );
            }
            assert_eq!(
                *paged.lhs_groups(&db, rel, &[AttrId(0)]),
                *reference.lhs_groups(&db, rel, &[AttrId(0)]),
                "threads={threads}"
            );
            assert_eq!(
                *paged.lhs_groups(&db, rel, &[AttrId(0), AttrId(1)]),
                *reference.lhs_groups(&db, rel, &[AttrId(0), AttrId(1)]),
                "threads={threads}"
            );
            assert_eq!(
                *paged.partition1(&db, rel, AttrId(0)),
                *reference.partition1(&db, rel, AttrId(0)),
                "threads={threads}"
            );
            let fd = Fd {
                rel,
                lhs: crate::attr::AttrSet::from_indices([0u16]),
                rhs: crate::attr::AttrSet::from_indices([1u16]),
            };
            assert_eq!(
                CountBackend::fd_holds(&paged, &db, &fd),
                db.fd_holds(&fd),
                "threads={threads}"
            );
            assert_eq!(paged.exec_stats().fallback_failures, 0);
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
