//! The persistent spill cache: streamed-ingest tables on disk,
//! reusable across runs.
//!
//! Streaming ingest (`import_csv_spilled` in [`crate::csv`]) encodes
//! a CSV extension straight into [`crate::pages`] spill files without
//! materializing a `Table`. Those files are validated and checksummed
//! already — this module makes them *durable*: with a `--spill-dir`,
//! each ingested table lands in a directory keyed by the **schema
//! fingerprint + source-content hash**, together with a compact
//! serialization of each column's slim dictionary and a `manifest`
//! written last (its presence is the commit point — a crashed ingest
//! leaves no manifest and the entry reads as a miss). A warm rerun
//! re-hashes the source, finds the entry, re-validates every page
//! file's checksum and adopts the columns without an encode pass.
//!
//! Any mismatch — foreign layout, truncated pages, corrupt
//! dictionary, row-count disagreement — degrades to a cache miss
//! through the typed [`PageError`] path, and the re-encode simply
//! overwrites the entry.

use crate::bufpool::BufferPool;
use crate::database::Database;
use crate::encode::lhs_groups;
use crate::encode::ColumnDict;
use crate::error::DbreError;
use crate::pages::{fnv1a64_bytes, FNV_BYTES_SEED};
use crate::pages::{PageError, PageFile, PagedColumn};
use crate::schema::{RelId, Relation};
use crate::value::{Date, OrdF64, Value};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Spill-cache format version — part of the cache key, so a layout
/// change silently invalidates old entries instead of misreading them.
/// Version 3 dropped version 2's per-column sketch-hash section.
const FORMAT_VERSION: &str = "dbre-spill 3";

/// Dictionary-file magic (format name + version).
const DICT_MAGIC: &[u8; 8] = b"DBREDC03";

/// Counters describing how streamed ingest used the persistent spill
/// cache: one hit per table whose encode pass was skipped entirely,
/// one miss per table that had to encode (cold cache, or no
/// `--spill-dir` at all).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillCacheStats {
    /// Tables adopted from the cache (encode skipped).
    pub hits: u64,
    /// Tables that encoded from source.
    pub misses: u64,
}

/// One streamed-ingest table: every column spilled to pages with its
/// slim dictionary resident, and no in-memory `Value` columns at all.
/// The matching `Table` in the [`Database`] is a *streamed extension*
/// — it knows its row count but holds no data (see
/// `Table::is_materialized`).
#[derive(Debug)]
pub struct SpilledTable {
    columns: Vec<Arc<PagedColumn>>,
    rows: usize,
    from_cache: bool,
}

impl SpilledTable {
    /// Bundles spilled columns into a table. All columns must encode
    /// `rows` rows.
    pub fn new(columns: Vec<Arc<PagedColumn>>, rows: usize, from_cache: bool) -> SpilledTable {
        debug_assert!(columns.iter().all(|c| c.rows() == rows));
        SpilledTable {
            columns,
            rows,
            from_cache,
        }
    }

    /// The spilled columns, in attribute order.
    pub fn columns(&self) -> &[Arc<PagedColumn>] {
        &self.columns
    }

    /// Rows the table holds.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Did this table come from the persistent cache (encode skipped)?
    pub fn from_cache(&self) -> bool {
        self.from_cache
    }
}

/// Streams `path` through the FNV-1a byte hash — the content half of
/// the cache key. One sequential read, no allocation beyond a chunk
/// buffer.
pub fn hash_file(path: &Path) -> Result<u64, PageError> {
    let mut f = std::fs::File::open(path).map_err(|e| PageError::Io(e.to_string()))?;
    let mut hash = FNV_BYTES_SEED;
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = f.read(&mut buf).map_err(|e| PageError::Io(e.to_string()))?;
        if n == 0 {
            return Ok(hash);
        }
        hash = fnv1a64_bytes(hash, &buf[..n]);
    }
}

/// The cache key for one (relation schema, source content) pair:
/// 32 hex chars — schema fingerprint then content hash. Renaming an
/// attribute, changing a domain or touching one byte of the source
/// each move the key, so stale entries are never *found*, only left
/// behind.
pub fn cache_key(relation: &Relation, content_hash: u64) -> String {
    let mut h = fnv1a64_bytes(FNV_BYTES_SEED, FORMAT_VERSION.as_bytes());
    h = fnv1a64_bytes(h, &[0]);
    h = fnv1a64_bytes(h, relation.name.as_bytes());
    for a in relation.attributes() {
        h = fnv1a64_bytes(h, &[0]);
        h = fnv1a64_bytes(h, a.name.as_bytes());
        h = fnv1a64_bytes(h, &[0]);
        h = fnv1a64_bytes(h, a.domain.sql_name().as_bytes());
    }
    format!("{h:016x}{content_hash:016x}")
}

/// The directory one cache entry lives in.
pub fn entry_dir(spill_dir: &Path, key: &str) -> PathBuf {
    spill_dir.join(key)
}

pub(crate) fn pages_path(dir: &Path, col: usize) -> PathBuf {
    dir.join(format!("col{col}.pages"))
}

/// Invalidates an entry before re-encoding over it: with the manifest
/// gone, a crash mid-encode can never leave a readable mix of old and
/// new column files.
pub(crate) fn invalidate_entry(dir: &Path) {
    let _ = std::fs::remove_file(manifest_path(dir));
}

fn dict_path(dir: &Path, col: usize) -> PathBuf {
    dir.join(format!("col{col}.dict"))
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest")
}

/// Serializes a slim dictionary: magic, decode table (tagged values),
/// NULL count, per-code occurrence counts, and an FNV-1a trailer over
/// everything after the magic. All integers little-endian.
fn encode_dict(dict: &ColumnDict) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(DICT_MAGIC);
    let body_start = out.len();
    let values = dict.distinct_values();
    out.extend_from_slice(&(values.len() as u64).to_le_bytes());
    for v in values {
        match v {
            // NULL never enters a decode table (code 0 is implicit),
            // but the tag keeps the format total.
            Value::Null => out.push(0),
            Value::Int(i) => {
                out.push(1);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(2);
                out.extend_from_slice(&f.0.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                out.push(3);
                out.extend_from_slice(&(s.len() as u64).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bool(b) => {
                out.push(4);
                out.push(u8::from(*b));
            }
            Value::Date(d) => {
                out.push(5);
                out.extend_from_slice(&d.0.to_le_bytes());
            }
        }
    }
    out.extend_from_slice(&(dict.null_count() as u64).to_le_bytes());
    let counts = dict.code_counts();
    out.extend_from_slice(&(counts.len() as u64).to_le_bytes());
    for &c in counts {
        out.extend_from_slice(&c.to_le_bytes());
    }
    let trailer = fnv1a64_bytes(FNV_BYTES_SEED, &out[body_start..]);
    out.extend_from_slice(&trailer.to_le_bytes());
    out
}

/// A tiny cursor over the dictionary bytes; every read is
/// bounds-checked and any short read decodes as `None` (a corrupt
/// dictionary is a cache miss, never a panic).
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u64(&mut self) -> Option<u64> {
        let b = self.take(8)?;
        Some(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn i64(&mut self) -> Option<i64> {
        Some(self.u64()? as i64)
    }

    fn i32(&mut self) -> Option<i32> {
        let b = self.take(4)?;
        Some(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

/// Deserializes [`encode_dict`] output; `None` on any corruption
/// (bad magic, bad trailer hash, short reads, foreign value tags).
fn decode_dict(bytes: &[u8]) -> Option<ColumnDict> {
    let body = bytes.strip_prefix(DICT_MAGIC)?;
    if body.len() < 8 {
        return None;
    }
    let (body, trailer) = body.split_at(body.len() - 8);
    let expected = u64::from_le_bytes([
        trailer[0], trailer[1], trailer[2], trailer[3], trailer[4], trailer[5], trailer[6],
        trailer[7],
    ]);
    if fnv1a64_bytes(FNV_BYTES_SEED, body) != expected {
        return None;
    }
    let mut c = Cursor {
        bytes: body,
        pos: 0,
    };
    let n_values = usize::try_from(c.u64()?).ok()?;
    // A value costs at least 1 byte on disk; reject absurd counts
    // before allocating.
    if n_values > body.len() {
        return None;
    }
    let mut values = Vec::with_capacity(n_values);
    for _ in 0..n_values {
        let v = match c.u8()? {
            0 => Value::Null,
            1 => Value::Int(c.i64()?),
            2 => Value::Float(OrdF64(f64::from_bits(c.u64()?))),
            3 => {
                let len = usize::try_from(c.u64()?).ok()?;
                let s = std::str::from_utf8(c.take(len)?).ok()?;
                Value::str(s)
            }
            4 => Value::Bool(c.u8()? != 0),
            5 => Value::Date(Date(c.i32()?)),
            _ => return None,
        };
        values.push(v);
    }
    let nulls = usize::try_from(c.u64()?).ok()?;
    let n_counts = usize::try_from(c.u64()?).ok()?;
    if n_counts != n_values + 1 {
        return None;
    }
    let mut counts = Vec::with_capacity(n_counts);
    for _ in 0..n_counts {
        counts.push(c.u64()?);
    }
    if c.pos != body.len() || counts[0] != nulls as u64 {
        return None;
    }
    Some(ColumnDict::from_parts(values, nulls, counts))
}

/// Writes one column's dictionary file.
pub(crate) fn write_dict(dir: &Path, col: usize, dict: &ColumnDict) -> Result<(), PageError> {
    std::fs::write(dict_path(dir, col), encode_dict(dict)).map_err(|e| PageError::Io(e.to_string()))
}

/// Commits a cache entry by writing its manifest — the last file
/// written, so a partial entry (crash mid-ingest) never validates.
pub(crate) fn write_manifest(dir: &Path, rows: usize, arity: usize) -> Result<(), PageError> {
    std::fs::write(
        manifest_path(dir),
        format!("{FORMAT_VERSION}\nrows {rows}\narity {arity}\n"),
    )
    .map_err(|e| PageError::Io(e.to_string()))
}

/// Attempts to load a cache entry for a table of `arity` columns.
/// Every page file is checksum-verified in full (one sequential read
/// — still far cheaper than re-parsing and re-encoding the source)
/// and every dictionary must decode and agree with its page file's
/// row count. Any failure is a miss (`None`); the caller re-encodes
/// over the entry.
pub fn load_entry(dir: &Path, arity: usize) -> Option<SpilledTable> {
    let manifest = std::fs::read_to_string(manifest_path(dir)).ok()?;
    let mut lines = manifest.lines();
    if lines.next()? != FORMAT_VERSION {
        return None;
    }
    let rows: usize = lines.next()?.strip_prefix("rows ")?.parse().ok()?;
    let m_arity: usize = lines.next()?.strip_prefix("arity ")?.parse().ok()?;
    if m_arity != arity {
        return None;
    }
    let mut columns = Vec::with_capacity(arity);
    for i in 0..arity {
        let file = PageFile::open(&pages_path(dir, i)).ok()?;
        if file.rows() as usize != rows {
            return None;
        }
        file.verify_checksum().ok()?;
        let dict = decode_dict(&std::fs::read(dict_path(dir, i)).ok()?)?;
        if dict.code_counts().len() != dict.cardinality() + 1
            || dict.code_counts().iter().sum::<u64>() != rows as u64
        {
            return None;
        }
        columns.push(Arc::new(PagedColumn::new(Arc::new(dict), file)));
    }
    Some(SpilledTable::new(columns, rows, true))
}

/// Validation twin of [`Database::validate_dictionary`] for streamed
/// extensions, whose rows never exist as in-memory `Value` columns:
/// not-null constraints read the resident dictionaries' NULL counts,
/// key constraints hold iff no non-NULL key projection repeats —
/// exactly "`lhs_groups` over the key attributes is empty", which the
/// kernel answers over the spilled pages from dictionary counts
/// (unary) or one streamed scan (composite).
pub fn validate_spilled(
    db: &Database,
    rel: RelId,
    table: &SpilledTable,
    pool: &BufferPool,
) -> Result<(), DbreError> {
    let relation = db.schema.relation(rel);
    for &(nn_rel, attr) in &db.constraints.not_null {
        if nn_rel != rel {
            continue;
        }
        let col = table
            .columns()
            .get(attr.index())
            .ok_or_else(|| PageError::Io(format!("not-null attr {} out of range", attr.0)))?;
        if col.dict().null_count() > 0 {
            return Err(crate::error::RelationalError::NotNullViolation {
                relation: relation.name.clone(),
                attribute: relation.attr_name(attr).to_string(),
            }
            .into());
        }
    }
    for key in &db.constraints.keys {
        if key.rel != rel {
            continue;
        }
        let cols: Vec<&PagedColumn> = key
            .attrs
            .iter()
            .map(|a| {
                table
                    .columns()
                    .get(a.index())
                    .map(Arc::as_ref)
                    .ok_or_else(|| PageError::Io(format!("key attr {} out of range", a.0)))
            })
            .collect::<Result<_, _>>()?;
        let groups = lhs_groups(&cols, pool, table.rows())?;
        if !groups.is_empty() {
            return Err(crate::error::RelationalError::KeyViolation {
                relation: relation.name.clone(),
                key: relation.render_set(&key.attrs),
            }
            .into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Domain;

    fn dict_of(values: &[Value]) -> ColumnDict {
        ColumnDict::build(values)
    }

    #[test]
    fn dict_round_trips_every_domain() {
        let col = vec![
            Value::Int(42),
            Value::Null,
            Value::float(f64::NAN),
            Value::str("héllo, \"quoted\""),
            Value::Bool(true),
            Value::Date(Date::from_ymd(1996, 2, 26).unwrap()),
            Value::Int(42),
            Value::float(-0.0),
        ];
        let dict = dict_of(&col);
        let bytes = encode_dict(&dict);
        let back = decode_dict(&bytes).expect("round trip");
        assert_eq!(back.distinct_values(), dict.distinct_values());
        assert_eq!(back.null_count(), dict.null_count());
        assert_eq!(back.code_counts(), dict.code_counts());
        // Codes must agree too: same decode table, same index.
        for v in dict.distinct_values() {
            assert_eq!(back.code_of(v), dict.code_of(v));
        }
    }

    #[test]
    fn dict_rejects_corruption() {
        let dict = dict_of(&[Value::Int(1), Value::Int(2), Value::Null]);
        let good = encode_dict(&dict);
        assert!(decode_dict(&good).is_some());
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(decode_dict(&bad).is_none());
        // Flipped body byte: trailer hash catches it.
        let mut bad = good.clone();
        bad[10] ^= 0x01;
        assert!(decode_dict(&bad).is_none());
        // Truncated.
        assert!(decode_dict(&good[..good.len() - 3]).is_none());
        // Empty / tiny.
        assert!(decode_dict(&[]).is_none());
        assert!(decode_dict(DICT_MAGIC).is_none());
    }

    /// Writes a full cache entry for `cols` the way streaming ingest
    /// does: pages via the streaming writer, dictionaries, manifest
    /// last.
    fn write_entry(dir: &Path, cols: &[Vec<Value>], rows: usize) {
        std::fs::create_dir_all(dir).unwrap();
        for (i, col) in cols.iter().enumerate() {
            let dict = ColumnDict::build(col);
            let mut w = crate::pages::PageFileWriter::create_at(&pages_path(dir, i)).unwrap();
            w.append(dict.codes()).unwrap();
            // Durable files survive the handle; drop the read handle.
            drop(w.finish().unwrap());
            write_dict(dir, i, &dict.slim()).unwrap();
        }
        write_manifest(dir, rows, cols.len()).unwrap();
    }

    #[test]
    fn entry_round_trips_and_rejects_damage() {
        let base = std::env::temp_dir().join(format!("dbre-spill-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let rel = Relation::of("T", &[("a", Domain::Int), ("b", Domain::Text)]);
        let a: Vec<Value> = (0..2500)
            .map(|i| {
                if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 300)
                }
            })
            .collect();
        let b: Vec<Value> = (0..2500)
            .map(|i| Value::str(format!("v{}", i % 12)))
            .collect();
        let dir = entry_dir(&base, &cache_key(&rel, 1234));
        write_entry(&dir, &[a.clone(), b.clone()], 2500);

        let loaded = load_entry(&dir, 2).expect("fresh entry must load");
        assert!(loaded.from_cache());
        assert_eq!(loaded.rows(), 2500);
        assert_eq!(loaded.arity(), 2);
        // Adopted columns answer like direct encodes.
        let pool = BufferPool::default();
        let direct = ColumnDict::build(&a);
        let col0 = &loaded.columns()[0];
        assert_eq!(col0.dict().distinct_values(), direct.distinct_values());
        assert_eq!(col0.dict().null_count(), direct.null_count());
        let mut codes = Vec::new();
        for p in 0..col0.file().pages() {
            codes.extend_from_slice(&col0.page(&pool, p).unwrap());
        }
        assert_eq!(codes, direct.codes());

        // Wrong arity: miss.
        assert!(load_entry(&dir, 3).is_none());
        // Missing manifest (crash mid-ingest): miss.
        let manifest = manifest_path(&dir);
        let saved = std::fs::read(&manifest).unwrap();
        std::fs::remove_file(&manifest).unwrap();
        assert!(load_entry(&dir, 2).is_none());
        std::fs::write(&manifest, &saved).unwrap();
        // Corrupt a code byte (not the tail padding, which is trimmed
        // on read and rightly outside the checksum): miss.
        let pp = pages_path(&dir, 1);
        let mut bytes = std::fs::read(&pp).unwrap();
        let flip = crate::pages::HEADER_BYTES + 8;
        bytes[flip] ^= 0xff;
        std::fs::write(&pp, &bytes).unwrap();
        assert!(load_entry(&dir, 2).is_none());
        bytes[flip] ^= 0xff;
        std::fs::write(&pp, &bytes).unwrap();
        assert!(load_entry(&dir, 2).is_some(), "repair must re-validate");
        // Corrupt a dictionary: miss.
        let dp = dict_path(&dir, 0);
        let mut dbytes = std::fs::read(&dp).unwrap();
        dbytes[12] ^= 0x10;
        std::fs::write(&dp, &dbytes).unwrap();
        assert!(load_entry(&dir, 2).is_none());

        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn validate_spilled_checks_keys_and_not_null() {
        use crate::attr::{AttrId, AttrSet};
        use crate::deps::Key;

        let base = std::env::temp_dir().join(format!("dbre-spill-val-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let mut db = Database::new();
        let rel = db
            .add_relation(Relation::of(
                "K",
                &[("id", Domain::Int), ("v", Domain::Int)],
            ))
            .unwrap();
        db.constraints.keys.push(Key {
            rel,
            attrs: AttrSet::from_indices([0u16]),
        });
        db.constraints.not_null.push((rel, AttrId(0)));

        let ids: Vec<Value> = (0..100).map(Value::Int).collect();
        let vs: Vec<Value> = (0..100).map(|i| Value::Int(i % 5)).collect();
        let dir = base.join("good");
        write_entry(&dir, &[ids, vs.clone()], 100);
        let good = load_entry(&dir, 2).unwrap();
        let pool = BufferPool::default();
        validate_spilled(&db, rel, &good, &pool).expect("unique non-null key must pass");

        // Duplicate id 3: key violation.
        let mut dup_ids: Vec<Value> = (0..100).map(Value::Int).collect();
        dup_ids[50] = Value::Int(3);
        let dir2 = base.join("dup");
        write_entry(&dir2, &[dup_ids, vs.clone()], 100);
        let dup = load_entry(&dir2, 2).unwrap();
        assert!(matches!(
            validate_spilled(&db, rel, &dup, &pool),
            Err(DbreError::Relational(
                crate::error::RelationalError::KeyViolation { .. }
            ))
        ));

        // NULL id: not-null violation (reported before the key check).
        let mut null_ids: Vec<Value> = (0..100).map(Value::Int).collect();
        null_ids[7] = Value::Null;
        let dir3 = base.join("null");
        write_entry(&dir3, &[null_ids, vs], 100);
        let nulls = load_entry(&dir3, 2).unwrap();
        assert!(matches!(
            validate_spilled(&db, rel, &nulls, &pool),
            Err(DbreError::Relational(
                crate::error::RelationalError::NotNullViolation { .. }
            ))
        ));

        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn cache_key_separates_schema_and_content() {
        let r1 = Relation::of("T", &[("a", Domain::Int), ("b", Domain::Text)]);
        let r2 = Relation::of("T", &[("a", Domain::Int), ("b", Domain::Int)]);
        let r3 = Relation::of("U", &[("a", Domain::Int), ("b", Domain::Text)]);
        let k = cache_key(&r1, 7);
        assert_eq!(k.len(), 32);
        assert_ne!(k, cache_key(&r2, 7), "domain change must move the key");
        assert_ne!(k, cache_key(&r3, 7), "rename must move the key");
        assert_ne!(k, cache_key(&r1, 8), "content change must move the key");
        assert_eq!(k, cache_key(&r1, 7), "key must be deterministic");
    }
}
