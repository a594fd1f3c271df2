//! CSV import/export for tables — how real reverse-engineering
//! engagements receive legacy extensions (dumps, not live DBMS
//! connections).
//!
//! The dialect is the common denominator: comma separator, `"`
//! quoting with `""` escape, first line is the header, empty unquoted
//! fields are `NULL`. Values are coerced into the declared domain of
//! the target relation.

use crate::attr::AttrId;
use crate::database::Database;
use crate::error::RelationalError;
use crate::pages::PageError;
use crate::schema::{RelId, Relation};
use crate::table::Table;
use crate::value::Value;
use std::fmt;
use std::io::Read;
use std::path::Path;

/// CSV errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// Structural problem in the text.
    Malformed {
        /// 1-based line.
        line: usize,
        /// Description.
        message: String,
    },
    /// Header/relation mismatch or value coercion failure.
    Schema(String),
    /// Bubbled-up relational error.
    Relational(RelationalError),
    /// I/O or paged-store failure on the streaming ingest path.
    Page(PageError),
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Malformed { line, message } => {
                write!(f, "malformed CSV at line {line}: {message}")
            }
            CsvError::Schema(m) => write!(f, "CSV schema error: {m}"),
            CsvError::Relational(e) => write!(f, "{e}"),
            CsvError::Page(e) => write!(f, "CSV ingest: {e}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<RelationalError> for CsvError {
    fn from(e: RelationalError) -> Self {
        CsvError::Relational(e)
    }
}

impl From<PageError> for CsvError {
    fn from(e: PageError) -> Self {
        CsvError::Page(e)
    }
}

/// Chunk-fed CSV record parser — the single home of the dialect's
/// semantics, shared by the in-memory [`import_csv`] path (which feeds
/// it one big chunk) and the streaming [`import_csv_spilled`] path
/// (which feeds it file-sized reads). Byte chunks may split anywhere,
/// including mid-UTF-8-sequence and mid-`""` escape; state carries
/// across `feed` calls.
struct RecordParser {
    field: String,
    record: Vec<Option<String>>,
    /// Inside a quoted field.
    quoted: bool,
    /// Just saw a `"` inside a quoted field: the next char decides
    /// between a `""` escape and the field closing.
    pending_quote: bool,
    /// The field in progress was opened with a quote (quoted-empty is
    /// `Some("")`, not NULL).
    was_quoted: bool,
    /// 1-based source line, counting newlines inside quoted fields —
    /// structural errors point at real text positions.
    line: usize,
    /// Strip a UTF-8 BOM at the very start of the stream.
    strip_bom: bool,
    at_start: bool,
    /// Trailing bytes of an incomplete UTF-8 sequence at a chunk
    /// boundary (at most 3).
    stash: Vec<u8>,
}

impl RecordParser {
    fn new(strip_bom: bool) -> Self {
        RecordParser {
            field: String::new(),
            record: Vec::new(),
            quoted: false,
            pending_quote: false,
            was_quoted: false,
            line: 1,
            strip_bom,
            at_start: true,
            stash: Vec::new(),
        }
    }

    fn invalid_utf8(&self) -> CsvError {
        CsvError::Malformed {
            line: self.line,
            message: "invalid UTF-8".into(),
        }
    }

    fn end_field(&mut self) {
        if self.field.is_empty() && !self.was_quoted {
            self.record.push(None);
        } else {
            self.record.push(Some(std::mem::take(&mut self.field)));
        }
        self.was_quoted = false;
    }

    /// Ends the current record, emitting it unless it is a blank line
    /// (a single NULL field).
    fn end_record(
        &mut self,
        emit: &mut impl FnMut(Vec<Option<String>>) -> Result<(), CsvError>,
    ) -> Result<(), CsvError> {
        self.end_field();
        if self.record.len() == 1 && self.record[0].is_none() {
            self.record.clear();
            Ok(())
        } else {
            emit(std::mem::take(&mut self.record))
        }
    }

    fn process_char(
        &mut self,
        c: char,
        emit: &mut impl FnMut(Vec<Option<String>>) -> Result<(), CsvError>,
    ) -> Result<(), CsvError> {
        if self.at_start {
            self.at_start = false;
            if self.strip_bom && c == '\u{feff}' {
                return Ok(());
            }
        }
        if self.quoted {
            if self.pending_quote {
                self.pending_quote = false;
                if c == '"' {
                    self.field.push('"');
                    return Ok(());
                }
                // The quote we saw closed the field; `c` continues in
                // unquoted context below.
                self.quoted = false;
            } else {
                match c {
                    '"' => self.pending_quote = true,
                    '\n' => {
                        self.line += 1;
                        self.field.push('\n');
                    }
                    other => self.field.push(other),
                }
                return Ok(());
            }
        }
        match c {
            '"' => {
                if !self.field.is_empty() {
                    return Err(CsvError::Malformed {
                        line: self.line,
                        message: "quote inside unquoted field".into(),
                    });
                }
                self.quoted = true;
                self.was_quoted = true;
            }
            ',' => self.end_field(),
            '\r' => {}
            '\n' => {
                self.end_record(emit)?;
                self.line += 1;
            }
            other => self.field.push(other),
        }
        Ok(())
    }

    fn process_str(
        &mut self,
        s: &str,
        emit: &mut impl FnMut(Vec<Option<String>>) -> Result<(), CsvError>,
    ) -> Result<(), CsvError> {
        for c in s.chars() {
            self.process_char(c, emit)?;
        }
        Ok(())
    }

    /// Feeds one byte chunk, emitting every record it completes.
    fn feed(
        &mut self,
        mut chunk: &[u8],
        emit: &mut impl FnMut(Vec<Option<String>>) -> Result<(), CsvError>,
    ) -> Result<(), CsvError> {
        // Complete a UTF-8 sequence split at the previous boundary.
        while !self.stash.is_empty() && !chunk.is_empty() {
            self.stash.push(chunk[0]);
            chunk = &chunk[1..];
            match std::str::from_utf8(&self.stash) {
                Ok(s) => {
                    let owned = s.to_string();
                    self.stash.clear();
                    self.process_str(&owned, emit)?;
                    break;
                }
                Err(e) if e.error_len().is_some() || self.stash.len() >= 4 => {
                    return Err(self.invalid_utf8());
                }
                Err(_) => {} // still incomplete, keep pulling bytes
            }
        }
        match std::str::from_utf8(chunk) {
            Ok(s) => self.process_str(s, emit),
            Err(e) => {
                let (valid, rest) = chunk.split_at(e.valid_up_to());
                // Safe decode of the checked prefix without unsafe:
                // from_utf8 on `valid` cannot fail.
                if let Ok(s) = std::str::from_utf8(valid) {
                    self.process_str(s, emit)?;
                }
                if e.error_len().is_some() {
                    return Err(self.invalid_utf8());
                }
                self.stash.extend_from_slice(rest);
                Ok(())
            }
        }
    }

    /// Ends the stream: flushes the final record (no trailing newline
    /// required) and rejects unterminated quotes or a dangling partial
    /// UTF-8 sequence.
    fn finish(
        mut self,
        emit: &mut impl FnMut(Vec<Option<String>>) -> Result<(), CsvError>,
    ) -> Result<(), CsvError> {
        if !self.stash.is_empty() {
            return Err(self.invalid_utf8());
        }
        if self.pending_quote {
            // A closing quote was the last char of the stream.
            self.quoted = false;
            self.pending_quote = false;
        }
        if self.quoted {
            return Err(CsvError::Malformed {
                line: self.line,
                message: "unterminated quoted field".into(),
            });
        }
        if !self.field.is_empty() || self.was_quoted || !self.record.is_empty() {
            self.end_record(emit)?;
        }
        Ok(())
    }
}

/// Splits CSV text into records of raw fields. `None` fields are
/// unquoted-empty (→ NULL); quoted-empty stays `Some("")`.
fn parse_records(text: &str) -> Result<Vec<Vec<Option<String>>>, CsvError> {
    let mut records = Vec::new();
    let mut emit = |r: Vec<Option<String>>| {
        records.push(r);
        Ok(())
    };
    let mut p = RecordParser::new(false);
    p.feed(text.as_bytes(), &mut emit)?;
    p.finish(&mut emit)?;
    Ok(records)
}

/// Resolves a header record against `relation`: every attribute named
/// exactly once, any order. Returns the CSV-position → attribute map.
fn header_mapping(relation: &Relation, header: &[Option<String>]) -> Result<Vec<AttrId>, CsvError> {
    let mut mapping: Vec<AttrId> = Vec::with_capacity(header.len());
    for (i, h) in header.iter().enumerate() {
        let name = h
            .as_deref()
            .ok_or_else(|| CsvError::Schema(format!("empty header field at position {}", i + 1)))?;
        let id = relation.attr_id(name).ok_or_else(|| {
            CsvError::Schema(format!(
                "header column `{name}` not in relation `{}`",
                relation.name
            ))
        })?;
        // A duplicate header would silently overwrite the column it
        // collides with (both names map to the same AttrId, so the
        // arity check below cannot catch it).
        if mapping.contains(&id) {
            return Err(CsvError::Schema(format!(
                "duplicate header column `{name}` for relation `{}`",
                relation.name
            )));
        }
        mapping.push(id);
    }
    if mapping.len() != relation.arity() {
        return Err(CsvError::Schema(format!(
            "header has {} columns, relation `{}` has {}",
            mapping.len(),
            relation.name,
            relation.arity()
        )));
    }
    Ok(mapping)
}

/// Loads CSV text into an existing relation. The header must name the
/// relation's attributes (any order); values are coerced per the
/// declared domains; unquoted-empty fields become NULL.
pub fn import_csv(db: &mut Database, rel: RelId, text: &str) -> Result<usize, CsvError> {
    // Tolerate a leading UTF-8 byte-order mark (Excel and Windows
    // exports routinely prepend one); without this the first header
    // column would never resolve.
    let text = text.strip_prefix('\u{feff}').unwrap_or(text);
    let records = parse_records(text)?;
    let Some(header) = records.first() else {
        return Ok(0);
    };
    let relation = db.schema.relation(rel).clone();
    let mapping = header_mapping(&relation, header)?;

    let mut inserted = 0usize;
    for (line_no, record) in records.iter().enumerate().skip(1) {
        if record.len() != mapping.len() {
            return Err(CsvError::Malformed {
                line: line_no + 1,
                message: format!(
                    "expected {} fields for relation `{}`, found {}",
                    mapping.len(),
                    relation.name,
                    record.len()
                ),
            });
        }
        let mut row = vec![Value::Null; relation.arity()];
        for (field, attr) in record.iter().zip(&mapping) {
            let domain = relation.attribute(*attr).domain;
            let v = match field {
                None => Value::Null,
                Some(text) => Value::parse_into(text, domain).ok_or_else(|| {
                    CsvError::Schema(format!(
                        "`{text}` does not fit {domain} (column `{}`, line {})",
                        relation.attr_name(*attr),
                        line_no + 1
                    ))
                })?,
            };
            row[attr.index()] = v;
        }
        db.insert(rel, row)?;
        inserted += 1;
    }
    Ok(inserted)
}

/// [`import_csv`] plus an immediate prewarm pass: the fresh extension
/// is interned into `engine`'s caches
/// ([`crate::stats::StatsEngine::prewarm`]) while it is still hot, so
/// the first statistics query after an import doesn't pay the build.
/// Purely an optimization — the caches invalidate themselves if the
/// table mutates again.
pub fn import_csv_with_stats(
    db: &mut Database,
    rel: RelId,
    text: &str,
    engine: &crate::stats::StatsEngine,
) -> Result<usize, CsvError> {
    let inserted = import_csv(db, rel, text)?;
    engine.prewarm(db, rel);
    Ok(inserted)
}

/// Streaming ingest: encodes a CSV file straight into paged spill
/// files — dictionary interning and page writes happen per record, so
/// peak memory is one 64 KiB chunk, the parser state, and the (per
/// column) dictionary + one partial page. No `Table` and no full code
/// vector ever materialize; the relation in `db` becomes a *streamed
/// extension* that knows its row count but holds no values.
///
/// With a `spill_dir`, the encoded pages and dictionaries persist
/// under a schema+content cache key ([`crate::spill`]); a warm rerun
/// over the same file skips parsing and encoding entirely
/// (`from_cache` on the returned table). Corrupt or stale entries
/// degrade to a re-encode that overwrites them.
///
/// Field semantics, coercion and error reporting are byte-identical
/// to [`import_csv`] — both run on the same record parser — with
/// one accepted divergence: this path surfaces the *first* record's
/// error in stream order, while [`import_csv`] parses everything
/// before coercing (so a late structural error can mask an early
/// coercion error there).
///
/// Constraint checking (`K`, `N`) does not happen here — rows never
/// pass through [`Database::insert`]. Callers run
/// [`crate::spill::validate_spilled`] on the result.
pub fn import_csv_spilled(
    db: &mut Database,
    rel: RelId,
    path: &Path,
    spill_dir: Option<&Path>,
) -> Result<crate::spill::SpilledTable, CsvError> {
    use crate::encode::DictBuilder;
    use crate::pages::PageFileWriter;

    let relation = db.schema.relation(rel).clone();
    {
        let t = db.table(rel);
        if !t.is_empty() || !t.is_materialized() {
            return Err(CsvError::Schema(format!(
                "streaming ingest needs an empty relation, `{}` already has rows",
                relation.name
            )));
        }
    }

    // Warm path: a committed cache entry keyed by schema + content.
    let entry = match spill_dir {
        Some(dir) => {
            let content = crate::spill::hash_file(path)?;
            let key = crate::spill::cache_key(&relation, content);
            Some(crate::spill::entry_dir(dir, &key))
        }
        None => None,
    };
    if let Some(dir) = &entry {
        if let Some(t) = crate::spill::load_entry(dir, relation.arity()) {
            db.set_streamed_extension(rel, t.rows());
            return Ok(t);
        }
    }

    // Cold path. Writers go to the cache entry when there is one
    // (truncating stale files), to owned temp files otherwise.
    let cleanup = |writers: Vec<PageFileWriter>| {
        for w in writers {
            let p = w.path().to_path_buf();
            drop(w);
            let _ = std::fs::remove_file(p);
        }
    };
    if let Some(dir) = &entry {
        std::fs::create_dir_all(dir).map_err(|e| PageError::Io(e.to_string()))?;
        crate::spill::invalidate_entry(dir);
    }
    let mut writers: Vec<PageFileWriter> = Vec::with_capacity(relation.arity());
    for i in 0..relation.arity() {
        let w = match &entry {
            Some(dir) => PageFileWriter::create_at(&crate::spill::pages_path(dir, i)),
            None => PageFileWriter::create_temp(),
        };
        match w {
            Ok(w) => writers.push(w),
            Err(e) => {
                cleanup(writers);
                return Err(e.into());
            }
        }
    }
    let mut builders: Vec<DictBuilder> =
        (0..relation.arity()).map(|_| DictBuilder::new()).collect();

    let mut file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) => {
            cleanup(writers);
            return Err(PageError::Io(e.to_string()).into());
        }
    };
    let rows = match encode_stream(&relation, &mut file, &mut writers, &mut builders) {
        Ok(rows) => rows,
        Err(e) => {
            cleanup(writers);
            return Err(e);
        }
    };

    let mut columns = Vec::with_capacity(relation.arity());
    let mut builders = builders.into_iter();
    let mut writers_iter = writers.into_iter();
    while let (Some(w), Some(b)) = (writers_iter.next(), builders.next()) {
        match w.finish() {
            Ok(file) => {
                let dict = std::sync::Arc::new(b.finish_slim());
                columns.push(std::sync::Arc::new(crate::pages::PagedColumn::new(
                    dict, file,
                )));
            }
            Err(e) => {
                // Unwind: the finished PagedColumns for cache entries
                // are durable files; remove them alongside the
                // unfinished writers.
                for c in &columns {
                    let _ = std::fs::remove_file(c.file().path());
                }
                cleanup(writers_iter.collect());
                return Err(e.into());
            }
        }
    }

    if let Some(dir) = &entry {
        let commit = columns
            .iter()
            .enumerate()
            .try_for_each(|(i, c)| crate::spill::write_dict(dir, i, c.dict()))
            .and_then(|()| crate::spill::write_manifest(dir, rows, relation.arity()));
        // A failed commit leaves no manifest: the entry is invisible
        // to future runs, and this run still has its valid columns.
        let _ = commit;
    }

    db.set_streamed_extension(rel, rows);
    Ok(crate::spill::SpilledTable::new(columns, rows, false))
}

/// The parse/intern/spill loop of [`import_csv_spilled`]: reads the
/// file in 64 KiB chunks, resolves the header from the first record,
/// then encodes each record straight into the per-column dictionary
/// builders and page writers. Returns the data row count.
fn encode_stream(
    relation: &Relation,
    file: &mut std::fs::File,
    writers: &mut [crate::pages::PageFileWriter],
    builders: &mut [crate::encode::DictBuilder],
) -> Result<usize, CsvError> {
    let mut parser = RecordParser::new(true);
    let mut mapping: Option<Vec<AttrId>> = None;
    // Records seen so far, header included — so for record N the
    // 1-based source line of its terminator is N+1 only in the
    // newline-free sense; error lines here are *record* lines, the
    // same convention `import_csv` uses.
    let mut records = 0usize;
    let mut on_record = |record: Vec<Option<String>>| -> Result<(), CsvError> {
        records += 1;
        let Some(map) = &mapping else {
            mapping = Some(header_mapping(relation, &record)?);
            return Ok(());
        };
        if record.len() != map.len() {
            return Err(CsvError::Malformed {
                line: records,
                message: format!(
                    "expected {} fields for relation `{}`, found {}",
                    map.len(),
                    relation.name,
                    record.len()
                ),
            });
        }
        for (field, attr) in record.iter().zip(map) {
            let domain = relation.attribute(*attr).domain;
            let v = match field {
                None => Value::Null,
                Some(text) => Value::parse_into(text, domain).ok_or_else(|| {
                    CsvError::Schema(format!(
                        "`{text}` does not fit {domain} (column `{}`, line {})",
                        relation.attr_name(*attr),
                        records
                    ))
                })?,
            };
            let code = builders[attr.index()].intern(&v);
            writers[attr.index()].push(code)?;
        }
        Ok(())
    };
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = file
            .read(&mut buf)
            .map_err(|e| PageError::Io(e.to_string()))?;
        if n == 0 {
            break;
        }
        parser.feed(&buf[..n], &mut on_record)?;
    }
    parser.finish(&mut on_record)?;
    Ok(records.saturating_sub(1))
}

/// Serializes a table to CSV with a header. NULL becomes an unquoted
/// empty field; text is quoted whenever it needs to be.
pub fn export_csv(db: &Database, rel: RelId) -> String {
    let relation = db.schema.relation(rel);
    let table: &Table = db.table(rel);
    let mut out = String::new();
    let header: Vec<String> = relation
        .attributes()
        .iter()
        .map(|a| quote(&a.name))
        .collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for i in 0..table.len() {
        let fields: Vec<String> = (0..relation.arity())
            .map(|j| {
                let v = table.cell(i, AttrId(j as u16));
                match v {
                    Value::Null => String::new(),
                    Value::Str(s) => quote(s),
                    Value::Int(n) => n.to_string(),
                    Value::Float(x) => format!("{}", x.get()),
                    Value::Bool(b) => b.to_string(),
                    Value::Date(d) => d.to_string(),
                }
            })
            .collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

fn quote(s: &str) -> String {
    if s.is_empty() || s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Relation;
    use crate::value::{Date, Domain};

    fn db() -> (Database, RelId) {
        let mut db = Database::new();
        let rel = db
            .add_relation(Relation::of(
                "T",
                &[
                    ("id", Domain::Int),
                    ("name", Domain::Text),
                    ("when", Domain::Date),
                    ("score", Domain::Float),
                ],
            ))
            .unwrap();
        (db, rel)
    }

    #[test]
    fn roundtrip_with_nulls_and_quotes() {
        let (mut db, rel) = db();
        db.insert(
            rel,
            vec![
                Value::Int(1),
                Value::str("plain"),
                Value::Date(Date::parse("1996-02-29").unwrap()),
                Value::float(1.5),
            ],
        )
        .unwrap();
        db.insert(
            rel,
            vec![
                Value::Int(2),
                Value::str("comma, \"quote\"\nnewline"),
                Value::Null,
                Value::Null,
            ],
        )
        .unwrap();
        let csv = export_csv(&db, rel);
        let (mut db2, rel2) = super::tests::db();
        let n = import_csv(&mut db2, rel2, &csv).unwrap();
        assert_eq!(n, 2);
        assert_eq!(db.table(rel), db2.table(rel2));
    }

    #[test]
    fn header_order_independent() {
        let (mut db, rel) = db();
        let n = import_csv(&mut db, rel, "name,id,score,when\nalice,7,2.5,1990-01-02\n").unwrap();
        assert_eq!(n, 1);
        assert_eq!(db.table(rel).cell(0, AttrId(0)), &Value::Int(7));
        assert_eq!(db.table(rel).cell(0, AttrId(1)), &Value::str("alice"));
    }

    #[test]
    fn unquoted_empty_is_null_quoted_empty_is_empty_string() {
        let (mut db, rel) = db();
        import_csv(&mut db, rel, "id,name,when,score\n1,,,\n2,\"\",,\n").unwrap();
        assert_eq!(db.table(rel).cell(0, AttrId(1)), &Value::Null);
        assert_eq!(db.table(rel).cell(1, AttrId(1)), &Value::str(""));
    }

    #[test]
    fn errors_are_informative() {
        let (mut db, rel) = db();
        assert!(matches!(
            import_csv(&mut db, rel, "id,ghost,when,score\n"),
            Err(CsvError::Schema(_))
        ));
        assert!(matches!(
            import_csv(&mut db, rel, "id,name,when,score\n1,x\n"),
            Err(CsvError::Malformed { .. })
        ));
        assert!(matches!(
            import_csv(&mut db, rel, "id,name,when,score\nnot-an-int,x,,\n"),
            Err(CsvError::Schema(_))
        ));
        assert!(matches!(
            import_csv(&mut db, rel, "id,name\n"),
            Err(CsvError::Schema(_))
        ));
        assert!(matches!(
            parse_records("\"unterminated"),
            Err(CsvError::Malformed { .. })
        ));
    }

    #[test]
    fn crlf_and_trailing_newline_tolerated() {
        let (mut db, rel) = db();
        let n = import_csv(
            &mut db,
            rel,
            "id,name,when,score\r\n1,a,1990-01-01,0.5\r\n2,b,1990-01-02,1.5",
        )
        .unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn leading_bom_is_stripped() {
        let (mut db, rel) = db();
        let n = import_csv(
            &mut db,
            rel,
            "\u{feff}id,name,when,score\n1,a,1990-01-01,0.5\n",
        )
        .unwrap();
        assert_eq!(n, 1);
        assert_eq!(db.table(rel).cell(0, AttrId(0)), &Value::Int(1));
    }

    #[test]
    fn duplicate_header_rejected() {
        let (mut db, rel) = db();
        let err = import_csv(&mut db, rel, "id,id,when,score\n1,2,,\n").unwrap_err();
        let CsvError::Schema(msg) = err else {
            panic!("expected schema error, got {err:?}")
        };
        assert!(msg.contains("duplicate header column `id`"), "{msg}");
        assert!(msg.contains('T'), "{msg}");
        // Nothing was inserted.
        assert_eq!(db.table(rel).len(), 0);
    }

    #[test]
    fn arity_mismatch_names_line_and_relation() {
        let (mut db, rel) = db();
        let err = import_csv(
            &mut db,
            rel,
            "id,name,when,score\n1,a,1990-01-01,0.5\n2,b\n",
        )
        .unwrap_err();
        let CsvError::Malformed { line, message } = err else {
            panic!("expected malformed error, got {err:?}")
        };
        assert_eq!(line, 3);
        assert!(message.contains("relation `T`"), "{message}");
    }

    #[test]
    fn empty_text_imports_nothing() {
        let (mut db, rel) = db();
        assert_eq!(import_csv(&mut db, rel, "").unwrap(), 0);
    }

    /// Feeds `text` through the chunk parser at every chunk size from
    /// 1 byte upward — any state the parser fails to carry across a
    /// boundary shows up as a diff against the one-shot parse.
    #[test]
    fn record_parser_is_chunk_size_invariant() {
        let text = "a,\"b\"\"x\n y\",c\r\n,\"\",naïve→ü\n\nlast,1,2";
        let whole = parse_records(text).unwrap();
        assert_eq!(whole.len(), 3, "blank line must vanish");
        for chunk in 1..=text.len() {
            let mut records = Vec::new();
            let mut emit = |r: Vec<Option<String>>| {
                records.push(r);
                Ok(())
            };
            let mut p = RecordParser::new(false);
            for piece in text.as_bytes().chunks(chunk) {
                p.feed(piece, &mut emit).unwrap();
            }
            p.finish(&mut emit).unwrap();
            assert_eq!(records, whole, "chunk size {chunk}");
        }
    }

    #[test]
    fn record_parser_rejects_invalid_utf8() {
        let mut p = RecordParser::new(false);
        let mut emit = |_| Ok(());
        // 0xff can never start a UTF-8 sequence.
        assert!(matches!(
            p.feed(b"ok,\xff", &mut emit),
            Err(CsvError::Malformed { .. })
        ));
        // A dangling partial sequence at EOF is also malformed.
        let mut p = RecordParser::new(false);
        p.feed("é".as_bytes().split_at(1).0, &mut emit).unwrap();
        assert!(matches!(
            p.finish(&mut emit),
            Err(CsvError::Malformed { .. })
        ));
    }

    fn write_temp_csv(tag: &str, text: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("dbre-csv-{}-{tag}.csv", std::process::id()));
        std::fs::write(&p, text).unwrap();
        p
    }

    #[test]
    fn spilled_ingest_matches_materialized_encode() {
        use crate::encode::ColumnDict;
        use crate::pages::PageFile;

        let text = "\u{feff}id,name,when,score\n\
                    1,alice,1990-01-02,0.5\n\
                    2,\"b,\"\"c\"\"\",,-1.5\n\
                    3,,1996-02-29,\n\
                    1,alice,1990-01-02,0.5\n";
        let path = write_temp_csv("diff", text);

        let (mut mem_db, mem_rel) = db();
        import_csv(&mut mem_db, mem_rel, text).unwrap();

        let (mut db2, rel2) = db();
        let spilled = import_csv_spilled(&mut db2, rel2, &path, None).unwrap();
        assert_eq!(spilled.rows(), 4);
        assert!(!spilled.from_cache());
        assert!(!db2.table(rel2).is_materialized());
        assert_eq!(db2.table(rel2).len(), 4);

        // Per column: identical dictionary and byte-identical pages
        // versus materialize-then-spill.
        for (i, col) in spilled.columns().iter().enumerate() {
            let direct = ColumnDict::build(mem_db.table(mem_rel).column(AttrId(i as u16)));
            assert_eq!(
                col.dict().distinct_values(),
                direct.distinct_values(),
                "col {i}"
            );
            assert_eq!(col.dict().null_count(), direct.null_count(), "col {i}");
            assert_eq!(col.dict().code_counts(), direct.code_counts(), "col {i}");
            let twin = PageFile::spill(direct.codes()).unwrap();
            assert_eq!(
                std::fs::read(col.file().path()).unwrap(),
                std::fs::read(twin.path()).unwrap(),
                "col {i} pages"
            );
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn spilled_ingest_uses_and_fills_the_cache() {
        let text = "id,name,when,score\n7,x,,2.5\n8,y,1990-01-01,\n";
        let path = write_temp_csv("cache", text);
        let cache = std::env::temp_dir().join(format!("dbre-csv-cachedir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache);

        let (mut db1, rel1) = db();
        let cold = import_csv_spilled(&mut db1, rel1, &path, Some(&cache)).unwrap();
        assert!(!cold.from_cache());
        assert_eq!(cold.rows(), 2);

        let (mut db2, rel2) = db();
        let warm = import_csv_spilled(&mut db2, rel2, &path, Some(&cache)).unwrap();
        assert!(warm.from_cache(), "second run must hit the cache");
        assert_eq!(warm.rows(), 2);
        for (c, w) in cold.columns().iter().zip(warm.columns()) {
            assert_eq!(c.dict().distinct_values(), w.dict().distinct_values());
            assert_eq!(c.dict().code_counts(), w.dict().code_counts());
        }

        // Touching the source content moves the key: miss, re-encode.
        std::fs::write(&path, text.replace("7,x", "9,z")).unwrap();
        let (mut db3, rel3) = db();
        let moved = import_csv_spilled(&mut db3, rel3, &path, Some(&cache)).unwrap();
        assert!(!moved.from_cache(), "changed content must miss");

        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_dir_all(cache);
    }

    #[test]
    fn spilled_ingest_fails_like_import() {
        // Streaming surfaces errors in stream order; on these inputs
        // (single defect each) both paths must agree on the error.
        for bad in [
            "id,name,when,score\n1,a\n",            // arity
            "id,name,when,score\nnot-an-int,a,,\n", // coercion
            "id,name,when,score\n1,\"open\n",       // unterminated
            "id,ghost,when,score\n1,a,,\n",         // unknown header
            "id,id,when,score\n1,a,,\n",            // duplicate header
        ] {
            let (mut mdb, mrel) = db();
            let mem = import_csv(&mut mdb, mrel, bad).unwrap_err();
            let path = write_temp_csv("err", bad);
            let (mut sdb, srel) = db();
            let streamed = import_csv_spilled(&mut sdb, srel, &path, None).unwrap_err();
            assert_eq!(
                std::mem::discriminant(&mem),
                std::mem::discriminant(&streamed),
                "{bad:?}: {mem:?} vs {streamed:?}"
            );
            // A failed streamed ingest must leave the table untouched
            // and materialized (usable for a retry).
            assert!(sdb.table(srel).is_materialized());
            assert_eq!(sdb.table(srel).len(), 0);
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn import_with_stats_prewarms_the_dictionary() {
        use crate::stats::StatsEngine;
        let (mut db, rel) = db();
        let engine = StatsEngine::new();
        let n = import_csv_with_stats(
            &mut db,
            rel,
            "id,name,when,score\n1,a,1990-01-01,0.5\n2,b,1990-01-02,1.5\n",
            &engine,
        )
        .unwrap();
        assert_eq!(n, 2);
        let warmed = engine.counters();
        // The dictionary was built during import; the first count is a
        // cache hit on it, not a rebuild.
        engine.count_distinct(&db, rel, &[AttrId(0)]);
        assert!(engine.counters().cache_hits > warmed.cache_hits);
        assert_eq!(engine.count_distinct(&db, rel, &[AttrId(0)]), 2);
    }
}
