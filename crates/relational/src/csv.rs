//! CSV import/export for tables — how real reverse-engineering
//! engagements receive legacy extensions (dumps, not live DBMS
//! connections).
//!
//! The dialect is the common denominator: comma separator, `"`
//! quoting with `""` escape, first line is the header. Values are
//! coerced into the declared domain of the target relation, under
//! these NULL rules:
//!
//! * an unquoted empty field is `NULL` in every domain, and so is an
//!   unquoted `null` in any case;
//! * in a text column a quoted field is its text as written: `""` is
//!   the empty string and `"null"` the string `null`;
//! * in the other domains a quoted field reads like an unquoted one,
//!   so `"null"` is `NULL` there and `""` does not parse.
//!
//! [`export_csv`] quotes every text cell that is empty or spells
//! `null`, so a table reads back as it was written.

use crate::attr::AttrId;
use crate::database::Database;
use crate::encode::{ColumnDict, DictBuilder};
use crate::error::RelationalError;
use crate::pages::{PageError, PageFileWriter, PagedColumn, PAGE_CODES};
use crate::schema::{RelId, Relation};
use crate::spill::SpilledTable;
use crate::table::Table;
use crate::value::{Domain, Value};
use std::fmt;
use std::io::{Read, Seek};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

/// How a field was written, which is what the NULL rules read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FieldKind {
    /// Unquoted and empty.
    Null,
    /// Unquoted text.
    Unquoted,
    /// Opened with a quote; its text may be empty.
    Quoted,
}

/// One record as [`RecordParser`] lends it: the texts of its fields
/// back to back in one buffer, and each field's end in it and kind.
#[derive(Debug, Default)]
struct Record {
    text: String,
    fields: Vec<(usize, FieldKind)>,
}

impl Record {
    /// Number of fields.
    fn len(&self) -> usize {
        self.fields.len()
    }

    /// Each field's kind and text, in order.
    fn fields(&self) -> impl Iterator<Item = (FieldKind, &str)> {
        let mut start = 0;
        self.fields.iter().map(move |&(end, kind)| {
            let text = &self.text[start..end];
            start = end;
            (kind, text)
        })
    }
}

/// Chunk-fed CSV record parser — the single home of the dialect's
/// semantics, shared by the in-memory [`import_csv`] path (which feeds
/// it one big chunk) and the streaming [`import_csv_spilled`] path
/// (which feeds it file-sized reads). Byte chunks may split anywhere,
/// including mid-UTF-8-sequence and mid-`""` escape; state carries
/// across `feed` calls.
///
/// Each chunk is validated as UTF-8, then scanned byte by byte for the
/// four structural bytes `,` `"` `\r` `\n`. They are ASCII, and ASCII
/// bytes never occur inside a multi-byte UTF-8 sequence, so the run of
/// ordinary bytes before each one is copied whole and every cut falls
/// on a char boundary. A record is lent to the caller and its buffers
/// are then reused for the next one, so parsing allocates only when a
/// record outgrows the largest before it.
struct RecordParser {
    record: Record,
    /// Where the field in progress starts in `record.text`.
    field_start: usize,
    /// Inside a quoted field.
    quoted: bool,
    /// Just saw a `"` inside a quoted field: the next byte decides
    /// between a `""` escape and the field closing.
    pending_quote: bool,
    /// The field in progress was opened with a quote (quoted-empty is
    /// an empty [`FieldKind::Quoted`] field, not NULL).
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
            record: Record::default(),
            field_start: 0,
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
        let end = self.record.text.len();
        let kind = if self.was_quoted {
            FieldKind::Quoted
        } else if end == self.field_start {
            FieldKind::Null
        } else {
            FieldKind::Unquoted
        };
        self.record.fields.push((end, kind));
        self.field_start = end;
        self.was_quoted = false;
    }

    /// Ends the current record, emitting it unless it is a blank line
    /// (a single NULL field).
    fn end_record(
        &mut self,
        emit: &mut impl FnMut(&Record) -> Result<(), CsvError>,
    ) -> Result<(), CsvError> {
        self.end_field();
        let blank = self.record.fields == [(0, FieldKind::Null)];
        let emitted = if blank { Ok(()) } else { emit(&self.record) };
        self.record.text.clear();
        self.record.fields.clear();
        self.field_start = 0;
        emitted
    }

    fn process_str(
        &mut self,
        mut s: &str,
        emit: &mut impl FnMut(&Record) -> Result<(), CsvError>,
    ) -> Result<(), CsvError> {
        if self.at_start && !s.is_empty() {
            self.at_start = false;
            if self.strip_bom {
                s = s.strip_prefix('\u{feff}').unwrap_or(s);
            }
        }
        let bytes = s.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if self.pending_quote {
                self.pending_quote = false;
                if bytes[i] == b'"' {
                    self.record.text.push('"');
                    i += 1;
                    continue;
                }
                // The quote we saw closed the field; this byte
                // continues in unquoted context.
                self.quoted = false;
            }
            let rest = &bytes[i..];
            let run = if self.quoted {
                rest.iter().position(|&b| b == b'"' || b == b'\n')
            } else {
                rest.iter()
                    .position(|&b| matches!(b, b',' | b'"' | b'\r' | b'\n'))
            };
            let Some(run) = run else {
                self.record.text.push_str(&s[i..]);
                break;
            };
            self.record.text.push_str(&s[i..i + run]);
            i += run + 1;
            match (self.quoted, bytes[i - 1]) {
                (true, b'"') => self.pending_quote = true,
                (true, _) => {
                    self.line += 1;
                    self.record.text.push('\n');
                }
                (false, b'"') => {
                    if self.record.text.len() > self.field_start {
                        return Err(CsvError::Malformed {
                            line: self.line,
                            message: "quote inside unquoted field".into(),
                        });
                    }
                    self.quoted = true;
                    self.was_quoted = true;
                }
                (false, b',') => self.end_field(),
                (false, b'\r') => {}
                (false, _) => {
                    self.end_record(emit)?;
                    self.line += 1;
                }
            }
        }
        Ok(())
    }

    /// Feeds one byte chunk, emitting every record it completes.
    fn feed(
        &mut self,
        mut chunk: &[u8],
        emit: &mut impl FnMut(&Record) -> Result<(), CsvError>,
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
        emit: &mut impl FnMut(&Record) -> Result<(), CsvError>,
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
        if self.record.text.len() > self.field_start
            || self.was_quoted
            || !self.record.fields.is_empty()
        {
            self.end_record(emit)?;
        }
        Ok(())
    }
}

/// Splits CSV text into records of (kind, text) fields.
#[cfg(test)]
fn parse_records(text: &str) -> Result<Vec<Vec<(FieldKind, String)>>, CsvError> {
    let mut records = Vec::new();
    let mut emit = |r: &Record| {
        records.push(owned(r));
        Ok(())
    };
    let mut p = RecordParser::new(false);
    p.feed(text.as_bytes(), &mut emit)?;
    p.finish(&mut emit)?;
    Ok(records)
}

/// An owned copy of a lent record's fields.
#[cfg(test)]
fn owned(record: &Record) -> Vec<(FieldKind, String)> {
    record.fields().map(|(k, t)| (k, t.to_string())).collect()
}

/// Resolves a header record against `relation`: every attribute named
/// exactly once, any order. Returns the CSV-position → attribute map.
fn header_mapping(relation: &Relation, header: &Record) -> Result<Vec<AttrId>, CsvError> {
    let mut mapping: Vec<AttrId> = Vec::with_capacity(header.len());
    for (i, (kind, name)) in header.fields().enumerate() {
        if kind == FieldKind::Null {
            return Err(CsvError::Schema(format!(
                "empty header field at position {}",
                i + 1
            )));
        }
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

/// One coerced cell as [`Ingest`] hands it on: a text cell still
/// borrowed from the record, so each ingest stores its strings its own
/// way, or any other value (NULL included).
enum Cell<'t> {
    Text(&'t str),
    Value(Value),
}

/// Turns the records of one CSV file into cells of `relation`, in
/// stream order: the one coercion path of [`import_csv`] and the
/// streamed [`import_csv_spilled`], so the NULL rules (see the module
/// docs), the domain parse and the error texts exist once.
struct Ingest<'r> {
    relation: &'r Relation,
    /// The CSV-position → attribute map, once the header has resolved.
    mapping: Option<Vec<AttrId>>,
    /// Records seen, header included: the record line of the last one.
    /// Error lines count records, not newlines inside quoted fields.
    records: usize,
}

impl<'r> Ingest<'r> {
    fn new(relation: &'r Relation) -> Self {
        Ingest {
            relation,
            mapping: None,
            records: 0,
        }
    }

    /// Takes the next record. The first resolves the header; each
    /// later one is coerced field by field into the declared domains,
    /// and `put` receives every cell with its attribute. A cell is
    /// NULL or of its attribute's domain, so it passes the domain check
    /// `Database::insert` makes.
    fn record(
        &mut self,
        record: &Record,
        mut put: impl FnMut(AttrId, Cell<'_>) -> Result<(), CsvError>,
    ) -> Result<(), CsvError> {
        self.records += 1;
        let relation = self.relation;
        let Some(mapping) = &self.mapping else {
            self.mapping = Some(header_mapping(relation, record)?);
            return Ok(());
        };
        if record.len() != mapping.len() {
            return Err(CsvError::Malformed {
                line: self.records,
                message: format!(
                    "expected {} fields for relation `{}`, found {}",
                    mapping.len(),
                    relation.name,
                    record.len()
                ),
            });
        }
        for ((kind, text), &attr) in record.fields().zip(mapping) {
            let domain = relation.attribute(attr).domain;
            let cell = match kind {
                FieldKind::Null => Cell::Value(Value::Null),
                FieldKind::Quoted if domain == Domain::Text => Cell::Text(text),
                _ if text.eq_ignore_ascii_case("null") => Cell::Value(Value::Null),
                _ if domain == Domain::Text => Cell::Text(text),
                _ => Cell::Value(Value::parse_into(text, domain).ok_or_else(|| {
                    CsvError::Schema(format!(
                        "`{text}` does not fit {domain} (column `{}`, line {})",
                        relation.attr_name(attr),
                        self.records
                    ))
                })?),
            };
            put(attr, cell)?;
        }
        Ok(())
    }

    /// Data records taken so far.
    fn rows(&self) -> usize {
        self.records.saturating_sub(1)
    }
}

/// Turns one relation's coerced cells into codes, column by column:
/// the interning half of both ingests. A text cell interns by its text
/// and any other cell by its value, as it arrives — except in an
/// integer column, which batches a page of cells and interns the batch
/// in one sweep. Interned row by row, a high-cardinality integer
/// column's encode table is evicted from cache by its neighbours'
/// between two of its cells; the sweep keeps it hot.
///
/// Each column starts with an empty dictionary builder whose tables
/// grow as its values arrive: presized from the row estimate, the
/// tables of low-cardinality columns made loads slower.
struct Encoder {
    builders: Vec<DictBuilder>,
    /// Per column, the integer cells waiting to be interned (`None`
    /// for NULL); `None` for a column of another domain.
    batches: Vec<Option<Vec<Option<i64>>>>,
}

impl Encoder {
    fn new(relation: &Relation) -> Self {
        let attrs = relation.attributes();
        Encoder {
            builders: attrs.iter().map(|_| DictBuilder::new()).collect(),
            batches: attrs
                .iter()
                .map(|a| (a.domain == Domain::Int).then(Vec::new))
                .collect(),
        }
    }

    /// Takes the next cell of column `i`. `emit(i, code)` receives each
    /// column's codes in row order, a batched column's a batch later.
    fn put(
        &mut self,
        i: usize,
        cell: Cell<'_>,
        emit: &mut impl FnMut(usize, u32) -> Result<(), CsvError>,
    ) -> Result<(), CsvError> {
        if let Some(batch) = &mut self.batches[i] {
            // An integer column's cells are integers or NULL.
            batch.push(match cell {
                Cell::Value(Value::Int(n)) => Some(n),
                _ => None,
            });
            if batch.len() == PAGE_CODES {
                self.flush(i, emit)?;
            }
            return Ok(());
        }
        let b = &mut self.builders[i];
        emit(
            i,
            match cell {
                Cell::Text(s) => b.intern_text(s),
                Cell::Value(v) => b.intern(&v),
            },
        )
    }

    /// Interns column `i`'s batch, emitting its codes.
    fn flush(
        &mut self,
        i: usize,
        emit: &mut impl FnMut(usize, u32) -> Result<(), CsvError>,
    ) -> Result<(), CsvError> {
        if let Some(batch) = &mut self.batches[i] {
            let b = &mut self.builders[i];
            for cell in batch.drain(..) {
                emit(
                    i,
                    match cell {
                        Some(n) => b.intern_int(n),
                        None => b.intern(&Value::Null),
                    },
                )?;
            }
        }
        Ok(())
    }

    /// Interns every batch left and hands back the builders.
    fn finish(
        mut self,
        emit: &mut impl FnMut(usize, u32) -> Result<(), CsvError>,
    ) -> Result<Vec<DictBuilder>, CsvError> {
        for i in 0..self.builders.len() {
            self.flush(i, emit)?;
        }
        Ok(self.builders)
    }
}

/// Bytes read from a CSV file at a time.
const CHUNK_BYTES: usize = 64 * 1024;

/// The records of one CSV file through the parser, the coercion and
/// the encoder: the encode loop both ingests share, whoever keeps the
/// codes. `emit(i, code)` receives each column's codes in row order.
struct Records<'r> {
    parser: RecordParser,
    ingest: Ingest<'r>,
    encoder: Encoder,
}

impl<'r> Records<'r> {
    fn new(relation: &'r Relation) -> Self {
        Records {
            // Excel and Windows exports routinely prepend a byte-order
            // mark; without stripping it the first header column would
            // never resolve.
            parser: RecordParser::new(true),
            ingest: Ingest::new(relation),
            encoder: Encoder::new(relation),
        }
    }

    /// Feeds one byte chunk of the file.
    fn feed(
        &mut self,
        chunk: &[u8],
        emit: &mut impl FnMut(usize, u32) -> Result<(), CsvError>,
    ) -> Result<(), CsvError> {
        let Records {
            parser,
            ingest,
            encoder,
        } = self;
        parser.feed(chunk, &mut |record: &Record| {
            ingest.record(record, |attr, cell| encoder.put(attr.index(), cell, emit))
        })
    }

    /// Ends the file: returns its data rows and the columns' builders.
    fn finish(
        self,
        emit: &mut impl FnMut(usize, u32) -> Result<(), CsvError>,
    ) -> Result<(usize, Vec<DictBuilder>), CsvError> {
        let Records {
            parser,
            mut ingest,
            mut encoder,
        } = self;
        parser.finish(&mut |record: &Record| {
            ingest.record(record, |attr, cell| encoder.put(attr.index(), cell, emit))
        })?;
        Ok((ingest.rows(), encoder.finish(emit)?))
    }
}

/// Calls `f` on each chunk of `file` in order; a failed read is
/// `io_err` of its error.
fn read_chunks<E>(
    file: &mut std::fs::File,
    buf: &mut [u8],
    io_err: impl Fn(std::io::Error) -> E,
    mut f: impl FnMut(&[u8]) -> Result<(), E>,
) -> Result<(), E> {
    loop {
        let n = file.read(buf).map_err(&io_err)?;
        if n == 0 {
            return Ok(());
        }
        f(&buf[..n])?;
    }
}

/// Newlines in `bytes`. Every record but the last ends in one, so the
/// count bounds a file's data rows.
fn newlines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// One file's rows, encoded and not yet installed: what the encode
/// half of an ingest hands its install half.
struct Encoded {
    /// Data rows read.
    rows: usize,
    /// One column per attribute.
    columns: Vec<ColumnDict>,
    /// Paged columns adopted from the spill cache.
    from_cache: bool,
}

/// The encode half of the resident ingest: `feed` hands `records`
/// every chunk of one file, with each code kept in its column's
/// vector (see [`keep`]), sized once for `capacity` rows — no growth
/// slack, as the codes are kept.
fn encode_resident<E: From<CsvError>>(
    relation: &Relation,
    capacity: usize,
    feed: impl FnOnce(&mut Records<'_>, &mut [Vec<u32>]) -> Result<(), E>,
) -> Result<Encoded, E> {
    let mut codes: Vec<Vec<u32>> = (0..relation.arity())
        .map(|_| Vec::with_capacity(capacity))
        .collect();
    let mut records = Records::new(relation);
    feed(&mut records, &mut codes)?;
    let (rows, builders) = records.finish(&mut keep(&mut codes))?;
    let columns = builders
        .into_iter()
        .zip(codes)
        .map(|(b, c)| b.finish(c))
        .collect();
    Ok(Encoded {
        rows,
        columns,
        from_cache: false,
    })
}

/// The resident ingest's `emit`: each code onto its column's vector.
fn keep(codes: &mut [Vec<u32>]) -> impl FnMut(usize, u32) -> Result<(), CsvError> + '_ {
    |i, code| {
        codes[i].push(code);
        Ok(())
    }
}

/// The install half of the resident ingest: appends the columns below
/// `rel`'s rows (one generation bump per file with rows) and returns
/// the rows added.
fn install_resident(db: &mut Database, rel: RelId, encoded: Encoded) -> Result<usize, CsvError> {
    if encoded.rows > 0 {
        db.table_mut(rel).append_columns(encoded.columns)?;
    }
    Ok(encoded.rows)
}

/// Loads CSV text into an existing relation. The header must name the
/// relation's attributes (any order); values are coerced per the
/// declared domains; unquoted-empty fields become NULL; a leading
/// UTF-8 byte-order mark is skipped.
///
/// Each record is coerced as the parser emits it and interned into its
/// columns' dictionaries — the same `Ingest` → [`DictBuilder`] path
/// as [`import_csv_spilled`], with the codes kept in memory instead of
/// written to pages. The columns are appended to
/// the table at the end (one generation bump per file), so a file with
/// a malformed record leaves the relation as it was. The first bad
/// record in stream order is the one reported.
pub fn import_csv(db: &mut Database, rel: RelId, text: &str) -> Result<usize, CsvError> {
    let bytes = text.as_bytes();
    let encoded = encode_resident(
        db.schema.relation(rel),
        newlines(bytes),
        |records, codes| records.feed(bytes, &mut keep(codes)),
    )?;
    install_resident(db, rel, encoded)
}

/// What kept one file of [`import_csv_files`] from loading.
#[derive(Debug)]
pub enum FileFailure {
    /// A resident file cannot be read as UTF-8 text: the error
    /// [`std::fs::read_to_string`] gives for it.
    Read(std::io::Error),
    /// Its records do not load, or a streamed file's pages cannot be
    /// written: the error [`import_csv`] or [`import_csv_spilled`]
    /// gives for it.
    Csv(CsvError),
}

impl From<CsvError> for FileFailure {
    fn from(e: CsvError) -> Self {
        FileFailure::Csv(e)
    }
}

/// Why [`import_csv_files`] stopped: the first file, in the order
/// given, that did not load.
#[derive(Debug)]
pub struct FileError {
    /// The file's position in the list.
    pub file: usize,
    /// What went wrong with it.
    pub cause: FileFailure,
}

/// The encode half of the resident ingest of the file at `path`: a
/// newline count sizes the code vectors, then the file streams through
/// the parser a chunk at a time, so its text is never held whole. The
/// errors are those of [`std::fs::read_to_string`] and then
/// [`import_csv`] on its text: a file that does not load is read again
/// whole only to tell which of the two it is.
fn encode_resident_file(relation: &Relation, path: &Path) -> Result<Encoded, FileFailure> {
    let mut file = std::fs::File::open(path).map_err(FileFailure::Read)?;
    let mut buf = vec![0u8; CHUNK_BYTES];
    let mut capacity = 0;
    read_chunks(&mut file, &mut buf, FileFailure::Read, |chunk| {
        capacity += newlines(chunk);
        Ok(())
    })?;
    file.rewind().map_err(FileFailure::Read)?;
    let encoded = encode_resident(relation, capacity, |records, codes| {
        read_chunks(&mut file, &mut buf, FileFailure::Read, |chunk| {
            Ok(records.feed(chunk, &mut keep(codes))?)
        })
    });
    match encoded {
        Err(FileFailure::Csv(e)) => match std::fs::read_to_string(path) {
            Err(read) => Err(FileFailure::Read(read)),
            Ok(_) => Err(FileFailure::Csv(e)),
        },
        other => other,
    }
}

/// Refuses a streamed ingest into a relation that holds `rows` rows.
fn refuse_rows(relation: &Relation, rows: usize) -> Result<(), CsvError> {
    if rows > 0 {
        return Err(CsvError::Schema(format!(
            "streaming ingest needs an empty relation, `{}` already has rows",
            relation.name
        )));
    }
    Ok(())
}

/// Streaming ingest: encodes a CSV file straight into paged spill
/// files — dictionary interning and page writes happen per record, so
/// peak memory is one 64 KiB chunk, the parser state, and the (per
/// column) dictionary + one partial page. No full code vector ever
/// materializes; the relation in `db` gets a table of paged columns,
/// whose dictionaries stay resident and whose codes stay on the pages.
///
/// With a `spill_dir`, the encoded pages and dictionaries persist
/// under a schema+content cache key ([`crate::spill`]); a warm rerun
/// over the same file skips parsing and encoding entirely
/// (`from_cache` on the returned table). Corrupt or stale entries
/// degrade to a re-encode that overwrites them.
///
/// Field semantics, coercion and error reporting are byte-identical
/// to [`import_csv`]: both run on the same record parser, the same
/// coercion and the same interning, and both report the first bad
/// record in stream order.
///
/// Constraint checking (`K`, `N`) does not happen here — rows never
/// pass through [`Database::insert`]. Callers run
/// [`Database::validate_dictionary`] on the result.
pub fn import_csv_spilled(
    db: &mut Database,
    rel: RelId,
    path: &Path,
    spill_dir: Option<&Path>,
) -> Result<SpilledTable, CsvError> {
    let relation = db.schema.relation(rel);
    refuse_rows(relation, db.table(rel).len())?;
    let encoded = encode_spilled(relation, path, spill_dir)?;
    install(db, rel, encoded)
}

/// The encode half of the streamed ingest: hashes the file when there
/// is a cache, adopts a committed entry or else encodes the file to
/// pages and commits the entry, reading only `relation`.
fn encode_spilled(
    relation: &Relation,
    path: &Path,
    spill_dir: Option<&Path>,
) -> Result<Encoded, CsvError> {
    let paged = |columns: Vec<ColumnDict>, from_cache| Encoded {
        rows: column_rows(&columns),
        columns,
        from_cache,
    };
    // Warm path: a committed cache entry keyed by schema + content.
    let entry = match spill_dir {
        Some(dir) => {
            let content = crate::spill::hash_file(path)?;
            let key = crate::spill::cache_key(relation, content);
            Some(crate::spill::entry_dir(dir, &key))
        }
        None => None,
    };
    if let Some(dir) = &entry {
        if let Some(columns) = crate::spill::load_entry(dir, &relation.name, relation.arity()) {
            return Ok(paged(columns, true));
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

    let mut file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) => {
            cleanup(writers);
            return Err(PageError::Io(e.to_string()).into());
        }
    };
    let builders = match encode_stream(relation, &mut file, &mut writers) {
        Ok(builders) => builders,
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
                columns.push(b.finish_paged(Arc::new(PagedColumn::new(file, &relation.name))));
            }
            Err(e) => {
                // Unwind: the finished columns for cache entries are
                // durable files; remove them alongside the unfinished
                // writers.
                for c in &columns {
                    if let Some(pages) = c.pages() {
                        let _ = std::fs::remove_file(pages.file().path());
                    }
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
            .try_for_each(|(i, c)| crate::spill::write_dict(dir, i, c))
            .and_then(|()| {
                crate::spill::write_manifest(dir, column_rows(&columns), relation.arity())
            });
        // A failed commit leaves no manifest: the entry is invisible
        // to future runs, and this run still has its valid columns.
        let _ = commit;
    }
    Ok(paged(columns, false))
}

/// Rows of the paged columns `columns` (0 without columns).
fn column_rows(columns: &[ColumnDict]) -> usize {
    columns.first().map_or(0, |c| c.rows())
}

/// The install half of the streamed ingest: the paged columns become
/// `rel`'s table, and their pages the returned [`SpilledTable`].
fn install(db: &mut Database, rel: RelId, encoded: Encoded) -> Result<SpilledTable, CsvError> {
    let Encoded {
        rows,
        columns,
        from_cache,
    } = encoded;
    let pages = columns.iter().filter_map(|c| c.pages().cloned()).collect();
    db.replace_table(rel, Table::from_columns(columns)?)?;
    Ok(SpilledTable::new(pages, rows, from_cache))
}

/// The parse/intern/spill loop of [`import_csv_spilled`]: reads the
/// file in 64 KiB chunks, resolves the header from the first record,
/// then encodes each record into the per-column dictionary builders
/// and page writers. Returns the builders.
fn encode_stream(
    relation: &Relation,
    file: &mut std::fs::File,
    writers: &mut [PageFileWriter],
) -> Result<Vec<DictBuilder>, CsvError> {
    let mut emit = |i: usize, code: u32| Ok(writers[i].push(code)?);
    let mut records = Records::new(relation);
    let mut buf = vec![0u8; CHUNK_BYTES];
    read_chunks(
        file,
        &mut buf,
        |e| CsvError::from(PageError::Io(e.to_string())),
        |chunk| records.feed(chunk, &mut emit),
    )?;
    Ok(records.finish(&mut emit)?.1)
}

/// Where [`import_csv_files`] keeps the codes.
#[derive(Debug, Clone, Copy)]
pub enum CsvTarget<'a> {
    /// In memory, as [`import_csv`] keeps them.
    Resident,
    /// On spill pages, as [`import_csv_spilled`] writes them: under
    /// the cache directory when there is one, in temporary files
    /// otherwise.
    Streamed(Option<&'a Path>),
}

/// CSV bytes each loading thread must have before another is started:
/// a thread, and the allocator arena it brings, pays off only over
/// enough input. Measured with e2ebench on a 2-vCPU machine
/// (`available_parallelism` 2), seed 42: on two threads the 15.5 MB
/// cold-inmem inputs loaded in a median 0.105 s, against 0.226 s one
/// file at a time (10 pairs); with no floor the 0.73 MB warm-service
/// inputs took a second thread too, and though they loaded in 5.0 ms
/// against 7.6 ms, stored bytes per input byte rose from 2.62 to 3.18
/// (+21%, 3 runs each), most likely the arena's pages left resident.
/// At 4 MiB a thread, the warm-service inputs load on the calling
/// thread alone and the cold ones on two threads.
const WORKER_FLOOR_BYTES: u64 = 4 * 1024 * 1024;

/// Threads [`import_csv_files`] should load `files` on: no more than
/// the machine runs in parallel, than there are relations, or than
/// there are 4 MiB of CSV (below that an extra thread and the
/// allocator arena it brings cost more than they save), and at least
/// one.
pub fn load_workers(files: &[(RelId, PathBuf)]) -> usize {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let bytes: u64 = files.iter().map(|(_, path)| file_bytes(path)).sum();
    let floors = usize::try_from(bytes / WORKER_FLOOR_BYTES).unwrap_or(usize::MAX);
    cpus.min(jobs(files).len()).min(floors).max(1)
}

/// The size of the file at `path`, 0 when it cannot be read.
fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// One relation's files, which one worker loads in order.
struct Job {
    rel: RelId,
    /// Positions of the files in the list, ascending.
    files: Vec<usize>,
    /// Their bytes together.
    bytes: u64,
}

/// `files` grouped by relation, largest first.
fn jobs(files: &[(RelId, PathBuf)]) -> Vec<Job> {
    let mut jobs: Vec<Job> = Vec::new();
    for (i, (rel, path)) in files.iter().enumerate() {
        let bytes = file_bytes(path);
        match jobs.iter_mut().find(|j| j.rel == *rel) {
            Some(job) => {
                job.files.push(i);
                job.bytes += bytes;
            }
            None => jobs.push(Job {
                rel: *rel,
                files: vec![i],
                bytes,
            }),
        }
    }
    jobs.sort_by_key(|j| std::cmp::Reverse(j.bytes));
    jobs
}

/// Loads each `(relation, file)` of `files` as [`import_csv`] or
/// [`import_csv_spilled`] would, one after another in the order given,
/// but on up to `workers` threads, the calling one included; returns
/// the streamed tables in that order (none when resident).
///
/// Each relation is one job, its files encoded in order by one worker
/// that reads only the relation's schema; jobs start largest first.
/// The calling thread then installs the tables in the order given, so
/// generation tags, appended rows and every error read as they would
/// one file at a time: a resident relation named twice takes both
/// files' rows, a streamed one refuses its second file with rows
/// before it, and the error is the first failing file's. Files after
/// it may have been encoded already; their tables are dropped (their
/// temporary page files with them), and a spill-cache entry a good
/// file committed stays valid.
///
/// A resident file streams through the parser a chunk at a time, its
/// code vectors sized once from a newline count; its errors are those
/// of [`std::fs::read_to_string`] and [`import_csv`] one after the
/// other. Constraints are not checked: run
/// [`Database::validate_dictionary`] afterwards.
pub fn import_csv_files(
    db: &mut Database,
    files: &[(RelId, PathBuf)],
    target: CsvTarget<'_>,
    workers: usize,
) -> Result<Vec<(RelId, SpilledTable)>, FileError> {
    let jobs = jobs(files);
    let next = AtomicUsize::new(0);
    let before: &Database = db;
    let work = || {
        let mut done = Vec::new();
        while let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
            let relation = before.schema.relation(job.rel);
            let mut rows = before.table(job.rel).len();
            for &i in &job.files {
                let path = files[i].1.as_path();
                let encoded = match target {
                    CsvTarget::Resident => encode_resident_file(relation, path),
                    CsvTarget::Streamed(dir) => refuse_rows(relation, rows)
                        .and_then(|()| encode_spilled(relation, path, dir))
                        .map_err(FileFailure::Csv),
                };
                let failed = encoded.is_err();
                rows += encoded.as_ref().map_or(0, |e| e.rows);
                done.push((i, encoded));
                if failed {
                    break;
                }
            }
        }
        done
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers.min(jobs.len()))
            .map(|_| scope.spawn(work))
            .collect();
        let mut done = work();
        for helper in helpers {
            match helper.join() {
                Ok(theirs) => done.extend(theirs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    done.sort_by_key(|&(i, _)| i);

    let mut spilled = Vec::new();
    for (i, encoded) in done {
        let rel = files[i].0;
        let fail = |cause| FileError { file: i, cause };
        let encoded = encoded.map_err(fail)?;
        match target {
            CsvTarget::Resident => {
                install_resident(db, rel, encoded).map_err(|e| fail(e.into()))?;
            }
            CsvTarget::Streamed(_) => {
                spilled.push((rel, install(db, rel, encoded).map_err(|e| fail(e.into()))?));
            }
        }
    }
    Ok(spilled)
}

/// Serializes a table to CSV with a header. NULL becomes an unquoted
/// empty field, or the unquoted word `null` when it is the row's only
/// field, where an empty one would leave a blank line that both
/// ingests skip; text is quoted whenever it needs to be, which includes
/// the empty string and any spelling of `null`, so each reads back as
/// the string it is. Cells are read through the decoding accessor
/// ([`Table::rows`]), so a streamed table exports like a resident one.
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
    for row in table.rows() {
        if let [Value::Null] = row[..] {
            out.push_str("null\n");
            continue;
        }
        let fields: Vec<String> = row
            .iter()
            .map(|v| match v {
                Value::Null => String::new(),
                Value::Str(s) => quote(s),
                Value::Int(n) => n.to_string(),
                Value::Float(x) => format!("{}", x.get()),
                Value::Bool(b) => b.to_string(),
                Value::Date(d) => d.to_string(),
            })
            .collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

fn quote(s: &str) -> String {
    if s.is_empty() || s.eq_ignore_ascii_case("null") || s.contains([',', '"', '\n', '\r']) {
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

    /// A record that fails midway (too few fields, or a cell outside
    /// its domain) rejects the whole file: the rows before it are not
    /// kept, and the relation's extension and generation are as before.
    #[test]
    fn a_bad_record_in_the_middle_leaves_the_relation_as_it_was() {
        let (mut db, rel) = db();
        let generation = db.generation(rel);
        for text in [
            "id,name,when,score\n1,a,,\n2,b\n3,c,,\n",
            "id,name,when,score\n1,a,,\n2,b,,not-a-float\n3,c,,\n",
        ] {
            assert!(import_csv(&mut db, rel, text).is_err());
            assert!(db.table(rel).is_empty());
            assert_eq!(db.generation(rel), generation);
        }
        // A good file still appends below rows already present.
        import_csv(&mut db, rel, "id,name,when,score\n1,a,,\n").unwrap();
        import_csv(&mut db, rel, "name,id,score,when\nb,2,,\n").unwrap();
        assert_eq!(db.table(rel).len(), 2);
        assert_eq!(db.table(rel).cell(1, AttrId(1)), &Value::str("b"));
        assert!(matches!(
            import_csv(&mut db, rel, "id,name,when,score\n3,c,,\n4\n"),
            Err(CsvError::Malformed { line: 3, .. })
        ));
        assert_eq!(db.table(rel).len(), 2);
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
            let mut emit = |r: &Record| {
                records.push(owned(r));
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
        let mut emit = |_: &Record| Ok(());
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

    type Fields = Vec<(FieldKind, String)>;

    /// The per-char state machine `RecordParser` replaced, kept as the
    /// reference it is checked against: one `char` at a time into a
    /// field buffer, each field reported with the kind its quoting gave
    /// it. Chunking, the UTF-8 stash and the BOM work as in the parser.
    struct CharParser {
        field: String,
        record: Fields,
        quoted: bool,
        pending_quote: bool,
        was_quoted: bool,
        line: usize,
        strip_bom: bool,
        at_start: bool,
        stash: Vec<u8>,
    }

    impl CharParser {
        fn new(strip_bom: bool) -> Self {
            CharParser {
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
            let kind = match (self.was_quoted, self.field.is_empty()) {
                (true, _) => FieldKind::Quoted,
                (false, true) => FieldKind::Null,
                (false, false) => FieldKind::Unquoted,
            };
            self.record.push((kind, std::mem::take(&mut self.field)));
            self.was_quoted = false;
        }

        fn end_record(&mut self, out: &mut Vec<Fields>) {
            self.end_field();
            let record = std::mem::take(&mut self.record);
            if record != [(FieldKind::Null, String::new())] {
                out.push(record);
            }
        }

        fn process_char(&mut self, c: char, out: &mut Vec<Fields>) -> Result<(), CsvError> {
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
                    self.end_record(out);
                    self.line += 1;
                }
                other => self.field.push(other),
            }
            Ok(())
        }

        fn process_str(&mut self, s: &str, out: &mut Vec<Fields>) -> Result<(), CsvError> {
            s.chars().try_for_each(|c| self.process_char(c, out))
        }

        fn feed(&mut self, mut chunk: &[u8], out: &mut Vec<Fields>) -> Result<(), CsvError> {
            while !self.stash.is_empty() && !chunk.is_empty() {
                self.stash.push(chunk[0]);
                chunk = &chunk[1..];
                match std::str::from_utf8(&self.stash) {
                    Ok(s) => {
                        let owned = s.to_string();
                        self.stash.clear();
                        self.process_str(&owned, out)?;
                        break;
                    }
                    Err(e) if e.error_len().is_some() || self.stash.len() >= 4 => {
                        return Err(self.invalid_utf8());
                    }
                    Err(_) => {}
                }
            }
            match std::str::from_utf8(chunk) {
                Ok(s) => self.process_str(s, out),
                Err(e) => {
                    let (valid, rest) = chunk.split_at(e.valid_up_to());
                    self.process_str(std::str::from_utf8(valid).unwrap(), out)?;
                    if e.error_len().is_some() {
                        return Err(self.invalid_utf8());
                    }
                    self.stash.extend_from_slice(rest);
                    Ok(())
                }
            }
        }

        fn finish(mut self, out: &mut Vec<Fields>) -> Result<(), CsvError> {
            if !self.stash.is_empty() {
                return Err(self.invalid_utf8());
            }
            if self.pending_quote {
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
                self.end_record(out);
            }
            Ok(())
        }
    }

    /// The pieces the differential property builds its input from:
    /// every structural byte, a one- and a two-byte char, a BOM, a
    /// byte no UTF-8 text holds, and the NULL word.
    const PIECES: [&[u8]; 9] = [
        b"a",
        "é".as_bytes(),
        b",",
        b"\"",
        b"\r",
        b"\n",
        "\u{feff}".as_bytes(),
        b"\xff",
        b"null",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// The byte-scanning parser and the per-char reference emit the
        /// same records (each field's text and kind) and end the same
        /// way, or with the same error (variant, line and message),
        /// whatever the chunk splits and with or without BOM stripping;
        /// the parser does the same fed the input whole.
        #[test]
        fn record_parser_matches_the_per_char_reference(
            pieces in proptest::prelude::prop::collection::vec(0usize..PIECES.len(), 0..48),
            cuts in proptest::prelude::prop::collection::vec(1usize..9, 1..12),
        ) {
            let bytes: Vec<u8> = pieces.iter().flat_map(|&i| PIECES[i].iter().copied()).collect();
            let mut chunks = Vec::new();
            let mut rest = bytes.as_slice();
            for &cut in cuts.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (head, tail) = rest.split_at(cut.min(rest.len()));
                chunks.push(head);
                rest = tail;
            }

            for strip_bom in [false, true] {
                let mut reference = CharParser::new(strip_bom);
                let mut expect = Vec::new();
                let done = chunks
                    .iter()
                    .try_for_each(|c| reference.feed(c, &mut expect))
                    .and_then(|()| reference.finish(&mut expect));
                let expect = (expect, done);

                // In the same chunks, and in one chunk as `import_csv`
                // feeds it.
                for pieces in [chunks.clone(), vec![bytes.as_slice()]] {
                    let mut parser = RecordParser::new(strip_bom);
                    let mut got = Vec::new();
                    let mut emit = |r: &Record| {
                        got.push(owned(r));
                        Ok(())
                    };
                    let done = pieces
                        .iter()
                        .try_for_each(|c| parser.feed(c, &mut emit))
                        .and_then(|()| parser.finish(&mut emit));
                    proptest::prop_assert_eq!(
                        &(got, done),
                        &expect,
                        "input {:?}, chunks {:?}, strip_bom {}",
                        bytes,
                        pieces,
                        strip_bom
                    );
                }
            }
        }
    }

    fn write_temp_csv(tag: &str, text: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("dbre-csv-{}-{tag}.csv", std::process::id()));
        std::fs::write(&p, text).unwrap();
        p
    }

    /// Each column of the streamed `streamed` holds the codes and the
    /// dictionary of `table`'s column, its codes on pages that are the
    /// bytes a writer makes of the resident codes, and those pages are
    /// `spilled`'s.
    fn assert_spilled_encodes(streamed: &Table, spilled: &SpilledTable, table: &Table) {
        assert_eq!(spilled.rows(), table.len());
        assert_eq!(streamed.len(), table.len());
        for (i, pages) in spilled.columns().iter().enumerate() {
            let (col, direct) = (
                streamed.column(AttrId(i as u16)),
                table.column(AttrId(i as u16)),
            );
            assert!(Arc::ptr_eq(col.pages().unwrap(), pages), "col {i}");
            assert!(direct.pages().is_none(), "col {i}");
            assert_eq!(col.codes(), direct.codes(), "col {i}");
            assert_eq!(col.distinct_values(), direct.distinct_values(), "col {i}");
            assert_eq!(col.code_counts(), direct.code_counts(), "col {i}");
            assert_eq!(col.null_count(), direct.null_count(), "col {i}");
            let mut w = PageFileWriter::create_temp().unwrap();
            w.append(&direct.codes()).unwrap();
            let twin = w.finish().unwrap();
            assert_eq!(
                std::fs::read(pages.file().path()).unwrap(),
                std::fs::read(twin.path()).unwrap(),
                "col {i} pages"
            );
        }
    }

    /// A relation of text columns beside two integer ones, for the
    /// text paths of both ingests.
    fn text_db() -> (Database, RelId) {
        let mut db = Database::new();
        let rel = db
            .add_relation(Relation::of(
                "W",
                &[
                    ("id", Domain::Int),
                    ("rep", Domain::Text),
                    ("uniq", Domain::Text),
                    ("word", Domain::Text),
                    ("n", Domain::Int),
                ],
            ))
            .unwrap();
        (db, rel)
    }

    #[test]
    fn spilled_ingest_matches_materialized_encode() {
        let text = "\u{feff}id,name,when,score\n\
                    1,alice,1990-01-02,0.5\n\
                    2,\"b,\"\"c\"\"\",,-1.5\n\
                    3,,1996-02-29,\n\
                    1,alice,1990-01-02,0.5\n";
        // Repeated, all-distinct, NULL-word, quoted-empty and
        // quoted-`null` text cells; `null` quoted or not in an integer
        // column.
        let words = "id,rep,uniq,word,n\n\
                     1,x,u1,null,null\n\
                     2,y,u2,NULL,\"null\"\n\
                     3,x,u3,\"null\",\n\
                     4,x,u4,\"\",7\n\
                     5,\"y\",u5,,\"7\"\n\
                     6,x,u6,Null,8\n\
                     7,y,u7,\"NULL\",8\n";
        for (make, text) in [(db as fn() -> (Database, RelId), text), (text_db, words)] {
            let path = write_temp_csv("diff", text);
            let (mut mem_db, mem_rel) = make();
            import_csv(&mut mem_db, mem_rel, text).unwrap();

            let (mut db2, rel2) = make();
            let spilled = import_csv_spilled(&mut db2, rel2, &path, None).unwrap();
            assert!(!spilled.from_cache());
            assert_spilled_encodes(db2.table(rel2), &spilled, mem_db.table(mem_rel));
            let _ = std::fs::remove_file(path);
        }

        let (mut mem_db, rel) = text_db();
        import_csv(&mut mem_db, rel, words).unwrap();
        let t = mem_db.table(rel);
        let column = |i: u16| t.values(AttrId(i)).cloned().collect::<Vec<_>>();
        let s = |text: &str| Value::str(text);
        assert_eq!(
            column(1),
            [s("x"), s("y"), s("x"), s("x"), s("y"), s("x"), s("y")]
        );
        assert_eq!(
            column(3),
            [
                Value::Null,
                Value::Null,
                s("null"),
                s(""),
                Value::Null,
                Value::Null,
                s("NULL")
            ]
        );
        let n = [
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Int(7),
            Value::Int(7),
        ];
        assert_eq!(column(4)[..5], n);
    }

    /// A text cell that is empty or spells `null` in any case reads
    /// back as that string through both ingests.
    #[test]
    fn null_spelled_text_survives_export_and_reimport() {
        let (mut db, rel) = db();
        let names = [
            Some("null"),
            Some("NULL"),
            Some(""),
            None,
            Some("Null"),
            Some("nullx"),
        ];
        for (i, name) in names.into_iter().enumerate() {
            let name = name.map_or(Value::Null, Value::str);
            db.insert(
                rel,
                vec![Value::Int(i as i64), name, Value::Null, Value::Null],
            )
            .unwrap();
        }
        let csv = export_csv(&db, rel);

        let (mut back, back_rel) = super::tests::db();
        import_csv(&mut back, back_rel, &csv).unwrap();
        assert_eq!(back.table(back_rel), db.table(rel));

        let path = write_temp_csv("null-roundtrip", &csv);
        let (mut streamed, streamed_rel) = super::tests::db();
        let spilled = import_csv_spilled(&mut streamed, streamed_rel, &path, None).unwrap();
        assert_spilled_encodes(streamed.table(streamed_rel), &spilled, db.table(rel));
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
        assert_eq!(db2.table(rel2), db1.table(rel1));
        for (c, w) in cold.columns().iter().zip(warm.columns()) {
            assert_eq!(
                std::fs::read(c.file().path()).unwrap(),
                std::fs::read(w.file().path()).unwrap()
            );
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
            // (usable for a retry).
            assert_eq!(sdb.table(srel), mdb.table(mrel));
            assert_eq!(sdb.table(srel).len(), 0);
            let _ = std::fs::remove_file(path);
        }
    }
}
