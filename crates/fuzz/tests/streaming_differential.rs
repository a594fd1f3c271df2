//! Differential properties of the streaming CSV→spill encoder.
//!
//! The streamed ingest path (`import_csv_spilled`) must be
//! *indistinguishable* from materialize-then-spill:
//!
//! * on well-formed hostile input (NULL-heavy, BOM, quoting-hostile,
//!   mixed line endings) the dictionaries and codes match the
//!   in-memory import's and the spill files are byte-identical to a
//!   page file written from its codes;
//! * on corrupted input both paths agree on accept/reject, and a
//!   rejected streamed ingest leaves the target relation untouched;
//! * a second ingest through the same `--spill-dir` is served from
//!   the committed cache entry with identical bytes, and a content
//!   change invalidates it;
//! * the in-memory ingest's dictionary is invisible: its table reads
//!   back a per-field `Value::parse_into` reference, and equal text
//!   cells of one column share one allocation.

// Test-support helpers outside #[test] fns; panicking on fixture
// failure is test behaviour.
#![allow(clippy::expect_used)]

use dbre_fuzz::{corrupt_csv, streaming_csv};
use dbre_relational::attr::AttrId;
use dbre_relational::csv::{import_csv, import_csv_spilled};
use dbre_relational::database::Database;
use dbre_relational::encode::ColumnDict;
use dbre_relational::pages::PageFileWriter;
use dbre_relational::schema::{RelId, Relation};
use dbre_relational::value::{Domain, Value};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;

fn scratch_db() -> (Database, RelId) {
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
        .expect("fresh schema");
    (db, rel)
}

fn tmp_file(tag: &str, seed: u64, text: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("dbre-fuzz-{tag}-{}-{seed}.csv", std::process::id()));
    std::fs::write(&p, text).expect("differential temp file writes");
    p
}

/// The records of `text` under the CSV dialect, split apart from the
/// ingest's own parser: one leading byte-order mark dropped, `None`
/// for an unquoted-empty field, `""` an escaped quote inside a quoted
/// field, `\r` dropped outside quotes, blank lines skipped. `None` on
/// an unterminated quote or a quote inside an unquoted field.
fn reference_records(text: &str) -> Option<Vec<Vec<Option<String>>>> {
    fn end_field(record: &mut Vec<Option<String>>, field: &mut String, was_quoted: &mut bool) {
        let f = std::mem::take(field);
        record.push((!f.is_empty() || *was_quoted).then_some(f));
        *was_quoted = false;
    }
    fn end_record(records: &mut Vec<Vec<Option<String>>>, record: &mut Vec<Option<String>>) {
        let r = std::mem::take(record);
        if r != [None] {
            records.push(r);
        }
    }
    let text = text.strip_prefix('\u{feff}').unwrap_or(text);
    let (mut records, mut record) = (Vec::new(), Vec::new());
    let mut field = String::new();
    let (mut in_quotes, mut was_quoted) = (false, false);
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' if chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                '"' => in_quotes = false,
                c => field.push(c),
            }
            continue;
        }
        match c {
            '"' if field.is_empty() => (in_quotes, was_quoted) = (true, true),
            '"' => return None,
            ',' => end_field(&mut record, &mut field, &mut was_quoted),
            '\r' => {}
            '\n' => {
                end_field(&mut record, &mut field, &mut was_quoted);
                end_record(&mut records, &mut record);
            }
            c => field.push(c),
        }
    }
    if in_quotes {
        return None;
    }
    if !field.is_empty() || was_quoted || !record.is_empty() {
        end_field(&mut record, &mut field, &mut was_quoted);
        end_record(&mut records, &mut record);
    }
    Some(records)
}

/// The columns `relation` holds after importing `text` into it empty,
/// each field coerced on its own by `Value::parse_into`; `None` when
/// the text should be rejected.
fn reference_import(relation: &Relation, text: &str) -> Option<Vec<Vec<Value>>> {
    let records = reference_records(text)?;
    let mut columns = vec![Vec::new(); relation.arity()];
    let Some((header, rows)) = records.split_first() else {
        return Some(columns);
    };
    let attrs: Vec<AttrId> = header
        .iter()
        .map(|name| relation.attr_id(name.as_deref()?))
        .collect::<Option<_>>()?;
    let named: HashSet<AttrId> = attrs.iter().copied().collect();
    if attrs.len() != relation.arity() || named.len() != attrs.len() {
        return None;
    }
    for row in rows {
        if row.len() != attrs.len() {
            return None;
        }
        for (field, &attr) in row.iter().zip(&attrs) {
            let v = match field {
                None => Value::Null,
                Some(text) => Value::parse_into(text, relation.attribute(attr).domain)?,
            };
            columns[attr.index()].push(v);
        }
    }
    Some(columns)
}

/// `got` holds `want`'s codes under the same dictionary: decode
/// table, per-code counts and NULL count.
fn same_column(got: &ColumnDict, want: &ColumnDict, i: u16) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.codes(), want.codes(), "column {} codes", i);
    prop_assert_eq!(
        got.distinct_values(),
        want.distinct_values(),
        "column {} dict",
        i
    );
    prop_assert_eq!(got.code_counts(), want.code_counts(), "column {} counts", i);
    prop_assert_eq!(got.null_count(), want.null_count(), "column {} nulls", i);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interning text cells at ingest changes nothing a reader of the
    /// table can see but the sharing itself: on hostile well-formed
    /// and on corrupted input, `import_csv` accepts exactly what the
    /// per-field reference and the streamed ingest accept, yields the
    /// reference's cells, and holds the equal text cells of a column
    /// as one allocation.
    #[test]
    fn interning_is_invisible(seed in any::<u64>()) {
        for (tag, text) in [("intern-ok", streaming_csv(seed)), ("intern-bad", corrupt_csv(seed))] {
            let (mut db, rel) = scratch_db();
            let imported = import_csv(&mut db, rel, &text);
            let relation = db.schema.relation(rel);
            let reference = reference_import(relation, &text);
            let path = tmp_file(tag, seed, &text);
            let (mut sdb, srel) = scratch_db();
            let streamed = import_csv_spilled(&mut sdb, srel, &path, None);
            std::fs::remove_file(&path).ok();
            prop_assert_eq!(imported.is_ok(), reference.is_some(), "{:?}: {:?}", text, imported);
            prop_assert_eq!(imported.is_ok(), streamed.is_ok(), "{:?}", text);
            let Some(reference) = reference else { continue };
            let table = db.table(rel);
            for (i, expect) in reference.iter().enumerate() {
                let attr = AttrId(i as u16);
                let cells: Vec<Value> = table.values(attr).cloned().collect();
                prop_assert_eq!(&cells, expect, "column {}", i);
                let mut first: HashMap<&str, &Arc<str>> = HashMap::new();
                for v in table.values(attr) {
                    if let Value::Str(s) = v {
                        let shared = *first.entry(&**s).or_insert(s);
                        prop_assert!(Arc::ptr_eq(s, shared), "column {}: {:?} copied", i, s);
                    }
                }
            }
        }
    }

    /// Streaming ingest produces byte-identical spill files and equal
    /// dictionaries and codes for every generated hostile-but-valid
    /// input.
    #[test]
    fn streaming_ingest_is_byte_identical(seed in any::<u64>()) {
        let text = streaming_csv(seed);
        let path = tmp_file("stream", seed, &text);

        let (mut mat, rel) = scratch_db();
        import_csv(&mut mat, rel, &text).unwrap();

        let (mut sdb, srel) = scratch_db();
        let table = import_csv_spilled(&mut sdb, srel, &path, None).unwrap();
        prop_assert_eq!(table.rows(), mat.table(rel).len());

        for i in 0..4u16 {
            let direct = mat.table(rel).column(AttrId(i));
            same_column(sdb.table(srel).column(AttrId(i)), direct, i)?;
            let mut w = PageFileWriter::create_temp().unwrap();
            w.append(&direct.codes()).unwrap();
            let reference = w.finish().unwrap();
            let expect = std::fs::read(reference.path()).unwrap();
            let got = std::fs::read(table.columns()[i as usize].file().path()).unwrap();
            prop_assert_eq!(got, expect, "column {} spill bytes", i);
        }
        std::fs::remove_file(&path).ok();
    }

    /// Corrupted input: both ingest paths accept or both reject, and
    /// agreement on accept extends to the encoded dictionaries. A
    /// rejected streamed ingest must leave the relation empty.
    #[test]
    fn corrupt_inputs_agree(seed in any::<u64>()) {
        let text = corrupt_csv(seed);
        let path = tmp_file("corrupt", seed, &text);

        let (mut mat, rel) = scratch_db();
        let m = import_csv(&mut mat, rel, &text);
        let (mut sdb, srel) = scratch_db();
        let s = import_csv_spilled(&mut sdb, srel, &path, None);

        match (&m, &s) {
            (Ok(_), Ok(table)) => {
                prop_assert_eq!(table.rows(), mat.table(rel).len());
                for i in 0..4u16 {
                    let direct = mat.table(rel).column(AttrId(i));
                    same_column(sdb.table(srel).column(AttrId(i)), direct, i)?;
                }
            }
            (Err(_), Err(_)) => {
                prop_assert_eq!(sdb.table(srel).len(), 0);
            }
            _ => prop_assert!(
                false,
                "ingest paths disagree for seed {}: materialized ok={}, streamed ok={}",
                seed,
                m.is_ok(),
                s.is_ok()
            ),
        }
        std::fs::remove_file(&path).ok();
    }

    /// Spill-cache round trip: cold ingest commits an entry, a rerun
    /// on unchanged input loads it (`from_cache`, identical bytes),
    /// and changing the source content invalidates it.
    #[test]
    fn warm_cache_round_trip(seed in any::<u64>()) {
        let text = streaming_csv(seed);
        let path = tmp_file("cache", seed, &text);
        let dir = std::env::temp_dir().join(format!(
            "dbre-fuzz-spilldir-{}-{seed}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();

        let (mut db1, r1) = scratch_db();
        let cold = import_csv_spilled(&mut db1, r1, &path, Some(&dir)).unwrap();
        prop_assert!(!cold.from_cache());

        let (mut db2, r2) = scratch_db();
        let warm = import_csv_spilled(&mut db2, r2, &path, Some(&dir)).unwrap();
        prop_assert!(warm.from_cache());
        prop_assert_eq!(warm.rows(), cold.rows());
        for i in 0..4u16 {
            let (c, w) = (db1.table(r1).column(AttrId(i)), db2.table(r2).column(AttrId(i)));
            same_column(w, c, i)?;
        }
        for (c, w) in cold.columns().iter().zip(warm.columns()) {
            prop_assert_eq!(
                std::fs::read(c.file().path()).unwrap(),
                std::fs::read(w.file().path()).unwrap()
            );
        }

        // Content change → different key → a fresh encode.
        std::fs::write(&path, format!("{text}99,zz,,\n")).unwrap();
        let (mut db3, r3) = scratch_db();
        let third = import_csv_spilled(&mut db3, r3, &path, Some(&dir)).unwrap();
        prop_assert!(!third.from_cache());
        prop_assert_eq!(third.rows(), cold.rows() + 1);

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&path).ok();
    }
}
