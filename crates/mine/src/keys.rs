//! Key (unique column combination) discovery from the extension.
//!
//! The paper assumes `K` can be read from the data dictionary ("the
//! expert user is not required to provide this information"). Truly
//! ancient DBMSs predate even `UNIQUE` declarations; this module
//! recovers candidate keys from the data so the pipeline can run on
//! such systems: levelwise search over column combinations, where `X`
//! is unique iff its stripped partition has no class, with supersets
//! of found keys pruned (minimality) and NULL-free-ness required
//! (SQL keys are not null).
//!
//! A discovered key is only a *candidate* — uniqueness in a snapshot
//! is necessary, not sufficient — which is exactly the kind of
//! presumption the paper routes through the expert user.
//!
//! Served through the counting seam ([`discover_keys_with_engine`]),
//! two exact-count shortcuts ([`ColumnSketch`]) spare partition work
//! without changing the keys found: a NULL-free column with as many
//! distinct values as rows is a key without a partition, and at the
//! last level a column set whose product of unary distinct counts is
//! below the row count cannot be unique (pigeonhole).

use crate::partitions::StrippedPartition;
use dbre_relational::attr::{AttrId, AttrSet};
use dbre_relational::backend::{column_cells, CountBackend};
use dbre_relational::database::Database;
use dbre_relational::encode::DictTable;
use dbre_relational::par::par_map;
use dbre_relational::schema::RelId;
use dbre_relational::sketch::{ColumnSketch, SketchPruneStats};
use dbre_relational::stats::StatsEngine;
use dbre_relational::table::Table;
use std::sync::Arc;

/// Work counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KeyStats {
    /// Uniqueness tests performed. A verdict settled from exact counts
    /// still counts — the metric is "column sets examined", not
    /// "partitions materialized".
    pub tests: usize,
    /// What the exact-count shortcuts settled (all zero when the
    /// backend serves no counts).
    pub sketch: SketchPruneStats,
}

/// A level-1 seed for the levelwise search: either a partition to
/// expand, or a verdict settled from exact counts that needs none.
enum UnarySeed {
    /// Proven a key by exact counts (NULL-free, every row distinct) —
    /// nothing expands from a key, so no partition is ever built for
    /// it.
    Key,
    /// The unary partition (shared with the engine's cache), with the
    /// exact distinct count when the backend served one (feeds the
    /// last-level cardinality bound).
    Partition {
        partition: Arc<StrippedPartition>,
        cardinality: Option<usize>,
    },
}

/// Result of key discovery on one relation.
#[derive(Debug, Clone)]
pub struct KeyResult {
    /// Minimal unique column sets, sorted.
    pub keys: Vec<AttrSet>,
    /// Work counters.
    pub stats: KeyStats,
}

/// Discovers all minimal unique column combinations of a table, up to
/// `max_width` columns (`None` = full lattice). Columns containing
/// NULL are excluded from key membership.
pub fn discover_keys(table: &Table, max_width: Option<usize>) -> KeyResult {
    // One encode pass; the dictionary is shared read-only across the
    // parallel unary-partition workers, which then only bucket codes.
    let dict = DictTable::build(table);
    let eligible = eligible_columns_raw(table);
    let attrs: Vec<AttrId> = eligible.iter().map(|&i| AttrId(i)).collect();
    let seeds = eligible
        .iter()
        .copied()
        .zip(
            par_map(&attrs, |&a| dict.partition1(a))
                .into_iter()
                .map(|p| UnarySeed::Partition {
                    partition: Arc::new(p),
                    cardinality: None,
                }),
        )
        .collect();
    discover_keys_seeded(
        table.arity(),
        table.len(),
        seeds,
        max_width,
        SketchPruneStats::default(),
    )
}

/// [`discover_keys`] with the unary seed partitions served through
/// the counting seam (pass a
/// [`StatsEngine`] and they are additionally cached), built
/// concurrently under `--features parallel`. NULL-freeness is read
/// through [`column_cells`], so a streamed extension answers from its
/// backend-served dictionaries.
///
/// When the backend serves a column's exact counts
/// ([`CountBackend::column_sketch`]), two shortcuts fire (the
/// discovered keys are identical either way):
///
/// * a level-1 column the counts prove a key (NULL-free, every row
///   distinct) is accepted without ever building its partition;
/// * at the last expanded level, a candidate whose product of exact
///   unary cardinalities is below the row count cannot be unique
///   (pigeonhole), so its partition product is skipped.
pub fn discover_keys_with_engine(
    db: &Database,
    rel: RelId,
    max_width: Option<usize>,
    backend: &dyn CountBackend,
) -> KeyResult {
    let table = db.table(rel);
    let eligible: Vec<u16> = (0..table.arity() as u16)
        .filter(|&i| !column_cells(backend, db, rel, AttrId(i)).has_null())
        .collect();
    let sketches: Vec<Option<Arc<ColumnSketch>>> = eligible
        .iter()
        .map(|&i| backend.column_sketch(db, rel, AttrId(i)))
        .collect();
    // Partitions only for the columns the counts couldn't settle.
    let need: Vec<AttrId> = eligible
        .iter()
        .zip(&sketches)
        .filter(|(_, s)| !s.as_deref().is_some_and(ColumnSketch::is_exact_key))
        .map(|(&i, _)| AttrId(i))
        .collect();
    let mut parts = par_map(&need, |&a| backend.partition1(db, rel, a)).into_iter();
    let mut sk = SketchPruneStats::default();
    let seeds: Vec<(u16, UnarySeed)> = eligible
        .iter()
        .zip(&sketches)
        .map(|(&i, sketch)| {
            let seed = match sketch {
                Some(s) if s.is_exact_key() => {
                    sk.pruned += 1;
                    UnarySeed::Key
                }
                _ => UnarySeed::Partition {
                    partition: parts.next().expect("one partition per unsettled column"),
                    cardinality: sketch.as_ref().map(|s| s.distinct_exact()),
                },
            };
            if sketch.is_some() {
                sk.candidates += 1;
                if !matches!(seed, UnarySeed::Key) {
                    sk.verified += 1;
                }
            }
            (i, seed)
        })
        .collect();
    discover_keys_seeded(table.arity(), table.len(), seeds, max_width, sk)
}

/// Columns containing NULL cannot participate in a key — the
/// raw-column scan of a `Table` (see [`discover_keys`]).
fn eligible_columns_raw(table: &Table) -> Vec<u16> {
    (0..table.arity() as u16)
        .filter(|&i| {
            !table
                .column(AttrId(i))
                .iter()
                .any(dbre_relational::Value::is_null)
        })
        .collect()
}

/// The shared levelwise search over prebuilt level-1 `seeds`
/// (column index, seed), in column order.
fn discover_keys_seeded(
    arity: usize,
    rows: usize,
    seeds: Vec<(u16, UnarySeed)>,
    max_width: Option<usize>,
    sketch: SketchPruneStats,
) -> KeyResult {
    let n = arity;
    assert!(n <= 32, "key discovery supports at most 32 attributes");
    let eligible = seeds.len();
    let mut stats = KeyStats {
        sketch,
        ..KeyStats::default()
    };

    let mut keys: Vec<AttrSet> = Vec::new();
    // Exact unary distinct counts where known, for the last-level
    // cardinality bound.
    let mut cards: Vec<Option<usize>> = vec![None; 32];
    // Level 1 seeds: partitions (or settled verdicts) per column.
    let mut level: Vec<(u32, Arc<StrippedPartition>)> = Vec::new();
    for (i, seed) in seeds {
        stats.tests += 1;
        match seed {
            UnarySeed::Key => keys.push(AttrSet::from_indices([i])),
            UnarySeed::Partition {
                partition: p,
                cardinality,
            } => {
                cards[i as usize] = cardinality;
                if p.is_key() {
                    keys.push(AttrSet::from_indices([i]));
                } else {
                    level.push((1 << i, p));
                }
            }
        }
    }

    let max_width = max_width.unwrap_or(eligible.max(1));
    let mut width = 1;
    while width < max_width && !level.is_empty() {
        // Partitions produced in the last expanded round never expand
        // further, so a candidate the cardinality bound refutes there
        // needs no partition product at all.
        let last_level = width + 1 == max_width;
        let mut next: Vec<(u32, Arc<StrippedPartition>)> = Vec::new();
        for i in 0..level.len() {
            for j in i + 1..level.len() {
                let (mx, px) = &level[i];
                let (my, py) = &level[j];
                let merged = mx | my;
                if merged.count_ones() != width as u32 + 1 {
                    continue;
                }
                if next.iter().any(|(m, _)| *m == merged) {
                    continue;
                }
                // Prune supersets of found keys.
                if keys.iter().any(|k| mask_of(k) & merged == mask_of(k)) {
                    continue;
                }
                if last_level {
                    if let Some(bound) = product_card_bound(&cards, merged) {
                        stats.sketch.candidates += 1;
                        if bound < rows {
                            // Pigeonhole: at most `bound` distinct
                            // projections over fewer than `rows` rows
                            // — the exact test would report non-key.
                            stats.tests += 1;
                            stats.sketch.pruned += 1;
                            continue;
                        }
                        stats.sketch.verified += 1;
                    }
                }
                let p = px.product(py);
                stats.tests += 1;
                if p.is_key() {
                    keys.push(set_of(merged));
                } else {
                    next.push((merged, Arc::new(p)));
                }
            }
        }
        level = next;
        width += 1;
    }

    // Empty table / single row: the empty set is technically unique,
    // but a key of nothing helps nobody — report the narrowest
    // eligible column if any, else nothing.
    keys.sort();
    KeyResult { keys, stats }
}

/// Upper bound on the distinct projections of the column set `mask`:
/// the product of exact unary distinct counts. `None` when any count
/// is unknown (the backend served none for that column).
fn product_card_bound(cards: &[Option<usize>], mask: u32) -> Option<usize> {
    let mut bound = 1usize;
    for i in 0..32u16 {
        if mask & (1 << i) != 0 {
            bound = bound.saturating_mul(cards[i as usize]?);
        }
    }
    Some(bound)
}

fn mask_of(set: &AttrSet) -> u32 {
    set.iter().fold(0u32, |m, a| m | (1 << a.0))
}

fn set_of(mask: u32) -> AttrSet {
    AttrSet::from_indices((0..32u16).filter(|i| mask & (1 << i) != 0))
}

/// Infers keys for every relation of a database that has none declared
/// and registers the narrowest discovered key as its primary key.
/// Returns the relations that received an inferred key.
///
/// Equivalent to [`infer_missing_keys_with_engine`] with a throwaway
/// [`StatsEngine`].
pub fn infer_missing_keys(db: &mut Database, max_width: Option<usize>) -> Vec<(RelId, AttrSet)> {
    infer_missing_keys_with_engine(db, max_width, &StatsEngine::new()).0
}

/// [`infer_missing_keys`] with unary partitions served through the
/// counting seam — memoized when `backend` is a [`StatsEngine`] (key
/// registration touches only the dictionary, never the tables, so
/// previously cached entries stay valid) — also returning what the
/// exact-count shortcuts settled.
pub fn infer_missing_keys_with_engine(
    db: &mut Database,
    max_width: Option<usize>,
    backend: &dyn CountBackend,
) -> (Vec<(RelId, AttrSet)>, SketchPruneStats) {
    let mut inferred = Vec::new();
    let mut sketch = SketchPruneStats::default();
    let rels: Vec<RelId> = db.schema.iter().map(|(r, _)| r).collect();
    for rel in rels {
        if db.constraints.primary_key(rel).is_some() {
            continue;
        }
        let result = discover_keys_with_engine(db, rel, max_width, backend);
        sketch.merge(&result.stats.sketch);
        if let Some(best) = result.keys.iter().min_by_key(|k| (k.len(), mask_of(k))) {
            db.constraints.add_key(rel, best.clone());
            inferred.push((rel, best.clone()));
        }
    }
    db.constraints.normalize();
    (inferred, sketch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbre_relational::schema::Relation;
    use dbre_relational::value::{Domain, Value};

    fn table(rows: &[&[i64]]) -> Table {
        let arity = rows.first().map_or(0, |r| r.len());
        Table::from_rows(
            arity,
            rows.iter()
                .map(|r| r.iter().map(|v| Value::Int(*v)).collect::<Vec<_>>()),
        )
        .unwrap()
    }

    #[test]
    fn single_column_key() {
        let t = table(&[&[1, 5], &[2, 5], &[3, 6]]);
        let r = discover_keys(&t, None);
        assert_eq!(r.keys, vec![AttrSet::from_indices([0u16])]);
    }

    #[test]
    fn composite_key_when_no_single_works() {
        // (a, b) unique; neither column alone.
        let t = table(&[&[1, 1], &[1, 2], &[2, 1]]);
        let r = discover_keys(&t, None);
        assert_eq!(r.keys, vec![AttrSet::from_indices([0u16, 1])]);
    }

    #[test]
    fn multiple_minimal_keys() {
        // a unique AND b unique.
        let t = table(&[&[1, 10], &[2, 20], &[3, 30]]);
        let r = discover_keys(&t, None);
        assert_eq!(
            r.keys,
            vec![AttrSet::from_indices([0u16]), AttrSet::from_indices([1u16])]
        );
    }

    #[test]
    fn supersets_of_keys_pruned() {
        let t = table(&[&[1, 1, 1], &[2, 1, 1], &[3, 2, 2]]);
        let r = discover_keys(&t, None);
        // {0} is a key; {0,1}, {0,2}, {0,1,2} must not be reported.
        assert!(r.keys.contains(&AttrSet::from_indices([0u16])));
        for k in &r.keys {
            assert!(!AttrSet::from_indices([0u16]).is_strict_subset(k));
        }
        // Pruning really cut the test count: full lattice for 3 cols
        // is 7 sets; we must have tested fewer.
        assert!(r.stats.tests < 7);
    }

    #[test]
    fn null_columns_excluded() {
        let t = Table::from_rows(
            2,
            vec![
                vec![Value::Int(1), Value::Null],
                vec![Value::Int(2), Value::Int(5)],
            ],
        )
        .unwrap();
        let r = discover_keys(&t, None);
        assert_eq!(r.keys, vec![AttrSet::from_indices([0u16])]);
    }

    #[test]
    fn duplicate_rows_mean_no_key() {
        let t = table(&[&[1, 1], &[1, 1]]);
        let r = discover_keys(&t, None);
        assert!(r.keys.is_empty());
    }

    #[test]
    fn width_bound_respected() {
        let t = table(&[&[1, 1, 7], &[1, 2, 8], &[2, 1, 9], &[2, 2, 7]]);
        let r = discover_keys(&t, Some(1));
        assert!(r.keys.is_empty(), "the only key {{a,b}} is width 2");
        let r = discover_keys(&t, Some(2));
        assert!(r.keys.contains(&AttrSet::from_indices([0u16, 1])));
    }

    #[test]
    fn streamed_extension_excludes_null_columns_from_keys() {
        use dbre_relational::encode::ColumnDict;
        use dbre_relational::pages::{PageFile, PagedBackend, PagedColumn};
        use dbre_relational::spill::SpilledTable;
        use std::sync::Arc;

        // Build the rows in a scratch db only to encode them, then
        // serve them to a second db purely as a streamed extension.
        let mut scratch = Database::new();
        let r0 = scratch
            .add_relation(Relation::of("R", &[("a", Domain::Int), ("b", Domain::Int)]))
            .unwrap();
        let rows: &[(Option<i64>, i64)] = &[(Some(1), 10), (None, 20), (Some(2), 30)];
        for (a, b) in rows {
            let av = a.map(Value::Int).unwrap_or(Value::Null);
            scratch.insert(r0, vec![av, Value::Int(*b)]).unwrap();
        }
        let cols: Vec<Arc<PagedColumn>> = (0..2)
            .map(|i| {
                let dict = ColumnDict::build(scratch.table(r0).column(AttrId(i)));
                let file = PageFile::spill(dict.codes()).unwrap();
                Arc::new(PagedColumn::new(Arc::new(dict.slim()), file))
            })
            .collect();

        let mut db = Database::new();
        let r = db
            .add_relation(Relation::of("R", &[("a", Domain::Int), ("b", Domain::Int)]))
            .unwrap();
        db.set_streamed_extension(r, rows.len());
        let backend = PagedBackend::new();
        backend.adopt_spilled(&db, r, &SpilledTable::new(cols, rows.len(), false));

        // `a` contains NULL: only `b` may seed a key, and it is one.
        let result = discover_keys_with_engine(&db, r, None, &backend);
        assert_eq!(result.keys, vec![AttrSet::from_indices([1u16])]);

        // Same rows materialized agree.
        let reference = discover_keys(scratch.table(r0), None);
        assert_eq!(result.keys, reference.keys);
    }

    #[test]
    fn infer_missing_keys_fills_undeclared_relations() {
        let mut db = Database::new();
        let declared = db
            .add_relation(Relation::of("Declared", &[("id", Domain::Int)]))
            .unwrap();
        db.constraints
            .add_key(declared, AttrSet::from_indices([0u16]));
        let bare = db
            .add_relation(Relation::of(
                "Bare",
                &[("x", Domain::Int), ("y", Domain::Int)],
            ))
            .unwrap();
        db.constraints.normalize();
        for (x, y) in [(1, 1), (1, 2), (2, 1)] {
            db.insert(bare, vec![Value::Int(x), Value::Int(y)]).unwrap();
        }
        let inferred = infer_missing_keys(&mut db, None);
        assert_eq!(inferred.len(), 1);
        assert_eq!(inferred[0].0, bare);
        assert!(db
            .constraints
            .is_key(bare, &AttrSet::from_indices([0u16, 1])));
        // Declared relation untouched.
        assert_eq!(db.constraints.keys_of(declared).count(), 1);
        // The inferred key is consistent with the dictionary check.
        db.validate_dictionary().unwrap();
    }
}
