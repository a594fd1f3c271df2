//! Key (unique column combination) discovery from the extension.
//!
//! The paper assumes `K` can be read from the data dictionary ("the
//! expert user is not required to provide this information"). Truly
//! ancient DBMSs predate even `UNIQUE` declarations; this module
//! recovers candidate keys from the data so the pipeline can run on
//! such systems: levelwise search over column combinations, where `X`
//! is unique iff its stripped partition has no class, with
//! NULL-free-ness required (SQL keys are not null). The search stops
//! after the narrowest width that holds a key: the pipeline registers
//! one narrowest key per relation, and every minimal key of that width
//! is still found, since all its subsets are non-keys and expanded.
//! The last expanded width only asks whether a candidate is a key, so
//! it tests [`StrippedPartition::product_is_key`] without building the
//! product.
//!
//! A discovered key is only a *candidate* — uniqueness in a snapshot
//! is necessary, not sufficient — which is exactly the kind of
//! presumption the paper routes through the expert user.
//!
//! Served through the counting seam ([`discover_keys_with_engine`]),
//! exact-count shortcuts ([`ColumnSketch`]) spare partition work
//! without changing the keys found: a NULL-free column with as many
//! distinct values as rows is a key without a partition, and then no
//! other column whose counts settle it needs one; at the last level a
//! column set whose product of unary distinct counts is below the row
//! count cannot be unique (pigeonhole).

use crate::partitions::StrippedPartition;
use dbre_relational::attr::{AttrId, AttrSet};
use dbre_relational::backend::CountBackend;
use dbre_relational::database::Database;
use dbre_relational::encode::DictTable;
use dbre_relational::schema::RelId;
use dbre_relational::sketch::{ColumnSketch, SketchPruneStats};
use dbre_relational::stats::StatsEngine;
use dbre_relational::table::Table;
use std::collections::HashSet;
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
    /// Proven no key by exact counts, in a relation where another
    /// column's counts prove a key: the search stops at width 1, so
    /// nothing expands from it either.
    NonKey,
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
    /// The minimal unique column sets of the narrowest width that has
    /// any (at most the search's `max_width`), sorted.
    pub keys: Vec<AttrSet>,
    /// Work counters.
    pub stats: KeyStats,
}

/// Discovers the minimal unique column combinations of a table of the
/// narrowest width that has any, up to `max_width` columns (`None` =
/// full lattice); wider keys are not searched. Columns containing NULL
/// are excluded from key membership.
pub fn discover_keys(table: &Table, max_width: Option<usize>) -> KeyResult {
    // One encode pass; each unary partition then only buckets codes.
    let dict = DictTable::build(table);
    let seeds = eligible_columns_raw(table)
        .into_iter()
        .map(|i| {
            let partition = Arc::new(dict.partition1(AttrId(i)));
            let seed = UnarySeed::Partition {
                partition,
                cardinality: None,
            };
            (i, seed)
        })
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
/// the counting seam (pass a [`StatsEngine`] and they are additionally
/// cached). Like it, returns the minimal keys of the narrowest width
/// at most `max_width`. NULL-freeness is read off the exact counts, or
/// the [`CountBackend::column_codes`] when the backend serves none, so
/// a streamed extension answers without a raw column.
///
/// When the backend serves a column's exact counts
/// ([`CountBackend::column_sketch`]), three shortcuts fire (the
/// discovered keys are identical either way):
///
/// * a level-1 column the counts prove a key (NULL-free, every row
///   distinct) is accepted without ever building its partition;
/// * once one column is proven a key, the search stops at width 1,
///   where the counts settle every other column they cover, so only
///   the columns without counts get a partition;
/// * at the last expanded level, a candidate whose product of exact
///   unary cardinalities is below the row count cannot be unique
///   (pigeonhole), so its key test is skipped.
pub fn discover_keys_with_engine(
    db: &Database,
    rel: RelId,
    max_width: Option<usize>,
    backend: &dyn CountBackend,
) -> KeyResult {
    let table = db.table(rel);
    let eligible: Vec<(u16, Option<Arc<ColumnSketch>>)> = (0..table.arity() as u16)
        .map(|i| (i, backend.column_sketch(db, rel, AttrId(i))))
        .filter(|(i, sketch)| match sketch {
            Some(s) => s.null_count() == 0,
            None => !backend.column_codes(db, rel, AttrId(*i)).has_null(),
        })
        .collect();
    let count_proven_key = eligible
        .iter()
        .any(|(_, sketch)| sketch.as_ref().is_some_and(|s| s.is_exact_key()));
    let mut sk = SketchPruneStats::default();
    let seeds: Vec<(u16, UnarySeed)> = eligible
        .into_iter()
        .map(|(i, sketch)| {
            let seed = match &sketch {
                Some(s) if s.is_exact_key() => UnarySeed::Key,
                Some(_) if count_proven_key => UnarySeed::NonKey,
                // A partition only for a column the counts couldn't settle.
                _ => UnarySeed::Partition {
                    partition: backend.partition1(db, rel, AttrId(i)),
                    cardinality: sketch.as_ref().map(|s| s.distinct_exact()),
                },
            };
            if sketch.is_some() {
                sk.candidates += 1;
                if matches!(seed, UnarySeed::Partition { .. }) {
                    sk.verified += 1;
                } else {
                    sk.pruned += 1;
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
/// (column index, seed), in column order. It stops after the narrowest
/// width that holds a key.
fn discover_keys_seeded(
    arity: usize,
    rows: usize,
    seeds: Vec<(u16, UnarySeed)>,
    max_width: Option<usize>,
    sketch: SketchPruneStats,
) -> KeyResult {
    let eligible = seeds.len();
    let mut stats = KeyStats {
        sketch,
        ..KeyStats::default()
    };

    let mut keys: Vec<AttrSet> = Vec::new();
    // Exact unary distinct counts where known, for the last-level
    // cardinality bound.
    let mut cards: Vec<Option<usize>> = vec![None; arity];
    // Level 1 seeds: partitions (or settled verdicts) per column.
    let mut level: Vec<(AttrSet, Arc<StrippedPartition>)> = Vec::new();
    for (i, seed) in seeds {
        stats.tests += 1;
        let set = AttrSet::from_indices([i]);
        match seed {
            UnarySeed::Key => keys.push(set),
            UnarySeed::NonKey => {}
            UnarySeed::Partition {
                partition: p,
                cardinality,
            } => {
                cards[usize::from(i)] = cardinality;
                if p.is_key() {
                    keys.push(set);
                } else {
                    level.push((set, p));
                }
            }
        }
    }

    // No narrower width held a key, so every NULL-free set of the
    // current width is generated: stopping after the first width with
    // a key still finds all of its keys.
    let max_width = max_width.unwrap_or(eligible.max(1));
    let mut width = 1;
    while keys.is_empty() && width < max_width && !level.is_empty() {
        // Partitions produced in the last expanded round never expand
        // further, so a candidate the cardinality bound refutes there
        // needs no test at all, and the rest need only the verdict.
        let last_level = width + 1 == max_width;
        let mut next: Vec<(AttrSet, Arc<StrippedPartition>)> = Vec::new();
        let mut generated: HashSet<AttrSet> = HashSet::new();
        for i in 0..level.len() {
            for j in i + 1..level.len() {
                let (x, px) = &level[i];
                let (y, py) = &level[j];
                let merged = x.union(y);
                // Each candidate is examined (and counted) once, however
                // many pairs of this level generate it.
                if merged.len() != width + 1 || !generated.insert(merged.clone()) {
                    continue;
                }
                if last_level {
                    if let Some(bound) = product_card_bound(&cards, &merged) {
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
                stats.tests += 1;
                // Once this width holds a key the search stops after
                // it, so nothing of it expands: only the verdict is read.
                if last_level || !keys.is_empty() {
                    if px.product_is_key(py) {
                        keys.push(merged);
                    }
                } else {
                    let p = px.product(py);
                    if p.is_key() {
                        keys.push(merged);
                    } else {
                        next.push((merged, Arc::new(p)));
                    }
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

/// Upper bound on the distinct projections of the column set `set`:
/// the product of exact unary distinct counts. `None` when any count
/// is unknown (the backend served none for that column).
fn product_card_bound(cards: &[Option<usize>], set: &AttrSet) -> Option<usize> {
    set.iter().try_fold(1usize, |bound, a| {
        Some(bound.saturating_mul(cards[a.index()]?))
    })
}

/// Infers keys for every relation of a database that has none declared
/// and registers a narrowest discovered key as its primary key.
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
///
/// Every discovered key of a relation has the narrowest width; among
/// them the one with the smallest column bitmask wins, which compares
/// the ids from the highest down (sets of equal size). The keys are registered only after
/// every relation has been searched, so a search that fails leaves
/// the dictionary untouched.
pub fn infer_missing_keys_with_engine(
    db: &mut Database,
    max_width: Option<usize>,
    backend: &dyn CountBackend,
) -> (Vec<(RelId, AttrSet)>, SketchPruneStats) {
    let mut sketch = SketchPruneStats::default();
    let inferred: Vec<(RelId, AttrSet)> = db
        .schema
        .iter()
        .filter(|&(rel, _)| db.constraints.primary_key(rel).is_none())
        .filter_map(|(rel, _)| {
            let result = discover_keys_with_engine(db, rel, max_width, backend);
            sketch.merge(&result.stats.sketch);
            let best = result
                .keys
                .into_iter()
                .min_by(|a, b| a.as_slice().iter().rev().cmp(b.as_slice().iter().rev()))?;
            Some((rel, best))
        })
        .collect();
    for (rel, key) in &inferred {
        db.constraints.add_key(*rel, key.clone());
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
    fn narrowest_keys_and_the_smallest_bitmask_wins() {
        // No column alone is unique; four column pairs are.
        let rows: &[&[i64]] = &[&[2, 0, 1, 2], &[2, 0, 2, 0], &[2, 1, 1, 1], &[0, 1, 0, 0]];
        let pair = |x: u16, y: u16| AttrSet::from_indices([x, y]);
        let r = discover_keys(&table(rows), Some(3));
        assert_eq!(r.keys, vec![pair(0, 3), pair(1, 2), pair(1, 3), pair(2, 3)]);

        // {a, d} sorts first as an `AttrSet`, but {b, c} has the
        // smaller column bitmask (0b0110 < 0b1001).
        let mut db = Database::new();
        let rel = db
            .add_relation(Relation::of(
                "R",
                &[
                    ("a", Domain::Int),
                    ("b", Domain::Int),
                    ("c", Domain::Int),
                    ("d", Domain::Int),
                ],
            ))
            .unwrap();
        for row in rows {
            db.insert(rel, row.iter().map(|&v| Value::Int(v)).collect())
                .unwrap();
        }
        assert_eq!(
            infer_missing_keys(&mut db, Some(3)),
            vec![(rel, pair(1, 2))]
        );
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
