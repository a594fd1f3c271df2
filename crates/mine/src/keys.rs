//! Key (unique column combination) discovery from the extension.
//!
//! The paper assumes `K` can be read from the data dictionary ("the
//! expert user is not required to provide this information"). Truly
//! ancient DBMSs predate even `UNIQUE` declarations; this module
//! recovers a candidate key from the data so the pipeline can run on
//! such systems: a levelwise search over column combinations, where `X`
//! is unique iff its stripped partition has no class, with
//! NULL-free-ness required (SQL keys are not null).
//!
//! The search returns the one key the pipeline registers: the
//! narrowest (at most `max_width` columns), and among those the one
//! with the smallest column bitmask. Level 1 reads the unary
//! partitions (or the exact counts); a unary key ends the search. From
//! width 2 on it visits the width-`w` sets of the non-key columns in
//! ascending bitmask (colexicographic) order and returns at the first
//! key. No narrower set is a key by then, so every candidate is a
//! minimal one. A candidate is tested with
//! [`StrippedPartition::product_is_key`] of its *prefix* (the candidate
//! without its highest column) and its highest column's unary
//! partition, which builds nothing; a prefix wider than one column is
//! the product of its own prefix and last column, built the first time
//! a test reads it and memoized. So no candidate's own product is ever
//! built, and a search that stops at its first width-3 candidate builds
//! one product.
//!
//! A discovered key is only a *candidate* — uniqueness in a snapshot
//! is necessary, not sufficient — which is exactly the kind of
//! presumption the paper routes through the expert user.
//!
//! Served through the counting seam ([`discover_keys_with_engine`]),
//! exact-count shortcuts ([`ColumnSketch`]) spare partition work
//! without changing the key found: a NULL-free column with as many
//! distinct values as rows is a key without a partition, and then no
//! other column whose counts settle it needs one; and a column set
//! whose product of unary distinct counts is below the row count
//! cannot be unique (pigeonhole), so its test is skipped at any width.

use crate::partitions::StrippedPartition;
use dbre_relational::attr::{AttrId, AttrSet};
use dbre_relational::backend::CountBackend;
use dbre_relational::bufpool::BufferPool;
use dbre_relational::database::Database;
use dbre_relational::schema::RelId;
use dbre_relational::sketch::{ColumnSketch, SketchPruneStats};
use dbre_relational::stats::StatsEngine;
use dbre_relational::table::Table;
use std::collections::HashMap;
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
    /// cardinality bound).
    Partition {
        partition: Arc<StrippedPartition>,
        cardinality: Option<usize>,
    },
}

/// Result of key discovery on one relation.
#[derive(Debug, Clone)]
pub struct KeyResult {
    /// The narrowest unique column set (at most the search's
    /// `max_width` wide) with the smallest column bitmask; `None` when
    /// no set up to that width is unique.
    pub key: Option<AttrSet>,
    /// Work counters.
    pub stats: KeyStats,
}

/// Discovers the narrowest unique column combination of a table, up to
/// `max_width` columns (`None` = full lattice), with the smallest
/// column bitmask among those of its width; wider keys are not
/// searched. Columns containing NULL are excluded from key membership.
pub fn discover_keys(table: &Table, max_width: Option<usize>) -> KeyResult {
    // Each unary partition only buckets the column's codes.
    let pool = BufferPool::with_capacity_pages(1);
    let seeds = eligible_columns_raw(table)
        .into_iter()
        .map(|i| {
            let partition = Arc::new(unary_partition(table, AttrId(i), &pool));
            let seed = UnarySeed::Partition {
                partition,
                cardinality: None,
            };
            (i, seed)
        })
        .collect();
    discover_keys_seeded(table.len(), seeds, max_width, SketchPruneStats::default())
}

/// [`discover_keys`] with the unary seed partitions served through
/// the counting seam (pass a [`StatsEngine`] and they are additionally
/// cached). Like it, returns the narrowest key of at most `max_width`
/// columns with the smallest column bitmask. NULL-freeness is read off
/// the exact counts, or the table's column when the backend serves
/// none.
///
/// When the backend serves a column's exact counts
/// ([`CountBackend::column_sketch`]), three shortcuts fire (the
/// discovered key is identical either way):
///
/// * a level-1 column the counts prove a key (NULL-free, every row
///   distinct) is accepted without ever building its partition;
/// * once one column is proven a key, the search stops at width 1,
///   where the counts settle every other column they cover, so only
///   the columns without counts get a partition;
/// * from width 2 on, a candidate whose product of exact unary
///   cardinalities is below the row count cannot be unique
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
            None => !table.column(AttrId(*i)).has_null(),
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
    discover_keys_seeded(table.len(), seeds, max_width, sk)
}

/// Columns containing NULL cannot participate in a key (see
/// [`discover_keys`]).
fn eligible_columns_raw(table: &Table) -> Vec<u16> {
    (0..table.arity() as u16)
        .filter(|&i| !table.column(AttrId(i)).has_null())
        .collect()
}

/// The unary stripped partition of `attr` from its codes, paged ones
/// read through `pool`.
///
/// # Panics
///
/// When a page cannot be read.
pub(crate) fn unary_partition(table: &Table, attr: AttrId, pool: &BufferPool) -> StrippedPartition {
    dbre_relational::encode::partition1(table.column(attr), pool)
        .unwrap_or_else(|e| panic!("cannot partition a paged column: {e}"))
}

/// A level-1 column that is not a key: the wider widths are built
/// from these.
struct NonKeyColumn {
    id: u16,
    partition: Arc<StrippedPartition>,
    /// The exact distinct count, when the backend served one.
    cardinality: Option<usize>,
}

/// Memoized prefix partitions, keyed by positions in the list of
/// [`NonKeyColumn`]s.
type Prefixes = HashMap<Vec<usize>, Arc<StrippedPartition>>;

/// The shared levelwise search over prebuilt level-1 `seeds`
/// (column index, seed), in column order (see the module docs). It
/// returns at the first key it finds.
fn discover_keys_seeded(
    rows: usize,
    seeds: Vec<(u16, UnarySeed)>,
    max_width: Option<usize>,
    sketch: SketchPruneStats,
) -> KeyResult {
    let mut stats = KeyStats {
        sketch,
        ..KeyStats::default()
    };
    let max_width = max_width.unwrap_or(seeds.len().max(1));

    // Level 1: every seed is counted, and the lowest unary key is the
    // one with the smallest bitmask. On an empty or one-row table every
    // NULL-free column is a key, so the lowest one is reported (the
    // empty set is technically unique, but a key of nothing helps
    // nobody).
    let mut key: Option<AttrSet> = None;
    let mut nonkeys: Vec<NonKeyColumn> = Vec::new();
    for (id, seed) in seeds {
        stats.tests += 1;
        let is_key = match seed {
            UnarySeed::Key => true,
            UnarySeed::NonKey => false,
            UnarySeed::Partition {
                partition,
                cardinality,
            } => {
                let is_key = partition.is_key();
                if !is_key {
                    nonkeys.push(NonKeyColumn {
                        id,
                        partition,
                        cardinality,
                    });
                }
                is_key
            }
        };
        if is_key && key.is_none() {
            key = Some(AttrSet::from_indices([id]));
        }
    }
    if key.is_some() {
        return KeyResult { key, stats };
    }

    // Wider widths: the candidates of each width in ascending bitmask
    // order, as ascending positions in `nonkeys`.
    let mut prefixes = Prefixes::new();
    for width in 2..=max_width.min(nonkeys.len()) {
        // A test of this width reads prefixes one narrower, built from
        // prefixes two narrower; nothing narrower is read again.
        prefixes.retain(|set, _| set.len() + 2 >= width);
        let mut candidate: Vec<usize> = (0..width).collect();
        loop {
            stats.tests += 1;
            // Pigeonhole: at most `bound` distinct projections over
            // fewer than `rows` rows — the exact test would report
            // non-key.
            let pruned = cardinality_bound(&nonkeys, &candidate).is_some_and(|bound| {
                stats.sketch.candidates += 1;
                if bound < rows {
                    stats.sketch.pruned += 1;
                } else {
                    stats.sketch.verified += 1;
                }
                bound < rows
            });
            if !pruned {
                let (prefix, last) = candidate.split_at(width - 1);
                let prefix = partition_of(&nonkeys, prefix, rows, &mut prefixes);
                if prefix.product_is_key(&nonkeys[last[0]].partition) {
                    let key = AttrSet::from_indices(candidate.iter().map(|&c| nonkeys[c].id));
                    return KeyResult {
                        key: Some(key),
                        stats,
                    };
                }
            }
            if !next_colex(&mut candidate, nonkeys.len()) {
                break;
            }
        }
    }
    KeyResult { key: None, stats }
}

/// The partition of the columns at positions `set` (ascending): a
/// unary partition as seeded; a wider one the product of its own
/// prefix and its last column, built once and memoized in `prefixes`.
fn partition_of(
    columns: &[NonKeyColumn],
    set: &[usize],
    rows: usize,
    prefixes: &mut Prefixes,
) -> Arc<StrippedPartition> {
    match set {
        [] => Arc::new(StrippedPartition::single_class(rows)),
        [only] => Arc::clone(&columns[*only].partition),
        [prefix @ .., last] => {
            if let Some(p) = prefixes.get(set) {
                return Arc::clone(p);
            }
            let p = partition_of(columns, prefix, rows, prefixes);
            let p = Arc::new(p.product(&columns[*last].partition));
            prefixes.insert(set.to_vec(), Arc::clone(&p));
            p
        }
    }
}

/// Steps `set` (ascending positions below `n`) to the next set of its
/// size in colexicographic order, which is ascending bitmask order;
/// `false` after the last.
fn next_colex(set: &mut [usize], n: usize) -> bool {
    for i in 0..set.len() {
        let limit = set.get(i + 1).copied().unwrap_or(n);
        if set[i] + 1 < limit {
            set[i] += 1;
            for (j, slot) in set[..i].iter_mut().enumerate() {
                *slot = j;
            }
            return true;
        }
    }
    false
}

/// Upper bound on the distinct projections of the columns at
/// positions `set`: the product of their exact unary distinct counts.
/// `None` when any count is unknown (the backend served none for that
/// column).
fn cardinality_bound(columns: &[NonKeyColumn], set: &[usize]) -> Option<usize> {
    set.iter().try_fold(1usize, |bound, &c| {
        Some(bound.saturating_mul(columns[c].cardinality?))
    })
}

/// Infers keys for every relation of a database that has none declared
/// and registers the discovered key ([`discover_keys`]) as its primary
/// key. Returns the relations that received an inferred key.
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
/// The keys are registered only after every relation has been
/// searched, so a search that fails leaves the dictionary untouched.
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
            Some((rel, result.key?))
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
        assert_eq!(r.key, Some(AttrSet::from_indices([0u16])));
    }

    #[test]
    fn composite_key_when_no_single_works() {
        // (a, b) unique; neither column alone.
        let t = table(&[&[1, 1], &[1, 2], &[2, 1]]);
        let r = discover_keys(&t, None);
        assert_eq!(r.key, Some(AttrSet::from_indices([0u16, 1])));
    }

    #[test]
    fn multiple_minimal_keys() {
        // a unique AND b unique: the lower column is the key.
        let t = table(&[&[1, 10], &[2, 20], &[3, 30]]);
        let r = discover_keys(&t, None);
        assert_eq!(r.key, Some(AttrSet::from_indices([0u16])));
    }

    #[test]
    fn supersets_of_keys_pruned() {
        let t = table(&[&[1, 1, 1], &[2, 1, 1], &[3, 2, 2]]);
        let r = discover_keys(&t, None);
        // {0} is a key; {0,1}, {0,2}, {0,1,2} must not be reported.
        assert_eq!(r.key, Some(AttrSet::from_indices([0u16])));
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
        assert_eq!(r.key, Some(AttrSet::from_indices([0u16])));
    }

    #[test]
    fn duplicate_rows_mean_no_key() {
        let t = table(&[&[1, 1], &[1, 1]]);
        let r = discover_keys(&t, None);
        assert_eq!(r.key, None);
    }

    #[test]
    fn width_bound_respected() {
        let t = table(&[&[1, 1, 7], &[1, 2, 8], &[2, 1, 9], &[2, 2, 7]]);
        let r = discover_keys(&t, Some(1));
        assert_eq!(r.key, None, "the only key {{a,b}} is width 2");
        let r = discover_keys(&t, Some(2));
        assert_eq!(r.key, Some(AttrSet::from_indices([0u16, 1])));
    }

    #[test]
    fn narrowest_keys_and_the_smallest_bitmask_wins() {
        // No column alone is unique; four column pairs are: {a, d},
        // {b, c}, {b, d} and {c, d}. {a, d} sorts first as an
        // `AttrSet`, but {b, c} has the smaller column bitmask
        // (0b0110 < 0b1001).
        let rows: &[&[i64]] = &[&[2, 0, 1, 2], &[2, 0, 2, 0], &[2, 1, 1, 1], &[0, 1, 0, 0]];
        let pair = |x: u16, y: u16| AttrSet::from_indices([x, y]);
        let r = discover_keys(&table(rows), Some(3));
        assert_eq!(r.key, Some(pair(1, 2)));

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

    /// `T(a, b, c, d)` holds all eight `(a, b, c) ∈ {0, 1}³` and a
    /// constant `d`: no column and no pair is a key, and `{a, b, c}` is
    /// the first width-3 candidate. The search tests the four columns,
    /// the six pairs and that one candidate, and stops.
    #[test]
    fn the_search_stops_at_the_first_key_of_its_width() {
        let rows: Vec<Vec<i64>> = (0..8)
            .map(|r| vec![r & 1, (r >> 1) & 1, (r >> 2) & 1, 7])
            .collect();
        let rows: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        for max_width in [Some(3), None] {
            let r = discover_keys(&table(&rows), max_width);
            assert_eq!(r.key, Some(AttrSet::from_indices([0u16, 1, 2])));
            assert_eq!(r.stats.tests, 4 + 6 + 1, "{max_width:?}");
        }
    }

    #[test]
    fn streamed_extension_excludes_null_columns_from_keys() {
        use dbre_relational::csv::{import_csv, import_csv_spilled};
        use dbre_relational::pages::PagedBackend;

        // The same rows resident and streamed to pages.
        let text = "a,b\n1,10\n,20\n2,30\n";
        let relation = Relation::of("R", &[("a", Domain::Int), ("b", Domain::Int)]);
        let mut scratch = Database::new();
        let r0 = scratch.add_relation(relation.clone()).unwrap();
        import_csv(&mut scratch, r0, text).unwrap();
        let path = std::env::temp_dir().join(format!("dbre-keys-{}.csv", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let mut db = Database::new();
        let r = db.add_relation(relation).unwrap();
        import_csv_spilled(&mut db, r, &path, None).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(db.table(r).column(AttrId(0)).pages().is_some());
        let backend = PagedBackend::new();

        // `a` contains NULL: only `b` may seed a key, and it is one.
        let result = discover_keys_with_engine(&db, r, None, &backend);
        assert_eq!(result.key, Some(AttrSet::from_indices([1u16])));

        // Same rows materialized agree.
        let reference = discover_keys(scratch.table(r0), None);
        assert_eq!(result.key, reference.key);
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
