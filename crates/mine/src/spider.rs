//! Exhaustive unary inclusion-dependency discovery — the blind-mining
//! baseline against the paper's query-guided IND-Discovery.
//!
//! The algorithm is the SPIDER/MIND sorted-merge scheme: build the
//! sorted distinct value list of every attribute in the database, then
//! sweep all lists in parallel (a k-way merge). At each distinct value
//! `v`, let `S(v)` be the set of attributes whose list contains `v`;
//! every attribute `a ∈ S(v)` can only be included in attributes that
//! also contain `v`, so `candidates(a) ∩= S(v)`. One sweep decides all
//! `O(m²)` unary INDs in `O(total values · log m)`.
//!
//! The benchmark contrast with the paper's method: SPIDER must look at
//! *every* attribute pair the data admits (typically hundreds of
//! spurious inclusions between small integer columns), whereas
//! IND-Discovery only tests the handful of pairs that application
//! programs actually join.

use dbre_relational::attr::AttrId;
use dbre_relational::backend::CountBackend;
use dbre_relational::database::Database;
use dbre_relational::deps::Ind;
use dbre_relational::encode::DictTable;
use dbre_relational::schema::RelId;
use dbre_relational::value::{Domain, Value};

/// Work counters for the comparison benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpiderStats {
    /// Attributes participating in the sweep.
    pub attributes: usize,
    /// Candidate pairs alive at the start (all compatible pairs).
    pub initial_candidates: usize,
    /// Total distinct values merged.
    pub values_scanned: usize,
}

/// Result of a SPIDER run.
#[derive(Debug, Clone)]
pub struct SpiderResult {
    /// All satisfied unary INDs `R_i[a] ≪ R_j[b]` (i ≠ j or a ≠ b),
    /// deterministic order.
    pub inds: Vec<Ind>,
    /// Work counters.
    pub stats: SpiderStats,
}

/// Options for the exhaustive search.
#[derive(Debug, Clone)]
pub struct SpiderConfig {
    /// Only consider attribute pairs with identical declared domains
    /// (standard practice; wildly cuts spurious candidates). Default
    /// `true`.
    pub require_same_domain: bool,
    /// Skip attributes whose value set is empty (an empty set is
    /// included in everything; reporting those drowns the output).
    /// Default `true`.
    pub skip_empty: bool,
    /// Allow INDs between attributes of the same relation. Default
    /// `true` (the paper's `Department[emp] ≪ …` shows intra-schema
    /// navigation matters; same-attribute reflexive INDs are always
    /// excluded).
    pub allow_same_relation: bool,
}

impl Default for SpiderConfig {
    fn default() -> Self {
        SpiderConfig {
            require_same_domain: true,
            skip_empty: true,
            allow_same_relation: true,
        }
    }
}

/// One attribute's sorted distinct values, feeding the merge sweep.
struct Col {
    rel: RelId,
    attr: AttrId,
    domain: Domain,
    values: Vec<Value>,
}

/// Runs exhaustive unary IND discovery over the whole database.
pub fn spider(db: &Database, cfg: &SpiderConfig) -> SpiderResult {
    // Collect (relation, attribute, domain, sorted distinct values).
    let mut cols: Vec<Col> = Vec::new();
    for (rel, relation) in db.schema.iter() {
        // One dictionary pass per table: the distinct non-NULL values
        // come out deduplicated, so only `cardinality` values are
        // cloned and sorted (instead of a tree insert per row).
        let dict = DictTable::build(db.table(rel));
        for i in 0..relation.arity() {
            let attr = AttrId(i as u16);
            let mut values: Vec<Value> = dict.column(attr).distinct_values().to_vec();
            values.sort_unstable();
            cols.push(Col {
                rel,
                attr,
                domain: relation.attribute(attr).domain,
                values,
            });
        }
    }
    sweep(cols, cfg)
}

/// [`spider`] with the per-attribute distinct value sets served
/// through the counting seam — memoized (and shared with the rest of
/// a run) when `backend` is a
/// [`StatsEngine`](dbre_relational::stats::StatsEngine). Same result
/// as [`spider`] on the same database.
pub fn spider_with_stats(
    db: &Database,
    cfg: &SpiderConfig,
    backend: &dyn CountBackend,
) -> SpiderResult {
    let mut cols: Vec<Col> = Vec::new();
    for (rel, relation) in db.schema.iter() {
        for i in 0..relation.arity() {
            let attr = AttrId(i as u16);
            let projection = backend.projection(db, rel, &[attr]);
            let mut values: Vec<Value> = projection
                .iter()
                .map(|key| key[0].clone())
                .filter(|v| !v.is_null())
                .collect();
            values.sort_unstable();
            cols.push(Col {
                rel,
                attr,
                domain: relation.attribute(attr).domain,
                values,
            });
        }
    }
    sweep(cols, cfg)
}

/// The k-way merge sweep shared by [`spider`] and
/// [`spider_with_stats`].
fn sweep(mut cols: Vec<Col>, cfg: &SpiderConfig) -> SpiderResult {
    if cfg.skip_empty {
        cols.retain(|c| !c.values.is_empty());
    }

    let m = cols.len();
    // candidates[i] = bitset over columns j such that values(i) ⊆
    // values(j) is still possible.
    let words = m.div_ceil(64);
    let mut candidates: Vec<Vec<u64>> = Vec::with_capacity(m);
    let mut initial = 0usize;
    for i in 0..m {
        let mut row = vec![0u64; words];
        for (j, col) in cols.iter().enumerate() {
            if i == j {
                continue;
            }
            if cfg.require_same_domain && cols[i].domain != col.domain {
                continue;
            }
            if !cfg.allow_same_relation && cols[i].rel == col.rel {
                continue;
            }
            row[j / 64] |= 1 << (j % 64);
            initial += 1;
        }
        candidates.push(row);
    }

    // K-way merge sweep. A binary heap of (next value, column index).
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(Value, usize)>> = BinaryHeap::new();
    let mut cursors = vec![0usize; m];
    for (i, col) in cols.iter().enumerate() {
        if let Some(v) = col.values.first() {
            heap.push(Reverse((v.clone(), i)));
        }
    }
    let mut stats = SpiderStats {
        attributes: m,
        initial_candidates: initial,
        values_scanned: 0,
    };
    let mut holders: Vec<usize> = Vec::new();
    let mut mask = vec![0u64; words];
    while let Some(Reverse((v, first))) = heap.pop() {
        stats.values_scanned += 1;
        holders.clear();
        holders.push(first);
        while let Some(Reverse((w, j))) = heap.peek() {
            if *w == v {
                holders.push(*j);
                heap.pop();
            } else {
                break;
            }
        }
        // Build the holder mask and intersect into each holder's row.
        mask.iter_mut().for_each(|w| *w = 0);
        for &h in &holders {
            mask[h / 64] |= 1 << (h % 64);
        }
        for &h in &holders {
            for (cw, mw) in candidates[h].iter_mut().zip(&mask) {
                *cw &= *mw;
            }
        }
        // Advance cursors of holders.
        for &h in &holders {
            cursors[h] += 1;
            if let Some(next) = cols[h].values.get(cursors[h]) {
                heap.push(Reverse((next.clone(), h)));
            }
        }
    }

    // Read the satisfied INDs.
    let mut inds: Vec<Ind> = Vec::new();
    for (i, row) in candidates.iter().enumerate() {
        for j in 0..m {
            if row[j / 64] & (1 << (j % 64)) != 0 {
                inds.push(Ind::unary(
                    cols[i].rel,
                    cols[i].attr,
                    cols[j].rel,
                    cols[j].attr,
                ));
            }
        }
    }
    inds.sort();
    SpiderResult { inds, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbre_relational::schema::Relation;
    use dbre_relational::value::Domain;

    fn db() -> Database {
        let mut db = Database::new();
        let person = db
            .add_relation(Relation::of(
                "Person",
                &[("id", Domain::Int), ("name", Domain::Text)],
            ))
            .unwrap();
        let emp = db
            .add_relation(Relation::of(
                "Emp",
                &[("no", Domain::Int), ("boss", Domain::Int)],
            ))
            .unwrap();
        for i in 1..=5 {
            db.insert(person, vec![Value::Int(i), Value::str(format!("p{i}"))])
                .unwrap();
        }
        for i in 1..=3 {
            db.insert(emp, vec![Value::Int(i), Value::Int(1)]).unwrap();
        }
        db
    }

    fn rendered(db: &Database, r: &SpiderResult) -> Vec<String> {
        r.inds.iter().map(|i| i.render(&db.schema)).collect()
    }

    #[test]
    fn finds_expected_inclusions() {
        let d = db();
        let r = spider(&d, &SpiderConfig::default());
        let names = rendered(&d, &r);
        // {1,2,3} ⊆ {1..5}, {1} ⊆ everything integer.
        assert!(names.contains(&"Emp[no] << Person[id]".to_string()));
        assert!(names.contains(&"Emp[boss] << Person[id]".to_string()));
        assert!(names.contains(&"Emp[boss] << Emp[no]".to_string()));
        // Reverse does not hold.
        assert!(!names.contains(&"Person[id] << Emp[no]".to_string()));
    }

    #[test]
    fn results_verified_against_ind_holds() {
        let d = db();
        let r = spider(&d, &SpiderConfig::default());
        for ind in &r.inds {
            assert!(d.ind_holds(ind), "spider reported a false IND: {ind}");
        }
    }

    #[test]
    fn spider_with_stats_matches_spider() {
        use dbre_relational::backend::{EncodedBackend, ReferenceBackend};
        use dbre_relational::stats::StatsEngine;
        let d = db();
        let direct = spider(&d, &SpiderConfig::default());
        let encoded = EncodedBackend::new();
        let engine = StatsEngine::new();
        let backends: Vec<&dyn CountBackend> = vec![&ReferenceBackend, &encoded, &engine];
        for backend in backends {
            let seamed = spider_with_stats(&d, &SpiderConfig::default(), backend);
            assert_eq!(seamed.inds, direct.inds, "backend {}", backend.name());
            assert_eq!(seamed.stats, direct.stats, "backend {}", backend.name());
        }
    }

    #[test]
    fn exhaustiveness_no_satisfied_ind_missed() {
        let d = db();
        let cfg = SpiderConfig::default();
        let r = spider(&d, &cfg);
        // Enumerate all same-domain pairs and compare.
        let mut expected = 0usize;
        for (ri, reli) in d.schema.iter() {
            for (rj, relj) in d.schema.iter() {
                for ai in 0..reli.arity() {
                    for aj in 0..relj.arity() {
                        if ri == rj && ai == aj {
                            continue;
                        }
                        let (dai, daj) = (
                            reli.attribute(AttrId(ai as u16)).domain,
                            relj.attribute(AttrId(aj as u16)).domain,
                        );
                        if dai != daj {
                            continue;
                        }
                        let ind = Ind::unary(ri, AttrId(ai as u16), rj, AttrId(aj as u16));
                        if d.ind_holds(&ind) && d.table(ri).count_distinct(&[AttrId(ai as u16)]) > 0
                        {
                            expected += 1;
                            assert!(r.inds.contains(&ind), "missed {ind}");
                        }
                    }
                }
            }
        }
        assert_eq!(r.inds.len(), expected);
    }

    #[test]
    fn domain_filter_blocks_cross_type_candidates() {
        let d = db();
        let strict = spider(&d, &SpiderConfig::default());
        let loose = spider(
            &d,
            &SpiderConfig {
                require_same_domain: false,
                ..Default::default()
            },
        );
        assert!(loose.stats.initial_candidates > strict.stats.initial_candidates);
    }

    #[test]
    fn same_relation_toggle() {
        let d = db();
        let r = spider(
            &d,
            &SpiderConfig {
                allow_same_relation: false,
                ..Default::default()
            },
        );
        let names = rendered(&d, &r);
        assert!(!names.contains(&"Emp[boss] << Emp[no]".to_string()));
        assert!(names.contains(&"Emp[no] << Person[id]".to_string()));
    }

    #[test]
    fn empty_columns_skipped() {
        let mut d = Database::new();
        d.add_relation(Relation::of("A", &[("x", Domain::Int)]))
            .unwrap();
        let b = d
            .add_relation(Relation::of("B", &[("y", Domain::Int)]))
            .unwrap();
        d.insert(b, vec![Value::Int(1)]).unwrap();
        let r = spider(&d, &SpiderConfig::default());
        assert!(r.inds.is_empty());
        assert_eq!(r.stats.attributes, 1);
    }

    #[test]
    fn nulls_ignored_in_value_sets() {
        let mut d = Database::new();
        let a = d
            .add_relation(Relation::of("A", &[("x", Domain::Int)]))
            .unwrap();
        let b = d
            .add_relation(Relation::of("B", &[("y", Domain::Int)]))
            .unwrap();
        d.insert(a, vec![Value::Int(1)]).unwrap();
        d.insert(a, vec![Value::Null]).unwrap();
        d.insert(b, vec![Value::Int(1)]).unwrap();
        let r = spider(&d, &SpiderConfig::default());
        // Both directions hold: value sets are both exactly {1}.
        assert_eq!(r.inds.len(), 2);
    }
}
