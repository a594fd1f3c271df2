//! MIND-style levelwise discovery of *n-ary* inclusion dependencies
//! (De Marchi, Lopes, Petit — by the same LISI group as the paper).
//!
//! Unary INDs come from [`mod@crate::spider`]; higher arities are generated
//! levelwise: a candidate `R[a₁…aₖ] ≪ S[b₁…bₖ]` is formed only when
//! every (k−1)-ary projection is a satisfied IND (the
//! projection-and-permutation axiom gives downward closure), then
//! validated against the extension.
//!
//! This is the exhaustive composite-FK baseline: the paper's extractor
//! gets composite joins for free from multi-attribute `WHERE`
//! conjunctions, while blind mining pays a combinatorial candidate
//! space for them.

use crate::spider::{spider, SpiderConfig};
use dbre_relational::attr::AttrId;
use dbre_relational::backend::CountBackend;
use dbre_relational::database::Database;
use dbre_relational::deps::{Ind, IndSide};
use dbre_relational::stats::StatsEngine;
use std::collections::BTreeSet;

/// Work counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MindStats {
    /// Satisfied unary INDs seeding the search.
    pub unary: usize,
    /// Candidates generated across all levels ≥ 2.
    pub candidates: usize,
    /// Candidates validated against the extension.
    pub validated: usize,
}

/// Result of a MIND run.
#[derive(Debug, Clone)]
pub struct MindResult {
    /// All satisfied INDs up to `max_arity`, unary included,
    /// deterministic order.
    pub inds: Vec<Ind>,
    /// Work counters.
    pub stats: MindStats,
}

/// Runs levelwise n-ary IND discovery.
///
/// `max_arity` bounds the composite width (2 or 3 is typical; the
/// candidate space explodes beyond that — which is the measurement).
pub fn mind(db: &Database, cfg: &SpiderConfig, max_arity: usize) -> MindResult {
    mind_with_stats(db, cfg, max_arity, &StatsEngine::new())
}

/// [`mind`] with candidate validation served through the counting
/// seam: pass a [`StatsEngine`] and every `r[X] ⊆ s[Y]` test reuses
/// the memoized distinct projections.
pub fn mind_with_stats(
    db: &Database,
    cfg: &SpiderConfig,
    max_arity: usize,
    backend: &dyn CountBackend,
) -> MindResult {
    let unary = spider(db, cfg);
    let mut stats = MindStats {
        unary: unary.inds.len(),
        ..Default::default()
    };
    let mut all: Vec<Ind> = unary.inds.clone();

    // Group satisfied INDs of the current level by relation pair.
    let mut level: Vec<Ind> = unary.inds;
    let mut arity = 1;
    while arity < max_arity && !level.is_empty() {
        let level_set: BTreeSet<Ind> = level.iter().cloned().collect();
        let mut seen: BTreeSet<Ind> = BTreeSet::new();
        let mut cands: Vec<Ind> = Vec::new();

        // Join pairs of same-pair INDs that extend each other by one
        // position (prefix-join on the attribute correspondence).
        for x in &level {
            for y in &level {
                let Some(cand) = join_candidates(x, y) else {
                    continue;
                };
                if seen.contains(&cand) {
                    continue;
                }
                // Downward closure: every (k−1)-projection satisfied.
                if !sub_inds(&cand).all(|s| level_set.contains(&s)) {
                    continue;
                }
                seen.insert(cand.clone());
                cands.push(cand);
            }
        }
        stats.candidates += cands.len();
        stats.validated += cands.len();
        let next: Vec<Ind> = cands
            .into_iter()
            .filter(|cand| backend.ind_holds(db, cand))
            .collect();
        all.extend(next.iter().cloned());
        level = next;
        arity += 1;
    }

    all.sort();
    stats_sanity(&all);
    MindResult { inds: all, stats }
}

/// Joins two k-ary INDs over the same relation pair into a (k+1)-ary
/// candidate when `y` adds exactly one new correspondence position to
/// `x` (and that position sorts after `x`'s last, for canonical
/// generation).
fn join_candidates(x: &Ind, y: &Ind) -> Option<Ind> {
    if x.lhs.rel != y.lhs.rel || x.rhs.rel != y.rhs.rel {
        return None;
    }
    let k = x.lhs.attrs.len();
    if y.lhs.attrs.len() != k {
        return None;
    }
    // Canonical form: correspondences sorted by LHS attribute; extend
    // by y's last correspondence.
    let (yl, yr) = (*y.lhs.attrs.last()?, *y.rhs.attrs.last()?);
    // Prefixes must match.
    if k >= 1 {
        let same_prefix = x.lhs.attrs[..k - 1] == y.lhs.attrs[..k - 1]
            && x.rhs.attrs[..k - 1] == y.rhs.attrs[..k - 1];
        if !same_prefix {
            return None;
        }
    }
    let (xl, xr) = (*x.lhs.attrs.last()?, *x.rhs.attrs.last()?);
    if yl <= xl {
        return None; // keep LHS attrs strictly increasing
    }
    // An attribute may not repeat on either side.
    if x.rhs.attrs.contains(&yr) {
        return None;
    }
    let mut lhs: Vec<AttrId> = x.lhs.attrs.clone();
    let mut rhs: Vec<AttrId> = x.rhs.attrs.clone();
    let _ = (xl, xr);
    lhs.push(yl);
    rhs.push(yr);
    Some(Ind {
        lhs: IndSide::new(x.lhs.rel, lhs),
        rhs: IndSide::new(x.rhs.rel, rhs),
    })
}

/// The k (k−1)-ary positional projections of a k-ary IND.
fn sub_inds(ind: &Ind) -> impl Iterator<Item = Ind> + '_ {
    let n = ind.lhs.attrs.len();
    (0..n).map(move |skip| {
        let lhs: Vec<AttrId> = ind
            .lhs
            .attrs
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != skip)
            .map(|(_, a)| *a)
            .collect();
        let rhs: Vec<AttrId> = ind
            .rhs
            .attrs
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != skip)
            .map(|(_, a)| *a)
            .collect();
        Ind {
            lhs: IndSide::new(ind.lhs.rel, lhs),
            rhs: IndSide::new(ind.rhs.rel, rhs),
        }
    })
}

fn stats_sanity(all: &[Ind]) {
    debug_assert!(all.windows(2).all(|w| w[0] <= w[1]), "sorted output");
}

/// Convenience: only the INDs of a given arity.
pub fn of_arity(result: &MindResult, arity: usize) -> Vec<&Ind> {
    result
        .inds
        .iter()
        .filter(|i| i.lhs.attrs.len() == arity)
        .collect()
}

/// Convenience: the maximal satisfied INDs (not a projection of
/// another satisfied IND over the same relation pair).
pub fn maximal(result: &MindResult) -> Vec<&Ind> {
    result
        .inds
        .iter()
        .filter(|i| {
            !result.inds.iter().any(|bigger| {
                bigger.lhs.attrs.len() > i.lhs.attrs.len()
                    && bigger.lhs.rel == i.lhs.rel
                    && bigger.rhs.rel == i.rhs.rel
                    && i.lhs.attrs.iter().zip(&i.rhs.attrs).all(|(la, ra)| {
                        bigger
                            .lhs
                            .attrs
                            .iter()
                            .zip(&bigger.rhs.attrs)
                            .any(|(bl, br)| bl == la && br == ra)
                    })
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbre_relational::schema::Relation;
    use dbre_relational::value::{Domain, Value};

    /// Orders(cust, region) ⊆ Customer(id, area) as a *pair*:
    /// (cust, region) pairs all appear in Customer, and each column
    /// individually too.
    fn db() -> Database {
        let mut db = Database::new();
        let customer = db
            .add_relation(Relation::of(
                "Customer",
                &[("id", Domain::Int), ("area", Domain::Int)],
            ))
            .unwrap();
        let orders = db
            .add_relation(Relation::of(
                "Orders",
                &[("cust", Domain::Int), ("region", Domain::Int)],
            ))
            .unwrap();
        for (id, area) in [(1, 10), (2, 20), (3, 30), (4, 10)] {
            db.insert(customer, vec![Value::Int(id), Value::Int(area)])
                .unwrap();
        }
        for (c, r) in [(1, 10), (2, 20), (1, 10)] {
            db.insert(orders, vec![Value::Int(c), Value::Int(r)])
                .unwrap();
        }
        db
    }

    fn render(db: &Database, inds: &[&Ind]) -> Vec<String> {
        inds.iter().map(|i| i.render(&db.schema)).collect()
    }

    #[test]
    fn finds_binary_ind() {
        let d = db();
        let result = mind(&d, &SpiderConfig::default(), 2);
        let binary = of_arity(&result, 2);
        let names = render(&d, &binary);
        assert!(
            names.contains(&"Orders[cust, region] << Customer[id, area]".to_string()),
            "got {names:?}"
        );
        // Every reported IND actually holds.
        for ind in &result.inds {
            assert!(d.ind_holds(ind), "{ind}");
        }
    }

    #[test]
    fn binary_requires_pairwise_cooccurrence() {
        // Columns individually included but pairs not.
        let mut d = Database::new();
        let a = d
            .add_relation(Relation::of("A", &[("x", Domain::Int), ("y", Domain::Int)]))
            .unwrap();
        let b = d
            .add_relation(Relation::of("B", &[("u", Domain::Int), ("v", Domain::Int)]))
            .unwrap();
        // B pairs: (1,20),(2,10). A pair (1,10) — columns ⊆ but pair ∉.
        d.insert(a, vec![Value::Int(1), Value::Int(10)]).unwrap();
        d.insert(b, vec![Value::Int(1), Value::Int(20)]).unwrap();
        d.insert(b, vec![Value::Int(2), Value::Int(10)]).unwrap();
        let result = mind(&d, &SpiderConfig::default(), 2);
        let binary = of_arity(&result, 2);
        assert!(
            !render(&d, &binary).contains(&"A[x, y] << B[u, v]".to_string()),
            "pair inclusion must be checked against the extension"
        );
    }

    #[test]
    fn level_one_matches_spider() {
        let d = db();
        let result = mind(&d, &SpiderConfig::default(), 1);
        let sp = spider(&d, &SpiderConfig::default());
        assert_eq!(result.inds, sp.inds);
        assert_eq!(result.stats.candidates, 0);
    }

    #[test]
    fn downward_closure_prunes_candidates() {
        let d = db();
        let result = mind(&d, &SpiderConfig::default(), 3);
        // With 2-ary sides maxing at arity 2, no 3-ary candidates can
        // form — and candidate count stays small.
        assert!(of_arity(&result, 3).is_empty());
        assert!(result.stats.candidates <= result.stats.unary * result.stats.unary);
    }

    #[test]
    fn maximal_filters_projections() {
        let d = db();
        let result = mind(&d, &SpiderConfig::default(), 2);
        let maxi = maximal(&result);
        let names = render(&d, &maxi);
        // The unary projections of the satisfied pair IND are gone.
        assert!(!names.contains(&"Orders[cust] << Customer[id]".to_string()));
        assert!(names.contains(&"Orders[cust, region] << Customer[id, area]".to_string()));
    }

    #[test]
    fn ternary_composite_found() {
        let mut d = Database::new();
        let t = d
            .add_relation(Relation::of(
                "T",
                &[("a", Domain::Int), ("b", Domain::Int), ("c", Domain::Int)],
            ))
            .unwrap();
        let s = d
            .add_relation(Relation::of(
                "S",
                &[("x", Domain::Int), ("y", Domain::Int), ("z", Domain::Int)],
            ))
            .unwrap();
        for row in [(1, 2, 3), (4, 5, 6)] {
            d.insert(
                s,
                vec![Value::Int(row.0), Value::Int(row.1), Value::Int(row.2)],
            )
            .unwrap();
        }
        d.insert(t, vec![Value::Int(1), Value::Int(2), Value::Int(3)])
            .unwrap();
        let result = mind(&d, &SpiderConfig::default(), 3);
        let ternary = of_arity(&result, 3);
        assert!(render(&d, &ternary).contains(&"T[a, b, c] << S[x, y, z]".to_string()));
    }
}
