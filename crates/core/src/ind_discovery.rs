//! The IND-Discovery algorithm (paper §6.1).
//!
//! For each equi-join `q = R_k[A_k] ⋈ R_l[A_l]` of `Q`, the extension
//! is queried for `N_k = ‖r_k[A_k]‖`, `N_l = ‖r_l[A_l]‖` and
//! `N_kl = ‖r_k[A_k] ⋈ r_l[A_l]‖`, then:
//!
//! * `N_kl = 0` — (i) nothing elicited (possible data-integrity issue);
//! * `N_kl = N_k` or `N_kl = N_l` — (ii)/(iii) the included side(s)
//!   yield inclusion dependencies;
//! * otherwise a *non-empty intersection* (NEI): the expert user either
//!   (iv) conceptualizes it as a new relation `R_p(A_p)` with
//!   `R_p ≪ R_k` and `R_p ≪ R_l`, (v)/(vi) forces one direction, or
//!   (vii) ignores it.
//!
//! Conceptualized relations are materialized with the intersection as
//! extension, keyed on all their attributes (they are identifier sets),
//! and recorded in `S`. Every case is decided from the three exact
//! cardinalities; no join is skipped.

use crate::oracle::{
    DecisionRecord, NamingContext, NeiContext, NeiDecision, NewRelationReason, Oracle,
};
use dbre_relational::attr::{AttrId, AttrSet};
use dbre_relational::backend::CountBackend;
use dbre_relational::counting::{EquiJoin, JoinStats};
use dbre_relational::database::Database;
use dbre_relational::deps::{Ind, IndSide};
use dbre_relational::par::par_map;
use dbre_relational::schema::{RelId, Relation};
use dbre_relational::stats::StatsEngine;
use dbre_relational::table::Table;
use dbre_relational::value::Value;
use dbre_relational::{Attribute, DbreError};

/// Result of IND-Discovery.
#[derive(Debug, Clone, Default)]
pub struct IndDiscovery {
    /// The elicited inclusion dependencies `IND`.
    pub inds: Vec<Ind>,
    /// New relations `S` conceptualized from NEIs.
    pub new_relations: Vec<RelId>,
    /// Per-join cardinalities, for reporting.
    pub join_stats: Vec<(EquiJoin, JoinStats)>,
    /// Audit trail of expert decisions.
    pub log: Vec<DecisionRecord>,
    /// Joins where the intersection was empty (case (i)) — flagged as
    /// potential data-integrity problems.
    pub empty_intersections: Vec<EquiJoin>,
}

impl IndDiscovery {
    fn add_ind(&mut self, ind: Ind) {
        if !self.inds.contains(&ind) {
            self.inds.push(ind);
        }
    }
}

/// Runs IND-Discovery over the set `Q`. Conceptualized NEI relations
/// are added to `db` (schema, extension, key constraint).
///
/// Equivalent to [`ind_discovery_with_engine`] with a throwaway
/// [`StatsEngine`].
pub fn ind_discovery(
    db: &mut Database,
    q: &[EquiJoin],
    oracle: &mut dyn Oracle,
) -> Result<IndDiscovery, DbreError> {
    ind_discovery_with_engine(db, q, oracle, &StatsEngine::new())
}

/// Runs IND-Discovery with counting memoized in `engine`.
///
/// Every join's exact cardinalities (`‖r_k[A_k]‖`, `‖r_l[A_l]‖`,
/// `‖r_k[A_k] ⋈ r_l[A_l]‖`) are collected up front in one [`par_map`]
/// pass over `engine` (concurrent with `--features parallel`), which
/// is sound because the only mutation the loop performs —
/// conceptualization — *adds* relations and never touches existing
/// tables. The loop below then reads them back from the engine's
/// cache in `Q` order.
///
/// The oracle dialogue stays strictly sequential and deterministic.
/// The NEI questions are *asked* in descending exact overlap order
/// ([`JoinStats::overlap_ratio`], ties broken by `Q` position) so a
/// live expert sees the most promising presumptions first. Decisions
/// are *applied* — and the log written — in `Q` order.
///
/// Every join is validated against the schema *before* any counting
/// touches a table; a malformed join (out-of-range ids, mismatched
/// side arity, empty attribute list) yields a typed
/// [`DbreError::Relational`] instead of an index panic. The pipeline
/// pre-filters `Q` with per-join warnings, so a direct caller is the
/// only one who ever sees this error.
pub fn ind_discovery_with_engine(
    db: &mut Database,
    q: &[EquiJoin],
    oracle: &mut dyn Oracle,
    engine: &dyn CountBackend,
) -> Result<IndDiscovery, DbreError> {
    for join in q {
        join.validate(db)?;
    }
    let mut out = IndDiscovery::default();

    // One pass fills the engine's join cache; the read-back hits it.
    par_map(q, |join| engine.join_stats(db, join));
    let all_stats: Vec<JoinStats> = q.iter().map(|join| engine.join_stats(db, join)).collect();

    // Rank the NEI questions: most-promising first by exact overlap
    // ratio, `Q` position as the deterministic tie-break.
    let is_nei =
        |s: &JoinStats| !s.empty_intersection() && s.n_join != s.n_left && s.n_join != s.n_right;
    let mut nei_order: Vec<usize> = (0..q.len()).filter(|&i| is_nei(&all_stats[i])).collect();
    nei_order.sort_by(|&a, &b| {
        all_stats[b]
            .overlap_ratio()
            .total_cmp(&all_stats[a].overlap_ratio())
            .then(a.cmp(&b))
    });

    // Consult the expert in ranked order; apply (and log) in Q order.
    let mut decisions: Vec<Option<NeiDecision>> = vec![None; q.len()];
    for &i in &nei_order {
        let stats = all_stats[i];
        decisions[i] = Some(oracle.resolve_nei(&NeiContext {
            db,
            join: &q[i],
            stats,
        }));
    }

    for (i, join) in q.iter().enumerate() {
        let stats = all_stats[i];
        out.join_stats.push((join.clone(), stats));
        let rendered = join.render(&db.schema);

        if stats.empty_intersection() {
            // (i) — IND left unchanged.
            out.empty_intersections.push(join.clone());
            out.log.push(DecisionRecord::new(
                "IND-Discovery",
                rendered,
                "empty intersection: nothing elicited (data integrity?)",
            ));
            continue;
        }

        if stats.n_join == stats.n_left || stats.n_join == stats.n_right {
            // (ii)/(iii) — exactly the paper's two independent tests.
            if stats.n_left <= stats.n_right {
                out.add_ind(Ind::new(join.left.clone(), join.right.clone())?);
                out.log.push(DecisionRecord::new(
                    "IND-Discovery",
                    rendered.clone(),
                    "inclusion elicited: left << right",
                ));
            }
            if stats.n_right <= stats.n_left {
                out.add_ind(Ind::new(join.right.clone(), join.left.clone())?);
                out.log.push(DecisionRecord::new(
                    "IND-Discovery",
                    rendered,
                    "inclusion elicited: right << left",
                ));
            }
            continue;
        }

        // NEI — the expert user already decided, apply in Q order (a
        // missing slot cannot happen — the ranked pass consulted every
        // NEI index — but fall back to asking now rather than panic).
        let decision = match decisions[i].take() {
            Some(d) => d,
            None => oracle.resolve_nei(&NeiContext { db, join, stats }),
        };
        out.log.push(DecisionRecord::new(
            "IND-Discovery/NEI",
            rendered.clone(),
            format!(
                "{decision:?} (N_k={}, N_l={}, N_kl={})",
                stats.n_left, stats.n_right, stats.n_join
            ),
        ));
        match decision {
            NeiDecision::Conceptualize => {
                let rel_p = conceptualize_intersection(db, join, oracle, engine)?;
                out.new_relations.push(rel_p);
                let arity = join.left.attrs.len() as u16;
                let p_attrs: Vec<AttrId> = (0..arity).map(AttrId).collect();
                out.add_ind(Ind::new(
                    IndSide::new(rel_p, p_attrs.clone()),
                    join.left.clone(),
                )?);
                out.add_ind(Ind::new(IndSide::new(rel_p, p_attrs), join.right.clone())?);
            }
            NeiDecision::ForceLeftInRight => {
                out.add_ind(Ind::new(join.left.clone(), join.right.clone())?);
            }
            NeiDecision::ForceRightInLeft => {
                out.add_ind(Ind::new(join.right.clone(), join.left.clone())?);
            }
            NeiDecision::Ignore => {}
        }
    }
    Ok(out)
}

/// Materializes `R_p(A_p)` for a conceptualized NEI: attributes named
/// after the left side, extension = the value intersection, key = the
/// whole attribute set.
///
/// Fallible: a join side that lists the same attribute twice (legal in
/// `Q`, e.g. `a.x = b.u AND a.x = b.v`) would give the new relation
/// duplicate attribute names — surfaced as a typed error.
fn conceptualize_intersection(
    db: &mut Database,
    join: &EquiJoin,
    oracle: &mut dyn Oracle,
    engine: &dyn CountBackend,
) -> Result<RelId, DbreError> {
    let left_rel = db.schema.relation(join.left.rel);
    let right_rel = db.schema.relation(join.right.rel);
    let attr_names: Vec<String> = join
        .left
        .attrs
        .iter()
        .map(|a| left_rel.attr_name(*a).to_string())
        .collect();
    let domains: Vec<_> = join
        .left
        .attrs
        .iter()
        .map(|a| left_rel.attribute(*a).domain)
        .collect();
    let default_name = unique_name(
        db,
        &format!(
            "{}_{}_{}",
            left_rel.name,
            right_rel.name,
            attr_names.join("_")
        ),
    );
    let source = format!("nei:{}", join.render(&db.schema));
    let name = oracle.name_new_relation(&NamingContext {
        db,
        reason: NewRelationReason::Intersection,
        default_name,
        source,
    });
    let name = unique_name(db, &name);

    // Extension: the intersection of both distinct projections (served
    // from the engine cache), in deterministic (sorted) order.
    let left_vals = engine.projection(db, join.left.rel, &join.left.attrs);
    let right_vals = engine.projection(db, join.right.rel, &join.right.attrs);
    let mut rows: Vec<Vec<Value>> = left_vals
        .iter()
        .filter(|v| right_vals.contains(*v))
        .cloned()
        .collect();
    rows.sort();
    let mut table = Table::new(attr_names.len());
    for row in rows {
        table.push_row(row)?;
    }

    let attrs: Vec<Attribute> = attr_names
        .iter()
        .zip(domains)
        .map(|(n, d)| Attribute::new(n.clone(), d))
        .collect();
    let rel_p = db.add_relation_with_table(Relation::new(name, attrs)?, table)?;
    // Identifier sets are keys of their conceptualized relation.
    db.constraints
        .add_key(rel_p, AttrSet::from_indices(0..attr_names.len() as u16));
    db.constraints.normalize();
    Ok(rel_p)
}

/// Returns `base` or `base_2`, `base_3`, … whichever is free.
pub(crate) fn unique_name(db: &Database, base: &str) -> String {
    if db.schema.rel_id(base).is_none() {
        return base.to_string();
    }
    let mut i = 2;
    loop {
        let cand = format!("{base}_{i}");
        if db.schema.rel_id(&cand).is_none() {
            return cand;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{AutoOracle, DenyOracle, ScriptedOracle};
    use dbre_relational::value::Domain;

    /// Two relations: L.x ⊆ {1..4}, R.y = {3..8}; intersection {3,4}.
    fn nei_db() -> (Database, EquiJoin) {
        let mut db = Database::new();
        let l = db
            .add_relation(Relation::of("L", &[("x", Domain::Int)]))
            .unwrap();
        let r = db
            .add_relation(Relation::of("R", &[("y", Domain::Int)]))
            .unwrap();
        for v in 1..=4 {
            db.insert(l, vec![Value::Int(v)]).unwrap();
        }
        for v in 3..=8 {
            db.insert(r, vec![Value::Int(v)]).unwrap();
        }
        let join = EquiJoin::try_new(IndSide::single(l, AttrId(0)), IndSide::single(r, AttrId(0)))
            .unwrap();
        (db, join)
    }

    #[test]
    fn inclusion_case_elicits_ind() {
        let mut db = Database::new();
        let l = db
            .add_relation(Relation::of("L", &[("x", Domain::Int)]))
            .unwrap();
        let r = db
            .add_relation(Relation::of("R", &[("y", Domain::Int)]))
            .unwrap();
        for v in 1..=3 {
            db.insert(l, vec![Value::Int(v)]).unwrap();
        }
        for v in 1..=5 {
            db.insert(r, vec![Value::Int(v)]).unwrap();
        }
        let join = EquiJoin::try_new(IndSide::single(l, AttrId(0)), IndSide::single(r, AttrId(0)))
            .unwrap();
        let out = ind_discovery(&mut db, &[join], &mut DenyOracle).unwrap();
        assert_eq!(out.inds.len(), 1);
        assert_eq!(out.inds[0].render(&db.schema), "L[x] << R[y]");
        assert!(out.new_relations.is_empty());
    }

    #[test]
    fn equal_value_sets_elicit_both_directions() {
        let mut db = Database::new();
        let l = db
            .add_relation(Relation::of("L", &[("x", Domain::Int)]))
            .unwrap();
        let r = db
            .add_relation(Relation::of("R", &[("y", Domain::Int)]))
            .unwrap();
        for v in [1, 2] {
            db.insert(l, vec![Value::Int(v)]).unwrap();
            db.insert(r, vec![Value::Int(v)]).unwrap();
        }
        let join = EquiJoin::try_new(IndSide::single(l, AttrId(0)), IndSide::single(r, AttrId(0)))
            .unwrap();
        let out = ind_discovery(&mut db, &[join], &mut DenyOracle).unwrap();
        assert_eq!(out.inds.len(), 2);
    }

    #[test]
    fn empty_intersection_flagged() {
        let mut db = Database::new();
        let l = db
            .add_relation(Relation::of("L", &[("x", Domain::Int)]))
            .unwrap();
        let r = db
            .add_relation(Relation::of("R", &[("y", Domain::Int)]))
            .unwrap();
        db.insert(l, vec![Value::Int(1)]).unwrap();
        db.insert(r, vec![Value::Int(2)]).unwrap();
        let join = EquiJoin::try_new(IndSide::single(l, AttrId(0)), IndSide::single(r, AttrId(0)))
            .unwrap();
        let out = ind_discovery(&mut db, &[join], &mut DenyOracle).unwrap();
        assert!(out.inds.is_empty());
        assert_eq!(out.empty_intersections.len(), 1);
    }

    #[test]
    fn nei_ignored_by_deny_oracle() {
        let (mut db, join) = nei_db();
        let out = ind_discovery(&mut db, &[join], &mut DenyOracle).unwrap();
        assert!(out.inds.is_empty());
        assert!(out.new_relations.is_empty());
        assert_eq!(out.log.len(), 1);
    }

    #[test]
    fn nei_conceptualization_creates_relation_with_intersection() {
        let (mut db, join) = nei_db();
        let mut oracle = ScriptedOracle::new()
            .nei("L[x] |><| R[y]", NeiDecision::Conceptualize)
            .name("nei:L[x] |><| R[y]", "Shared");
        let out = ind_discovery(&mut db, &[join], &mut oracle).unwrap();
        assert_eq!(out.new_relations.len(), 1);
        let shared = db.rel("Shared").unwrap();
        let t = db.table(shared);
        assert_eq!(t.len(), 2); // {3, 4}
        assert_eq!(t.cell(0, AttrId(0)), &Value::Int(3));
        // Both INDs added and hold.
        assert_eq!(out.inds.len(), 2);
        for ind in &out.inds {
            assert!(db.ind_holds(ind), "conceptualized IND must hold: {ind}");
        }
        // Keyed on its whole attribute set.
        assert!(db
            .constraints
            .is_key(shared, &AttrSet::from_indices([0u16])));
    }

    #[test]
    fn nei_forced_directions() {
        let (mut db, join) = nei_db();
        let mut oracle = ScriptedOracle::new().nei("L[x] |><| R[y]", NeiDecision::ForceLeftInRight);
        let out = ind_discovery(&mut db, std::slice::from_ref(&join), &mut oracle).unwrap();
        assert_eq!(out.inds[0].render(&db.schema), "L[x] << R[y]");
        // Forced INDs need not hold in the (dirty) extension.
        assert!(!db.ind_holds(&out.inds[0]));

        let (mut db, join) = nei_db();
        let mut oracle = ScriptedOracle::new().nei("L[x] |><| R[y]", NeiDecision::ForceRightInLeft);
        let out = ind_discovery(&mut db, &[join], &mut oracle).unwrap();
        assert_eq!(out.inds[0].render(&db.schema), "R[y] << L[x]");
    }

    #[test]
    fn auto_oracle_conceptualizes_mid_overlap() {
        // |L∩R| = 2 of min 4 → ratio 0.5 → conceptualize at default τ.
        let (mut db, join) = nei_db();
        let out = ind_discovery(&mut db, &[join], &mut AutoOracle::default()).unwrap();
        assert_eq!(out.new_relations.len(), 1);
    }

    #[test]
    fn elicited_inds_hold_in_extension() {
        let (mut db, join) = nei_db();
        let mut oracle = ScriptedOracle::new().nei("L[x] |><| R[y]", NeiDecision::Conceptualize);
        let out = ind_discovery(&mut db, &[join], &mut oracle).unwrap();
        for ind in &out.inds {
            assert!(db.ind_holds(ind));
        }
    }

    #[test]
    fn name_collisions_resolved() {
        let (mut db, join) = nei_db();
        // Script the new relation to clash with an existing name.
        let mut oracle = ScriptedOracle::new()
            .nei("L[x] |><| R[y]", NeiDecision::Conceptualize)
            .name("nei:L[x] |><| R[y]", "L");
        let out = ind_discovery(&mut db, &[join], &mut oracle).unwrap();
        let created = out.new_relations[0];
        assert_eq!(db.schema.relation(created).name, "L_2");
    }

    #[test]
    fn duplicate_joins_do_not_duplicate_inds() {
        let mut db = Database::new();
        let l = db
            .add_relation(Relation::of("L", &[("x", Domain::Int)]))
            .unwrap();
        let r = db
            .add_relation(Relation::of("R", &[("y", Domain::Int)]))
            .unwrap();
        db.insert(l, vec![Value::Int(1)]).unwrap();
        db.insert(r, vec![Value::Int(1)]).unwrap();
        let join = EquiJoin::try_new(IndSide::single(l, AttrId(0)), IndSide::single(r, AttrId(0)))
            .unwrap();
        let out = ind_discovery(&mut db, &[join.clone(), join], &mut DenyOracle).unwrap();
        assert_eq!(out.inds.len(), 2); // both directions, once each
    }
}
