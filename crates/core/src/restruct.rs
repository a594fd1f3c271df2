//! The Restruct algorithm (paper §7): from a 1NF schema plus the
//! elicited `F`, `H` and `IND` to a 3NF schema with key constraints and
//! referential integrity constraints.
//!
//! Three phases, exactly as in the paper:
//!
//! 1. **Hidden objects** — each `R_i.A_i ∈ H` becomes a new relation
//!    `R_p(A_i)` keyed on `A_i`; `R_i[A_i] ≪ R_p[A_i]` is added and
//!    every other occurrence of `R_i[A_i]` in `IND` is replaced by
//!    `R_p[A_i]`.
//! 2. **FD splitting** — each `f = R_i : A_i → B_i ∈ F` becomes a new
//!    relation `R_p(A_i B_i)` keyed on `A_i`; `B_i` is removed from
//!    `R_i`; `R_i[A_i] ≪ R_p[A_i]` is added and occurrences of
//!    `R_i[A_i]` / `R_i[B_i]` in `IND` are redirected to `R_p`.
//! 3. **RIC computation** — `RIC = {σ ≪ τ ∈ IND | τ is a key}`.
//!
//! Unlike the paper (which works on schema text), this implementation
//! also restructures the *extension*: new relations receive the
//! distinct projection of their source — one row per `A` group of the
//! counting engine's cached LHS groups, for a hidden object as for an
//! FD split, carrying the group's plurality `B` when the expert
//! enforced the FD over dirty data — and split-off attributes are
//! physically dropped, so the output is a runnable database whose
//! 3NF-ness the test suite verifies. A trimmed relation shares its
//! kept columns with the table it replaces ([`Table::drop_columns`]):
//! no cell is copied.

use crate::ind_discovery::unique_name;
use crate::oracle::{DecisionRecord, NamingContext, NewRelationReason, Oracle};
use dbre_relational::attr::{AttrId, AttrSet};
use dbre_relational::backend::{pluralities, CountBackend};
use dbre_relational::database::Database;
use dbre_relational::deps::{Fd, Ind, IndSide};
use dbre_relational::encode::{ColumnDict, NULL_CODE};
use dbre_relational::pages::PageError;
use dbre_relational::schema::{QualAttrs, RelId, Relation};
use dbre_relational::{Attribute, DbreError, RelationalError, Table};
use std::sync::Arc;

/// Result of Restruct.
#[derive(Debug, Clone, Default)]
pub struct Restructured {
    /// Relations created for hidden objects (phase 1).
    pub hidden_relations: Vec<RelId>,
    /// Relations created by FD splitting (phase 2).
    pub fd_relations: Vec<RelId>,
    /// The full rewritten IND set.
    pub inds: Vec<Ind>,
    /// The elicited FDs re-homed onto the relations that now carry
    /// them: `R_i : A → B` becomes `R_p : A' → B'` on the split-off
    /// relation. Against the restructured schema every one of these has
    /// a key LHS, which is what makes the output 3NF.
    pub fds: Vec<Fd>,
    /// The referential integrity constraints (key-based INDs).
    pub ric: Vec<Ind>,
    /// Diagnostics (dropped INDs that straddled a split, …).
    pub warnings: Vec<String>,
    /// Audit trail (naming decisions).
    pub log: Vec<DecisionRecord>,
}

/// Checks a `(relation, attribute set)` reference against the schema.
fn check_qual(db: &Database, rel: RelId, attrs: &AttrSet) -> Result<(), RelationalError> {
    if rel.index() >= db.schema.len() {
        return Err(RelationalError::UnknownRelation(format!(
            "#{}",
            rel.index()
        )));
    }
    let relation = db.schema.relation(rel);
    for a in attrs.iter() {
        if a.index() >= relation.arity() {
            return Err(RelationalError::UnknownAttribute {
                relation: relation.name.clone(),
                attribute: format!("#{}", a.index()),
            });
        }
    }
    Ok(())
}

/// Validates the elicited `F`, `H` and `IND` against the schema before
/// Restruct mutates anything: all relation and attribute ids in range,
/// FD left-hand sides and hidden attribute sets non-empty, IND sides
/// of equal arity. A caller feeding hand-built dependencies gets a
/// typed error instead of an index panic halfway through a rewrite.
fn validate_inputs(
    db: &Database,
    fds: &[Fd],
    hidden: &[QualAttrs],
    inds: &[Ind],
) -> Result<(), RelationalError> {
    for fd in fds {
        check_qual(db, fd.rel, &fd.lhs)?;
        check_qual(db, fd.rel, &fd.rhs)?;
        if fd.lhs.is_empty() {
            return Err(RelationalError::EmptyAttrList {
                relation: db.schema.relation(fd.rel).name.clone(),
            });
        }
    }
    for h in hidden {
        check_qual(db, h.rel, &h.attrs)?;
        if h.attrs.is_empty() {
            return Err(RelationalError::EmptyAttrList {
                relation: db.schema.relation(h.rel).name.clone(),
            });
        }
    }
    for ind in inds {
        for side in [&ind.lhs, &ind.rhs] {
            check_qual(db, side.rel, &side.attr_set())?;
        }
        if ind.lhs.attrs.len() != ind.rhs.attrs.len() {
            return Err(RelationalError::IndArityMismatch {
                lhs: ind.lhs.attrs.len(),
                rhs: ind.rhs.attrs.len(),
            });
        }
    }
    Ok(())
}

/// Runs Restruct. Mutates `db` in place: adds the new relations,
/// removes split-off attributes, extends `K`.
///
/// A hidden object or an FD split reads the rows of `R_i` grouped by
/// `A` from `engine` ([`CountBackend::lhs_groups`]) — the groups
/// RHS-Discovery's extension tests already cached there — so the split
/// regroups nothing, and it reads the g3 errors those tests cached
/// ([`CountBackend::fd_error`]) to tell an FD that holds from one the
/// expert enforced.
///
/// Fallible: malformed inputs (out-of-range ids, empty attribute sets,
/// mismatched IND arity) are rejected upfront with a typed error,
/// before any mutation. `db` is only modified on the `Ok` path and by
/// oracle panics unwinding mid-rewrite (the pipeline catches those at
/// the stage boundary).
pub fn restruct(
    db: &mut Database,
    fds: &[Fd],
    hidden: &[QualAttrs],
    inds: &[Ind],
    oracle: &mut dyn Oracle,
    engine: &dyn CountBackend,
) -> Result<Restructured, DbreError> {
    validate_inputs(db, fds, hidden, inds)?;
    let mut out = Restructured {
        inds: inds.to_vec(),
        ..Default::default()
    };

    // ---- Phase 1: hidden objects ----
    for h in hidden {
        let src_rel = db.schema.relation(h.rel);
        let attr_ids: Vec<AttrId> = h.attrs.iter().collect();
        let attr_names: Vec<String> = attr_ids
            .iter()
            .map(|a| src_rel.attr_name(*a).to_string())
            .collect();
        let attrs: Vec<Attribute> = attr_ids
            .iter()
            .map(|a| src_rel.attribute(*a).clone())
            .collect();
        let default_name = unique_name(db, &format!("{}_{}", src_rel.name, attr_names.join("_")));
        let source = format!("hidden:{}", h.render(&db.schema));
        let name = oracle.name_new_relation(&NamingContext {
            db,
            reason: NewRelationReason::HiddenObject,
            default_name,
            source: source.clone(),
        });
        let name = unique_name(db, &name);
        out.log.push(DecisionRecord::new(
            "Restruct/hidden",
            source,
            format!("new relation {name}"),
        ));

        // The distinct projection on `A_i`: the split of `A_i → ∅`.
        let table = fd_repaired_subtable(
            db,
            &Fd::new(h.rel, h.attrs.clone(), AttrSet::empty()),
            engine,
        )?;
        let rel_p = db.add_relation_with_table(Relation::new(name, attrs)?, table)?;
        let p_attrs: Vec<AttrId> = (0..attr_ids.len() as u16).map(AttrId).collect();
        db.constraints
            .add_key(rel_p, AttrSet::from_iter_ids(p_attrs.iter().copied()));
        out.hidden_relations.push(rel_p);

        // Replace occurrences of R_i[A_i] in IND, then add the linking
        // IND (which must itself stay untouched).
        replace_side(&mut out.inds, h.rel, &attr_ids, rel_p, &p_attrs);
        out.inds.push(Ind::new(
            IndSide::new(h.rel, attr_ids.clone()),
            IndSide::new(rel_p, p_attrs),
        )?);
    }

    // ---- Phase 2: FD splitting ----
    // Physical attribute removal is deferred to phase 3 so that attr
    // ids stay stable while INDs are rewritten.
    let mut pending_removals: Vec<(RelId, AttrSet)> = Vec::new();
    for fd in fds {
        let src_rel = db.schema.relation(fd.rel);
        let a_ids: Vec<AttrId> = fd.lhs.iter().collect();
        let b_ids: Vec<AttrId> = fd.rhs.iter().collect();
        let all_ids: Vec<AttrId> = a_ids.iter().chain(b_ids.iter()).copied().collect();
        let attrs: Vec<Attribute> = all_ids
            .iter()
            .map(|a| src_rel.attribute(*a).clone())
            .collect();
        let a_names: Vec<String> = a_ids
            .iter()
            .map(|a| src_rel.attr_name(*a).to_string())
            .collect();
        let default_name = unique_name(db, &format!("{}_{}", src_rel.name, a_names.join("_")));
        let source = format!("fd:{}", fd.render(&db.schema));
        let name = oracle.name_new_relation(&NamingContext {
            db,
            reason: NewRelationReason::FdSplit,
            default_name,
            source: source.clone(),
        });
        let name = unique_name(db, &name);
        out.log.push(DecisionRecord::new(
            "Restruct/fd",
            source,
            format!("new relation {name}"),
        ));

        // Materialize the split-off relation. When the FD truly holds
        // this is the plain distinct projection; when the expert
        // *enforced* it over dirty data (§6.2.2 step (ii)) the
        // projection can contain conflicting tuples — the paper notes
        // the structure then "no longer matches the database
        // extension". We repair by keeping, per key value, the most
        // frequent right-hand side (g3-style minimal change).
        let table = fd_repaired_subtable(db, fd, engine)?;
        let rel_p = db.add_relation_with_table(Relation::new(name, attrs)?, table)?;
        // Key of the new relation: its A_i prefix.
        let p_a: Vec<AttrId> = (0..a_ids.len() as u16).map(AttrId).collect();
        let p_b: Vec<AttrId> = (a_ids.len() as u16..all_ids.len() as u16)
            .map(AttrId)
            .collect();
        db.constraints
            .add_key(rel_p, AttrSet::from_iter_ids(p_a.iter().copied()));
        out.fd_relations.push(rel_p);
        out.fds.push(Fd::new(
            rel_p,
            AttrSet::from_iter_ids(p_a.iter().copied()),
            AttrSet::from_iter_ids(p_b.iter().copied()),
        ));
        pending_removals.push((fd.rel, fd.rhs.clone()));

        // Rewrite IND references, then add the linking IND.
        replace_side(&mut out.inds, fd.rel, &a_ids, rel_p, &p_a);
        replace_side(&mut out.inds, fd.rel, &b_ids, rel_p, &p_b);
        out.inds.push(Ind::new(
            IndSide::new(fd.rel, a_ids.clone()),
            IndSide::new(rel_p, p_a),
        )?);
    }

    // ---- Phase 3: physical attribute removal + remapping ----
    apply_removals(db, &pending_removals, &mut out)?;

    db.constraints.normalize();

    // ---- RIC ----
    out.ric = out
        .inds
        .iter()
        .filter(|ind| db.constraints.is_key(ind.rhs.rel, &ind.rhs.attr_set()))
        .cloned()
        .collect();

    Ok(out)
}

/// Builds the extension of an FD-split relation `R_p(A B)`: one tuple
/// per distinct non-null `A` value, in first-seen order, carrying the
/// [`pluralities`] `B` value of its group (ties broken by first
/// occurrence). Identical to the distinct projection whenever `A → B`
/// actually holds, and then read without a tally: when the engine's g3
/// error of `A → b` is 0 for every `b ∈ B` (on the pipeline path the
/// errors RHS-Discovery cached), each group's first row is its
/// plurality. With `B = ∅` this is the distinct projection on `A` — a
/// hidden object's relation. A row in no group of `engine`'s LHS
/// groups is the only one with its `A` value and keeps its own `B`.
/// The columns are gathered once each, as codes, from the source rows
/// of every output tuple ([`ColumnDict::gather`]), read off the
/// engine's [`CountBackend::column_dict`]; a gathered string cell
/// shares its source cell's allocation.
fn fd_repaired_subtable(
    db: &Database,
    fd: &Fd,
    engine: &dyn CountBackend,
) -> Result<Table, DbreError> {
    let a_ids: Vec<AttrId> = fd.lhs.iter().collect();
    let groups = engine.lhs_groups(db, fd.rel, &a_ids);
    let holds = groups.is_empty()
        || fd.rhs.iter().all(|b| {
            engine.fd_error(db, &Fd::new(fd.rel, fd.lhs.clone(), AttrSet::single(b))) == 0.0
        });
    let sources: Vec<usize> = if holds {
        groups.iter().map(|group| group[0]).collect()
    } else {
        pluralities(engine, db, fd, &groups)
            .into_iter()
            .map(|(row, _)| row)
            .collect()
    };
    let column = |attr: AttrId| {
        engine.column_dict(db, fd.rel, attr).ok_or_else(|| {
            DbreError::Page(PageError::Io(format!(
                "no codes for column `{}` of `{}`",
                db.schema.relation(fd.rel).attr_name(attr),
                db.schema.relation(fd.rel).name,
            )))
        })
    };
    let lhs: Vec<Arc<ColumnDict>> = a_ids.iter().map(|&a| column(a)).collect::<Result<_, _>>()?;
    let rows = db.table(fd.rel).len();
    // Per row: the group it starts, `GROUPED` for a later row of a
    // group, `SINGLE` for a row in no group (NULL or unique `A`).
    const SINGLE: usize = usize::MAX;
    const GROUPED: usize = usize::MAX - 1;
    let mut group_of = vec![SINGLE; rows];
    for (g, group) in groups.iter().enumerate() {
        group_of[group[0]] = g;
        for &i in &group[1..] {
            group_of[i] = GROUPED;
        }
    }
    let lhs_codes: Vec<_> = lhs.iter().map(|c| c.codes()).collect();
    // Per output tuple, the row its `A` and the row its `B` come from.
    let (a_rows, b_rows): (Vec<usize>, Vec<usize>) = group_of
        .iter()
        .enumerate()
        .filter_map(|(i, &g)| match g {
            GROUPED => None,
            SINGLE if lhs_codes.iter().any(|c| c[i] == NULL_CODE) => None,
            SINGLE => Some((i, i)),
            g => Some((i, sources[g])),
        })
        .unzip();
    let mut columns: Vec<ColumnDict> = lhs.iter().map(|c| c.gather(&a_rows)).collect();
    for b in fd.rhs.iter() {
        columns.push(column(b)?.gather(&b_rows));
    }
    Ok(Table::from_columns(columns)?)
}

/// Redirects IND sides from `(rel, attrs)` to `(new_rel, new_attrs)`.
///
/// A side is redirected when its attribute set is a *non-empty subset*
/// of the target set. Exact matching is what the paper's algorithm
/// text says ("replace `R_i[A_i]` by `R_p[A_i]`"), but its §7
/// walk-through requires the subset form: processing
/// `Department: emp → skill, proj` must turn `Department[proj] ≪ …`
/// (a strict subset of `B_i = {skill, proj}`) into `Manager[proj] ≪ …`
/// — and after the split those attributes no longer exist in `R_i`, so
/// redirecting every reference into their new home is the only reading
/// that keeps the IND set consistent.
fn replace_side(
    inds: &mut [Ind],
    rel: RelId,
    attrs: &[AttrId],
    new_rel: RelId,
    new_attrs: &[AttrId],
) {
    let target: AttrSet = AttrSet::from_iter_ids(attrs.iter().copied());
    for ind in inds.iter_mut() {
        for side in [&mut ind.lhs, &mut ind.rhs] {
            if side.rel == rel && !side.attrs.is_empty() && side.attr_set().is_subset(&target) {
                // Map each positional attribute through attrs→new_attrs.
                let mapped: Vec<AttrId> = side
                    .attrs
                    .iter()
                    .map(|a| {
                        // The subset check above guarantees every side
                        // attribute occurs in `attrs`.
                        #[allow(clippy::expect_used)]
                        let pos = attrs
                            .iter()
                            .position(|x| x == a)
                            .expect("attr is in the matched set");
                        new_attrs[pos]
                    })
                    .collect();
                side.rel = new_rel;
                side.attrs = mapped;
            }
        }
    }
}

/// Physically removes the collected attributes, remapping every
/// surviving artifact (keys, not-nulls, IND sides) through the new
/// attribute indices. IND sides that still reference a removed
/// attribute are dropped with a warning — they straddled a split the
/// elicited dependencies did not anticipate.
fn apply_removals(
    db: &mut Database,
    removals: &[(RelId, AttrSet)],
    out: &mut Restructured,
) -> Result<(), DbreError> {
    use std::collections::HashMap;
    // Merge removals per relation.
    let mut per_rel: HashMap<RelId, AttrSet> = HashMap::new();
    for (rel, set) in removals {
        let entry = per_rel.entry(*rel).or_default();
        *entry = entry.union(set);
    }

    for (rel, removed) in &per_rel {
        let relation = db.schema.relation(*rel).clone();
        // Build old→new id map.
        let mut map: HashMap<AttrId, AttrId> = HashMap::new();
        let mut kept: Vec<Attribute> = Vec::new();
        for (i, attr) in relation.attributes().iter().enumerate() {
            let old = AttrId(i as u16);
            if !removed.contains(old) {
                map.insert(old, AttrId(kept.len() as u16));
                kept.push(attr.clone());
            }
        }
        // Table first (drop_columns matches the relation header).
        let removed_ids: Vec<AttrId> = removed.iter().collect();
        let new_table = db.table(*rel).drop_columns(&removed_ids);
        let new_relation = Relation::new(relation.name.clone(), kept)?;
        db.schema.replace_relation(*rel, new_relation)?;
        db.replace_table(*rel, new_table)?;

        // Keys and not-nulls.
        db.constraints.keys.retain_mut(|k| {
            if k.rel != *rel {
                return true;
            }
            if !k.attrs.is_disjoint(removed) {
                // A key that lost attributes no longer exists on R_i.
                return false;
            }
            k.attrs = AttrSet::from_iter_ids(k.attrs.iter().map(|a| map[&a]));
            true
        });
        db.constraints.not_null.retain_mut(|(r, a)| {
            if r != rel {
                return true;
            }
            match map.get(a) {
                Some(new) => {
                    *a = *new;
                    true
                }
                None => false,
            }
        });

        // IND sides.
        let rel_name = db.schema.relation(*rel).name.clone();
        let mut inds = std::mem::take(&mut out.inds);
        inds.retain_mut(|ind| {
            for side in [&mut ind.lhs, &mut ind.rhs] {
                if side.rel != *rel {
                    continue;
                }
                if side.attrs.iter().any(|a| removed.contains(*a)) {
                    out.warnings.push(format!(
                        "dropped IND referencing removed attributes of {rel_name}"
                    ));
                    return false;
                }
                for a in side.attrs.iter_mut() {
                    *a = map[a];
                }
            }
            true
        });
        out.inds = inds;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{DenyOracle, ScriptedOracle};
    use dbre_relational::counting::{EquiJoin, JoinStats};
    use dbre_relational::stats::StatsEngine;
    use dbre_relational::value::{Domain, Value};
    use proptest::prelude::*;
    use std::sync::{Arc, Mutex};

    /// Department(dep key, emp, skill, location, proj) + Project-ish
    /// Assignment(emp, dep, proj, date, pname) with keys as in §5.
    fn db() -> (Database, RelId, RelId) {
        let mut db = Database::new();
        let dept = db
            .add_relation(Relation::of(
                "Department",
                &[
                    ("dep", Domain::Text),
                    ("emp", Domain::Int),
                    ("skill", Domain::Text),
                    ("location", Domain::Text),
                    ("proj", Domain::Text),
                ],
            ))
            .unwrap();
        let assign = db
            .add_relation(Relation::of(
                "Assignment",
                &[
                    ("emp", Domain::Int),
                    ("dep", Domain::Text),
                    ("proj", Domain::Text),
                    ("date", Domain::Date),
                    ("project-name", Domain::Text),
                ],
            ))
            .unwrap();
        db.constraints.add_key(dept, AttrSet::from_indices([0u16]));
        db.constraints
            .add_key(assign, AttrSet::from_indices([0u16, 1, 2]));
        db.constraints.normalize();
        for (dep, emp, skill, loc, proj) in [
            ("d1", 1, "db", "lyon", "p1"),
            ("d2", 1, "db", "paris", "p1"),
            ("d3", 2, "ai", "lyon", "p2"),
        ] {
            db.insert(
                dept,
                vec![
                    Value::str(dep),
                    Value::Int(emp),
                    Value::str(skill),
                    Value::str(loc),
                    Value::str(proj),
                ],
            )
            .unwrap();
        }
        for (emp, dep, proj, d, pn) in [
            (1, "d1", "p1", 1, "alpha"),
            (2, "d1", "p2", 2, "beta"),
            (1, "d3", "p1", 3, "alpha"),
        ] {
            db.insert(
                assign,
                vec![
                    Value::Int(emp),
                    Value::str(dep),
                    Value::str(proj),
                    Value::Date(dbre_relational::Date(d)),
                    Value::str(pn),
                ],
            )
            .unwrap();
        }
        (db, dept, assign)
    }

    #[test]
    fn hidden_object_phase_creates_keyed_relation() {
        let (mut db, dept, _) = db();
        let h = QualAttrs::new(dept, AttrSet::from_indices([1u16]));
        let mut oracle = ScriptedOracle::new().name("hidden:Department.{emp}", "Employee");
        let out = restruct(&mut db, &[], &[h], &[], &mut oracle, &StatsEngine::new()).unwrap();
        assert_eq!(out.hidden_relations.len(), 1);
        let employee = db.rel("Employee").unwrap();
        assert_eq!(db.table(employee).len(), 2); // distinct emps {1, 2}
        assert!(db
            .constraints
            .is_key(employee, &AttrSet::from_indices([0u16])));
        // Linking IND present and in RIC.
        assert_eq!(out.inds.len(), 1);
        assert_eq!(
            out.inds[0].render(&db.schema),
            "Department[emp] << Employee[emp]"
        );
        assert_eq!(out.ric.len(), 1);
        assert!(db.ind_holds(&out.inds[0]));
    }

    #[test]
    fn hidden_phase_redirects_existing_inds() {
        let (mut db, dept, assign) = db();
        let h = QualAttrs::new(assign, AttrSet::from_indices([0u16]));
        // Existing IND Department[emp] << Assignment[emp].
        let existing = Ind::unary(dept, AttrId(1), assign, AttrId(0));
        let mut oracle = ScriptedOracle::new().name("hidden:Assignment.{emp}", "Employee");
        let out = restruct(
            &mut db,
            &[],
            &[h],
            &[existing],
            &mut oracle,
            &StatsEngine::new(),
        )
        .unwrap();
        let rendered: Vec<String> = out.inds.iter().map(|i| i.render(&db.schema)).collect();
        assert!(rendered.contains(&"Department[emp] << Employee[emp]".to_string()));
        assert!(rendered.contains(&"Assignment[emp] << Employee[emp]".to_string()));
        assert_eq!(out.inds.len(), 2);
    }

    #[test]
    fn fd_split_removes_attributes_and_remaps() {
        let (mut db, dept, _) = db();
        // Department: emp -> skill, proj.
        let fd = Fd::new(
            dept,
            AttrSet::from_indices([1u16]),
            AttrSet::from_indices([2u16, 4u16]),
        );
        let mut oracle = ScriptedOracle::new().name("fd:Department: emp -> skill, proj", "Manager");
        let out = restruct(&mut db, &[fd], &[], &[], &mut oracle, &StatsEngine::new()).unwrap();
        assert_eq!(out.fd_relations.len(), 1);
        // Department lost skill and proj.
        let dept_rel = db.schema.relation(dept);
        assert_eq!(dept_rel.arity(), 3);
        assert_eq!(
            dept_rel
                .attributes()
                .iter()
                .map(|a| a.name.as_str())
                .collect::<Vec<_>>(),
            vec!["dep", "emp", "location"]
        );
        // Manager(emp, skill, proj) keyed on emp, 2 distinct rows.
        let manager = db.rel("Manager").unwrap();
        assert_eq!(db.schema.relation(manager).arity(), 3);
        assert_eq!(db.table(manager).len(), 2);
        assert!(db
            .constraints
            .is_key(manager, &AttrSet::from_indices([0u16])));
        // Linking IND remapped to the *new* Department layout.
        let rendered: Vec<String> = out.inds.iter().map(|i| i.render(&db.schema)).collect();
        assert_eq!(
            rendered,
            vec!["Department[emp] << Manager[emp]".to_string()]
        );
        for ind in &out.inds {
            assert!(db.ind_holds(ind));
        }
        // The old key of Department survived the remap.
        assert!(db.constraints.is_key(dept, &AttrSet::from_indices([0u16])));
    }

    /// Restruct trims `Department` without copying a cell: each of its
    /// kept columns, and every column of the untouched `Assignment`, is
    /// the allocation the snapshot taken before Restruct holds, and that
    /// snapshot still equals the input.
    #[test]
    fn trimmed_relations_share_their_kept_columns_with_the_snapshot() {
        let (mut db, dept, assign) = db();
        let before = db.clone();
        let fd = Fd::new(
            dept,
            AttrSet::from_indices([1u16]),
            AttrSet::from_indices([2u16, 4u16]),
        );
        restruct(
            &mut db,
            &[fd],
            &[],
            &[],
            &mut DenyOracle,
            &StatsEngine::new(),
        )
        .unwrap();
        assert_eq!(db.schema.relation(dept).arity(), 3);
        for rel in [dept, assign] {
            let relation = db.schema.relation(rel);
            let old = before.schema.relation(rel);
            for (i, attr) in relation.attributes().iter().enumerate() {
                let kept = db.table(rel).column(AttrId(i as u16));
                let source = before.table(rel).column(old.attr_id(&attr.name).unwrap());
                assert!(Arc::ptr_eq(kept, source), "{}.{}", relation.name, attr.name);
            }
        }
        let (input, _, _) = super::tests::db();
        for rel in [dept, assign] {
            assert_eq!(before.table(rel), input.table(rel));
            assert_eq!(before.schema.relation(rel), input.schema.relation(rel));
        }
    }

    /// Every string cell of a split-off relation is its source cell's
    /// allocation, not a copy: the FD split's `Manager` and the hidden
    /// phase's `Site`. The fixture inserts each cell through its own
    /// `Value::str`, so no two source cells share one.
    #[test]
    fn split_off_cells_share_their_source_strings() {
        fn is_shared(column: &ColumnDict, source: &ColumnDict) -> bool {
            column.values().all(|v| match v {
                Value::Str(s) => source
                    .values()
                    .any(|w| matches!(w, Value::Str(t) if Arc::ptr_eq(s, t))),
                _ => true,
            })
        }
        let (mut db, dept, _) = db();
        let before = db.clone();
        let fd = Fd::new(
            dept,
            AttrSet::from_indices([1u16]),
            AttrSet::from_indices([2u16, 4u16]),
        );
        let site = QualAttrs::new(dept, AttrSet::from_indices([3u16]));
        let mut oracle = ScriptedOracle::new()
            .name("fd:Department: emp -> skill, proj", "Manager")
            .name("hidden:Department.{location}", "Site");
        restruct(
            &mut db,
            &[fd],
            &[site],
            &[],
            &mut oracle,
            &StatsEngine::new(),
        )
        .unwrap();
        let source = |attr: u16| before.table(dept).column(AttrId(attr));
        let manager = db.table(db.rel("Manager").unwrap());
        assert_eq!(manager.len(), 2);
        assert!(is_shared(manager.column(AttrId(1)), source(2)), "skill");
        assert!(is_shared(manager.column(AttrId(2)), source(4)), "proj");
        let site = db.table(db.rel("Site").unwrap());
        assert_eq!(site.len(), 2);
        assert!(is_shared(site.column(AttrId(0)), source(3)), "location");
        // A copy of an equal string is not a share.
        assert!(!is_shared(
            &ColumnDict::build(&[Value::str("lyon")]),
            source(3)
        ));
    }

    /// A counting engine that records every column whose resident codes
    /// its caller asks for.
    struct CodesLog {
        inner: StatsEngine,
        asked: Mutex<Vec<AttrId>>,
    }

    impl CountBackend for CodesLog {
        fn name(&self) -> &'static str {
            "codes-log"
        }

        fn count_distinct(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> usize {
            self.inner.count_distinct(db, rel, attrs)
        }

        fn join_stats(&self, db: &Database, join: &EquiJoin) -> JoinStats {
            self.inner.join_stats(db, join)
        }

        fn lhs_groups(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<Vec<Vec<usize>>> {
            self.inner.lhs_groups(db, rel, attrs)
        }

        fn fd_error(&self, db: &Database, fd: &Fd) -> f64 {
            self.inner.fd_error(db, fd)
        }

        fn column_dict(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnDict>> {
            self.asked.lock().unwrap().push(attr);
            self.inner.column_dict(db, rel, attr)
        }
    }

    /// The split of an FD that holds tallies no RHS codes: its g3
    /// errors are 0, so each group's first row is its plurality, and
    /// each column is read once, for its gather. The split of an
    /// enforced FD tallies its RHS codes before the gather.
    #[test]
    fn the_split_of_an_fd_that_holds_tallies_nothing() {
        let split = |rhs: u16| {
            let (mut db, dept, _) = db();
            let fd = Fd::new(
                dept,
                AttrSet::from_indices([1u16]),
                AttrSet::from_indices([rhs]),
            );
            let log = CodesLog {
                inner: StatsEngine::new(),
                asked: Mutex::new(Vec::new()),
            };
            let out = restruct(&mut db, &[fd], &[], &[], &mut DenyOracle, &log).unwrap();
            let rows: Vec<Vec<Value>> = db.table(out.fd_relations[0]).rows().collect();
            (rows, log.asked.into_inner().unwrap())
        };
        // Department: emp -> skill holds.
        let (rows, asked) = split(2);
        assert_eq!(asked, vec![AttrId(1), AttrId(2)]);
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::str("db")],
                vec![Value::Int(2), Value::str("ai")]
            ]
        );
        // Department: emp -> location does not (lyon, paris for emp 1).
        let (rows, asked) = split(3);
        assert_eq!(asked, vec![AttrId(3), AttrId(1), AttrId(3)]);
        assert_eq!(rows[0], vec![Value::Int(1), Value::str("lyon")]);
    }

    /// A hidden object's relation holds the distinct non-NULL values of
    /// its attributes in first-seen order.
    #[test]
    fn hidden_relation_keeps_the_first_seen_order() {
        let mut db = Database::new();
        let s = db
            .add_relation(Relation::of(
                "S",
                &[("x", Domain::Int), ("y", Domain::Text)],
            ))
            .unwrap();
        for (x, y) in [
            (Value::Int(1), Value::str("a")),
            (Value::Int(1), Value::str("a")),
            (Value::Int(2), Value::str("b")),
            (Value::Null, Value::str("c")),
            (Value::Int(3), Value::Null),
        ] {
            db.insert(s, vec![x, y]).unwrap();
        }
        let h = QualAttrs::new(s, AttrSet::from_indices([0u16]));
        let out = restruct(
            &mut db,
            &[],
            &[h],
            &[],
            &mut DenyOracle,
            &StatsEngine::new(),
        )
        .unwrap();
        let got: Vec<Vec<Value>> = db.table(out.hidden_relations[0]).rows().collect();
        assert_eq!(
            got,
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(2)],
                vec![Value::Int(3)]
            ]
        );
    }

    #[test]
    fn fd_split_redirects_rhs_references() {
        let (mut db, dept, assign) = db();
        // Existing IND Department[proj] << Assignment[proj].
        let existing = Ind::unary(dept, AttrId(4), assign, AttrId(2));
        // Assignment: proj -> project-name  creates Project; Department:
        // emp -> skill,proj creates Manager; the existing IND must end
        // up Manager[proj] << Project[proj] — the paper's §7 walk-through.
        let fds = [
            Fd::new(
                assign,
                AttrSet::from_indices([2u16]),
                AttrSet::from_indices([4u16]),
            ),
            Fd::new(
                dept,
                AttrSet::from_indices([1u16]),
                AttrSet::from_indices([2u16, 4u16]),
            ),
        ];
        let mut oracle = ScriptedOracle::new()
            .name("fd:Assignment: proj -> project-name", "Project")
            .name("fd:Department: emp -> skill, proj", "Manager");
        let out = restruct(
            &mut db,
            &fds,
            &[],
            &[existing],
            &mut oracle,
            &StatsEngine::new(),
        )
        .unwrap();
        let rendered: Vec<String> = out.inds.iter().map(|i| i.render(&db.schema)).collect();
        assert!(
            rendered.contains(&"Manager[proj] << Project[proj]".to_string()),
            "got {rendered:?}"
        );
        for ind in &out.inds {
            assert!(
                db.ind_holds(ind),
                "IND must hold after restructuring: {}",
                ind.render(&db.schema)
            );
        }
    }

    #[test]
    fn ric_excludes_non_key_targets() {
        let (mut db, dept, assign) = db();
        // Assignment[dep] << Department[dep] — Department.dep is a key.
        let keyed = Ind::unary(assign, AttrId(1), dept, AttrId(0));
        // Department[emp] << Assignment[emp] — Assignment.emp not a key.
        let unkeyed = Ind::unary(dept, AttrId(1), assign, AttrId(0));
        let out = restruct(
            &mut db,
            &[],
            &[],
            &[keyed, unkeyed],
            &mut DenyOracle,
            &StatsEngine::new(),
        )
        .unwrap();
        assert_eq!(out.inds.len(), 2);
        assert_eq!(out.ric.len(), 1);
        assert_eq!(
            out.ric[0].render(&db.schema),
            "Assignment[dep] << Department[dep]"
        );
    }

    #[test]
    fn default_names_used_without_script() {
        let (mut db, dept, _) = db();
        let h = QualAttrs::new(dept, AttrSet::from_indices([1u16]));
        let out = restruct(
            &mut db,
            &[],
            &[h],
            &[],
            &mut DenyOracle,
            &StatsEngine::new(),
        )
        .unwrap();
        let name = &db.schema.relation(out.hidden_relations[0]).name;
        assert_eq!(name, "Department_emp");
    }

    /// An FD the expert enforced over dirty data splits off one row
    /// per distinct non-NULL `A`, in first-seen order, carrying the
    /// plurality `B` of its group: a tie goes to the first occurrence,
    /// a NULL-`A` row is dropped, and NULL and NaN count as values.
    #[test]
    fn enforced_fd_split_keeps_the_plurality_rhs() {
        let mut db = Database::new();
        let t = db
            .add_relation(Relation::of(
                "T",
                &[("k", Domain::Int), ("a", Domain::Int), ("b", Domain::Float)],
            ))
            .unwrap();
        db.constraints.add_key(t, AttrSet::from_indices([0u16]));
        db.constraints.normalize();
        let csv = "k,a,b\n0,1,2\n1,1,3\n2,2,\n3,1,3\n4,,9\n5,1,2\n\
                   6,3,NaN\n7,2,5\n8,2,\n9,3,4\n10,3,NaN\n11,4,7\n";
        dbre_relational::csv::import_csv(&mut db, t, csv).unwrap();
        let fd = Fd::new(
            t,
            AttrSet::from_indices([1u16]),
            AttrSet::from_indices([2u16]),
        );
        assert!(!db.fd_holds(&fd), "the split FD is enforced, not satisfied");
        let mut oracle = ScriptedOracle::new().name("fd:T: a -> b", "TA");
        let out = restruct(&mut db, &[fd], &[], &[], &mut oracle, &StatsEngine::new()).unwrap();
        let split = db.rel("TA").unwrap();
        assert_eq!(out.fd_relations, vec![split]);
        let got: Vec<Vec<Value>> = db.table(split).rows().collect();
        let (i, f) = (Value::Int, Value::float);
        let want = [
            [i(1), f(2.0)],
            [i(2), Value::Null],
            [i(3), f(f64::NAN)],
            [i(4), f(7.0)],
        ];
        assert_eq!(got, want);
        assert_eq!(db.schema.relation(t).arity(), 2, "b left T");
    }

    /// The `Value`-level reference for an FD split: one row per
    /// distinct non-NULL `lhs` tuple in first-seen order, carrying the
    /// `rhs` tuple that occurs most often with it, ties going to the
    /// first to occur.
    fn reference_split(t: &Table, lhs: &[AttrId], rhs: &[AttrId]) -> Vec<Vec<Value>> {
        let mut order: Vec<Vec<Value>> = Vec::new();
        let mut tallies: std::collections::HashMap<Vec<Value>, Vec<(Vec<Value>, usize)>> =
            std::collections::HashMap::new();
        for i in (0..t.len()).filter(|&i| !t.row_has_null(i, lhs)) {
            let (a, b) = (t.project_row(i, lhs), t.project_row(i, rhs));
            let tally = tallies.entry(a.clone()).or_insert_with(|| {
                order.push(a);
                Vec::new()
            });
            match tally.iter_mut().find(|(seen, _)| *seen == b) {
                Some((_, n)) => *n += 1,
                None => tally.push((b, 1)),
            }
        }
        order
            .into_iter()
            .map(|a| {
                let tally = &tallies[&a];
                let max = tally.iter().map(|(_, n)| *n).max().unwrap();
                let (b, _) = tally.iter().find(|(_, n)| *n == max).unwrap();
                a.iter().chain(b).cloned().collect()
            })
            .collect()
    }

    /// The `Value`-level reference for a hidden object's relation: the
    /// distinct non-NULL `attrs` tuples in first-seen order.
    fn reference_distinct(t: &Table, attrs: &[AttrId]) -> Vec<Vec<Value>> {
        let mut seen = std::collections::HashSet::new();
        (0..t.len())
            .filter(|&i| !t.row_has_null(i, attrs))
            .map(|i| t.project_row(i, attrs))
            .filter(|row| seen.insert(row.clone()))
            .collect()
    }

    fn cell() -> impl Strategy<Value = Value> {
        prop_oneof![
            (0i64..3).prop_map(Value::Int),
            (0i64..3).prop_map(Value::Int),
            Just(Value::Null),
            Just(Value::str("x")),
            Just(Value::float(f64::NAN)),
        ]
    }

    proptest! {
        /// On generated tables with NULL and NaN cells, the split of an
        /// FD enforced over dirty data — composite LHS and RHS included
        /// — equals the `Value`-level plurality reference, on the
        /// encoded and the reference engine.
        #[test]
        fn enforced_split_matches_the_value_plurality_reference(
            rows in prop::collection::vec(prop::collection::vec(cell(), 4), 0..30),
            lhs_width in 1usize..3,
            rhs_width in 1usize..3,
        ) {
            let table = Table::from_rows(4, rows).unwrap();
            let lhs: Vec<AttrId> = (0..lhs_width as u16).map(AttrId).collect();
            let rhs: Vec<AttrId> = (2..2 + rhs_width as u16).map(AttrId).collect();
            let expected = reference_split(&table, &lhs, &rhs);
            let relation = Relation::of(
                "T",
                &[("a", Domain::Int), ("b", Domain::Int), ("c", Domain::Int), ("d", Domain::Int)],
            );
            let fd = Fd::new(
                RelId(0),
                AttrSet::from_iter_ids(lhs.iter().copied()),
                AttrSet::from_iter_ids(rhs.iter().copied()),
            );
            let engines = [
                StatsEngine::new(),
                StatsEngine::with_backend(Box::new(dbre_relational::ReferenceBackend)),
            ];
            for engine in engines {
                let mut db = Database::new();
                db.add_relation_with_table(relation.clone(), table.clone()).unwrap();
                let out = restruct(&mut db, std::slice::from_ref(&fd), &[], &[], &mut DenyOracle, &engine)
                    .unwrap();
                let got: Vec<Vec<Value>> = db.table(out.fd_relations[0]).rows().collect();
                prop_assert_eq!(&got, &expected, "{}", engine.name());
            }
        }
    }

    proptest! {
        /// A hidden object's relation is the distinct non-NULL
        /// projection of its attributes in first-seen order, as many
        /// rows as `‖r[A]‖`, on generated tables with NULL and NaN
        /// cells and on the encoded and the reference engine.
        #[test]
        fn hidden_relation_is_the_first_seen_distinct_projection(
            rows in prop::collection::vec(prop::collection::vec(cell(), 4), 0..30),
            width in 1usize..3,
        ) {
            let table = Table::from_rows(4, rows).unwrap();
            let attrs: Vec<AttrId> = (0..width as u16).map(AttrId).collect();
            let expected = reference_distinct(&table, &attrs);
            prop_assert_eq!(expected.len(), table.count_distinct(&attrs));
            let relation = Relation::of(
                "T",
                &[("a", Domain::Int), ("b", Domain::Int), ("c", Domain::Int), ("d", Domain::Int)],
            );
            let hidden = QualAttrs::new(RelId(0), AttrSet::from_iter_ids(attrs.iter().copied()));
            let engines = [
                StatsEngine::new(),
                StatsEngine::with_backend(Box::new(dbre_relational::ReferenceBackend)),
            ];
            for engine in engines {
                let mut db = Database::new();
                db.add_relation_with_table(relation.clone(), table.clone()).unwrap();
                let out = restruct(&mut db, &[], std::slice::from_ref(&hidden), &[], &mut DenyOracle, &engine)
                    .unwrap();
                let got: Vec<Vec<Value>> = db.table(out.hidden_relations[0]).rows().collect();
                prop_assert_eq!(&got, &expected, "{}", engine.name());
            }
        }
    }

    #[test]
    fn straddling_ind_dropped_with_warning() {
        let (mut db, dept, assign) = db();
        // IND whose side mixes kept (dep) and removed (skill) attrs.
        let straddle = Ind::new(
            IndSide::new(dept, vec![AttrId(0), AttrId(2)]),
            IndSide::new(assign, vec![AttrId(1), AttrId(4)]),
        )
        .unwrap();
        let fd = Fd::new(
            dept,
            AttrSet::from_indices([1u16]),
            AttrSet::from_indices([2u16, 4u16]),
        );
        let out = restruct(
            &mut db,
            &[fd],
            &[],
            &[straddle],
            &mut DenyOracle,
            &StatsEngine::new(),
        )
        .unwrap();
        assert!(!out.warnings.is_empty());
        assert_eq!(out.inds.len(), 1); // only the linking IND survives
    }
}
