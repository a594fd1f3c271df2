//! The relational database `(R, E, Δ)` plus the dictionary constraints.

use crate::attr::AttrSet;
use crate::bufpool::BufferPool;
use crate::deps::{Constraints, Dependencies, Fd, Ind};
use crate::encode::{distinct_codes, ColumnDict};
use crate::error::{DbreError, RelationalError};
use crate::schema::{RelId, Relation, Schema};
use crate::table::{ProjKey, Table};
use crate::value::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-global generation allocator. Every table-version tag is
/// drawn from here, so a generation identifies one table version
/// *across every `Database` clone in the process* — two sessions that
/// diverge from the same snapshot can never alias each other's cache
/// entries, which is what lets them share one
/// [`crate::stats::StatsEngine`].
static NEXT_GEN: AtomicU64 = AtomicU64::new(1);

fn fresh_gen() -> u64 {
    NEXT_GEN.fetch_add(1, Ordering::Relaxed)
}

/// A relational database: schema `R`, extension `E` (one [`Table`] per
/// relation), dictionary constraints (`K`, `N`) and elicited
/// dependencies `Δ`.
///
/// Tables sit behind [`Arc`], so cloning a database (the snapshot
/// path, [`crate::snapshot`]) is O(relations) and mutation is
/// copy-on-write per table.
#[derive(Debug, Clone, Default)]
pub struct Database {
    /// The schema `R`.
    pub schema: Schema,
    tables: Vec<Arc<Table>>,
    /// Per-table generation tags, reassigned (from the process-global
    /// allocator) on every (potential) extension mutation.
    /// [`crate::stats::StatsEngine`] keys its caches on these so a
    /// cached count is never served after the underlying table
    /// changed.
    gens: Vec<u64>,
    /// Dictionary constraints `K` and `N`.
    pub constraints: Constraints,
    /// Dependency set `Δ` (starts empty — the point of the paper).
    pub deps: Dependencies,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Adds a relation with an empty extension.
    pub fn add_relation(&mut self, rel: Relation) -> Result<RelId, RelationalError> {
        let arity = rel.arity();
        let id = self.schema.add_relation(rel)?;
        self.tables.push(Arc::new(Table::new(arity)));
        self.gens.push(fresh_gen());
        Ok(id)
    }

    /// Adds a relation together with a prepared extension.
    pub fn add_relation_with_table(
        &mut self,
        rel: Relation,
        table: Table,
    ) -> Result<RelId, RelationalError> {
        if table.arity() != rel.arity() {
            return Err(RelationalError::ArityMismatch {
                relation: rel.name.clone(),
                expected: rel.arity(),
                got: table.arity(),
            });
        }
        let id = self.schema.add_relation(rel)?;
        self.tables.push(Arc::new(table));
        self.gens.push(fresh_gen());
        Ok(id)
    }

    /// The extension of `rel`.
    pub fn table(&self, rel: RelId) -> &Table {
        &self.tables[rel.index()]
    }

    /// Mutable extension access. Conservatively counts as a mutation
    /// for cache-invalidation purposes (see [`Self::generation`]).
    pub fn table_mut(&mut self, rel: RelId) -> &mut Table {
        self.gens[rel.index()] = fresh_gen();
        Arc::make_mut(&mut self.tables[rel.index()])
    }

    /// The generation tag of `rel`'s extension: assigned at creation
    /// and reassigned by [`Self::insert`], [`Self::replace_table`] and
    /// [`Self::table_mut`] — in a
    /// dialogue, by IND-Discovery's conceptualisations and Restruct's
    /// splits. Tags come from a process-global allocator, so equal
    /// tags mean *the same table version* even across database clones;
    /// cached statistics tagged with a different generation are stale.
    pub fn generation(&self, rel: RelId) -> u64 {
        self.gens[rel.index()]
    }

    /// Replaces the extension of `rel` (Restruct uses this when dropping
    /// attributes from a relation).
    pub fn replace_table(&mut self, rel: RelId, table: Table) -> Result<(), RelationalError> {
        if table.arity() != self.schema.relation(rel).arity() {
            return Err(RelationalError::ArityMismatch {
                relation: self.schema.relation(rel).name.clone(),
                expected: self.schema.relation(rel).arity(),
                got: table.arity(),
            });
        }
        self.tables[rel.index()] = Arc::new(table);
        self.gens[rel.index()] = fresh_gen();
        Ok(())
    }

    /// Inserts a tuple with domain validation.
    pub fn insert(&mut self, rel: RelId, row: Vec<Value>) -> Result<(), RelationalError> {
        self.validate_row(rel, &row)?;
        self.gens[rel.index()] = fresh_gen();
        Arc::make_mut(&mut self.tables[rel.index()]).push_row(row)
    }

    fn validate_row(&self, rel: RelId, row: &[Value]) -> Result<(), RelationalError> {
        let relation = self.schema.relation(rel);
        if row.len() != relation.arity() {
            return Err(RelationalError::ArityMismatch {
                relation: relation.name.clone(),
                expected: relation.arity(),
                got: row.len(),
            });
        }
        for (i, v) in row.iter().enumerate() {
            let attr = &relation.attributes()[i];
            if !v.fits(attr.domain) {
                return Err(RelationalError::DomainViolation {
                    relation: relation.name.clone(),
                    attribute: attr.name.clone(),
                    value: v.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Looks up a relation id by name, erroring when missing.
    pub fn rel(&self, name: &str) -> Result<RelId, RelationalError> {
        self.schema
            .rel_id(name)
            .ok_or_else(|| RelationalError::UnknownRelation(name.to_string()))
    }

    /// Validates that every declared constraint (`K`, `N`) holds in the
    /// extension. The paper assumes `E` "is correct with respect to the
    /// constraints defined in the data dictionary" — this checks it,
    /// every key first, in declaration order, then every not-null
    /// constraint. Streamed tables are checked like resident ones.
    ///
    /// # Panics
    ///
    /// When a page of a streamed table's composite key cannot be read,
    /// naming the relation and the file.
    pub fn validate_dictionary(&self) -> Result<(), RelationalError> {
        match self.check_constraints(None, &BufferPool::with_capacity_pages(1)) {
            Ok(()) => Ok(()),
            Err(DbreError::Relational(e)) => Err(e),
            Err(e) => panic!("cannot validate the extension: {e}"),
        }
    }

    /// The constraints of `only` (every relation when `None`) checked
    /// against the extension, keys first: a key holds iff its distinct
    /// tuples number its rows without a NULL ([`distinct_codes`]: a
    /// one-column key's are read off its dictionary, a composite key's
    /// columns are folded into dense tuple ids, paged codes read
    /// through `pool`), and a not-null constraint iff its column counts
    /// no NULL.
    pub(crate) fn check_constraints(
        &self,
        only: Option<RelId>,
        pool: &BufferPool,
    ) -> Result<(), DbreError> {
        let checked = |rel: RelId| only.is_none_or(|only| only == rel);
        for key in self.constraints.keys.iter().filter(|k| checked(k.rel)) {
            let table = self.table(key.rel);
            let cols: Vec<&ColumnDict> = key.attrs.iter().map(|a| &**table.column(a)).collect();
            let tuples = distinct_codes(&cols, pool, table.len())?;
            if tuples.len() != tuples.rows() {
                let relation = self.schema.relation(key.rel);
                return Err(RelationalError::KeyViolation {
                    relation: relation.name.clone(),
                    key: relation.render_set(&key.attrs),
                }
                .into());
            }
        }
        for &(rel, attr) in self
            .constraints
            .not_null
            .iter()
            .filter(|(r, _)| checked(*r))
        {
            if self.table(rel).column(attr).has_null() {
                let relation = self.schema.relation(rel);
                return Err(RelationalError::NotNullViolation {
                    relation: relation.name.clone(),
                    attribute: relation.attr_name(attr).to_string(),
                }
                .into());
            }
        }
        Ok(())
    }

    /// Checks whether an FD holds in the current extension
    /// (`∀ t, t' : t[Y] = t'[Y] ⇒ t[Z] = t'[Z]`), reading decoded
    /// cells — the `Value`-level reference.
    ///
    /// SQL semantics: tuples with a NULL in the LHS never agree with any
    /// tuple, so they cannot violate the dependency.
    pub fn fd_holds(&self, fd: &Fd) -> bool {
        let table = self.table(fd.rel);
        let mut lhs: Vec<_> = fd.lhs.iter().map(|a| table.values(a)).collect();
        let mut rhs: Vec<_> = fd.rhs.iter().map(|a| table.values(a)).collect();
        let mut first: HashMap<ProjKey, ProjKey> = HashMap::new();
        for _ in 0..table.len() {
            let key: Vec<&Value> = lhs
                .iter_mut()
                .map(|c| c.next().unwrap_or(&Value::Null))
                .collect();
            let dependent: Vec<&Value> = rhs
                .iter_mut()
                .map(|c| c.next().unwrap_or(&Value::Null))
                .collect();
            if key.iter().any(|v| v.is_null()) {
                continue;
            }
            let key: ProjKey = key.into_iter().cloned().collect();
            match first.get(&key) {
                Some(seen) => {
                    if seen.iter().zip(&dependent).any(|(a, b)| a != *b) {
                        return false;
                    }
                }
                None => {
                    first.insert(key, dependent.into_iter().cloned().collect());
                }
            }
        }
        true
    }

    /// Checks whether an IND holds in the current extension
    /// (`r_lhs[Y] ⊆ r_rhs[Z]`, NULL-containing projections dropped),
    /// reading decoded cells.
    pub fn ind_holds(&self, ind: &Ind) -> bool {
        let right = self.table(ind.rhs.rel).distinct_projection(&ind.rhs.attrs);
        self.table(ind.lhs.rel)
            .distinct_projection(&ind.lhs.attrs)
            .iter()
            .all(|proj| right.contains(proj))
    }

    /// Convenience: resolve `(relation, [attrs])` by names into an
    /// ordered id list.
    pub fn resolve(
        &self,
        relation: &str,
        attrs: &[&str],
    ) -> Result<(RelId, Vec<crate::attr::AttrId>), RelationalError> {
        let rel = self.rel(relation)?;
        let ids = self.schema.relation(rel).attr_ids(attrs)?;
        Ok((rel, ids))
    }

    /// Convenience: resolve to an [`AttrSet`].
    pub fn resolve_set(
        &self,
        relation: &str,
        attrs: &[&str],
    ) -> Result<(RelId, AttrSet), RelationalError> {
        let (rel, ids) = self.resolve(relation, attrs)?;
        Ok((rel, AttrSet::from_iter_ids(ids)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrId;
    use crate::deps::IndSide;
    use crate::value::Domain;

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
                &[("no", Domain::Int), ("salary", Domain::Int)],
            ))
            .unwrap();
        db.insert(person, vec![Value::Int(1), Value::str("ann")])
            .unwrap();
        db.insert(person, vec![Value::Int(2), Value::str("bob")])
            .unwrap();
        db.insert(emp, vec![Value::Int(1), Value::Int(100)])
            .unwrap();
        db
    }

    #[test]
    fn insert_validates_domains() {
        let mut d = db();
        let person = d.rel("Person").unwrap();
        let err = d
            .insert(person, vec![Value::str("x"), Value::str("y")])
            .unwrap_err();
        assert!(matches!(err, RelationalError::DomainViolation { .. }));
        let err = d.insert(person, vec![Value::Int(3)]).unwrap_err();
        assert!(matches!(err, RelationalError::ArityMismatch { .. }));
    }

    #[test]
    fn null_fits_any_domain_on_insert() {
        let mut d = db();
        let person = d.rel("Person").unwrap();
        d.insert(person, vec![Value::Null, Value::Null]).unwrap();
        assert_eq!(d.table(person).len(), 3);
    }

    #[test]
    fn dictionary_validation_detects_key_violation() {
        let mut d = db();
        let person = d.rel("Person").unwrap();
        d.constraints.add_key(person, AttrSet::from_indices([0]));
        d.constraints.normalize();
        d.validate_dictionary().unwrap();
        d.insert(person, vec![Value::Int(1), Value::str("dup")])
            .unwrap();
        assert!(matches!(
            d.validate_dictionary(),
            Err(RelationalError::KeyViolation { .. })
        ));
    }

    /// The key `validate_dictionary` reports violated, if any.
    fn violated_key(d: &Database) -> Option<String> {
        match d.validate_dictionary() {
            Err(RelationalError::KeyViolation { key, .. }) => Some(key),
            Err(e) => panic!("expected a key violation, got {e}"),
            Ok(()) => None,
        }
    }

    #[test]
    fn dictionary_validation_checks_composite_keys_by_value() {
        let mut d = db();
        let person = d.rel("Person").unwrap();
        d.constraints.add_key(person, AttrSet::from_indices([0, 1]));
        d.constraints.normalize();
        // A repeated id under another name holds the composite key.
        d.insert(person, vec![Value::Int(1), Value::str("cy")])
            .unwrap();
        assert_eq!(violated_key(&d), None);
        d.insert(person, vec![Value::Int(1), Value::str("cy")])
            .unwrap();
        assert_eq!(violated_key(&d).as_deref(), Some("id, name"));
    }

    #[test]
    fn dictionary_validation_skips_key_rows_holding_null() {
        let mut d = db();
        let person = d.rel("Person").unwrap();
        d.constraints.add_key(person, AttrSet::from_indices([0, 1]));
        d.constraints.normalize();
        for _ in 0..2 {
            d.insert(person, vec![Value::Null, Value::str("dee")])
                .unwrap();
        }
        // Keys are checked first: the repeated pair holding a NULL is
        // no key violation, and the NULL is left to the not-null check.
        assert!(matches!(
            d.validate_dictionary(),
            Err(RelationalError::NotNullViolation { .. })
        ));
    }

    #[test]
    fn dictionary_validation_reports_the_first_violated_key() {
        let mut d = db();
        let person = d.rel("Person").unwrap();
        d.constraints.add_key(person, AttrSet::from_indices([0]));
        d.constraints.add_key(person, AttrSet::from_indices([1]));
        d.constraints.normalize();
        // Repeats both the id and the name of the first row.
        d.insert(person, vec![Value::Int(1), Value::str("ann")])
            .unwrap();
        for expect in ["id", "name"] {
            let first = &d.constraints.keys[0];
            let first = d.schema.relation(person).render_set(&first.attrs);
            assert_eq!(first, expect);
            assert_eq!(violated_key(&d).as_deref(), Some(expect));
            d.constraints.keys.reverse();
        }
    }

    #[test]
    fn dictionary_validation_detects_null_violation() {
        let mut d = db();
        let person = d.rel("Person").unwrap();
        d.constraints.add_not_null(person, AttrId(1));
        d.constraints.normalize();
        d.validate_dictionary().unwrap();
        d.insert(person, vec![Value::Int(9), Value::Null]).unwrap();
        assert!(matches!(
            d.validate_dictionary(),
            Err(RelationalError::NotNullViolation { .. })
        ));
    }

    #[test]
    fn fd_holds_on_extension() {
        let mut d = db();
        let person = d.rel("Person").unwrap();
        let fd = Fd::new(
            person,
            AttrSet::from_indices([0]),
            AttrSet::from_indices([1]),
        );
        assert!(d.fd_holds(&fd));
        d.insert(person, vec![Value::Int(1), Value::str("other")])
            .unwrap();
        assert!(!d.fd_holds(&fd));
    }

    #[test]
    fn fd_ignores_null_lhs() {
        let mut d = db();
        let person = d.rel("Person").unwrap();
        d.insert(person, vec![Value::Null, Value::str("x")])
            .unwrap();
        d.insert(person, vec![Value::Null, Value::str("y")])
            .unwrap();
        let fd = Fd::new(
            person,
            AttrSet::from_indices([0]),
            AttrSet::from_indices([1]),
        );
        assert!(d.fd_holds(&fd));
    }

    #[test]
    fn ind_holds_on_extension() {
        let d = db();
        let person = d.rel("Person").unwrap();
        let emp = d.rel("Emp").unwrap();
        // Emp[no] << Person[id] holds (1 ⊆ {1,2}).
        let ind = Ind::unary(emp, AttrId(0), person, AttrId(0));
        assert!(d.ind_holds(&ind));
        // Person[id] << Emp[no] does not (2 ∉ {1}).
        let rev = Ind::unary(person, AttrId(0), emp, AttrId(0));
        assert!(!d.ind_holds(&rev));
    }

    #[test]
    fn ind_skips_null_lhs_rows() {
        let mut d = db();
        let emp = d.rel("Emp").unwrap();
        d.insert(emp, vec![Value::Null, Value::Int(5)]).unwrap();
        let person = d.rel("Person").unwrap();
        let ind = Ind::new(
            IndSide::single(emp, AttrId(0)),
            IndSide::single(person, AttrId(0)),
        )
        .unwrap();
        assert!(d.ind_holds(&ind));
    }

    #[test]
    fn resolve_by_names() {
        let d = db();
        let (rel, ids) = d.resolve("Emp", &["salary", "no"]).unwrap();
        assert_eq!(rel, d.rel("Emp").unwrap());
        assert_eq!(ids, vec![AttrId(1), AttrId(0)]);
        assert!(d.resolve("Ghost", &[]).is_err());
        assert!(d.resolve("Emp", &["ghost"]).is_err());
    }
}
