//! Cardinality counting for the IND-Discovery algorithm.
//!
//! For each equi-join `R_k[A_k] ⋈ R_l[A_l]` the algorithm needs three
//! numbers computed against the extension `E`:
//!
//! * `N_k = ‖r_k[A_k]‖` — distinct values on the left,
//! * `N_l = ‖r_l[A_l]‖` — distinct values on the right,
//! * `N_kl = ‖r_k[A_k] ⋈ r_l[A_l]‖` — distinct *join values*, i.e. the
//!   size of the intersection of the two projected value sets.
//!
//! These equal the SQL counts
//! `SELECT COUNT(DISTINCT A) FROM R` and
//! `SELECT COUNT(DISTINCT A_k) FROM R_k, R_l WHERE A_k = A_l`.

use crate::database::Database;
use crate::deps::IndSide;
use crate::schema::Schema;

/// An equi-join `R_k[A_k] ⋈ R_l[A_l]` extracted from an application
/// program — one element of the set `Q`.
///
/// The sides carry ordered attribute lists; composite equi-joins
/// (`a.x = b.u AND a.y = b.v`) yield multi-attribute sides whose
/// positions correspond.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EquiJoin {
    /// Left side `R_k[A_k]`.
    pub left: IndSide,
    /// Right side `R_l[A_l]`.
    pub right: IndSide,
}

impl EquiJoin {
    /// Fallible constructor: errors (instead of panicking) when the
    /// sides differ in arity, so public APIs accepting caller-supplied
    /// `Q` can reject malformed joins gracefully.
    pub fn try_new(left: IndSide, right: IndSide) -> Result<Self, crate::RelationalError> {
        if left.attrs.len() != right.attrs.len() {
            return Err(crate::RelationalError::IndArityMismatch {
                lhs: left.attrs.len(),
                rhs: right.attrs.len(),
            });
        }
        Ok(EquiJoin { left, right })
    }

    /// Validates the join against a concrete database: equal side
    /// arity, in-range relation ids, non-empty attribute lists,
    /// in-range attribute ids. Callers assembling `Q` by hand (struct
    /// literals bypass [`EquiJoin::try_new`]) are checked here before
    /// any counting indexes a table.
    pub fn validate(&self, db: &Database) -> Result<(), crate::RelationalError> {
        use crate::RelationalError;
        if self.left.attrs.len() != self.right.attrs.len() {
            return Err(RelationalError::IndArityMismatch {
                lhs: self.left.attrs.len(),
                rhs: self.right.attrs.len(),
            });
        }
        for side in [&self.left, &self.right] {
            if side.rel.index() >= db.schema.len() {
                return Err(RelationalError::UnknownRelation(format!(
                    "#{}",
                    side.rel.index()
                )));
            }
            let relation = db.schema.relation(side.rel);
            if side.attrs.is_empty() {
                return Err(RelationalError::EmptyAttrList {
                    relation: relation.name.clone(),
                });
            }
            for attr in &side.attrs {
                if attr.index() >= relation.arity() {
                    return Err(RelationalError::UnknownAttribute {
                        relation: relation.name.clone(),
                        attribute: format!("#{}", attr.index()),
                    });
                }
            }
        }
        Ok(())
    }

    /// A canonical form with the lexicographically smaller side first,
    /// used to deduplicate `Q` (an equi-join is symmetric).
    pub fn canonical(&self) -> EquiJoin {
        if (self.left.rel, &self.left.attrs) <= (self.right.rel, &self.right.attrs) {
            self.clone()
        } else {
            EquiJoin {
                left: self.right.clone(),
                right: self.left.clone(),
            }
        }
    }

    /// Renders `A[x] ⋈ B[y]` using schema names.
    pub fn render(&self, schema: &Schema) -> String {
        format!(
            "{} |><| {}",
            self.left.render(schema),
            self.right.render(schema)
        )
    }
}

/// The three cardinalities the IND-Discovery algorithm compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinStats {
    /// `N_k = ‖r_k[A_k]‖`.
    pub n_left: usize,
    /// `N_l = ‖r_l[A_l]‖`.
    pub n_right: usize,
    /// `N_kl = ‖r_k[A_k] ⋈ r_l[A_l]‖` = `|π(r_k) ∩ π(r_l)|`.
    pub n_join: usize,
}

impl JoinStats {
    /// Is the intersection empty? (case (i) of the algorithm)
    pub fn empty_intersection(&self) -> bool {
        self.n_join == 0
    }

    /// Does the left side's value set embed into the right's
    /// (`r_k[A_k] ⊆ r_l[A_l]`)?
    pub fn left_included(&self) -> bool {
        self.n_join == self.n_left && self.n_left > 0
    }

    /// Does the right side's value set embed into the left's?
    pub fn right_included(&self) -> bool {
        self.n_join == self.n_right && self.n_right > 0
    }

    /// A proper non-empty intersection (case NEI): neither side included.
    pub fn is_nei(&self) -> bool {
        self.n_join > 0 && !self.left_included() && !self.right_included()
    }

    /// The Jaccard-style overlap ratio used by automatic oracles to
    /// grade how "faithful" the intersection looks:
    /// `N_kl / min(N_k, N_l)` (0 when a side is empty).
    pub fn overlap_ratio(&self) -> f64 {
        let m = self.n_left.min(self.n_right);
        if m == 0 {
            0.0
        } else {
            self.n_join as f64 / m as f64
        }
    }
}

/// Computes [`JoinStats`] for an equi-join against the extension.
///
/// Cost: one pass over each table plus a hash intersection —
/// `O(|r_k| + |r_l|)`.
pub fn join_stats(db: &Database, join: &EquiJoin) -> JoinStats {
    let left = db
        .table(join.left.rel)
        .distinct_projection(&join.left.attrs);
    let right = db
        .table(join.right.rel)
        .distinct_projection(&join.right.attrs);
    // Iterate the smaller set for the intersection.
    let (small, large) = if left.len() <= right.len() {
        (&left, &right)
    } else {
        (&right, &left)
    };
    let n_join = small.iter().filter(|k| large.contains(*k)).count();
    JoinStats {
        n_left: left.len(),
        n_right: right.len(),
        n_join,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrId;
    use crate::schema::Relation;
    use crate::value::{Domain, Value};

    fn db_with(left_vals: &[i64], right_vals: &[i64]) -> (Database, EquiJoin) {
        let mut db = Database::new();
        let l = db
            .add_relation(Relation::of("L", &[("a", Domain::Int)]))
            .unwrap();
        let r = db
            .add_relation(Relation::of("R", &[("b", Domain::Int)]))
            .unwrap();
        for &v in left_vals {
            db.insert(l, vec![Value::Int(v)]).unwrap();
        }
        for &v in right_vals {
            db.insert(r, vec![Value::Int(v)]).unwrap();
        }
        let join = EquiJoin::try_new(IndSide::single(l, AttrId(0)), IndSide::single(r, AttrId(0)))
            .unwrap();
        (db, join)
    }

    #[test]
    fn stats_inclusion_left() {
        let (db, join) = db_with(&[1, 2, 2], &[1, 2, 3]);
        let s = join_stats(&db, &join);
        assert_eq!(
            s,
            JoinStats {
                n_left: 2,
                n_right: 3,
                n_join: 2
            }
        );
        assert!(s.left_included());
        assert!(!s.right_included());
        assert!(!s.is_nei());
        assert!(!s.empty_intersection());
    }

    #[test]
    fn stats_nei() {
        let (db, join) = db_with(&[1, 2, 4], &[2, 3]);
        let s = join_stats(&db, &join);
        assert_eq!(s.n_join, 1);
        assert!(s.is_nei());
        assert!((s.overlap_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stats_empty_intersection() {
        let (db, join) = db_with(&[1], &[2]);
        let s = join_stats(&db, &join);
        assert!(s.empty_intersection());
        assert!(!s.left_included());
        assert!(!s.is_nei());
    }

    #[test]
    fn stats_equal_sets_included_both_ways() {
        let (db, join) = db_with(&[1, 2], &[2, 1, 1]);
        let s = join_stats(&db, &join);
        assert!(s.left_included());
        assert!(s.right_included());
    }

    #[test]
    fn empty_tables_not_reported_included() {
        let (db, join) = db_with(&[], &[]);
        let s = join_stats(&db, &join);
        assert_eq!(s.n_join, 0);
        assert!(!s.left_included());
        assert!(!s.right_included());
        assert_eq!(s.overlap_ratio(), 0.0);
    }

    #[test]
    fn nulls_never_join() {
        let mut db = Database::new();
        let l = db
            .add_relation(Relation::of("L", &[("a", Domain::Int)]))
            .unwrap();
        let r = db
            .add_relation(Relation::of("R", &[("b", Domain::Int)]))
            .unwrap();
        db.insert(l, vec![Value::Null]).unwrap();
        db.insert(r, vec![Value::Null]).unwrap();
        db.insert(l, vec![Value::Int(7)]).unwrap();
        db.insert(r, vec![Value::Int(7)]).unwrap();
        let join = EquiJoin::try_new(IndSide::single(l, AttrId(0)), IndSide::single(r, AttrId(0)))
            .unwrap();
        let s = join_stats(&db, &join);
        assert_eq!(
            s,
            JoinStats {
                n_left: 1,
                n_right: 1,
                n_join: 1
            }
        );
    }

    #[test]
    fn canonical_orders_sides() {
        let (_, join) = db_with(&[], &[]);
        let flipped = EquiJoin::try_new(join.right.clone(), join.left.clone()).unwrap();
        assert_eq!(join.canonical(), flipped.canonical());
    }

    #[test]
    fn try_new_rejects_mismatched_arity() {
        let mut db = Database::new();
        let l = db
            .add_relation(Relation::of("L", &[("a", Domain::Int), ("b", Domain::Int)]))
            .unwrap();
        let r = db
            .add_relation(Relation::of("R", &[("c", Domain::Int)]))
            .unwrap();
        let err = EquiJoin::try_new(
            IndSide::new(l, vec![AttrId(0), AttrId(1)]),
            IndSide::single(r, AttrId(0)),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            crate::RelationalError::IndArityMismatch { lhs: 2, rhs: 1 }
        ));
        assert!(
            EquiJoin::try_new(IndSide::single(l, AttrId(0)), IndSide::single(r, AttrId(0))).is_ok()
        );
    }
}
