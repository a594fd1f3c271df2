//! Approximate dependencies — tolerance for corrupted extensions.
//!
//! The paper repeatedly guards against "data integrity problems": the
//! expert user may *enforce* an FD that the extension narrowly violates
//! (RHS-Discovery step (ii)) or turn a near-inclusion NEI into an IND
//! (IND-Discovery steps (v)/(vi)). Automatic oracles need a number to
//! base that decision on; this module provides the standard `g3`-style
//! error measures:
//!
//! * FD error — the fraction of tuples to delete for `X → Y` to hold;
//! * IND error — the fraction of distinct LHS values not contained in
//!   the RHS value set.
//!
//! These are `Value`-level references: the pipeline's g3 error is
//! [`dbre_relational::CountBackend::fd_error`], the same number read
//! from the counting engine's cached LHS groups and column codes.

use crate::fd_check::violations;
use dbre_relational::attr::AttrId;
use dbre_relational::database::Database;
use dbre_relational::deps::{Fd, Ind};
use dbre_relational::table::Table;

/// `g3` error of an FD on a table: minimum fraction of (non-NULL-LHS)
/// tuples to remove so the FD holds. In `[0, 1]`; 0 iff it holds.
pub fn fd_error(table: &Table, lhs: &[AttrId], rhs: &[AttrId]) -> f64 {
    let considered = (0..table.len())
        .filter(|&i| !table.row_has_null(i, lhs))
        .count();
    if considered == 0 {
        return 0.0;
    }
    violations(table, lhs, rhs) as f64 / considered as f64
}

/// `g3` error of an FD given as a [`Fd`] against a database.
pub fn fd_error_db(db: &Database, fd: &Fd) -> f64 {
    let lhs: Vec<AttrId> = fd.lhs.iter().collect();
    let rhs: Vec<AttrId> = fd.rhs.iter().collect();
    fd_error(db.table(fd.rel), &lhs, &rhs)
}

/// Does the FD hold within error tolerance `epsilon`?
pub fn fd_holds_approx(db: &Database, fd: &Fd, epsilon: f64) -> bool {
    fd_error_db(db, fd) <= epsilon
}

/// IND error: fraction of distinct non-NULL LHS projections missing
/// from the RHS projection set. In `[0, 1]`; 0 iff the IND holds.
pub fn ind_error(db: &Database, ind: &Ind) -> f64 {
    let left = db.table(ind.lhs.rel).distinct_projection(&ind.lhs.attrs);
    if left.is_empty() {
        return 0.0;
    }
    let right = db.table(ind.rhs.rel).distinct_projection(&ind.rhs.attrs);
    let missing = left.iter().filter(|v| !right.contains(*v)).count();
    missing as f64 / left.len() as f64
}

/// Does the IND hold within error tolerance `epsilon`?
pub fn ind_holds_approx(db: &Database, ind: &Ind, epsilon: f64) -> bool {
    ind_error(db, ind) <= epsilon
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbre_relational::attr::AttrSet;
    use dbre_relational::schema::Relation;
    use dbre_relational::value::{Domain, Value};

    fn db() -> (
        Database,
        dbre_relational::schema::RelId,
        dbre_relational::schema::RelId,
    ) {
        let mut db = Database::new();
        let a = db
            .add_relation(Relation::of("A", &[("x", Domain::Int), ("y", Domain::Int)]))
            .unwrap();
        let b = db
            .add_relation(Relation::of("B", &[("z", Domain::Int)]))
            .unwrap();
        // x -> y violated by one of five tuples.
        for (x, y) in [(1, 1), (1, 1), (1, 2), (2, 5), (3, 6)] {
            db.insert(a, vec![Value::Int(x), Value::Int(y)]).unwrap();
        }
        // B = {1, 2}: A[x] = {1,2,3} has 1/3 missing.
        db.insert(b, vec![Value::Int(1)]).unwrap();
        db.insert(b, vec![Value::Int(2)]).unwrap();
        (db, a, b)
    }

    #[test]
    fn fd_error_fraction() {
        let (db, a, _) = db();
        let fd = Fd::new(
            a,
            AttrSet::from_indices([0u16]),
            AttrSet::from_indices([1u16]),
        );
        let e = fd_error_db(&db, &fd);
        assert!((e - 0.2).abs() < 1e-12, "got {e}");
        assert!(fd_holds_approx(&db, &fd, 0.25));
        assert!(!fd_holds_approx(&db, &fd, 0.1));
    }

    #[test]
    fn exact_fd_has_zero_error() {
        let (db, a, _) = db();
        // y -> y trivially.
        let fd = Fd::new(
            a,
            AttrSet::from_indices([1u16]),
            AttrSet::from_indices([1u16]),
        );
        assert_eq!(fd_error_db(&db, &fd), 0.0);
    }

    #[test]
    fn ind_error_fraction() {
        let (db, a, b) = db();
        let ind = Ind::unary(a, AttrId(0), b, AttrId(0));
        let e = ind_error(&db, &ind);
        assert!((e - 1.0 / 3.0).abs() < 1e-12, "got {e}");
        assert!(ind_holds_approx(&db, &ind, 0.4));
        assert!(!ind_holds_approx(&db, &ind, 0.3));
        // The containing direction holds exactly.
        let rev = Ind::unary(b, AttrId(0), a, AttrId(0));
        assert_eq!(ind_error(&db, &rev), 0.0);
    }

    #[test]
    fn empty_lhs_side_is_zero_error() {
        let mut db = Database::new();
        let a = db
            .add_relation(Relation::of("A", &[("x", Domain::Int)]))
            .unwrap();
        let b = db
            .add_relation(Relation::of("B", &[("z", Domain::Int)]))
            .unwrap();
        let _ = b;
        let ind = Ind::unary(a, AttrId(0), b, AttrId(0));
        assert_eq!(ind_error(&db, &ind), 0.0);
        let fd = Fd::new(
            a,
            AttrSet::from_indices([0u16]),
            AttrSet::from_indices([0u16]),
        );
        assert_eq!(fd_error_db(&db, &fd), 0.0);
    }
}
