//! Immutable, `Arc`-shared database snapshots.
//!
//! A [`DbSnapshot`] is one version of a [`Database`] behind an `Arc`:
//! cloning it is O(1) and it never changes. The session service in
//! `dbre-core` hands one snapshot to every concurrent session; each
//! session takes a private copy-on-write [`DbSnapshot::to_database`]
//! clone, because IND-Discovery adds relations and Restruct replaces
//! tables. Tables sit behind `Arc`, so those clones share every table
//! payload until a session first mutates it.
//!
//! Sessions may share one [`crate::stats::StatsEngine`] too. A mutation
//! draws a fresh tag from the process-global generation allocator
//! ([`Database::generation`]), so sessions that diverge from the same
//! snapshot never alias each other's cache entries, while entries of
//! the tables they leave untouched stay shared and warm.

use crate::database::Database;
use std::ops::Deref;
use std::sync::Arc;

/// One immutable version of a [`Database`], shared by `Arc`.
/// Dereferences to [`Database`]; cloning is O(1).
#[derive(Debug, Clone)]
pub struct DbSnapshot {
    inner: Arc<Database>,
}

impl DbSnapshot {
    /// Wraps an owned database as a snapshot.
    pub fn new(db: Database) -> Self {
        DbSnapshot {
            inner: Arc::new(db),
        }
    }

    /// An owned copy-on-write clone — the starting point for a
    /// session that will mutate its private view (IND-Discovery adds
    /// relations, Restruct replaces tables). O(relations); table
    /// payloads are shared until first mutation.
    pub fn to_database(&self) -> Database {
        (*self.inner).clone()
    }
}

impl Deref for DbSnapshot {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Relation;
    use crate::value::{Domain, Value};

    fn one_rel_db() -> (Database, crate::schema::RelId) {
        let mut db = Database::new();
        let rel = db
            .add_relation(Relation::of("T", &[("x", Domain::Int)]))
            .unwrap();
        db.insert(rel, vec![Value::Int(1)]).unwrap();
        (db, rel)
    }

    #[test]
    fn snapshots_are_isolated_from_session_writes() {
        let (db, rel) = one_rel_db();
        let snap = DbSnapshot::new(db);
        let old_gen = snap.generation(rel);
        let mut session = snap.to_database();
        session.insert(rel, vec![Value::Int(2)]).unwrap();
        // The snapshot still sees one row under its old tag...
        assert_eq!(snap.table(rel).len(), 1);
        assert_eq!(snap.generation(rel), old_gen);
        // ...while the session's clone sees the insert under a new tag.
        assert_eq!(session.table(rel).len(), 2);
        assert_ne!(session.generation(rel), old_gen);
        // Two sessions diverging from one snapshot never share a tag.
        let mut other = snap.to_database();
        other.insert(rel, vec![Value::Int(2)]).unwrap();
        assert_ne!(other.generation(rel), session.generation(rel));
    }

    #[test]
    fn cow_clone_shares_untouched_tables() {
        let mut db = Database::new();
        let t1 = db
            .add_relation(Relation::of("A", &[("x", Domain::Int)]))
            .unwrap();
        let t2 = db
            .add_relation(Relation::of("B", &[("y", Domain::Int)]))
            .unwrap();
        db.insert(t2, vec![Value::Int(5)]).unwrap();
        let snap = DbSnapshot::new(db);
        let mut session = snap.to_database();
        session.insert(t1, vec![Value::Int(1)]).unwrap();
        // B untouched: both versions point at the same table payload.
        assert!(std::ptr::eq(snap.table(t2), session.table(t2)));
        assert!(!std::ptr::eq(snap.table(t1), session.table(t1)));
        assert_eq!(snap.generation(t2), session.generation(t2));
    }
}
