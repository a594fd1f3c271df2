//! Stripped partitions — the core data structure of TANE-style FD
//! discovery (Huhtala et al.).
//!
//! The partition `π_X` of a table groups row indices by their values on
//! the attribute set `X`. *Stripping* removes singleton classes: they
//! can never witness an FD violation, and dropping them makes partition
//! products near-linear in practice.
//!
//! NULL semantics: this module treats `NULL` as an ordinary value equal
//! to itself (the convention of the FD-discovery literature). This
//! differs from `Database::fd_holds`, which follows SQL and skips
//! tuples with NULL on the left-hand side; the two agree on NULL-free
//! data, which the equivalence property test exercises.

use crate::attr::AttrId;
use crate::table::Table;
use std::collections::HashMap;

/// A stripped partition: equivalence classes of row indices with ≥ 2
/// members, plus the number of rows of the underlying table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrippedPartition {
    /// Classes (each sorted ascending), in deterministic order.
    pub classes: Vec<Vec<usize>>,
    /// Total rows in the table the partition was built from.
    pub rows: usize,
}

impl StrippedPartition {
    /// Builds `π_X` for a single attribute.
    pub fn for_attribute(table: &Table, attr: AttrId) -> Self {
        let mut groups: HashMap<&crate::value::Value, Vec<usize>> = HashMap::new();
        for (i, v) in table.values(attr).enumerate() {
            groups.entry(v).or_default().push(i);
        }
        Self::from_groups(groups.into_values(), table.len())
    }

    /// Builds `π_X` for an attribute set by chained products.
    pub fn for_attrs(table: &Table, attrs: &[AttrId]) -> Self {
        match attrs {
            [] => Self::single_class(table.len()),
            [first, rest @ ..] => {
                let mut p = Self::for_attribute(table, *first);
                for a in rest {
                    p = p.product(&Self::for_attribute(table, *a));
                }
                p
            }
        }
    }

    /// The partition with one class holding every row (`π_∅`).
    pub fn single_class(rows: usize) -> Self {
        let classes = if rows >= 2 {
            vec![(0..rows).collect()]
        } else {
            Vec::new()
        };
        StrippedPartition { classes, rows }
    }

    fn from_groups(groups: impl IntoIterator<Item = Vec<usize>>, rows: usize) -> Self {
        let mut classes: Vec<Vec<usize>> = groups.into_iter().filter(|g| g.len() >= 2).collect();
        for c in &mut classes {
            c.sort_unstable();
        }
        classes.sort();
        StrippedPartition { classes, rows }
    }

    /// Number of non-singleton classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// TANE's error measure `e(X) = (Σ|c|) − |classes|`: the number of
    /// rows that would have to be removed to make `X` a key.
    pub fn error(&self) -> usize {
        self.classes.iter().map(|c| c.len() - 1).sum()
    }

    /// Is `X` a superkey (all classes singleton)?
    pub fn is_key(&self) -> bool {
        self.classes.is_empty()
    }

    /// Partition product `π_X · π_Y = π_{XY}`: TANE's linear-time
    /// algorithm with a probe table (Huhtala et al.).
    ///
    /// Each class of `other` is walked twice: once to drop its rows
    /// into one bucket per class of `self`, once to emit every bucket
    /// holding two rows or more (and empty it for the next class).
    /// Rows arrive in ascending order, so every emitted class is
    /// sorted; the classes are disjoint, so ordering them by first row
    /// yields the same lexicographic order [`for_attribute`] builds,
    /// and products compare equal by `==` with directly built
    /// partitions.
    ///
    /// [`for_attribute`]: Self::for_attribute
    pub fn product(&self, other: &Self) -> Self {
        debug_assert_eq!(self.rows, other.rows);
        let probe = self.probe();
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); self.classes.len()];
        let mut classes = Vec::new();
        for class in &other.classes {
            for &r in class {
                if let Some(b) = slot(&probe, r) {
                    buckets[b].push(r);
                }
            }
            for &r in class {
                if let Some(b) = slot(&probe, r) {
                    let bucket = &mut buckets[b];
                    if bucket.len() >= 2 {
                        classes.push(bucket.clone());
                    }
                    bucket.clear();
                }
            }
        }
        classes.sort_unstable_by_key(|c: &Vec<usize>| c[0]);
        StrippedPartition {
            classes,
            rows: self.rows,
        }
    }

    /// Is `π_X · π_Y` a key (all classes singleton)? Equals
    /// `self.product(other).is_key()` without building the product:
    /// it fills the same probe table, keeps one marker per class of
    /// `self` (the last class of `other` that reached it), and answers
    /// `false` at the first two rows that share a class on both sides.
    pub fn product_is_key(&self, other: &Self) -> bool {
        debug_assert_eq!(self.rows, other.rows);
        let probe = self.probe();
        let mut seen = vec![0u32; self.classes.len()];
        for (cj, class) in other.classes.iter().enumerate() {
            let mark = cj as u32 + 1;
            for &r in class {
                if let Some(b) = slot(&probe, r) {
                    if seen[b] == mark {
                        return false;
                    }
                    seen[b] = mark;
                }
            }
        }
        true
    }

    /// The probe table of the product: `probe[row]` is the index of the
    /// row's class in `self` plus one, 0 for a stripped singleton.
    /// Class indices fit in `u32`: a stripped partition has at most
    /// `rows / 2` classes, and 2³³ rows of `usize` classes would not
    /// fit in memory.
    fn probe(&self) -> Vec<u32> {
        debug_assert!(self.classes.len() < u32::MAX as usize);
        let mut probe = vec![0u32; self.rows];
        for (ci, class) in self.classes.iter().enumerate() {
            for &r in class {
                probe[r] = ci as u32 + 1;
            }
        }
        probe
    }

    /// Does the FD `X → Y` hold, given `π_X` (self) and `π_{XY}`?
    ///
    /// Holds iff refining by `Y` splits nothing: `e(π_X) = e(π_{XY})`.
    pub fn refines_to(&self, product_with_rhs: &Self) -> bool {
        self.error() == product_with_rhs.error()
    }
}

/// The class index a probe table gives row `r` (`None` for a row the
/// probed partition stripped as a singleton).
fn slot(probe: &[u32], r: usize) -> Option<usize> {
    probe[r].checked_sub(1).map(|b| b as usize)
}

/// Convenience: does `X → Y` hold in `table` (NULL = NULL convention)?
pub fn fd_holds_partition(table: &Table, lhs: &[AttrId], rhs: &[AttrId]) -> bool {
    let px = StrippedPartition::for_attrs(table, lhs);
    let pxy = px.product(&StrippedPartition::for_attrs(table, rhs));
    px.refines_to(&pxy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn a(i: u16) -> AttrId {
        AttrId(i)
    }

    fn table(rows: &[(i64, i64, i64)]) -> Table {
        Table::from_rows(
            3,
            rows.iter()
                .map(|(x, y, z)| vec![Value::Int(*x), Value::Int(*y), Value::Int(*z)]),
        )
        .unwrap()
    }

    #[test]
    fn single_attribute_partition() {
        let t = table(&[(1, 10, 0), (1, 10, 1), (2, 20, 2), (3, 20, 3)]);
        let p = StrippedPartition::for_attribute(&t, a(0));
        // value 1 -> {0,1}; values 2,3 singletons stripped.
        assert_eq!(p.classes, vec![vec![0, 1]]);
        assert_eq!(p.error(), 1);
        assert!(!p.is_key());
    }

    #[test]
    fn key_attribute_has_empty_partition() {
        let t = table(&[(1, 0, 0), (2, 0, 1), (3, 0, 2)]);
        let p = StrippedPartition::for_attribute(&t, a(0));
        assert!(p.is_key());
        assert_eq!(p.error(), 0);
    }

    #[test]
    fn product_equals_direct_partition() {
        let t = table(&[(1, 10, 0), (1, 10, 0), (1, 20, 1), (2, 10, 1), (2, 10, 0)]);
        let px = StrippedPartition::for_attribute(&t, a(0));
        let py = StrippedPartition::for_attribute(&t, a(1));
        let product = px.product(&py);
        let direct = StrippedPartition::for_attrs(&t, &[a(0), a(1)]);
        assert_eq!(product, direct);
        assert_eq!(product.classes, vec![vec![0, 1], vec![3, 4]]);
    }

    #[test]
    fn fd_detection() {
        // x -> y holds; y -> x does not.
        let t = table(&[(1, 10, 0), (1, 10, 1), (2, 20, 2), (3, 20, 3)]);
        assert!(fd_holds_partition(&t, &[a(0)], &[a(1)]));
        assert!(!fd_holds_partition(&t, &[a(1)], &[a(0)]));
        // Composite LHS: (x, y) -> z fails (rows 0,1 agree on x,y, differ z).
        assert!(!fd_holds_partition(&t, &[a(0), a(1)], &[a(2)]));
    }

    #[test]
    fn empty_lhs_means_constant_column() {
        let t = table(&[(1, 5, 0), (2, 5, 1), (3, 5, 2)]);
        assert!(fd_holds_partition(&t, &[], &[a(1)]));
        assert!(!fd_holds_partition(&t, &[], &[a(0)]));
    }

    #[test]
    fn nulls_equal_under_mining_convention() {
        let t = Table::from_rows(
            2,
            vec![
                vec![Value::Null, Value::Int(1)],
                vec![Value::Null, Value::Int(2)],
            ],
        )
        .unwrap();
        // NULL = NULL here, so lhs groups both rows and the FD fails.
        assert!(!fd_holds_partition(&t, &[AttrId(0)], &[AttrId(1)]));
    }

    #[test]
    fn tiny_tables() {
        let t = table(&[]);
        assert!(StrippedPartition::for_attribute(&t, a(0)).is_key());
        assert!(fd_holds_partition(&t, &[a(0)], &[a(1)]));
        let t = table(&[(1, 2, 3)]);
        assert!(fd_holds_partition(&t, &[a(0)], &[a(1)]));
        assert!(StrippedPartition::single_class(1).is_key());
        assert!(!StrippedPartition::single_class(2).is_key());
    }

    #[test]
    fn agreement_with_database_fd_holds_on_null_free_data() {
        use crate::attr::AttrSet;
        use crate::database::Database;
        use crate::deps::Fd;
        use crate::schema::Relation;
        use crate::value::Domain;

        let rows = [(1, 10, 0), (1, 10, 1), (2, 20, 2), (3, 20, 3)];
        let mut db = Database::new();
        let rel = db
            .add_relation(Relation::of(
                "T",
                &[("x", Domain::Int), ("y", Domain::Int), ("z", Domain::Int)],
            ))
            .unwrap();
        for (x, y, z) in rows {
            db.insert(rel, vec![Value::Int(x), Value::Int(y), Value::Int(z)])
                .unwrap();
        }
        let t = table(&rows);
        for lhs_mask in 1u8..8 {
            for rhs_bit in 0..3u16 {
                let lhs: Vec<AttrId> = (0..3u16)
                    .filter(|i| lhs_mask & (1 << i) != 0)
                    .map(AttrId)
                    .collect();
                let fd = Fd::new(
                    rel,
                    AttrSet::from_iter_ids(lhs.iter().copied()),
                    AttrSet::from_indices([rhs_bit]),
                );
                assert_eq!(
                    db.fd_holds(&fd),
                    fd_holds_partition(&t, &lhs, &[AttrId(rhs_bit)]),
                    "divergence on lhs={lhs:?} rhs={rhs_bit}"
                );
            }
        }
    }
}
