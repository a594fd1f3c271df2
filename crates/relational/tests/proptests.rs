//! Property-based tests for the relational substrate:
//! AttrSet algebra laws, FD-theory laws, table counting invariants,
//! and the partition product against a direct grouping of the rows.

use dbre_relational::attr::{AttrId, AttrSet};
use dbre_relational::deps::Fd;
use dbre_relational::fd_theory::{
    candidate_keys, closure, equivalent, implies, is_superkey, minimal_cover,
};
use dbre_relational::partitions::StrippedPartition;
use dbre_relational::schema::RelId;
use dbre_relational::synthesis::synthesize_3nf;
use dbre_relational::table::Table;
use dbre_relational::value::Value;
use proptest::prelude::*;
use std::collections::HashMap;

const R: RelId = RelId(0);

fn attr_set(max_attr: u16) -> impl Strategy<Value = AttrSet> {
    prop::collection::vec(0..max_attr, 0..6).prop_map(AttrSet::from_indices)
}

fn nonempty_attr_set(max_attr: u16) -> impl Strategy<Value = AttrSet> {
    prop::collection::vec(0..max_attr, 1..5).prop_map(AttrSet::from_indices)
}

fn fd_strategy(max_attr: u16) -> impl Strategy<Value = Fd> {
    (nonempty_attr_set(max_attr), nonempty_attr_set(max_attr))
        .prop_map(|(lhs, rhs)| Fd::new(R, lhs, rhs))
}

fn fd_set(max_attr: u16) -> impl Strategy<Value = Vec<Fd>> {
    prop::collection::vec(fd_strategy(max_attr), 0..8)
}

/// Up to 40 rows over 3 or 4 columns; cells are 0..=2, or NULL for
/// code 3.
// A test-support helper outside #[test] fns: every row has the
// table's arity, and a fixture failure panicking is test behaviour.
#[allow(clippy::unwrap_used)]
fn partition_table() -> impl Strategy<Value = Table> {
    (
        3usize..=4,
        prop::collection::vec(prop::collection::vec(0i64..=3, 4), 0..=40),
    )
        .prop_map(|(cols, rows)| {
            let cell = |code: i64| {
                if code == 3 {
                    Value::Null
                } else {
                    Value::Int(code)
                }
            };
            Table::from_rows(
                cols,
                rows.into_iter()
                    .map(|r| r.into_iter().take(cols).map(cell).collect::<Vec<_>>()),
            )
            .unwrap()
        })
}

/// The stripped partition of `attrs`, built without any product: rows
/// grouped on their value tuples directly (NULL = NULL).
fn grouped(table: &Table, attrs: &[AttrId]) -> StrippedPartition {
    let mut groups: HashMap<Vec<&Value>, Vec<usize>> = HashMap::new();
    for row in 0..table.len() {
        let tuple = attrs.iter().map(|&a| table.cell(row, a)).collect();
        groups.entry(tuple).or_default().push(row);
    }
    let mut classes: Vec<Vec<usize>> = groups.into_values().filter(|c| c.len() >= 2).collect();
    classes.sort();
    StrippedPartition {
        classes,
        rows: table.len(),
    }
}

/// Every attribute list of length 1–3 over `arity` columns, repeats
/// included.
fn attr_lists(arity: u16) -> Vec<Vec<AttrId>> {
    let mut lists: Vec<Vec<AttrId>> = (0..arity).map(|a| vec![AttrId(a)]).collect();
    let mut frontier = lists.clone();
    for _ in 1..3 {
        frontier = frontier
            .iter()
            .flat_map(|l| {
                (0..arity).map(move |a| {
                    let mut longer = l.clone();
                    longer.push(AttrId(a));
                    longer
                })
            })
            .collect();
        lists.extend(frontier.iter().cloned());
    }
    lists
}

proptest! {
    // ---- AttrSet algebra ----

    #[test]
    fn union_is_commutative(a in attr_set(12), b in attr_set(12)) {
        prop_assert_eq!(a.union(&b), b.union(&a));
    }

    #[test]
    fn union_is_associative(a in attr_set(12), b in attr_set(12), c in attr_set(12)) {
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
    }

    #[test]
    fn intersection_distributes_over_union(
        a in attr_set(10), b in attr_set(10), c in attr_set(10)
    ) {
        prop_assert_eq!(
            a.intersection(&b.union(&c)),
            a.intersection(&b).union(&a.intersection(&c))
        );
    }

    #[test]
    fn difference_then_union_restores_subset(a in attr_set(12), b in attr_set(12)) {
        let diff = a.difference(&b);
        prop_assert!(diff.is_disjoint(&b));
        prop_assert_eq!(diff.union(&a.intersection(&b)), a.clone());
    }

    #[test]
    fn subset_iff_union_absorbs(a in attr_set(12), b in attr_set(12)) {
        prop_assert_eq!(a.is_subset(&b), a.union(&b) == b);
    }

    #[test]
    fn insert_remove_roundtrip(a in attr_set(12), x in 0u16..12) {
        let mut s = a.clone();
        let present = s.contains(AttrId(x));
        s.insert(AttrId(x));
        prop_assert!(s.contains(AttrId(x)));
        s.remove(AttrId(x));
        prop_assert!(!s.contains(AttrId(x)));
        if !present {
            prop_assert_eq!(s, a);
        }
    }

    // ---- FD theory laws ----

    #[test]
    fn closure_is_extensive_and_monotone(x in attr_set(8), fds in fd_set(8)) {
        let cx = closure(&x, &fds);
        prop_assert!(x.is_subset(&cx), "closure must contain its argument");
        // Idempotence.
        prop_assert_eq!(closure(&cx, &fds), cx.clone());
        // Monotonicity: x ⊆ y ⇒ cl(x) ⊆ cl(y).
        let y = x.union(&AttrSet::from_indices([0u16]));
        prop_assert!(cx.is_subset(&closure(&y, &fds)));
    }

    #[test]
    fn minimal_cover_is_equivalent(fds in fd_set(6)) {
        let cover = minimal_cover(&fds);
        prop_assert!(equivalent(&cover, &fds));
        // All RHS are singletons and nontrivial.
        for fd in &cover {
            prop_assert_eq!(fd.rhs.len(), 1);
            prop_assert!(!fd.is_trivial());
        }
    }

    #[test]
    fn minimal_cover_has_no_redundant_fd(fds in fd_set(5)) {
        let cover = minimal_cover(&fds);
        for i in 0..cover.len() {
            let mut rest = cover.clone();
            let removed = rest.remove(i);
            prop_assert!(
                !implies(&rest, &removed),
                "cover kept a redundant FD: {:?}",
                removed
            );
        }
    }

    #[test]
    fn candidate_keys_are_superkeys_and_minimal(fds in fd_set(5)) {
        let universe = AttrSet::from_indices(0u16..5);
        let keys = candidate_keys(R, &universe, &fds);
        prop_assert!(!keys.is_empty());
        for key in &keys {
            prop_assert!(is_superkey(key, &universe, &fds));
            // Minimality: removing any attribute breaks superkey-ness.
            for a in key.iter() {
                let mut smaller = key.clone();
                smaller.remove(a);
                prop_assert!(
                    !is_superkey(&smaller, &universe, &fds),
                    "key {:?} not minimal",
                    key
                );
            }
        }
        // Pairwise incomparable.
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                if i != j {
                    prop_assert!(!a.is_subset(b));
                }
            }
        }
    }

    #[test]
    fn synthesis_covers_universe(fds in fd_set(5)) {
        let universe = AttrSet::from_indices(0u16..5);
        let schemes = synthesize_3nf(R, &universe, &fds);
        let covered = schemes
            .iter()
            .fold(AttrSet::empty(), |acc, s| acc.union(&s.attrs));
        prop_assert_eq!(covered, universe.clone());
        // Some scheme contains a global candidate key (lossless-join).
        let keys = candidate_keys(R, &universe, &fds);
        prop_assert!(schemes
            .iter()
            .any(|s| keys.iter().any(|k| k.is_subset(&s.attrs))));
    }

    // ---- IND inference laws ----

    #[test]
    fn ind_transitive_closure_is_sound_and_idempotent(
        edges in prop::collection::vec((0u32..4, 0u16..3, 0u32..4, 0u16..3), 0..8)
    ) {
        use dbre_relational::deps::Ind;
        use dbre_relational::ind_theory::{implies, minimal_cover, transitive_closure};
        use dbre_relational::schema::RelId;

        let inds: Vec<Ind> = edges
            .iter()
            .map(|(lr, la, rr, ra)| {
                Ind::unary(RelId(*lr), AttrId(*la), RelId(*rr), AttrId(*ra))
            })
            .collect();
        let closed = transitive_closure(&inds);
        // Idempotent.
        let twice = transitive_closure(&closed);
        prop_assert_eq!(&closed.len(), &twice.len());
        // Sound: every closed IND is implied by the original set.
        for ind in &closed {
            prop_assert!(implies(&inds, ind), "unsound closure member {ind}");
        }
        // The minimal cover still implies everything.
        let cover = minimal_cover(&inds);
        prop_assert!(cover.len() <= inds.len());
        for ind in &inds {
            prop_assert!(implies(&cover, ind), "cover lost {ind}");
        }
    }

    #[test]
    fn ind_cycles_mean_mutual_inclusion(
        edges in prop::collection::vec((0u32..4, 0u32..4), 1..8)
    ) {
        use dbre_relational::deps::Ind;
        use dbre_relational::ind_theory::{find_cycles, mutually_included};
        use dbre_relational::schema::RelId;

        // One shared attribute position per relation keeps the
        // composition middle-matching exact.
        let inds: Vec<Ind> = edges
            .iter()
            .filter(|(a, b)| a != b)
            .map(|(a, b)| Ind::unary(RelId(*a), AttrId(0), RelId(*b), AttrId(0)))
            .collect();
        for cycle in find_cycles(&inds) {
            for w in cycle.relations.windows(2) {
                prop_assert!(mutually_included(&inds, w[0], w[1]));
            }
            if let (Some(&first), Some(&last)) =
                (cycle.relations.first(), cycle.relations.last())
            {
                prop_assert!(mutually_included(&inds, first, last));
            }
        }
    }

    // ---- Decomposition laws ----

    #[test]
    fn synthesis_is_lossless_by_the_chase(fds in fd_set(5)) {
        use dbre_relational::chase::is_lossless_join;
        use dbre_relational::synthesis::synthesize_3nf;
        let universe = AttrSet::from_indices(0u16..5);
        let schemes = synthesize_3nf(R, &universe, &fds);
        let fragments: Vec<AttrSet> = schemes.into_iter().map(|s| s.attrs).collect();
        prop_assert!(
            is_lossless_join(&universe, &fragments, &fds),
            "Bernstein synthesis must be lossless-join"
        );
    }

    // ---- Table counting invariants ----

    #[test]
    fn count_distinct_bounded_by_rows(
        rows in prop::collection::vec((0i64..6, 0i64..6), 0..40)
    ) {
        let table = Table::from_rows(
            2,
            rows.iter().map(|(a, b)| vec![Value::Int(*a), Value::Int(*b)]),
        )
        .unwrap();
        let both = table.count_distinct(&[AttrId(0), AttrId(1)]);
        let first = table.count_distinct(&[AttrId(0)]);
        prop_assert!(both <= rows.len());
        prop_assert!(first <= both || rows.is_empty());
        // Projection on more attributes refines: distinct pairs >= distinct firsts.
        prop_assert!(first <= both);
    }

    // ---- Partition product ----

    #[test]
    fn product_equals_a_direct_grouping(t in partition_table()) {
        for attrs in attr_lists(t.arity() as u16) {
            prop_assert_eq!(
                StrippedPartition::for_attrs(&t, &attrs),
                grouped(&t, &attrs),
                "attrs {:?}", attrs
            );
        }
    }

    #[test]
    fn product_is_key_equals_the_built_product(t in partition_table()) {
        let arity = t.arity() as u16;
        let unary = (0..arity).map(|a| vec![AttrId(a)]);
        let binary = (0..arity)
            .flat_map(|a| (a + 1..arity).map(move |b| vec![AttrId(a), AttrId(b)]));
        let parts: Vec<StrippedPartition> = unary
            .chain(binary)
            .map(|attrs| StrippedPartition::for_attrs(&t, &attrs))
            .collect();
        for p in &parts {
            for q in &parts {
                prop_assert_eq!(p.product_is_key(q), p.product(q).is_key());
            }
        }
    }
}
