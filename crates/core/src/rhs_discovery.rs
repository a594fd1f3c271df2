//! The RHS-Discovery algorithm (paper §6.2.2).
//!
//! For each candidate identifier `R_i.A ∈ LHS ∪ H`, find the right-hand
//! side of its functional dependency:
//!
//! 1. *Prune the candidates*: `T = X_i − A − K_i`, and when `A ∉ N`
//!    also remove the not-null attributes (`T −= N ∩ X_i`) — an
//!    attribute that may be null cannot determine one that must not be
//!    in the object the paper is after.
//! 2. *Test each candidate*: `A → b` against the extension; on failure
//!    the expert user may still enforce it (dirty data, step (ii)),
//!    shown its g3 error. Both questions read the rows grouped by `A`
//!    that the counting engine caches once per step.
//! 3. If `B ≠ ∅` the FD `R_i : A → B` joins `F` (after expert
//!    validation) and `R_i.A` leaves `H` if it was there; if `B = ∅`
//!    and `R_i.A ∉ H`, the expert decides whether `R_i.A` is a hidden
//!    object (steps (iv)/(v)).
//!
//! The pruning of step 1 is what keeps the number of extension queries
//! small — ablation X4 measures exactly that. Step 2 has one shortcut:
//! when the backend's exact column counts prove a single-attribute `A`
//! a key, every `A → b` holds and no probe runs.

use crate::lhs_discovery::LhsDiscovery;
use crate::oracle::{DecisionRecord, FdContext, HiddenContext, Oracle};
use dbre_relational::attr::{AttrId, AttrSet};
use dbre_relational::backend::{g3_error, CountBackend};
use dbre_relational::database::Database;
use dbre_relational::deps::Fd;
use dbre_relational::par::par_map;
use dbre_relational::schema::QualAttrs;
use dbre_relational::sketch::SketchPruneStats;
use dbre_relational::stats::StatsEngine;

/// Options controlling RHS-Discovery (the ablation knobs).
#[derive(Debug, Clone)]
pub struct RhsOptions {
    /// Apply the key-removal prune (`T −= K_i`). Default `true`.
    pub prune_keys: bool,
    /// Apply the not-null prune when `A ∉ N`. Default `true`.
    pub prune_not_null: bool,
}

impl Default for RhsOptions {
    fn default() -> Self {
        RhsOptions {
            prune_keys: true,
            prune_not_null: true,
        }
    }
}

/// Result of RHS-Discovery.
#[derive(Debug, Clone, Default)]
pub struct RhsDiscovery {
    /// The elicited functional dependencies `F`.
    pub fds: Vec<Fd>,
    /// The final hidden-object set `H`.
    pub hidden: Vec<QualAttrs>,
    /// Candidates the expert user gave up (step (v)).
    pub given_up: Vec<QualAttrs>,
    /// Number of `A → b` extension tests performed (ablation metric).
    /// Counts tests settled from exact counts too — the metric is
    /// "questions asked of the extension", not "kernel invocations".
    pub fd_checks: usize,
    /// Audit trail.
    pub log: Vec<DecisionRecord>,
    /// What the unary-key shortcut settled (all zero when the backend
    /// serves no counts).
    pub sketch: SketchPruneStats,
}

/// Runs RHS-Discovery over `LHS ∪ H`.
///
/// Equivalent to [`rhs_discovery_with_engine`] with a throwaway
/// [`StatsEngine`].
pub fn rhs_discovery(
    db: &Database,
    input: &LhsDiscovery,
    oracle: &mut dyn Oracle,
    options: &RhsOptions,
) -> RhsDiscovery {
    let engine = StatsEngine::new();
    rhs_discovery_with_engine(db, input, oracle, options, &engine)
}

/// Runs RHS-Discovery with `A → b` extension tests memoized in
/// `engine`.
///
/// All candidates `b` of one step share the LHS `A`, so the engine
/// groups the rows agreeing on `A` once and every test only rescans the
/// grouped rows. The g3 error shown for a failing test
/// ([`g3_error`]) reads the same cached groups, over the raw values of
/// a resident table or the backend-served codes of a streamed one.
/// The per-candidate tests run through [`par_map`] (concurrent with
/// `--features parallel`); oracle interaction for failing/elicited FDs
/// stays sequential and in candidate order.
///
/// When the exact counts of a single-attribute LHS
/// ([`CountBackend::column_sketch`]) prove it a key of its extension
/// (NULL-free, every row distinct), the per-candidate probes are
/// skipped wholesale: every group is a single row, so every `A → b`
/// trivially holds. The outcome (`B`, the log, `fd_checks`) is
/// byte-identical to running the probes.
pub fn rhs_discovery_with_engine(
    db: &Database,
    input: &LhsDiscovery,
    oracle: &mut dyn Oracle,
    options: &RhsOptions,
    engine: &dyn CountBackend,
) -> RhsDiscovery {
    let mut out = RhsDiscovery {
        hidden: input.hidden.clone(),
        ..Default::default()
    };

    let candidates: Vec<(QualAttrs, bool)> = input
        .lhs
        .iter()
        .map(|q| (q.clone(), false))
        .chain(input.hidden.iter().map(|q| (q.clone(), true)))
        .collect();

    for (cand, from_hidden) in candidates {
        let rel = cand.rel;
        let relation = db.schema.relation(rel);
        let a = &cand.attrs;

        // Step 1 — decrease the number of candidate RHS attributes.
        let mut t = relation.all_attrs().difference(a);
        if options.prune_keys {
            if let Some(key) = db.constraints.primary_key(rel) {
                t = t.difference(&key.attrs.clone());
            }
        }
        let a_not_null = db.constraints.all_not_null(rel, a);
        if options.prune_not_null && !a_not_null {
            t = t.difference(&db.constraints.not_null_set(rel));
        }

        // Step 2 — test each candidate attribute. The extension probes
        // all share the LHS `A`, so they run through the engine (and
        // concurrently under `parallel`); the oracle dialogue below
        // stays sequential in candidate order.
        let cand_attrs: Vec<AttrId> = t.iter().collect();
        let cand_fds: Vec<Fd> = cand_attrs
            .iter()
            .map(|ca| Fd::new(rel, a.clone(), AttrSet::single(*ca)))
            .collect();
        // Unary-key shortcut: a single-attribute LHS whose exact counts
        // prove it a key settles every probe of this step at once.
        let key_sketch = match (a.len() == 1, a.iter().next()) {
            (true, Some(attr)) => engine.column_sketch(db, rel, attr),
            _ => None,
        };
        let holds_vec: Vec<bool> = match &key_sketch {
            Some(s) if s.is_exact_key() => {
                out.sketch.pruned += cand_fds.len() as u64;
                vec![true; cand_fds.len()]
            }
            _ => {
                if key_sketch.is_some() {
                    out.sketch.verified += cand_fds.len() as u64;
                }
                par_map(&cand_fds, |fd| engine.fd_holds(db, fd))
            }
        };
        if key_sketch.is_some() {
            out.sketch.candidates += cand_fds.len() as u64;
        }
        let mut b = AttrSet::empty();
        for ((cand_attr, fd), holds) in cand_attrs.iter().zip(&cand_fds).zip(holds_vec) {
            let cand_attr = *cand_attr;
            out.fd_checks += 1;
            if holds {
                b.insert(cand_attr);
            } else {
                let error = g3_error(engine, db, fd);
                let enforced = oracle.enforce_fd(&FdContext { db, fd, error });
                out.log.push(DecisionRecord::new(
                    "RHS-Discovery/enforce",
                    fd.render(&db.schema),
                    format!(
                        "{} (g3 error {:.4})",
                        if enforced { "enforced" } else { "rejected" },
                        error
                    ),
                ));
                if enforced {
                    b.insert(cand_attr);
                }
            }
        }

        // Step 3 — classify.
        if !b.is_empty() {
            let fd = Fd::new(rel, a.clone(), b);
            let validated = oracle.validate_fd(&FdContext {
                db,
                fd: &fd,
                error: 0.0,
            });
            out.log.push(DecisionRecord::new(
                "RHS-Discovery/validate",
                fd.render(&db.schema),
                if validated {
                    "accepted into F"
                } else {
                    "rejected"
                }
                .to_string(),
            ));
            if validated {
                if from_hidden {
                    out.hidden.retain(|q| q != &cand);
                }
                if !out.fds.contains(&fd) {
                    out.fds.push(fd);
                }
            } else if !from_hidden {
                out.given_up.push(cand);
            }
        } else if !from_hidden {
            let conceptualize = oracle.conceptualize_hidden(&HiddenContext {
                db,
                candidate: &cand,
            });
            out.log.push(DecisionRecord::new(
                "RHS-Discovery/hidden",
                cand.render(&db.schema),
                if conceptualize {
                    "conceptualized as hidden object"
                } else {
                    "given up"
                }
                .to_string(),
            ));
            if conceptualize {
                if !out.hidden.contains(&cand) {
                    out.hidden.push(cand);
                }
            } else {
                out.given_up.push(cand);
            }
        }
        // `B = ∅` with `from_hidden = true`: the element simply stays
        // in `H` (it was already conceptualized).
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{DenyOracle, ScriptedOracle};
    use dbre_relational::attr::{AttrId, AttrSet};
    use dbre_relational::schema::{RelId, Relation};
    use dbre_relational::value::{Domain, Value};

    /// Department(dep key, emp, skill, location not-null, proj) with
    /// emp -> skill, proj holding in the extension.
    fn dept_db() -> (Database, RelId) {
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
        db.constraints.add_key(dept, AttrSet::from_indices([0u16]));
        db.constraints.add_not_null(dept, AttrId(3));
        db.constraints.normalize();
        let rows: &[(&str, Option<i64>, &str, &str, &str)] = &[
            ("d1", Some(1), "db", "lyon", "p1"),
            ("d2", Some(1), "db", "paris", "p1"),
            ("d3", Some(2), "ai", "lyon", "p2"),
            ("d4", None, "??", "nice", "p9"),
        ];
        for (dep, emp, skill, loc, proj) in rows {
            db.insert(
                dept,
                vec![
                    Value::str(*dep),
                    emp.map_or(Value::Null, Value::Int),
                    Value::str(*skill),
                    Value::str(*loc),
                    Value::str(*proj),
                ],
            )
            .unwrap();
        }
        (db, dept)
    }

    fn input(_db: &Database, rel: RelId, attrs: &[u16], hidden: bool) -> LhsDiscovery {
        let q = QualAttrs::new(rel, AttrSet::from_indices(attrs.iter().copied()));
        if hidden {
            LhsDiscovery {
                lhs: vec![],
                hidden: vec![q],
            }
        } else {
            LhsDiscovery {
                lhs: vec![q],
                hidden: vec![],
            }
        }
    }

    #[test]
    fn elicits_fd_with_pruned_candidates() {
        let (db, dept) = dept_db();
        let out = rhs_discovery(
            &db,
            &input(&db, dept, &[1], false),
            &mut DenyOracle,
            &RhsOptions::default(),
        );
        // T = {skill, location, proj} minus key {dep} minus (A=emp ∉ N)
        // the not-null set {location, dep} → {skill, proj}: 2 checks.
        assert_eq!(out.fd_checks, 2);
        assert_eq!(out.fds.len(), 1);
        assert_eq!(
            out.fds[0].render(&db.schema),
            "Department: emp -> skill, proj"
        );
        assert!(out.hidden.is_empty());
    }

    #[test]
    fn pruning_ablation_increases_checks() {
        let (db, dept) = dept_db();
        let no_prune = RhsOptions {
            prune_keys: false,
            prune_not_null: false,
        };
        let out = rhs_discovery(
            &db,
            &input(&db, dept, &[1], false),
            &mut DenyOracle,
            &no_prune,
        );
        // T = {dep, skill, location, proj}: 4 checks.
        assert_eq!(out.fd_checks, 4);
        // emp -> location fails (emp=1 has lyon & paris) and dep is the
        // key (emp -> dep fails: emp=1 in d1, d2), so same FD found.
        assert_eq!(out.fds.len(), 1);
        assert_eq!(
            out.fds[0].render(&db.schema),
            "Department: emp -> skill, proj"
        );
    }

    #[test]
    fn empty_rhs_asks_hidden_object() {
        let (db, dept) = dept_db();
        // location determines nothing (lyon → d1 & d3 differ everywhere).
        let mut oracle = ScriptedOracle::new().hidden("Department.{location}", true);
        let out = rhs_discovery(
            &db,
            &input(&db, dept, &[3], false),
            &mut oracle,
            &RhsOptions::default(),
        );
        assert!(out.fds.is_empty());
        assert_eq!(out.hidden.len(), 1);
        assert_eq!(out.hidden[0].render(&db.schema), "Department.{location}");
    }

    #[test]
    fn empty_rhs_given_up_when_declined() {
        let (db, dept) = dept_db();
        let out = rhs_discovery(
            &db,
            &input(&db, dept, &[3], false),
            &mut DenyOracle,
            &RhsOptions::default(),
        );
        assert!(out.hidden.is_empty());
        assert_eq!(out.given_up.len(), 1);
    }

    #[test]
    fn hidden_candidate_with_fd_moves_to_f() {
        let (db, dept) = dept_db();
        let out = rhs_discovery(
            &db,
            &input(&db, dept, &[1], true),
            &mut DenyOracle,
            &RhsOptions::default(),
        );
        assert_eq!(out.fds.len(), 1);
        assert!(out.hidden.is_empty(), "conceptualized in F, removed from H");
    }

    #[test]
    fn hidden_candidate_without_fd_stays_hidden() {
        let (db, dept) = dept_db();
        let out = rhs_discovery(
            &db,
            &input(&db, dept, &[3], true),
            &mut DenyOracle,
            &RhsOptions::default(),
        );
        assert!(out.fds.is_empty());
        assert_eq!(out.hidden.len(), 1);
    }

    #[test]
    fn oracle_can_enforce_failing_fd() {
        let (db, dept) = dept_db();
        // emp -> location fails on the extension; enforce it.
        let mut oracle = ScriptedOracle::new().fd("Department: emp -> location", true);
        let no_null_prune = RhsOptions {
            prune_keys: true,
            prune_not_null: false,
        };
        let out = rhs_discovery(
            &db,
            &input(&db, dept, &[1], false),
            &mut oracle,
            &no_null_prune,
        );
        assert_eq!(
            out.fds[0].render(&db.schema),
            "Department: emp -> skill, location, proj"
        );
    }

    #[test]
    fn validation_can_reject_elicited_fd() {
        let (db, dept) = dept_db();
        let mut oracle = ScriptedOracle::new().fd("Department: emp -> skill, proj", false);
        let out = rhs_discovery(
            &db,
            &input(&db, dept, &[1], false),
            &mut oracle,
            &RhsOptions::default(),
        );
        assert!(out.fds.is_empty());
        assert_eq!(out.given_up.len(), 1);
    }

    /// Every `RHS-Discovery/enforce` record shows the failing FD's g3
    /// error exactly as the `Value`-level reference computes it on the
    /// same table — through ties, NULL-LHS rows, NULL and NaN RHS
    /// cells, and a composite LHS.
    #[test]
    fn enforce_records_show_the_reference_g3_error() {
        let mut db = Database::new();
        let t = db
            .add_relation(Relation::of(
                "T",
                &[
                    ("k", Domain::Int),
                    ("a", Domain::Int),
                    ("b", Domain::Float),
                    ("c", Domain::Text),
                    ("d", Domain::Int),
                ],
            ))
            .unwrap();
        db.constraints.add_key(t, AttrSet::from_indices([0u16]));
        db.constraints.normalize();
        let csv = "k,a,b,c,d\n0,1,2,x,1\n1,1,3,x,1\n2,2,,y,2\n3,1,3,z,1\n4,,9,x,3\n5,1,2,,2\n\
                   6,3,NaN,y,3\n7,2,5,y,2\n8,2,,,2\n9,3,4,y,3\n10,3,NaN,y,3\n11,4,7,w,4\n";
        dbre_relational::csv::import_csv(&mut db, t, csv).unwrap();
        let lhs = [&[1u16][..], &[1, 4], &[3]];
        let input = LhsDiscovery {
            lhs: lhs
                .iter()
                .map(|a| QualAttrs::new(t, AttrSet::from_indices(a.iter().copied())))
                .collect(),
            hidden: vec![],
        };
        let out = rhs_discovery(&db, &input, &mut DenyOracle, &RhsOptions::default());
        let enforce: Vec<&DecisionRecord> = out
            .log
            .iter()
            .filter(|r| r.step == "RHS-Discovery/enforce")
            .collect();
        assert_eq!(enforce.len(), 8, "{:#?}", out.log);
        for record in enforce {
            let fd = input
                .lhs
                .iter()
                .flat_map(|q| {
                    (0..5u16).map(|b| Fd::new(t, q.attrs.clone(), AttrSet::single(AttrId(b))))
                })
                .find(|fd| fd.render(&db.schema) == record.question)
                .unwrap();
            let (l, r): (Vec<AttrId>, Vec<AttrId>) =
                (fd.lhs.iter().collect(), fd.rhs.iter().collect());
            let expected = dbre_mine::fd_error(db.table(t), &l, &r);
            assert!(expected > 0.0, "{}", record.question);
            let shown = format!("rejected (g3 error {expected:.4})");
            assert_eq!(record.decision, shown, "{}", record.question);
        }
    }

    #[test]
    fn not_null_lhs_keeps_not_null_candidates() {
        let (db, dept) = dept_db();
        // A = {dep} is the key (not-null): N-prune must NOT fire, and
        // with key-prune T = {emp, skill, location, proj}.
        let out = rhs_discovery(
            &db,
            &input(&db, dept, &[0], false),
            &mut DenyOracle,
            &RhsOptions::default(),
        );
        assert_eq!(out.fd_checks, 4);
        // dep is a key, so it determines everything.
        assert_eq!(
            out.fds[0].render(&db.schema),
            "Department: dep -> emp, skill, location, proj"
        );
    }
}
