//! The paper's §2 SQL formulation of `‖r[X]‖` on its worked example:
//! the generated statements read like the paper's, survive the
//! example's hyphenated legacy names, and count exactly what the
//! columnar primitives count — directly and through [`SqlBackend`].

use dbre_core::example::{paper_database, paper_q};
use dbre_relational::backend::CountBackend;
use dbre_relational::counting::join_stats;
use dbre_relational::deps::IndSide;
use dbre_sql::counts::{count_join_sql, count_side_sql, join_stats_via_sql, SqlBackend};
use dbre_sql::run_sql;

#[test]
fn sql_backend_agrees_with_direct_counting_on_the_paper_example() {
    let db = paper_database();
    let backend = SqlBackend::new();
    for join in paper_q(&db) {
        let direct = join_stats(&db, &join);
        let via_sql = join_stats_via_sql(&db, &join).expect("generated SQL runs");
        assert_eq!(direct, via_sql, "join {}", join.render(&db.schema));
        // The backend serves the same stats through the seam.
        assert_eq!(direct, backend.join_stats(&db, &join));
    }
    assert_eq!(backend.failures(), 0, "no statement fell back");
}

#[test]
fn generated_sql_matches_the_papers_formulation() {
    let db = paper_database();
    let q = paper_q(&db);
    // ‖HEmployee[no]‖ ≡ select count distinct no from HEmployee.
    assert_eq!(
        count_side_sql(&db, &q[0].left),
        "SELECT COUNT(DISTINCT x.no) FROM HEmployee x"
    );
    let join_sql = count_join_sql(&db, &q[0]);
    assert!(join_sql.contains("FROM HEmployee x, Person y"));
    assert!(join_sql.contains("WHERE x.no = y.id"));
}

#[test]
fn hyphenated_identifiers_survive_generation() {
    let db = paper_database();
    let (rel, ids) = db.resolve("Assignment", &["project-name"]).unwrap();
    let side = IndSide::new(rel, ids.clone());
    let sql = count_side_sql(&db, &side);
    // Quoted: bare `x.project-name` would lex as `x.project - name`.
    assert_eq!(
        sql,
        "SELECT COUNT(DISTINCT x.\"project-name\") FROM Assignment x"
    );
    // And it executes — directly and through the backend.
    let n = run_sql(&db, &sql).unwrap().count().unwrap();
    assert_eq!(n, 50); // one project name per project p01..p50
    let backend = SqlBackend::new();
    assert_eq!(backend.count_distinct(&db, rel, &ids), 50);
    assert_eq!(backend.failures(), 0);
}
