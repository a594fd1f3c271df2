//! # dbre-sql
//!
//! SQL substrate built from scratch for the DBRE reproduction: a lexer,
//! a recursive-descent parser for the legacy-SQL subset the paper
//! manipulates, a [`catalog::Catalog`] acting as the DBMS *data
//! dictionary* (the source of the paper's constraint sets `K` and `N`),
//! and a tuple-at-a-time [`executor`] used to validate that the
//! pipeline's counting primitives match real SQL `COUNT(DISTINCT …)`
//! semantics.
//!
//! The grammar intentionally admits hyphenated identifiers
//! (`zip-code`, `project-name`, `Ass-Dept`) because the paper's worked
//! example — like many legacy dictionaries — uses them; the subset has
//! no arithmetic so no ambiguity arises.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod batch;
pub mod catalog;
pub mod counts;
pub mod error;
pub mod executor;
pub mod lexer;
pub mod parser;
pub mod token;

pub use ast::{ColumnRef, Expr, Query, Select, Statement};
pub use batch::execute_query_batch;
pub use catalog::Catalog;
pub use counts::{count_join_sql, count_side_sql, join_stats_via_sql, SqlBackend};
pub use error::{SqlError, SqlResult};
pub use executor::{execute_query, run_sql, ResultSet};
pub use parser::{parse_query, parse_script, parse_statement};
