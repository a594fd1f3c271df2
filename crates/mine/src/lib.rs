//! # dbre-mine
//!
//! Dependency-mining baselines for the DBRE reproduction. The paper's
//! central argument is that *query-guided* elicitation (testing only
//! the dependencies that application programs navigate) beats *blind
//! mining* of everything the extension satisfies — both in work and in
//! conceptual relevance. To measure that claim we implement the blind
//! miners the literature offers:
//!
//! * [`mod@tane`] — levelwise discovery of all minimal FDs with stripped
//!   partitions ([`partitions`]);
//! * [`mod@spider`] — exhaustive unary IND discovery by sorted k-way merge;
//! * [`fd_check`] — single-FD verification backends (hash vs partition)
//!   used by the paper's RHS-Discovery;
//! * [`approx`] — `g3`-style error measures backing "enforce despite
//!   dirty data" oracle decisions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod fd_check;
pub mod keys;
pub mod mind;
pub use dbre_relational::partitions;
pub mod spider;
pub mod tane;

pub use approx::{fd_error, fd_error_db, fd_holds_approx, ind_error, ind_holds_approx};
pub use fd_check::{check_hash, check_partition, violations};
pub use keys::{
    discover_keys, discover_keys_sketched, infer_missing_keys, infer_missing_keys_sketched,
    KeyResult, KeyStats,
};
pub use mind::{maximal, mind, mind_with_stats, MindResult, MindStats};
pub use partitions::StrippedPartition;
pub use spider::{spider, spider_with_stats, SpiderConfig, SpiderResult, SpiderStats};
pub use tane::{tane, TaneResult, TaneStats};
