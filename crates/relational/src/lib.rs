//! # dbre-relational
//!
//! Relational-model substrate for the DBRE reproduction of
//! *"Towards the Reverse Engineering of Denormalized Relational
//! Databases"* (Petit, Toumani, Boulicaut, Kouloumdjian — ICDE 1996).
//!
//! A relational database here is the paper's triple `(R, E, Δ)`:
//!
//! * `R` — the [`schema::Schema`], a set of [`schema::Relation`]s;
//! * `E` — the extension, one [`table::Table`] per relation;
//! * `Δ = F ∪ IND` — [`deps::Dependencies`], functional plus inclusion
//!   dependencies, *empty at the start of reverse engineering*.
//!
//! Alongside sit the dictionary constraints of §4 —
//! [`deps::Constraints`] holding `K` (unique/keys) and `N` (not-null) —
//! and the counting primitives of §6.1 ([`counting`]) that give the
//! `‖r[X]‖` cardinalities driving IND-Discovery.
//!
//! Classical dependency theory lives in [`fd_theory`] (closures, minimal
//! covers, candidate keys), [`normal_forms`] (1NF–BCNF analysis used to
//! check that the Restruct output is in 3NF), and [`synthesis`]
//! (Bernstein's 3NF synthesis, the blind-normalization baseline the
//! paper argues against).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod backend;
pub mod bufpool;
pub mod chase;
pub mod counting;
pub mod csv;
pub mod database;
pub mod deps;
pub mod encode;
pub mod error;
pub mod fasthash;
pub mod fd_theory;
pub mod ind_theory;
pub mod normal_forms;
pub mod pages;
pub mod par;
pub mod partitions;
pub mod schema;
pub mod sketch;
pub mod snapshot;
pub mod spill;
pub mod stats;
pub mod synthesis;
pub mod table;
pub mod value;

pub use attr::{AttrId, AttrSet, Attribute};
pub use backend::{BackendExecStats, CountBackend, EncodedBackend, ReferenceBackend};
pub use bufpool::{BufferPool, PageCacheStats};
pub use counting::{join_stats, EquiJoin, JoinStats};
pub use csv::CsvError;
pub use database::Database;
pub use deps::{Constraints, Dependencies, Fd, Ind, IndSide, Key};
pub use encode::{ColumnDict, DictBuilder, DictTable, EncodedSet};
pub use error::{DbreError, RelationalError};
pub use fasthash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use pages::{PageError, PageFileWriter, PagedBackend, PagedColumn};
pub use par::par_map;
pub use partitions::StrippedPartition;
pub use schema::{QualAttrs, RelId, Relation, Schema};
pub use sketch::{ColumnSketch, SketchPruneStats};
pub use snapshot::DbSnapshot;
pub use spill::{SpillCacheStats, SpilledTable};
pub use stats::{StatsCounters, StatsEngine};
pub use table::Table;
pub use value::{Date, Domain, OrdF64, Value};
