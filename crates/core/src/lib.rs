//! # dbre-core
//!
//! The primary contribution of *"Towards the Reverse Engineering of
//! Denormalized Relational Databases"* (Petit, Toumani, Boulicaut,
//! Kouloumdjian — ICDE 1996), implemented end to end:
//!
//! * [`mod@ind_discovery`] — §6.1: inclusion dependencies from equi-joins
//!   checked against the extension, with expert-arbitrated non-empty
//!   intersections;
//! * [`mod@lhs_discovery`] — §6.2.1: candidate FD left-hand sides and
//!   hidden objects from the IND set;
//! * [`mod@rhs_discovery`] — §6.2.2: right-hand sides by targeted
//!   extension tests with dictionary-based candidate pruning;
//! * [`mod@restruct`] — §7: 1NF → 3NF restructuring with key and
//!   referential-integrity constraints (including the extension, so
//!   the output is a runnable database);
//! * [`mod@translate`] — §7: the restructured schema as an EER diagram
//!   ([`eer`]).
//!
//! The interactive expert user is the [`oracle::Oracle`] trait;
//! [`pipeline`] chains all stages with a merged audit log; and
//! [`example`] packages the paper's §5 worked example — extension
//! engineered to reproduce every cardinality of the walk-through — as
//! a fixture used by the golden tests and the experiment reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eer;
pub mod example;
pub mod forward;
pub mod ind_discovery;
pub mod lhs_discovery;
pub mod oracle;
pub mod pipeline;
pub mod render;
pub mod restruct;
pub mod rhs_discovery;
pub mod service;
pub mod session;
pub mod translate;

pub use dbre_relational::sketch::{SketchMode, SketchPruneStats};
pub use eer::EerSchema;
pub use forward::{forward_map, ForwardMapped};
pub use ind_discovery::{ind_discovery, ind_discovery_sketched, IndDiscovery};
pub use lhs_discovery::{lhs_discovery, LhsDiscovery};
pub use oracle::{
    AutoOracle, ChaosOracle, DenyOracle, NeiDecision, Oracle, OracleAbort, ScriptedOracle,
};
pub use pipeline::{run_with_programs, run_with_q, PipelineOptions, PipelineResult, StageError};
pub use restruct::{restruct, Restructured};
pub use rhs_discovery::{rhs_discovery, rhs_discovery_sketched, RhsDiscovery, RhsOptions};
pub use service::{run_service, shared_engine, ServiceReport, SessionOutcome, TimingOracle};
pub use session::{stages, BackendChoice, DbreSession, Stage};
pub use translate::translate;
