//! Tracing from outside the program: spans recorded around calls into
//! each layer's public functions, kept in memory and written out as
//! Chrome trace-event JSON when the run ends.
//!
//! Two decorators put the spans at the layer boundaries the pipeline
//! itself crosses:
//!
//! * [`TimingBackend`] sits under `StatsEngine::with_backend`, so every
//!   cache miss the engine delegates becomes a `probe.*` span;
//! * [`ObservedOracle`] wraps the expert, so every question becomes an
//!   `oracle` span.
//!
//! Both forward every call unchanged — including the trait methods
//! with default bodies — so a traced run makes exactly the decisions,
//! probes and page accesses of an untraced one (see
//! `tests/fidelity.rs`). Neither implements the delta-maintenance hook
//! of `CountBackend`: nothing in a dialogue calls it.

use dbre_core::oracle::{FdContext, HiddenContext, NamingContext, NeiContext, NeiDecision, Oracle};
use dbre_relational::attr::AttrId;
use dbre_relational::backend::{BackendExecStats, CountBackend};
use dbre_relational::bufpool::PageCacheStats;
use dbre_relational::counting::{EquiJoin, JoinStats};
use dbre_relational::database::Database;
use dbre_relational::deps::{Fd, Ind};
use dbre_relational::encode::ColumnDict;
use dbre_relational::partitions::StrippedPartition;
use dbre_relational::schema::RelId;
use dbre_relational::sketch::ColumnSketch;
use dbre_relational::spill::SpillCacheStats;
use dbre_relational::table::ProjKey;
use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call: what ran, when, under which span, in which dialogue.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the tracer.
    pub id: u64,
    /// The span that was open on this thread when this one started.
    pub parent: Option<u64>,
    /// The dialogue this span belongs to (see [`Tracer::begin_dialogue`]).
    pub dialogue: u64,
    /// The analyst thread that ran it.
    pub thread: u64,
    /// `stage.<name>`, `probe.<kind>`, `oracle`, `extract`, …
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread position: the open spans and the current dialogue.
#[derive(Default)]
struct Context {
    open: Vec<u64>,
    dialogue: u64,
    thread: u64,
}

thread_local! {
    static CONTEXT: RefCell<Context> = RefCell::new(Context::default());
}

/// Collects spans from any number of threads.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Tags the spans this thread records from now on with `dialogue`
    /// and `thread`.
    pub fn begin_dialogue(dialogue: u64, thread: u64) {
        CONTEXT.with(|c| {
            let mut c = c.borrow_mut();
            c.dialogue = dialogue;
            c.thread = thread;
        });
    }

    /// Runs `f` inside a span named `name`, child of whatever span is
    /// open on this thread.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, dialogue, thread) = CONTEXT.with(|c| {
            let mut c = c.borrow_mut();
            let parent = c.open.last().copied();
            c.open.push(id);
            (parent, c.dialogue, c.thread)
        });
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        CONTEXT.with(|c| c.borrow_mut().open.pop());
        let span = Span {
            id,
            parent,
            dialogue,
            thread,
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
        };
        self.spans
            .lock()
            .expect("span log lock poisoned by a panicking recorder")
            .push(span);
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log lock poisoned by a panicking recorder")
            .clone()
    }

    /// Chrome trace-event JSON (complete events, microsecond clock) of
    /// the spans `keep` selects; open it in Perfetto or
    /// `chrome://tracing`.
    pub fn chrome_json(&self, keep: impl Fn(&Span) -> bool) -> String {
        let mut spans: Vec<Span> = self.spans().into_iter().filter(|s| keep(s)).collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            let cat = s.name.split('.').next().unwrap_or(s.name);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"dialogue\":{}}}}}",
                s.name,
                cat,
                s.thread,
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.dialogue
            );
            out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("]}\n");
        out
    }
}

/// A [`CountBackend`] that times every call into the backend it wraps.
///
/// Every method is forwarded, the defaulted ones included: leaving one
/// to its default would silently change the program (no sketches, or
/// reference partitions instead of the backend's kernels).
pub struct TimingBackend {
    inner: Box<dyn CountBackend>,
    tracer: Arc<Tracer>,
}

impl TimingBackend {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: Box<dyn CountBackend>, tracer: Arc<Tracer>) -> Self {
        TimingBackend { inner, tracer }
    }
}

impl CountBackend for TimingBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn count_distinct(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> usize {
        self.tracer.span("probe.count_distinct", || {
            self.inner.count_distinct(db, rel, attrs)
        })
    }

    fn join_stats(&self, db: &Database, join: &EquiJoin) -> JoinStats {
        self.tracer
            .span("probe.join_stats", || self.inner.join_stats(db, join))
    }

    fn lhs_groups(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<Vec<Vec<usize>>> {
        self.tracer
            .span("probe.lhs_groups", || self.inner.lhs_groups(db, rel, attrs))
    }

    fn projection(&self, db: &Database, rel: RelId, attrs: &[AttrId]) -> Arc<HashSet<ProjKey>> {
        self.tracer
            .span("probe.projection", || self.inner.projection(db, rel, attrs))
    }

    fn fd_holds(&self, db: &Database, fd: &Fd) -> bool {
        self.tracer
            .span("probe.fd_holds", || self.inner.fd_holds(db, fd))
    }

    fn ind_holds(&self, db: &Database, ind: &Ind) -> bool {
        self.tracer
            .span("probe.ind_holds", || self.inner.ind_holds(db, ind))
    }

    fn partition1(&self, db: &Database, rel: RelId, attr: AttrId) -> Arc<StrippedPartition> {
        self.tracer
            .span("probe.partition1", || self.inner.partition1(db, rel, attr))
    }

    fn prewarm(&self, db: &Database, rel: RelId) {
        self.tracer
            .span("probe.prewarm", || self.inner.prewarm(db, rel))
    }

    fn column_dict(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnDict>> {
        self.tracer.span("probe.column_dict", || {
            self.inner.column_dict(db, rel, attr)
        })
    }

    fn column_sketch(&self, db: &Database, rel: RelId, attr: AttrId) -> Option<Arc<ColumnSketch>> {
        self.tracer.span("probe.column_sketch", || {
            self.inner.column_sketch(db, rel, attr)
        })
    }

    fn exec_stats(&self) -> BackendExecStats {
        self.inner.exec_stats()
    }

    fn page_stats(&self) -> PageCacheStats {
        self.inner.page_stats()
    }

    fn spill_stats(&self) -> SpillCacheStats {
        self.inner.spill_stats()
    }
}

/// An [`Oracle`] that records each question as an `oracle` span and
/// forwards it unchanged, so the expert's answers are those of the
/// wrapped oracle.
pub struct ObservedOracle<O> {
    inner: O,
    tracer: Arc<Tracer>,
}

impl<O: Oracle> ObservedOracle<O> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: O, tracer: Arc<Tracer>) -> Self {
        ObservedOracle { inner, tracer }
    }
}

impl<O: Oracle> Oracle for ObservedOracle<O> {
    fn resolve_nei(&mut self, ctx: &NeiContext<'_>) -> NeiDecision {
        let inner = &mut self.inner;
        self.tracer.span("oracle", || inner.resolve_nei(ctx))
    }

    fn enforce_fd(&mut self, ctx: &FdContext<'_>) -> bool {
        let inner = &mut self.inner;
        self.tracer.span("oracle", || inner.enforce_fd(ctx))
    }

    fn validate_fd(&mut self, ctx: &FdContext<'_>) -> bool {
        let inner = &mut self.inner;
        self.tracer.span("oracle", || inner.validate_fd(ctx))
    }

    fn conceptualize_hidden(&mut self, ctx: &HiddenContext<'_>) -> bool {
        let inner = &mut self.inner;
        self.tracer
            .span("oracle", || inner.conceptualize_hidden(ctx))
    }

    fn name_new_relation(&mut self, ctx: &NamingContext<'_>) -> String {
        let inner = &mut self.inner;
        self.tracer.span("oracle", || inner.name_new_relation(ctx))
    }
}
