//! A tuple-at-a-time executor for the SQL subset.
//!
//! Fidelity, not speed, is the goal: this interpreter is the semantic
//! oracle for the crate. The fast path is the tier-1 lowering in
//! [`crate::batch`], which serves the generated `‖·‖` count shapes
//! from the counting kernels and leaves every other query to this
//! interpreter. [`execute_query`] and [`run_sql`] always take the
//! tuple path, so tests can pin the lowering against it.
//!
//! Supported: cross joins (nested loops), `JOIN … ON`, `WHERE` with
//! three-valued logic, correlated `IN`/`EXISTS` subqueries,
//! `DISTINCT`, `COUNT(*)`, `COUNT(DISTINCT a, b)`, `INTERSECT`/`UNION`
//! with set semantics.

use crate::ast::*;
use crate::error::{SqlError, SqlResult};
use dbre_relational::attr::AttrId;
use dbre_relational::database::Database;
use dbre_relational::schema::RelId;
use dbre_relational::value::Value;
use std::collections::{HashMap, HashSet};

/// The result of a query: column headers plus materialized rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// For single-cell results (e.g. `COUNT`), the value.
    pub fn scalar(&self) -> SqlResult<&Value> {
        match (&self.rows.first(), self.rows.len(), self.columns.len()) {
            (Some(row), 1, 1) => Ok(&row[0]),
            _ => Err(SqlError::semantic("query did not produce a single scalar")),
        }
    }

    /// Convenience: the scalar as `usize` (counts).
    pub fn count(&self) -> SqlResult<usize> {
        match self.scalar()? {
            Value::Int(i) if *i >= 0 => Ok(*i as usize),
            v => Err(SqlError::semantic(format!("expected a count, got {v}"))),
        }
    }
}

/// Executes a query against a database.
pub fn execute_query(db: &Database, query: &Query) -> SqlResult<ResultSet> {
    Executor { db }.query(query, &mut Vec::new())
}

/// Parses and executes a query in one step.
pub fn run_sql(db: &Database, sql: &str) -> SqlResult<ResultSet> {
    let q = crate::parser::parse_query(sql)?;
    execute_query(db, &q)
}

/// One bound table in a scope: binding name, relation, current row.
#[derive(Debug, Clone)]
struct Binding {
    name: String,
    rel: RelId,
    row: usize,
}

struct Executor<'a> {
    db: &'a Database,
}

impl<'a> Executor<'a> {
    fn query(&self, q: &Query, outer: &mut Vec<Binding>) -> SqlResult<ResultSet> {
        let first = self.select(&q.body, outer)?;
        match &q.compound {
            None => Ok(first),
            Some((op, rest)) => {
                let second = self.query(rest, outer)?;
                if first.columns.len() != second.columns.len() {
                    return Err(SqlError::semantic(
                        "set operation requires equal column counts",
                    ));
                }
                let left: HashSet<Vec<Value>> = first.rows.into_iter().collect();
                let right: HashSet<Vec<Value>> = second.rows.into_iter().collect();
                let mut rows: Vec<Vec<Value>> = match op {
                    SetOp::Intersect => left.into_iter().filter(|r| right.contains(r)).collect(),
                    SetOp::Union => left.union(&right).cloned().collect(),
                };
                rows.sort();
                Ok(ResultSet {
                    columns: first.columns,
                    rows,
                })
            }
        }
    }

    fn select(&self, s: &Select, outer: &mut Vec<Binding>) -> SqlResult<ResultSet> {
        // Resolve FROM bindings.
        let mut bindings: Vec<Binding> = Vec::with_capacity(s.from.len());
        for tr in &s.from {
            let rel = self.db.rel(&tr.table)?;
            let name = tr.binding().to_string();
            if bindings.iter().any(|b| b.name == name) {
                return Err(SqlError::semantic(format!(
                    "duplicate table binding `{name}` in FROM"
                )));
            }
            bindings.push(Binding { name, rel, row: 0 });
        }

        // Effective predicate = WHERE ∧ all ON conditions.
        let preds: Vec<&Expr> = s.join_conds.iter().chain(s.where_clause.iter()).collect();
        for p in &preds {
            if p.contains_aggregate() {
                return Err(SqlError::semantic("aggregates are not allowed in WHERE"));
            }
        }

        let grouped = !s.group_by.is_empty()
            || s.having.is_some()
            || s.items.iter().any(|it| match it {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                SelectItem::Wildcard => false,
            });

        // Output columns.
        let columns = self.output_columns(s, &bindings)?;

        // Phase 1: enumerate matching cursor snapshots.
        //
        // The naive plan is the full cross product with the predicate
        // evaluated at the deepest level. Two classical improvements,
        // both semantics-preserving under three-valued AND (a row
        // survives iff every conjunct is TRUE, so conjuncts can be
        // checked as soon as all their columns are bound):
        //
        // * predicate pushdown — each conjunct is checked at the
        //   shallowest depth that binds all its columns;
        // * hash join — an equality conjunct between the current table
        //   and an earlier one turns the scan of the current table into
        //   a hash-index lookup (NULL keys excluded, matching SQL
        //   equality).
        let conjuncts: Vec<&Expr> = preds.iter().flat_map(|p| p.conjuncts()).collect();
        let n_tables = bindings.len();
        let depth_of = |e: &Expr| -> usize { expr_depth(self.db, &bindings, e, n_tables) };

        // Partition conjuncts by evaluation depth and pick one hash
        // access per depth.
        let mut preds_at: Vec<Vec<&Expr>> = vec![Vec::new(); n_tables.max(1)];
        let mut hash_access: Vec<Option<(AttrId, usize, AttrId)>> = vec![None; n_tables];
        for c in &conjuncts {
            let d = depth_of(c);
            if let Some((a, b)) = c.as_column_equality() {
                let ra = static_resolve(self.db, &bindings, a);
                let rb = static_resolve(self.db, &bindings, b);
                if let (Some((da, aa)), Some((db_, ab))) = (ra, rb) {
                    let (build, probe) = if da > db_ {
                        ((da, aa), (db_, ab))
                    } else {
                        ((db_, ab), (da, aa))
                    };
                    if build.0 != probe.0 && hash_access[build.0].is_none() {
                        // Equality between two tables: index the deeper
                        // one on its column, probe with the shallower.
                        hash_access[build.0] = Some((build.1, probe.0, probe.1));
                        continue; // consumed by the index, not a filter
                    }
                }
            }
            if n_tables > 0 {
                preds_at[d].push(c);
            }
        }

        // Build the hash indexes.
        let mut indexes: Vec<Option<HashMap<Value, Vec<usize>>>> = vec![None; n_tables];
        for (d, access) in hash_access.iter().enumerate() {
            let Some((attr, _, _)) = access else { continue };
            let table = self.db.table(bindings[d].rel);
            let mut index: HashMap<Value, Vec<usize>> = HashMap::new();
            for (i, v) in table.values(*attr).enumerate() {
                if !v.is_null() {
                    index.entry(v.clone()).or_default().push(i);
                }
            }
            indexes[d] = Some(index);
        }

        let sizes: Vec<usize> = bindings
            .iter()
            .map(|b| self.db.table(b.rel).len())
            .collect();
        let mut snapshots: Vec<Vec<usize>> = Vec::new();
        if n_tables == 0 {
            // No FROM-less queries in the grammar; defensive.
        } else {
            let mut cursor = vec![0usize; n_tables];
            self.enumerate(
                &mut bindings,
                outer,
                &sizes,
                &preds_at,
                &hash_access,
                &indexes,
                0,
                &mut cursor,
                &mut snapshots,
            )?;
        }

        // Phase 2: project (plain) or group-and-aggregate.
        // Rows are produced together with their ORDER BY sort keys.
        let mut keyed_rows: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();
        if !grouped {
            for snap in &snapshots {
                for (b, &r) in bindings.iter_mut().zip(snap) {
                    b.row = r;
                }
                let mut scope_stack = ScopeStack {
                    exec: self,
                    scopes: outer,
                    inner: &bindings,
                };
                let row = scope_stack.project(&s.items)?;
                let mut sort_key = Vec::with_capacity(s.order_by.len());
                for item in &s.order_by {
                    sort_key.push(match &item.key {
                        OrderKey::Position(p) => position_value(&row, *p)?,
                        OrderKey::Expr(e) => scope_stack.eval_scalar(e)?,
                    });
                }
                keyed_rows.push((row, sort_key));
            }
        } else {
            // Group snapshots by the GROUP BY key.
            let mut groups: Vec<(Vec<Value>, Vec<Vec<usize>>)> = Vec::new();
            let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
            for snap in &snapshots {
                for (b, &r) in bindings.iter_mut().zip(snap) {
                    b.row = r;
                }
                let mut scope_stack = ScopeStack {
                    exec: self,
                    scopes: outer,
                    inner: &bindings,
                };
                let key: Vec<Value> = s
                    .group_by
                    .iter()
                    .map(|e| scope_stack.eval_scalar(e))
                    .collect::<SqlResult<_>>()?;
                match index.get(&key) {
                    Some(&gi) => groups[gi].1.push(snap.clone()),
                    None => {
                        index.insert(key.clone(), groups.len());
                        groups.push((key, vec![snap.clone()]));
                    }
                }
            }
            // SQL: an aggregate query with no GROUP BY over an empty
            // input still yields one (empty) group.
            if s.group_by.is_empty() && groups.is_empty() {
                groups.push((Vec::new(), Vec::new()));
            }
            for (_, group_rows) in &groups {
                let mut ge = GroupEval {
                    exec: self,
                    outer,
                    bindings: &mut bindings,
                    group: group_rows,
                    group_by: &s.group_by,
                };
                if let Some(h) = &s.having {
                    if ge.eval_predicate(h)? != Some(true) {
                        continue;
                    }
                }
                let mut row = Vec::new();
                for item in &s.items {
                    match item {
                        SelectItem::Wildcard => {
                            return Err(SqlError::semantic("`*` is not allowed in a grouped query"))
                        }
                        SelectItem::Expr { expr, .. } => row.push(ge.eval(expr)?),
                    }
                }
                let mut sort_key = Vec::with_capacity(s.order_by.len());
                for item in &s.order_by {
                    sort_key.push(match &item.key {
                        OrderKey::Position(p) => position_value(&row, *p)?,
                        OrderKey::Expr(e) => ge.eval(e)?,
                    });
                }
                keyed_rows.push((row, sort_key));
            }
        }

        if s.distinct {
            let mut seen = HashSet::new();
            keyed_rows.retain(|(r, _)| seen.insert(r.clone()));
        }
        if !s.order_by.is_empty() {
            let descs: Vec<bool> = s.order_by.iter().map(|o| o.desc).collect();
            keyed_rows.sort_by(|(_, ka), (_, kb)| {
                for (i, (a, b)) in ka.iter().zip(kb).enumerate() {
                    let ord = a.cmp(b);
                    let ord = if descs[i] { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        let rows: Vec<Vec<Value>> = keyed_rows.into_iter().map(|(r, _)| r).collect();
        Ok(ResultSet { columns, rows })
    }

    /// Recursive join enumeration with pushdown and hash access.
    #[allow(clippy::too_many_arguments)]
    fn enumerate(
        &self,
        bindings: &mut Vec<Binding>,
        outer: &[Binding],
        sizes: &[usize],
        preds_at: &[Vec<&Expr>],
        hash_access: &[Option<(AttrId, usize, AttrId)>],
        indexes: &[Option<HashMap<Value, Vec<usize>>>],
        depth: usize,
        cursor: &mut Vec<usize>,
        snapshots: &mut Vec<Vec<usize>>,
    ) -> SqlResult<()> {
        if depth == bindings.len() {
            snapshots.push(cursor.clone());
            return Ok(());
        }
        // Candidate rows: hash lookup when available, else full scan.
        let candidates: Vec<usize> = match (&hash_access[depth], &indexes[depth]) {
            (Some((_, probe_depth, probe_attr)), Some(index)) => {
                let probe_row = cursor[*probe_depth];
                let v = self
                    .db
                    .table(bindings[*probe_depth].rel)
                    .cell(probe_row, *probe_attr);
                if v.is_null() {
                    Vec::new()
                } else {
                    index.get(v).cloned().unwrap_or_default()
                }
            }
            _ => (0..sizes[depth]).collect(),
        };
        'rows: for row in candidates {
            cursor[depth] = row;
            for (b, &r) in bindings.iter_mut().zip(cursor.iter()) {
                b.row = r;
            }
            {
                let mut scope = ScopeStack {
                    exec: self,
                    scopes: outer,
                    inner: bindings,
                };
                for p in &preds_at[depth] {
                    if scope.eval_predicate(p)? != Some(true) {
                        continue 'rows;
                    }
                }
            }
            self.enumerate(
                bindings,
                outer,
                sizes,
                preds_at,
                hash_access,
                indexes,
                depth + 1,
                cursor,
                snapshots,
            )?;
        }
        Ok(())
    }

    fn output_columns(&self, s: &Select, bindings: &[Binding]) -> SqlResult<Vec<String>> {
        let mut out = Vec::new();
        for item in &s.items {
            match item {
                SelectItem::Wildcard => {
                    for b in bindings {
                        let rel = self.db.schema.relation(b.rel);
                        for a in rel.attributes() {
                            out.push(format!("{}.{}", b.name, a.name));
                        }
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let name = alias.clone().unwrap_or_else(|| match expr {
                        Expr::Column(c) => c.to_string(),
                        Expr::CountStar => "count(*)".to_string(),
                        Expr::CountDistinct(_) => "count(distinct)".to_string(),
                        Expr::Agg { func, .. } => format!("{func:?}").to_lowercase(),
                        _ => "?column?".to_string(),
                    });
                    out.push(name);
                }
            }
        }
        Ok(out)
    }
}

/// Statically resolves a column against the FROM bindings (no outer
/// scopes): `Some((binding index, attr))` on an unambiguous hit.
fn static_resolve(db: &Database, bindings: &[Binding], c: &ColumnRef) -> Option<(usize, AttrId)> {
    let mut found = None;
    for (i, b) in bindings.iter().enumerate() {
        if let Some(q) = &c.qualifier {
            if q != &b.name {
                continue;
            }
        }
        if let Some(attr) = db.schema.relation(b.rel).attr_id(&c.name) {
            if found.is_some() {
                return None; // ambiguous — let evaluation report it
            }
            found = Some((i, attr));
        }
    }
    found
}

/// The shallowest depth at which every column of `e` is bound: the max
/// binding index referenced, 0 for outer-only/literal expressions, and
/// the last depth for anything containing a subquery (whose correlated
/// references we do not analyse).
fn expr_depth(db: &Database, bindings: &[Binding], e: &Expr, n_tables: usize) -> usize {
    let last = n_tables.saturating_sub(1);
    fn walk(db: &Database, bindings: &[Binding], e: &Expr, max: &mut usize) -> bool {
        match e {
            Expr::Column(c) => {
                if let Some((d, _)) = static_resolve(db, bindings, c) {
                    *max = (*max).max(d);
                }
                true
            }
            Expr::Literal(_) => true,
            Expr::Cmp { left, right, .. } => {
                walk(db, bindings, left, max) && walk(db, bindings, right, max)
            }
            Expr::And(l, r) | Expr::Or(l, r) => {
                walk(db, bindings, l, max) && walk(db, bindings, r, max)
            }
            Expr::Not(x) | Expr::IsNull { expr: x, .. } => walk(db, bindings, x, max),
            Expr::InList { expr, list, .. } => {
                walk(db, bindings, expr, max) && list.iter().all(|i| walk(db, bindings, i, max))
            }
            // Subqueries may reference anything; pin to the last depth.
            Expr::InSubquery { .. } | Expr::Exists { .. } => false,
            Expr::CountStar | Expr::CountDistinct(_) | Expr::Agg { .. } => true,
        }
    }
    let mut max = 0usize;
    if walk(db, bindings, e, &mut max) {
        max.min(last)
    } else {
        last
    }
}

/// 1-based output-position lookup for `ORDER BY 2`.
fn position_value(row: &[Value], pos: usize) -> SqlResult<Value> {
    row.get(pos - 1)
        .cloned()
        .ok_or_else(|| SqlError::semantic(format!("ORDER BY position {pos} out of range")))
}

/// Evaluation over one group of rows: scalars must be grouping
/// expressions (evaluated on the group's first row), aggregates fold
/// over every row with SQL NULL-skipping semantics.
struct GroupEval<'a, 'b> {
    exec: &'b Executor<'a>,
    outer: &'b [Binding],
    bindings: &'b mut Vec<Binding>,
    group: &'b [Vec<usize>],
    group_by: &'b [Expr],
}

impl<'a, 'b> GroupEval<'a, 'b> {
    fn scalar_on_row(&mut self, snap: &[usize], e: &Expr) -> SqlResult<Value> {
        for (b, &r) in self.bindings.iter_mut().zip(snap) {
            b.row = r;
        }
        let mut scope = ScopeStack {
            exec: self.exec,
            scopes: self.outer,
            inner: self.bindings,
        };
        scope.eval_scalar(e)
    }

    /// Non-null values of `e` across the group, in row order.
    fn column_values(&mut self, e: &Expr) -> SqlResult<Vec<Value>> {
        let snaps: Vec<Vec<usize>> = self.group.to_vec();
        let mut out = Vec::with_capacity(snaps.len());
        for snap in &snaps {
            let v = self.scalar_on_row(snap, e)?;
            if !v.is_null() {
                out.push(v);
            }
        }
        Ok(out)
    }

    fn eval(&mut self, e: &Expr) -> SqlResult<Value> {
        match e {
            Expr::CountStar => Ok(Value::Int(self.group.len() as i64)),
            Expr::CountDistinct(cols) => {
                let snaps: Vec<Vec<usize>> = self.group.to_vec();
                let mut seen: HashSet<Vec<Value>> = HashSet::new();
                'rows: for snap in &snaps {
                    let mut key = Vec::with_capacity(cols.len());
                    for c in cols {
                        let v = self.scalar_on_row(snap, &Expr::Column(c.clone()))?;
                        if v.is_null() {
                            continue 'rows;
                        }
                        key.push(v);
                    }
                    seen.insert(key);
                }
                Ok(Value::Int(seen.len() as i64))
            }
            Expr::Agg { func, arg } => {
                if arg.contains_aggregate() {
                    return Err(SqlError::semantic("nested aggregates are not allowed"));
                }
                let vals = self.column_values(arg)?;
                Ok(match func {
                    AggFunc::Count => Value::Int(vals.len() as i64),
                    AggFunc::Min => vals.iter().min().cloned().unwrap_or(Value::Null),
                    AggFunc::Max => vals.iter().max().cloned().unwrap_or(Value::Null),
                    AggFunc::Sum => sum_values(&vals)?,
                    AggFunc::Avg => match sum_values(&vals)? {
                        Value::Null => Value::Null,
                        Value::Int(total) => Value::float(total as f64 / vals.len() as f64),
                        Value::Float(total) => Value::float(total.get() / vals.len() as f64),
                        other => {
                            return Err(SqlError::semantic(format!(
                                "AVG over non-numeric value {other}"
                            )))
                        }
                    },
                })
            }
            Expr::Literal(v) => Ok(v.clone()),
            scalar => {
                // A bare scalar must be one of the grouping expressions
                // (SQL-92 rule); evaluate it on the first group row.
                if !self.group_by.iter().any(|g| g == scalar) {
                    return Err(SqlError::semantic(
                        "non-aggregate select item must appear in GROUP BY",
                    ));
                }
                let Some(first) = self.group.first().cloned() else {
                    return Ok(Value::Null);
                };
                self.scalar_on_row(&first, scalar)
            }
        }
    }

    /// Three-valued HAVING evaluation; comparisons may mix aggregates
    /// and grouping expressions. Subqueries are not supported here.
    fn eval_predicate(&mut self, e: &Expr) -> SqlResult<Option<bool>> {
        match e {
            Expr::And(l, r) => {
                let (a, b) = (self.eval_predicate(l)?, self.eval_predicate(r)?);
                Ok(match (a, b) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                })
            }
            Expr::Or(l, r) => {
                let (a, b) = (self.eval_predicate(l)?, self.eval_predicate(r)?);
                Ok(match (a, b) {
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                })
            }
            Expr::Not(x) => Ok(self.eval_predicate(x)?.map(|b| !b)),
            Expr::Cmp { op, left, right } => {
                let l = self.eval(left)?;
                let r = self.eval(right)?;
                if l.is_null() || r.is_null() {
                    return Ok(None);
                }
                let ord = l.cmp(&r);
                Ok(Some(match op {
                    CmpOp::Eq => ord.is_eq(),
                    CmpOp::Ne => ord.is_ne(),
                    CmpOp::Lt => ord.is_lt(),
                    CmpOp::Le => ord.is_le(),
                    CmpOp::Gt => ord.is_gt(),
                    CmpOp::Ge => ord.is_ge(),
                }))
            }
            Expr::IsNull { expr, negated } => {
                let is_null = self.eval(expr)?.is_null();
                Ok(Some(if *negated { !is_null } else { is_null }))
            }
            _ => Err(SqlError::semantic("unsupported predicate form in HAVING")),
        }
    }
}

/// SQL SUM: NULL on empty input, integer sum stays integral, floats
/// (or an int/float mix) sum as doubles. Integer overflow is an error.
fn sum_values(vals: &[Value]) -> SqlResult<Value> {
    if vals.is_empty() {
        return Ok(Value::Null);
    }
    if vals.iter().all(|v| matches!(v, Value::Int(_))) {
        let mut total: i64 = 0;
        // The all() guard above admits only Value::Int here.
        for v in vals {
            if let Value::Int(i) = v {
                total = total
                    .checked_add(*i)
                    .ok_or_else(|| SqlError::semantic("SUM overflow"))?;
            }
        }
        return Ok(Value::Int(total));
    }
    let mut total = 0.0f64;
    for v in vals {
        match v {
            Value::Int(i) => total += *i as f64,
            Value::Float(x) => total += x.get(),
            other => {
                return Err(SqlError::semantic(format!(
                    "SUM over non-numeric value {other}"
                )))
            }
        }
    }
    Ok(Value::float(total))
}

/// Resolution context: the innermost scope (`inner`) plus the stack of
/// outer scopes for correlated subqueries.
struct ScopeStack<'a, 'b> {
    exec: &'b Executor<'a>,
    scopes: &'b [Binding],
    inner: &'b [Binding],
}

impl<'a, 'b> ScopeStack<'a, 'b> {
    fn resolve(&self, c: &ColumnRef) -> SqlResult<(RelId, usize, AttrId)> {
        // Innermost first, then outer scopes right-to-left.
        let inner_hit = self.lookup_in(self.inner, c)?;
        if let Some(hit) = inner_hit {
            return Ok(hit);
        }
        // Outer bindings form one flat slice; search it as a single
        // scope (sufficient for one nesting level of correlation, and
        // deeper levels just see all outer bindings).
        if let Some(hit) = self.lookup_in(self.scopes, c)? {
            return Ok(hit);
        }
        Err(SqlError::semantic(format!("unknown column `{c}`")))
    }

    fn lookup_in(
        &self,
        scope: &[Binding],
        c: &ColumnRef,
    ) -> SqlResult<Option<(RelId, usize, AttrId)>> {
        let mut found: Option<(RelId, usize, AttrId)> = None;
        for b in scope {
            if let Some(q) = &c.qualifier {
                if q != &b.name {
                    continue;
                }
            }
            let rel = self.exec.db.schema.relation(b.rel);
            if let Some(attr) = rel.attr_id(&c.name) {
                if found.is_some() {
                    return Err(SqlError::semantic(format!("ambiguous column `{c}`")));
                }
                found = Some((b.rel, b.row, attr));
            } else if c.qualifier.is_some() {
                return Err(SqlError::semantic(format!("unknown column `{c}`")));
            }
        }
        Ok(found)
    }

    fn column_value(&self, c: &ColumnRef) -> SqlResult<Value> {
        let (rel, row, attr) = self.resolve(c)?;
        Ok(self.exec.db.table(rel).cell(row, attr).clone())
    }

    fn eval_scalar(&mut self, e: &Expr) -> SqlResult<Value> {
        match e {
            Expr::Column(c) => self.column_value(c),
            Expr::Literal(v) => Ok(v.clone()),
            _ => Err(SqlError::semantic(
                "expression not valid in scalar position",
            )),
        }
    }

    /// Three-valued logic: `None` is SQL UNKNOWN.
    fn eval_predicate(&mut self, e: &Expr) -> SqlResult<Option<bool>> {
        match e {
            Expr::Cmp { op, left, right } => {
                let l = self.eval_scalar(left)?;
                let r = self.eval_scalar(right)?;
                if l.is_null() || r.is_null() {
                    return Ok(None);
                }
                let ord = l.cmp(&r);
                Ok(Some(match op {
                    CmpOp::Eq => ord.is_eq(),
                    CmpOp::Ne => ord.is_ne(),
                    CmpOp::Lt => ord.is_lt(),
                    CmpOp::Le => ord.is_le(),
                    CmpOp::Gt => ord.is_gt(),
                    CmpOp::Ge => ord.is_ge(),
                }))
            }
            Expr::And(l, r) => {
                let a = self.eval_predicate(l)?;
                let b = self.eval_predicate(r)?;
                Ok(match (a, b) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                })
            }
            Expr::Or(l, r) => {
                let a = self.eval_predicate(l)?;
                let b = self.eval_predicate(r)?;
                Ok(match (a, b) {
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                })
            }
            Expr::Not(x) => Ok(self.eval_predicate(x)?.map(|b| !b)),
            Expr::IsNull { expr, negated } => {
                let v = self.eval_scalar(expr)?;
                let is_null = v.is_null();
                Ok(Some(if *negated { !is_null } else { is_null }))
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let v = self.eval_scalar(expr)?;
                if v.is_null() {
                    return Ok(None);
                }
                let mut saw_null = false;
                for item in list {
                    let w = self.eval_scalar(item)?;
                    if w.is_null() {
                        saw_null = true;
                    } else if w == v {
                        return Ok(Some(!negated));
                    }
                }
                if saw_null {
                    Ok(None)
                } else {
                    Ok(Some(*negated))
                }
            }
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => {
                let v = self.eval_scalar(expr)?;
                if v.is_null() {
                    return Ok(None);
                }
                let rs = self.run_subquery(query)?;
                if rs.columns.len() != 1 {
                    return Err(SqlError::semantic(
                        "IN subquery must project exactly one column",
                    ));
                }
                let mut saw_null = false;
                for row in &rs.rows {
                    if row[0].is_null() {
                        saw_null = true;
                    } else if row[0] == v {
                        return Ok(Some(!negated));
                    }
                }
                if saw_null {
                    Ok(None)
                } else {
                    Ok(Some(*negated))
                }
            }
            Expr::Exists { query, negated } => {
                let rs = self.run_subquery(query)?;
                let exists = !rs.rows.is_empty();
                Ok(Some(if *negated { !exists } else { exists }))
            }
            Expr::Column(_) | Expr::Literal(_) => {
                // A bare boolean column/literal.
                match self.eval_scalar(e)? {
                    Value::Bool(b) => Ok(Some(b)),
                    Value::Null => Ok(None),
                    v => Err(SqlError::semantic(format!(
                        "expected a boolean predicate, got {v}"
                    ))),
                }
            }
            Expr::CountStar | Expr::CountDistinct(_) | Expr::Agg { .. } => {
                Err(SqlError::semantic("aggregates are not allowed in WHERE"))
            }
        }
    }

    fn run_subquery(&mut self, q: &Query) -> SqlResult<ResultSet> {
        // The subquery sees current inner bindings as outer scope.
        let mut combined: Vec<Binding> = self.scopes.to_vec();
        combined.extend(self.inner.iter().cloned());
        self.exec.query(q, &mut combined)
    }

    fn project(&mut self, items: &[SelectItem]) -> SqlResult<Vec<Value>> {
        let mut out = Vec::new();
        for item in items {
            match item {
                SelectItem::Wildcard => {
                    for b in self.inner {
                        let rel = self.exec.db.schema.relation(b.rel);
                        for i in 0..rel.arity() {
                            out.push(
                                self.exec
                                    .db
                                    .table(b.rel)
                                    .cell(b.row, AttrId(i as u16))
                                    .clone(),
                            );
                        }
                    }
                }
                SelectItem::Expr { expr, .. } => out.push(self.eval_scalar(expr)?),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;

    fn db() -> Database {
        let mut c = Catalog::new();
        c.load_script(
            "CREATE TABLE Person (id INT UNIQUE, name VARCHAR(20), zip CHAR(5));
             CREATE TABLE HEmployee (no INT, date DATE, salary REAL, UNIQUE(no, date));
             INSERT INTO Person VALUES (1, 'ann', '69100'), (2, 'bob', '69100'),
                                       (3, 'cid', '75000'), (4, NULL, NULL);
             INSERT INTO HEmployee VALUES
                (1, DATE '1996-01-01', 100.0),
                (1, DATE '1996-02-01', 120.0),
                (3, DATE '1996-01-01', 90.0);",
        )
        .unwrap();
        c.into_database()
    }

    #[test]
    fn simple_projection() {
        let d = db();
        let rs = run_sql(&d, "SELECT name FROM Person WHERE id = 2").unwrap();
        assert_eq!(rs.columns, vec!["name"]);
        assert_eq!(rs.rows, vec![vec![Value::str("bob")]]);
    }

    #[test]
    fn wildcard_projection() {
        let d = db();
        let rs = run_sql(&d, "SELECT * FROM Person WHERE id = 1").unwrap();
        assert_eq!(rs.columns.len(), 3);
        assert_eq!(rs.rows[0].len(), 3);
    }

    #[test]
    fn count_star_and_count_distinct() {
        let d = db();
        assert_eq!(
            run_sql(&d, "SELECT COUNT(*) FROM Person")
                .unwrap()
                .count()
                .unwrap(),
            4
        );
        assert_eq!(
            run_sql(&d, "SELECT COUNT(DISTINCT zip) FROM Person")
                .unwrap()
                .count()
                .unwrap(),
            2 // NULL zip dropped
        );
        assert_eq!(
            run_sql(&d, "SELECT COUNT(DISTINCT no) FROM HEmployee")
                .unwrap()
                .count()
                .unwrap(),
            2
        );
        assert_eq!(
            run_sql(&d, "SELECT COUNT(DISTINCT no, date) FROM HEmployee")
                .unwrap()
                .count()
                .unwrap(),
            3
        );
    }

    #[test]
    fn equi_join_where_form() {
        let d = db();
        let rs = run_sql(
            &d,
            "SELECT DISTINCT p.name FROM Person p, HEmployee e WHERE e.no = p.id",
        )
        .unwrap();
        let mut names: Vec<String> = rs.rows.iter().map(|r| format!("{}", r[0])).collect();
        names.sort();
        assert_eq!(names, vec!["'ann'", "'cid'"]);
    }

    #[test]
    fn join_on_form_matches_where_form() {
        let d = db();
        let a = run_sql(
            &d,
            "SELECT DISTINCT p.id FROM Person p JOIN HEmployee e ON e.no = p.id",
        )
        .unwrap();
        let b = run_sql(
            &d,
            "SELECT DISTINCT p.id FROM Person p, HEmployee e WHERE e.no = p.id",
        )
        .unwrap();
        let (mut ra, mut rb) = (a.rows, b.rows);
        ra.sort();
        rb.sort();
        assert_eq!(ra, rb);
    }

    #[test]
    fn count_distinct_join_matches_relational_counting() {
        let d = db();
        // SQL: ‖Person[id] ⋈ HEmployee[no]‖
        let via_sql = run_sql(
            &d,
            "SELECT COUNT(DISTINCT p.id) FROM Person p, HEmployee e WHERE p.id = e.no",
        )
        .unwrap()
        .count()
        .unwrap();
        let person = d.rel("Person").unwrap();
        let emp = d.rel("HEmployee").unwrap();
        let join = dbre_relational::EquiJoin::try_new(
            dbre_relational::IndSide::single(person, AttrId(0)),
            dbre_relational::IndSide::single(emp, AttrId(0)),
        )
        .unwrap();
        let stats = dbre_relational::join_stats(&d, &join);
        assert_eq!(via_sql, stats.n_join);
    }

    #[test]
    fn in_subquery_uncorrelated() {
        let d = db();
        let rs = run_sql(
            &d,
            "SELECT name FROM Person WHERE id IN (SELECT no FROM HEmployee)",
        )
        .unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn not_in_subquery_with_null_semantics() {
        let d = db();
        // ids {1,2,3,4}; HEmployee.no = {1,1,3}; NOT IN keeps {2,4}.
        let rs = run_sql(
            &d,
            "SELECT id FROM Person WHERE id NOT IN (SELECT no FROM HEmployee)",
        )
        .unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn exists_correlated() {
        let d = db();
        let rs = run_sql(
            &d,
            "SELECT name FROM Person p WHERE EXISTS (SELECT * FROM HEmployee e WHERE e.no = p.id)",
        )
        .unwrap();
        assert_eq!(rs.rows.len(), 2);
        let rs = run_sql(
            &d,
            "SELECT id FROM Person p WHERE NOT EXISTS \
             (SELECT * FROM HEmployee e WHERE e.no = p.id)",
        )
        .unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn intersect_set_semantics() {
        let d = db();
        let rs = run_sql(
            &d,
            "SELECT id FROM Person INTERSECT SELECT no FROM HEmployee",
        )
        .unwrap();
        assert_eq!(rs.rows.len(), 2); // {1, 3}, duplicates collapsed
    }

    #[test]
    fn union_set_semantics() {
        let d = db();
        let rs = run_sql(&d, "SELECT id FROM Person UNION SELECT no FROM HEmployee").unwrap();
        assert_eq!(rs.rows.len(), 4); // {1,2,3,4}
    }

    #[test]
    fn null_comparisons_are_unknown() {
        let d = db();
        // name = NULL never matches, including the NULL row.
        let rs = run_sql(&d, "SELECT id FROM Person WHERE name = NULL").unwrap();
        assert!(rs.rows.is_empty());
        let rs = run_sql(&d, "SELECT id FROM Person WHERE name IS NULL").unwrap();
        assert_eq!(rs.rows.len(), 1);
        let rs = run_sql(&d, "SELECT id FROM Person WHERE name IS NOT NULL").unwrap();
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn ambiguous_and_unknown_columns_error() {
        let d = db();
        assert!(run_sql(&d, "SELECT ghost FROM Person").is_err());
        assert!(run_sql(&d, "SELECT p.ghost FROM Person p").is_err());
        // `id` appears once in Person, `no` once — but joining the same
        // table twice makes unqualified columns ambiguous.
        assert!(run_sql(&d, "SELECT id FROM Person a, Person b").is_err());
        assert!(run_sql(&d, "SELECT * FROM Person, Person").is_err());
    }

    #[test]
    fn in_list_evaluation() {
        let d = db();
        let rs = run_sql(&d, "SELECT id FROM Person WHERE id IN (1, 3, 9)").unwrap();
        assert_eq!(rs.rows.len(), 2);
        let rs = run_sql(&d, "SELECT id FROM Person WHERE id NOT IN (1, 3)").unwrap();
        assert_eq!(rs.rows.len(), 2);
        // NOT IN with a NULL in the list filters everything (UNKNOWN).
        let rs = run_sql(&d, "SELECT id FROM Person WHERE id NOT IN (1, NULL)").unwrap();
        assert!(rs.rows.is_empty());
    }

    #[test]
    fn empty_table_joins() {
        let mut c = Catalog::new();
        c.load_script("CREATE TABLE E (x INT); CREATE TABLE F (y INT); INSERT INTO F VALUES (1)")
            .unwrap();
        let d = c.into_database();
        let rs = run_sql(&d, "SELECT * FROM E, F WHERE x = y").unwrap();
        assert!(rs.rows.is_empty());
        let rs = run_sql(&d, "SELECT COUNT(*) FROM E").unwrap();
        assert_eq!(rs.count().unwrap(), 0);
    }

    #[test]
    fn group_by_with_count() {
        let d = db();
        // Paychecks per employee… here: history rows per zip.
        let rs = run_sql(
            &d,
            "SELECT zip, COUNT(*) FROM Person GROUP BY zip ORDER BY 2 DESC, 1",
        )
        .unwrap();
        // zips: '69100' ×2, '75000' ×1, NULL ×1 (NULL groups together).
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(rs.rows[0], vec![Value::str("69100"), Value::Int(2)]);
    }

    #[test]
    fn aggregates_min_max_sum_avg() {
        let d = db();
        let rs = run_sql(
            &d,
            "SELECT MIN(salary), MAX(salary), SUM(salary), AVG(salary), COUNT(salary) \
             FROM HEmployee",
        )
        .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::float(90.0));
        assert_eq!(rs.rows[0][1], Value::float(120.0));
        assert_eq!(rs.rows[0][2], Value::float(310.0));
        assert_eq!(rs.rows[0][4], Value::Int(3));
    }

    #[test]
    fn aggregates_skip_nulls_and_empty_groups_yield_null() {
        let d = db();
        // name has one NULL: COUNT(name) = 3 of 4 rows.
        let c = run_sql(&d, "SELECT COUNT(name) FROM Person").unwrap();
        assert_eq!(c.rows[0][0], Value::Int(3));
        // Empty input, no GROUP BY: one row, COUNT 0, MIN NULL.
        let rs = run_sql(&d, "SELECT COUNT(*), MIN(id) FROM Person WHERE id > 999").unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(0), Value::Null]]);
        // Empty input WITH group by: zero rows.
        let rs = run_sql(
            &d,
            "SELECT zip, COUNT(*) FROM Person WHERE id > 999 GROUP BY zip",
        )
        .unwrap();
        assert!(rs.rows.is_empty());
    }

    #[test]
    fn having_filters_groups() {
        let d = db();
        let rs = run_sql(
            &d,
            "SELECT no, COUNT(*) FROM HEmployee GROUP BY no HAVING COUNT(*) > 1",
        )
        .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(1), Value::Int(2)]]);
    }

    #[test]
    fn grouped_query_rejects_ungrouped_columns() {
        let d = db();
        assert!(run_sql(&d, "SELECT name, COUNT(*) FROM Person GROUP BY zip").is_err());
        assert!(run_sql(&d, "SELECT * FROM Person GROUP BY zip").is_err());
        assert!(run_sql(&d, "SELECT id FROM Person WHERE COUNT(*) > 1").is_err());
    }

    #[test]
    fn order_by_columns_and_positions() {
        let d = db();
        let rs = run_sql(&d, "SELECT id FROM Person ORDER BY id DESC").unwrap();
        assert_eq!(rs.rows[0], vec![Value::Int(4)]);
        let rs = run_sql(&d, "SELECT id, name FROM Person ORDER BY 2, 1").unwrap();
        // NULL name sorts first under engine order.
        assert_eq!(rs.rows[0][0], Value::Int(4));
        assert!(run_sql(&d, "SELECT id FROM Person ORDER BY 9").is_err());
    }

    #[test]
    fn order_by_expression_not_in_projection() {
        let d = db();
        let rs = run_sql(&d, "SELECT name FROM Person ORDER BY id DESC").unwrap();
        assert_eq!(rs.rows[0], vec![Value::Null]); // id=4 has NULL name
    }

    #[test]
    fn count_distinct_within_groups() {
        let d = db();
        let rs = run_sql(
            &d,
            "SELECT no, COUNT(DISTINCT date) FROM HEmployee GROUP BY no ORDER BY no",
        )
        .unwrap();
        assert_eq!(rs.rows[0], vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(rs.rows[1], vec![Value::Int(3), Value::Int(1)]);
    }

    #[test]
    fn three_valued_or() {
        let d = db();
        // For the NULL-name row: name = 'x' is UNKNOWN, id = 4 is TRUE;
        // UNKNOWN OR TRUE = TRUE.
        let rs = run_sql(&d, "SELECT id FROM Person WHERE name = 'zz' OR id = 4").unwrap();
        assert_eq!(rs.rows.len(), 1);
    }
}
