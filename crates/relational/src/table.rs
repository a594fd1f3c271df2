//! Table storage: the extension `r_i` of a relation `R_i(X_i)`.
//!
//! Storage is columnar, and a column is its dictionary
//! ([`ColumnDict`]): per-row `u32` codes, resident or on the pages
//! streamed ingest wrote, beside the decode and encode tables and the
//! exact per-code counts, all built once, when the column is loaded.
//! The dependency algorithms are dominated by projections over small
//! attribute sets and distinct counting, which the counting kernels of
//! [`crate::encode`] run over the codes directly; `Value`-level readers
//! decode cells through [`Table::cell`] and [`Table::values`], which
//! borrow from the decode table.
//!
//! Each column sits behind an [`Arc`] and is copy-on-write. Cloning a
//! table, or dropping columns from it ([`Table::drop_columns`]),
//! shares the columns instead of copying them; a write copies only the
//! column it touches, and only while another table still shares it. A
//! write to a paged column first brings its codes into memory.

use crate::attr::AttrId;
use crate::encode::{ColumnDict, DictBuilder};
use crate::error::RelationalError;
use crate::value::Value;
use std::collections::HashSet;
use std::sync::Arc;

/// A tuple projected on an ordered attribute list; used as hash/set key.
pub type ProjKey = Vec<Value>;

/// The extension of one relation: a bag of tuples in columnar layout.
/// Cloning is O(arity): the clone shares every column. Two tables are
/// equal when they hold the same rows in the same order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    columns: Vec<Arc<ColumnDict>>,
    rows: usize,
}

impl Eq for Table {}

/// A column without rows.
fn empty_column() -> Arc<ColumnDict> {
    Arc::new(DictBuilder::new().finish(Vec::new()))
}

impl Table {
    /// Creates an empty table with `arity` columns.
    pub fn new(arity: usize) -> Self {
        Table {
            columns: (0..arity).map(|_| empty_column()).collect(),
            rows: 0,
        }
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Is the table empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Appends a tuple without validation against a relation (domain
    /// checks live in [`crate::database::Database::insert`]). A column
    /// another table shares is copied first; a CSV import appends whole
    /// columns instead ([`crate::csv::import_csv`]).
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), RelationalError> {
        if row.len() != self.columns.len() {
            return Err(RelationalError::ArityMismatch {
                relation: String::from("<detached table>"),
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        for (col, v) in self.columns.iter_mut().zip(&row) {
            Arc::make_mut(col).push(v);
        }
        self.rows += 1;
        Ok(())
    }

    /// Appends the rows held in `columns` (one per attribute, all of
    /// one length) without validation against a relation. An empty
    /// table takes the columns as they are; a populated one appends
    /// their cells. Nothing changes on an error: a wrong column count
    /// or a ragged column is an [`RelationalError::ArityMismatch`].
    pub(crate) fn append_columns(
        &mut self,
        columns: Vec<ColumnDict>,
    ) -> Result<(), RelationalError> {
        let added = Table::from_columns(columns)?;
        if added.arity() != self.arity() {
            return Err(RelationalError::ArityMismatch {
                relation: String::from("<detached table>"),
                expected: self.arity(),
                got: added.arity(),
            });
        }
        if self.is_empty() {
            *self = added;
            return Ok(());
        }
        for (col, new) in self.columns.iter_mut().zip(&added.columns) {
            let col = Arc::make_mut(col);
            new.values().for_each(|v| col.push(v));
        }
        self.rows += added.rows;
        Ok(())
    }

    /// Bulk constructor from rows; all rows must share the arity.
    pub fn from_rows(
        arity: usize,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<Self, RelationalError> {
        let mut t = Table::new(arity);
        for row in rows {
            t.push_row(row)?;
        }
        Ok(t)
    }

    /// Bulk constructor from columns, which must share one length (the
    /// first column's; a table without columns has no rows). A column
    /// of another length is an [`RelationalError::ArityMismatch`] with
    /// the two lengths.
    pub fn from_columns(columns: Vec<ColumnDict>) -> Result<Self, RelationalError> {
        let rows = columns.first().map_or(0, ColumnDict::rows);
        if let Some(ragged) = columns.iter().find(|c| c.rows() != rows) {
            return Err(RelationalError::ArityMismatch {
                relation: String::from("<detached table>"),
                expected: rows,
                got: ragged.rows(),
            });
        }
        let columns = columns.into_iter().map(Arc::new).collect();
        Ok(Table { columns, rows })
    }

    /// Single cell access, borrowed from the column's decode table.
    ///
    /// # Panics
    ///
    /// As [`ColumnDict::cell`].
    #[inline]
    pub fn cell(&self, row: usize, attr: AttrId) -> &Value {
        self.columns[attr.index()].cell(row)
    }

    /// One column, shared: hand out a clone of the `Arc` to keep it.
    pub fn column(&self, attr: AttrId) -> &Arc<ColumnDict> {
        &self.columns[attr.index()]
    }

    /// The cells of `attr` in row order ([`ColumnDict::values`]).
    pub fn values(&self, attr: AttrId) -> impl Iterator<Item = &Value> + '_ {
        self.columns[attr.index()].values()
    }

    /// Materializes row `i` as a vector (display/insert paths only).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.cell(i).clone()).collect()
    }

    /// Iterates materialized rows, each column read once in order.
    /// Cloning cost is acceptable on the display path; algorithms use
    /// the counting kernels instead.
    pub fn rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        let mut cols: Vec<_> = self.columns.iter().map(|c| c.values()).collect();
        (0..self.rows).map(move |_| {
            cols.iter_mut()
                .map(|c| c.next().cloned().unwrap_or_default())
                .collect()
        })
    }

    /// Projects row `i` on an ordered attribute list `t[Y]`.
    pub fn project_row(&self, i: usize, attrs: &[AttrId]) -> ProjKey {
        attrs.iter().map(|a| self.cell(i, *a).clone()).collect()
    }

    /// Does row `i` contain a NULL among `attrs`?
    pub fn row_has_null(&self, i: usize, attrs: &[AttrId]) -> bool {
        attrs.iter().any(|a| self.cell(i, *a).is_null())
    }

    /// The set of *distinct, fully non-null* projections `π_Y(r)` — SQL
    /// `SELECT DISTINCT Y` with rows containing NULL in `Y` dropped,
    /// matching the paper's `‖r[Y]‖` (`COUNT (DISTINCT Y)`).
    ///
    /// This is the `Value`-level reference, reading decoded cells; hot
    /// paths use the integer-code kernels in [`crate::encode`]. The set
    /// grows organically — pre-sizing to the row count over-allocates
    /// badly on low-cardinality columns.
    pub fn distinct_projection(&self, attrs: &[AttrId]) -> HashSet<ProjKey> {
        let mut cols: Vec<_> = attrs.iter().map(|a| self.values(*a)).collect();
        let mut set = HashSet::new();
        let mut cells: Vec<&Value> = Vec::with_capacity(cols.len());
        for _ in 0..self.rows {
            cells.clear();
            cells.extend(cols.iter_mut().map(|c| c.next().unwrap_or(&Value::Null)));
            if !cells.iter().any(|v| v.is_null()) {
                set.insert(cells.iter().map(|&v| v.clone()).collect());
            }
        }
        set
    }

    /// `‖r[Y]‖` — the number of distinct non-null projections.
    pub fn count_distinct(&self, attrs: &[AttrId]) -> usize {
        self.distinct_projection(attrs).len()
    }

    /// Removes the columns in `drop` (sorted or not), producing a new
    /// table whose column order matches the relation with those
    /// attributes removed. The kept columns are shared with `self`, not
    /// copied. Used by the Restruct algorithm.
    pub fn drop_columns(&self, drop: &[AttrId]) -> Table {
        let dropset: HashSet<usize> = drop.iter().map(|a| a.index()).collect();
        let columns = self
            .columns
            .iter()
            .enumerate()
            .filter(|(i, _)| !dropset.contains(i))
            .map(|(_, c)| Arc::clone(c))
            .collect();
        Table {
            rows: self.rows,
            columns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u16) -> AttrId {
        AttrId(i)
    }

    fn sample() -> Table {
        // (x, y): (1,'a') (1,'a') (2,'b') (NULL,'c') (3,NULL)
        Table::from_rows(
            2,
            vec![
                vec![Value::Int(1), Value::str("a")],
                vec![Value::Int(1), Value::str("a")],
                vec![Value::Int(2), Value::str("b")],
                vec![Value::Null, Value::str("c")],
                vec![Value::Int(3), Value::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn count_distinct_skips_nulls() {
        let t = sample();
        assert_eq!(t.len(), 5);
        // x: {1, 2, 3}
        assert_eq!(t.count_distinct(&[a(0)]), 3);
        // y: {'a','b','c'}
        assert_eq!(t.count_distinct(&[a(1)]), 3);
        // (x, y): rows with any null dropped -> (1,a),(2,b)
        assert_eq!(t.count_distinct(&[a(0), a(1)]), 2);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = Table::new(2);
        assert!(t.push_row(vec![Value::Int(1)]).is_err());
        assert!(t.push_row(vec![Value::Int(1), Value::Int(2)]).is_ok());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn projection_order_matters() {
        let t = sample();
        assert_eq!(
            t.project_row(2, &[a(1), a(0)]),
            vec![Value::str("b"), Value::Int(2)]
        );
    }

    #[test]
    fn drop_columns_keeps_rows() {
        let t = sample();
        let dropped = t.drop_columns(&[a(0)]);
        assert_eq!(dropped.arity(), 1);
        assert_eq!(dropped.len(), 5);
        assert_eq!(dropped.cell(0, a(0)), &Value::str("a"));
    }

    #[test]
    fn a_write_to_a_shared_column_leaves_the_other_table_unchanged() {
        let original = sample();
        let mut copy = original.clone();
        assert!(Arc::ptr_eq(copy.column(a(0)), original.column(a(0))));
        copy.push_row(vec![Value::Int(9), Value::str("z")]).unwrap();
        assert_eq!(original, sample());
        assert_eq!(copy.len(), 6);
        assert_eq!(copy.row(5), vec![Value::Int(9), Value::str("z")]);

        // A table with dropped columns shares the ones it keeps.
        let mut kept = original.drop_columns(&[a(0)]);
        assert!(Arc::ptr_eq(kept.column(a(0)), original.column(a(1))));
        kept.append_columns(vec![ColumnDict::build(&[Value::str("w")])])
            .unwrap();
        assert_eq!(original, sample());
        assert_eq!(kept.cell(5, a(0)), &Value::str("w"));
    }

    #[test]
    fn append_columns_takes_a_batch_whole_or_not_at_all() {
        let col = |cells: &[Value]| ColumnDict::build(cells);
        let mut t = sample();
        assert!(t
            .append_columns(vec![col(&[Value::Int(4)]), col(&[])])
            .is_err());
        assert!(t.append_columns(vec![col(&[Value::Int(4)])]).is_err());
        assert_eq!(t, sample());
        t.append_columns(vec![col(&[Value::Int(4)]), col(&[Value::Null])])
            .unwrap();
        assert_eq!(t.len(), 6);
        assert_eq!(t.row(5), vec![Value::Int(4), Value::Null]);

        // An empty table takes the appended columns as they are.
        let column = col(&[Value::Int(1), Value::Int(2)]);
        let distinct = column.distinct_values().as_ptr();
        let mut empty = Table::new(1);
        empty.append_columns(vec![column]).unwrap();
        assert_eq!(empty.column(a(0)).distinct_values().as_ptr(), distinct);
        assert_eq!(empty.len(), 2);
    }

    #[test]
    fn row_has_null_detects_per_attr() {
        let t = sample();
        assert!(t.row_has_null(3, &[a(0)]));
        assert!(!t.row_has_null(3, &[a(1)]));
        assert!(t.row_has_null(4, &[a(0), a(1)]));
    }

    #[test]
    fn rows_roundtrip() {
        let t = sample();
        let rows: Vec<_> = t.rows().collect();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0], vec![Value::Int(1), Value::str("a")]);
    }
}
