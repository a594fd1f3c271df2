//! Table storage: the extension `r_i` of a relation `R_i(X_i)`.
//!
//! Storage is columnar (`Vec<Value>` per attribute). The dependency
//! algorithms are dominated by projections over small attribute sets and
//! distinct counting, which columnar layout serves directly; tuple
//! reconstruction is only needed for display and INSERT.

use crate::attr::AttrId;
use crate::error::RelationalError;
use crate::schema::Relation;
use crate::value::Value;
use std::collections::HashSet;

/// A tuple projected on an ordered attribute list; used as hash/set key.
pub type ProjKey = Vec<Value>;

/// The extension of one relation: a bag of tuples in columnar layout.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table {
    columns: Vec<Vec<Value>>,
    rows: usize,
}

impl Table {
    /// Creates an empty table with `arity` columns.
    pub fn new(arity: usize) -> Self {
        Table {
            columns: vec![Vec::new(); arity],
            rows: 0,
        }
    }

    /// Creates an empty table shaped for `relation`.
    pub fn for_relation(relation: &Relation) -> Self {
        Table::new(relation.arity())
    }

    /// Does every column hold one value per row? `false` only for a
    /// *streamed extension* — a table whose rows live in the paged
    /// store (`crate::spill`) while the in-memory columns stay empty.
    /// Raw-column consumers must check this before trusting
    /// [`Table::column`].
    pub fn is_materialized(&self) -> bool {
        self.columns.iter().all(|c| c.len() == self.rows)
    }

    /// Declares `rows` rows without materializing them — the streamed
    /// extension marker. Only valid on an empty table.
    pub(crate) fn set_streamed_rows(&mut self, rows: usize) {
        assert!(
            self.rows == 0 && self.columns.iter().all(Vec::is_empty),
            "streamed extension over a populated table"
        );
        self.rows = rows;
    }

    /// Installs `values` as the full contents of one empty column of
    /// a streamed extension — the restructuring hydration path.
    pub(crate) fn hydrate_column(&mut self, attr: AttrId, values: Vec<Value>) {
        assert_eq!(
            values.len(),
            self.rows,
            "hydrated column must match the declared row count"
        );
        let col = &mut self.columns[attr.index()];
        assert!(col.is_empty(), "hydrating a column that already has data");
        *col = values;
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
    /// checks live in [`crate::database::Database::insert`]).
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), RelationalError> {
        if row.len() != self.columns.len() {
            return Err(RelationalError::ArityMismatch {
                relation: String::from("<detached table>"),
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
        self.rows += 1;
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
    pub fn from_columns(columns: Vec<Vec<Value>>) -> Result<Self, RelationalError> {
        let rows = columns.first().map_or(0, Vec::len);
        if let Some(ragged) = columns.iter().find(|c| c.len() != rows) {
            return Err(RelationalError::ArityMismatch {
                relation: String::from("<detached table>"),
                expected: rows,
                got: ragged.len(),
            });
        }
        Ok(Table { columns, rows })
    }

    /// Single cell access.
    #[inline]
    pub fn cell(&self, row: usize, attr: AttrId) -> &Value {
        &self.columns[attr.index()][row]
    }

    /// Full column access.
    pub fn column(&self, attr: AttrId) -> &[Value] {
        &self.columns[attr.index()]
    }

    /// Materializes row `i` as a vector (display/insert paths only).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c[i].clone()).collect()
    }

    /// Iterates materialized rows. Cloning cost is acceptable on the
    /// display path; algorithms use [`Table::project_row`] instead.
    pub fn rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.rows).map(|i| self.row(i))
    }

    /// Projects row `i` on an ordered attribute list `t[Y]`.
    pub fn project_row(&self, i: usize, attrs: &[AttrId]) -> ProjKey {
        attrs
            .iter()
            .map(|a| self.columns[a.index()][i].clone())
            .collect()
    }

    /// Does row `i` contain a NULL among `attrs`?
    pub fn row_has_null(&self, i: usize, attrs: &[AttrId]) -> bool {
        attrs.iter().any(|a| self.columns[a.index()][i].is_null())
    }

    /// The column slices of `attrs`, resolved once so row loops don't
    /// re-walk the `attr → column` lookup per row.
    fn column_slices(&self, attrs: &[AttrId]) -> Vec<&[Value]> {
        attrs.iter().map(|a| self.column(*a)).collect()
    }

    /// The set of *distinct, fully non-null* projections `π_Y(r)` — SQL
    /// `SELECT DISTINCT Y` with rows containing NULL in `Y` dropped,
    /// matching the paper's `‖r[Y]‖` (`COUNT (DISTINCT Y)`).
    ///
    /// This is the reference implementation; hot paths use the
    /// dictionary-encoded kernels in [`crate::encode`]. The set grows
    /// organically — pre-sizing to the row count over-allocates badly
    /// on low-cardinality columns.
    pub fn distinct_projection(&self, attrs: &[AttrId]) -> HashSet<ProjKey> {
        let cols = self.column_slices(attrs);
        let mut set = HashSet::new();
        'rows: for i in 0..self.rows {
            let mut key = Vec::with_capacity(cols.len());
            for c in &cols {
                let v = &c[i];
                if v.is_null() {
                    continue 'rows;
                }
                key.push(v.clone());
            }
            set.insert(key);
        }
        set
    }

    /// `‖r[Y]‖` — the number of distinct non-null projections.
    pub fn count_distinct(&self, attrs: &[AttrId]) -> usize {
        self.distinct_projection(attrs).len()
    }

    /// Removes the columns in `drop` (sorted or not), producing a new
    /// table whose column order matches the relation with those
    /// attributes removed. Used by the Restruct algorithm.
    pub fn drop_columns(&self, drop: &[AttrId]) -> Table {
        let dropset: HashSet<usize> = drop.iter().map(|a| a.index()).collect();
        let columns: Vec<Vec<Value>> = self
            .columns
            .iter()
            .enumerate()
            .filter(|(i, _)| !dropset.contains(i))
            .map(|(_, c)| c.clone())
            .collect();
        Table {
            rows: self.rows,
            columns,
        }
    }

    /// Builds a new table containing the distinct non-null projections
    /// on `attrs`, in first-seen order. Used when Restruct materializes
    /// a new relation `R_p(A_i B_i)` out of an FD `A_i → B_i`.
    pub fn distinct_subtable(&self, attrs: &[AttrId]) -> Table {
        let cols = self.column_slices(attrs);
        let mut seen: HashSet<ProjKey> = HashSet::new();
        let mut out = Table::new(attrs.len());
        'rows: for i in 0..self.rows {
            let mut key = Vec::with_capacity(cols.len());
            for c in &cols {
                let v = &c[i];
                if v.is_null() {
                    continue 'rows;
                }
                key.push(v.clone());
            }
            if seen.insert(key.clone()) {
                // The key holds exactly `attrs.len()` values and `out`
                // was built with that arity.
                #[allow(clippy::expect_used)]
                out.push_row(key).expect("arity fixed by construction");
            }
        }
        out
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
    fn distinct_subtable_dedups_in_first_seen_order() {
        let t = sample();
        let sub = t.distinct_subtable(&[a(0)]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.cell(0, a(0)), &Value::Int(1));
        assert_eq!(sub.cell(1, a(0)), &Value::Int(2));
        assert_eq!(sub.cell(2, a(0)), &Value::Int(3));
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
