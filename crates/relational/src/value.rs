//! Attribute values and domains.
//!
//! The relational model of the paper associates every attribute with a
//! domain. We support the domains that occur in legacy administrative
//! databases (the paper's motivating setting): integers, reals, strings,
//! booleans and dates, plus SQL `NULL`.
//!
//! A string cell is a shared reference ([`Value::Str`] holds an
//! `Arc<str>`): a denormalized extension repeats each determined value
//! on every row that references it, so copying a cell — into a
//! dictionary, a hydrated column or a split-off relation — costs a
//! reference-count increment, not an allocation. Ingest interns each
//! text column ([`crate::csv`]), so equal cells of one imported column
//! share one allocation. `Arc<str>` hashes and compares as `str`, so
//! the sharing is invisible to `Hash`, `Eq` and `Ord`.
//!
//! # NULL semantics
//!
//! The algorithms of the paper compute `‖r[X]‖` as SQL
//! `SELECT COUNT(DISTINCT X) FROM R`, and equi-joins with SQL equality.
//! We therefore follow SQL semantics throughout:
//!
//! * `NULL` never compares equal to anything, including itself, for the
//!   purpose of joins and distinct counting ([`Value::sql_eq`]);
//! * tuples containing a `NULL` in the projected attributes are skipped
//!   by `COUNT(DISTINCT …)` (implemented in
//!   [`crate::counting`]);
//! * for *sorting and grouping inside the engine* we still need a total
//!   order, so [`Value`] implements `Ord`/`Hash` with `Null` smallest and
//!   distinct from every non-null value. Engine code must filter nulls
//!   out explicitly wherever SQL semantics demand it.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A totally ordered wrapper around `f64`.
///
/// `NaN` is ordered greater than every other value and equal to itself so
/// that [`Value`] can implement `Eq`/`Ord`/`Hash`. Legacy data rarely
/// contains NaN, but the engine must not panic when it does.
#[derive(Debug, Clone, Copy)]
pub struct OrdF64(pub f64);

impl OrdF64 {
    /// Returns the wrapped float.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }

    #[inline]
    fn key(self) -> u64 {
        // Total order bit trick: flip sign bit for positives, flip all
        // bits for negatives. Maps -inf..+inf (and NaN payloads) onto an
        // order-preserving unsigned key.
        let bits = self.0.to_bits();
        if bits >> 63 == 0 {
            bits | (1 << 63)
        } else {
            !bits
        }
    }
}

impl PartialEq for OrdF64 {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}
impl std::hash::Hash for OrdF64 {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl fmt::Display for OrdF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A calendar date stored as days since 1970-01-01 (proleptic Gregorian).
///
/// Legacy schemas in the paper use dates as key components
/// (`HEmployee(no, date, salary)`), so the type only needs ordering,
/// equality and parsing/formatting of `YYYY-MM-DD`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date(pub i32);

impl Date {
    /// Builds a date from a civil year/month/day triple.
    ///
    /// Returns `None` when the triple is not a valid Gregorian date.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Option<Self> {
        if !(1..=12).contains(&month) || day == 0 || day > days_in_month(year, month) {
            return None;
        }
        Some(Date(days_from_civil(year, month, day)))
    }

    /// Decomposes into `(year, month, day)`.
    pub fn ymd(self) -> (i32, u32, u32) {
        civil_from_days(self.0)
    }

    /// Parses `YYYY-MM-DD`.
    pub fn parse(s: &str) -> Option<Self> {
        let mut it = s.splitn(3, '-');
        let y: i32 = it.next()?.parse().ok()?;
        let m: u32 = it.next()?.parse().ok()?;
        let d: u32 = it.next()?.parse().ok()?;
        Date::from_ymd(y, m, d)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (year % 4 == 0 && year % 100 != 0) || year % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

// Howard Hinnant's civil-days algorithms.
fn days_from_civil(y: i32, m: u32, d: u32) -> i32 {
    let y = y - i32::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u32;
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe as i32 - 719_468
}

fn civil_from_days(z: i32) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u32;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i32 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    (y + i32::from(m <= 2), m, d)
}

/// The domain (type) of an attribute, as declared in the data dictionary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Domain {
    /// 64-bit signed integer (`INTEGER`, `SMALLINT`, …).
    Int,
    /// Double precision float (`REAL`, `NUMERIC`, `DECIMAL`).
    Float,
    /// Variable length character data (`CHAR`, `VARCHAR`, `TEXT`).
    #[default]
    Text,
    /// Boolean.
    Bool,
    /// Calendar date.
    Date,
}

impl Domain {
    /// Human readable SQL-ish name.
    pub fn sql_name(self) -> &'static str {
        match self {
            Domain::Int => "INTEGER",
            Domain::Float => "REAL",
            Domain::Text => "VARCHAR",
            Domain::Bool => "BOOLEAN",
            Domain::Date => "DATE",
        }
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_name())
    }
}

/// A single attribute value.
///
/// `Ord`/`Eq`/`Hash` provide an engine-internal total order (see the
/// module docs); SQL three-valued equality is [`Value::sql_eq`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Value {
    /// SQL NULL — unknown/missing.
    #[default]
    Null,
    /// Integer value.
    Int(i64),
    /// Floating point value with total order.
    Float(OrdF64),
    /// String value, shared: a clone is a reference-count increment.
    Str(Arc<str>),
    /// Boolean value.
    Bool(bool),
    /// Date value.
    Date(Date),
}

impl Value {
    /// Convenience constructor for strings.
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// Convenience constructor for floats.
    pub fn float(f: f64) -> Self {
        Value::Float(OrdF64(f))
    }

    /// Is this SQL `NULL`?
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// SQL equality: `NULL = x` is unknown, which we surface as `false`
    /// (the only consumer is join/filter logic where unknown rows drop).
    #[inline]
    pub fn sql_eq(&self, other: &Value) -> bool {
        if self.is_null() || other.is_null() {
            return false;
        }
        self == other
    }

    /// The domain this value naturally belongs to, or `None` for NULL
    /// (NULL inhabits every domain).
    pub fn domain(&self) -> Option<Domain> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(Domain::Int),
            Value::Float(_) => Some(Domain::Float),
            Value::Str(_) => Some(Domain::Text),
            Value::Bool(_) => Some(Domain::Bool),
            Value::Date(_) => Some(Domain::Date),
        }
    }

    /// Does this value fit in `domain`? NULL fits everywhere.
    pub fn fits(&self, domain: Domain) -> bool {
        match self.domain() {
            None => true,
            Some(d) => d == domain,
        }
    }

    /// Coerces literal text into `domain` (used by the SQL layer, the
    /// data generator and CSV ingest). Returns `None` when the text
    /// does not parse. `null` in any case is NULL in every domain, text
    /// included.
    pub fn parse_into(text: &str, domain: Domain) -> Option<Value> {
        if text.eq_ignore_ascii_case("null") {
            return Some(Value::Null);
        }
        Some(match domain {
            Domain::Int => Value::Int(text.parse().ok()?),
            Domain::Float => Value::float(text.parse().ok()?),
            Domain::Text => Value::str(text),
            Domain::Bool => match text.to_ascii_lowercase().as_str() {
                "true" | "t" | "1" => Value::Bool(true),
                "false" | "f" | "0" => Value::Bool(false),
                _ => return None,
            },
            Domain::Date => Value::Date(Date::parse(text)?),
        })
    }
}

// A cell is a tag plus at most two words (`Arc<str>` is a fat
// pointer); a wider variant would grow every column of every table.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Value>() == 24);

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Date(d) => write!(f, "DATE '{d}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<Date> for Value {
    fn from(v: Date) -> Self {
        Value::Date(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_not_sql_equal_to_itself() {
        assert!(!Value::Null.sql_eq(&Value::Null));
        assert!(!Value::Null.sql_eq(&Value::Int(1)));
        assert!(!Value::Int(1).sql_eq(&Value::Null));
    }

    #[test]
    fn non_null_sql_eq_matches_structural_eq() {
        assert!(Value::Int(3).sql_eq(&Value::Int(3)));
        assert!(!Value::Int(3).sql_eq(&Value::Int(4)));
        assert!(Value::str("a").sql_eq(&Value::str("a")));
        assert!(!Value::str("a").sql_eq(&Value::Int(3)));
    }

    #[test]
    fn engine_order_puts_null_first() {
        let mut vals = [Value::Int(5), Value::Null, Value::Int(-2)];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Int(-2));
    }

    #[test]
    fn ordf64_total_order() {
        let mut xs = [
            OrdF64(f64::NAN),
            OrdF64(1.0),
            OrdF64(-1.0),
            OrdF64(f64::NEG_INFINITY),
            OrdF64(0.0),
            OrdF64(f64::INFINITY),
        ];
        xs.sort();
        assert_eq!(xs[0].0, f64::NEG_INFINITY);
        assert_eq!(xs[1].0, -1.0);
        assert_eq!(xs[2].0, 0.0);
        assert_eq!(xs[3].0, 1.0);
        assert_eq!(xs[4].0, f64::INFINITY);
        assert!(xs[5].0.is_nan());
        // NaN equals itself under the total order.
        assert_eq!(OrdF64(f64::NAN), OrdF64(f64::NAN));
    }

    #[test]
    fn date_roundtrip() {
        for &(y, m, d) in &[(1970, 1, 1), (1996, 2, 29), (2026, 7, 7), (1899, 12, 31)] {
            let date = Date::from_ymd(y, m, d).unwrap();
            assert_eq!(date.ymd(), (y, m, d));
            let s = date.to_string();
            assert_eq!(Date::parse(&s), Some(date));
        }
    }

    #[test]
    fn date_rejects_invalid() {
        assert!(Date::from_ymd(1995, 2, 29).is_none());
        assert!(Date::from_ymd(1995, 13, 1).is_none());
        assert!(Date::from_ymd(1995, 0, 1).is_none());
        assert!(Date::from_ymd(1995, 4, 31).is_none());
        assert!(Date::parse("not-a-date").is_none());
    }

    #[test]
    fn date_epoch_is_zero() {
        assert_eq!(Date::from_ymd(1970, 1, 1).unwrap().0, 0);
        assert_eq!(Date::from_ymd(1970, 1, 2).unwrap().0, 1);
        assert_eq!(Date::from_ymd(1969, 12, 31).unwrap().0, -1);
    }

    #[test]
    fn parse_into_all_domains() {
        assert_eq!(Value::parse_into("42", Domain::Int), Some(Value::Int(42)));
        assert_eq!(
            Value::parse_into("4.5", Domain::Float),
            Some(Value::float(4.5))
        );
        assert_eq!(
            Value::parse_into("abc", Domain::Text),
            Some(Value::str("abc"))
        );
        assert_eq!(
            Value::parse_into("true", Domain::Bool),
            Some(Value::Bool(true))
        );
        assert_eq!(
            Value::parse_into("1996-02-29", Domain::Date),
            Some(Value::Date(Date::from_ymd(1996, 2, 29).unwrap()))
        );
        assert_eq!(Value::parse_into("NULL", Domain::Int), Some(Value::Null));
        assert_eq!(Value::parse_into("x", Domain::Int), None);
    }

    #[test]
    fn fits_checks_domain() {
        assert!(Value::Int(1).fits(Domain::Int));
        assert!(!Value::Int(1).fits(Domain::Text));
        assert!(Value::Null.fits(Domain::Int));
        assert!(Value::Null.fits(Domain::Date));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::str("x").to_string(), "'x'");
        assert_eq!(Value::Bool(true).to_string(), "TRUE");
    }
}
