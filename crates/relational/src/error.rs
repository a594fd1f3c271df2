//! Error type for the relational substrate.

use std::fmt;

/// Errors raised by schema construction, table loading and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationalError {
    /// A relation declared two attributes with the same name.
    DuplicateAttribute {
        /// The offending relation.
        relation: String,
        /// The duplicated attribute name.
        attribute: String,
    },
    /// Two relations share a name.
    DuplicateRelation(String),
    /// Reference to an attribute that does not exist.
    UnknownAttribute {
        /// The relation searched.
        relation: String,
        /// The missing attribute name.
        attribute: String,
    },
    /// Reference to a relation that does not exist.
    UnknownRelation(String),
    /// A relation exceeded the `u16` attribute-index space.
    TooManyAttributes(String),
    /// A tuple's arity does not match its relation.
    ArityMismatch {
        /// The relation.
        relation: String,
        /// Declared arity.
        expected: usize,
        /// Tuple arity.
        got: usize,
    },
    /// A value does not fit the declared domain of its column.
    DomainViolation {
        /// The relation.
        relation: String,
        /// The attribute.
        attribute: String,
        /// Display form of the offending value.
        value: String,
    },
    /// A declared key constraint does not hold in the extension.
    KeyViolation {
        /// The relation.
        relation: String,
        /// Display form of the key attribute set.
        key: String,
    },
    /// A declared not-null constraint does not hold in the extension.
    NotNullViolation {
        /// The relation.
        relation: String,
        /// The attribute.
        attribute: String,
    },
    /// An inclusion dependency was declared between attribute lists of
    /// different lengths.
    IndArityMismatch {
        /// Left side length.
        lhs: usize,
        /// Right side length.
        rhs: usize,
    },
    /// An attribute list that must be non-empty (a join side, an FD
    /// left-hand side) was empty.
    EmptyAttrList {
        /// The relation the empty list was projected from.
        relation: String,
    },
}

impl fmt::Display for RelationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationalError::DuplicateAttribute {
                relation,
                attribute,
            } => {
                write!(
                    f,
                    "duplicate attribute `{attribute}` in relation `{relation}`"
                )
            }
            RelationalError::DuplicateRelation(name) => {
                write!(f, "duplicate relation `{name}`")
            }
            RelationalError::UnknownAttribute {
                relation,
                attribute,
            } => {
                write!(
                    f,
                    "unknown attribute `{attribute}` in relation `{relation}`"
                )
            }
            RelationalError::UnknownRelation(name) => {
                write!(f, "unknown relation `{name}`")
            }
            RelationalError::TooManyAttributes(name) => {
                write!(f, "relation `{name}` has more than 65535 attributes")
            }
            RelationalError::ArityMismatch {
                relation,
                expected,
                got,
            } => {
                write!(
                    f,
                    "tuple arity {got} does not match relation `{relation}` arity {expected}"
                )
            }
            RelationalError::DomainViolation {
                relation,
                attribute,
                value,
            } => {
                write!(
                    f,
                    "value {value} violates the domain of `{relation}.{attribute}`"
                )
            }
            RelationalError::KeyViolation { relation, key } => {
                write!(f, "key {{{key}}} violated in relation `{relation}`")
            }
            RelationalError::NotNullViolation {
                relation,
                attribute,
            } => {
                write!(f, "not-null violated on `{relation}.{attribute}`")
            }
            RelationalError::IndArityMismatch { lhs, rhs } => {
                write!(
                    f,
                    "inclusion dependency sides have different arity ({lhs} vs {rhs})"
                )
            }
            RelationalError::EmptyAttrList { relation } => {
                write!(f, "empty attribute list on relation `{relation}`")
            }
        }
    }
}

impl std::error::Error for RelationalError {}

/// Unified error taxonomy for the whole reverse-engineering pipeline.
///
/// Every layer converts its local error into this type at the crate
/// boundary: `RelationalError` and [`crate::csv::CsvError`] convert
/// here directly, `dbre-sql`'s `SqlError` converts via a `From` impl
/// in that crate (the orphan rule places it next to `SqlError`), and
/// the interactive pipeline wraps oracle aborts and caught panics so a
/// degraded run can report *typed* stage failures instead of
/// unwinding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbreError {
    /// Schema or constraint violation from the relational substrate.
    Relational(RelationalError),
    /// CSV import failure (extension loading).
    Csv(crate::csv::CsvError),
    /// SQL lexing/parsing/semantic failure, already rendered. The
    /// typed `SqlError` lives in `dbre-sql`, which depends on this
    /// crate; it converts into this variant at its boundary.
    Sql(String),
    /// Equi-join extraction failure from an application source.
    Extract(String),
    /// Paged-store failure: a spill file is truncated, corrupt or
    /// unreadable (see [`crate::pages::PageError`]).
    Page(crate::pages::PageError),
    /// The expert aborted the interactive session mid-dialogue.
    OracleAbort(String),
    /// A pipeline stage panicked; the unwind was caught at the stage
    /// boundary and demoted to this typed error.
    Panic {
        /// The stage that panicked (e.g. `"restruct"`).
        stage: String,
        /// The panic payload rendered as text.
        message: String,
    },
}

impl fmt::Display for DbreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbreError::Relational(e) => write!(f, "{e}"),
            DbreError::Csv(e) => write!(f, "{e}"),
            DbreError::Sql(m) => write!(f, "SQL error: {m}"),
            DbreError::Extract(m) => write!(f, "extraction error: {m}"),
            DbreError::Page(e) => write!(f, "paged store error: {e}"),
            DbreError::OracleAbort(m) => write!(f, "oracle aborted the session: {m}"),
            DbreError::Panic { stage, message } => {
                write!(f, "stage `{stage}` panicked: {message}")
            }
        }
    }
}

impl std::error::Error for DbreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbreError::Relational(e) => Some(e),
            DbreError::Csv(e) => Some(e),
            DbreError::Page(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelationalError> for DbreError {
    fn from(e: RelationalError) -> Self {
        DbreError::Relational(e)
    }
}

impl From<crate::csv::CsvError> for DbreError {
    fn from(e: crate::csv::CsvError) -> Self {
        DbreError::Csv(e)
    }
}

impl From<crate::pages::PageError> for DbreError {
    fn from(e: crate::pages::PageError) -> Self {
        DbreError::Page(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = RelationalError::UnknownAttribute {
            relation: "R".into(),
            attribute: "x".into(),
        };
        assert!(e.to_string().contains("unknown attribute"));
        assert!(e.to_string().contains('R'));
        let e = RelationalError::IndArityMismatch { lhs: 2, rhs: 1 };
        assert!(e.to_string().contains("arity"));
    }
}
