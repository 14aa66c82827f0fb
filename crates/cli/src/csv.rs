//! A small, dependency-free CSV reader for numeric sample tables.
//!
//! Expected layout: an optional header row, then one sample per row.
//! The response column is selected by name (with a header) or index.
//! All other columns are the variation variables `ΔY`, in file order.

use rsm_linalg::Matrix;
use std::fmt;

/// CSV parsing errors, with 1-based line positions.
#[derive(Debug, Clone, PartialEq)]
pub enum CsvError {
    /// A row had a different number of fields than the first row.
    RaggedRow {
        /// Offending line.
        line: usize,
        /// Field count found.
        found: usize,
        /// Field count expected.
        expected: usize,
    },
    /// A field failed to parse as `f64`.
    BadNumber {
        /// Offending line.
        line: usize,
        /// Column index (0-based).
        col: usize,
        /// The raw field.
        field: String,
    },
    /// A field parsed as `NaN` or `±inf`: a sample the solvers and the
    /// scorer cannot use.
    NonFinite {
        /// Offending line.
        line: usize,
        /// Column index (0-based).
        col: usize,
        /// The raw field.
        field: String,
    },
    /// The requested response column does not exist.
    NoSuchColumn(String),
    /// The file has no data rows.
    Empty,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::RaggedRow {
                line,
                found,
                expected,
            } => write!(f, "line {line}: {found} fields, expected {expected}"),
            CsvError::BadNumber { line, col, field } => {
                write!(f, "line {line}, column {col}: '{field}' is not a number")
            }
            CsvError::NonFinite { line, col, field } => {
                write!(f, "line {line}, column {col}: '{field}' is not finite")
            }
            CsvError::NoSuchColumn(name) => write!(f, "no column named '{name}'"),
            CsvError::Empty => write!(f, "no data rows"),
        }
    }
}

impl std::error::Error for CsvError {}

/// A parsed numeric table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Column names (synthesized `c0, c1, …` when the file is headerless).
    pub columns: Vec<String>,
    /// Whether the first row was a header.
    pub has_header: bool,
    /// Row-major data, `rows × columns`.
    pub data: Matrix,
}

impl Table {
    /// Parses CSV text. A header is detected when the first row has any
    /// field that does not parse as a number.
    ///
    /// # Errors
    ///
    /// See [`CsvError`].
    pub fn parse(text: &str) -> Result<Table, CsvError> {
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));
        let Some((first_no, first)) = lines.next() else {
            return Err(CsvError::Empty);
        };
        let first_fields: Vec<&str> = first.split(',').map(str::trim).collect();
        let ncols = first_fields.len();
        let has_header = first_fields.iter().any(|f| f.parse::<f64>().is_err());
        let columns: Vec<String> = if has_header {
            first_fields.iter().map(|s| s.to_string()).collect()
        } else {
            (0..ncols).map(|i| format!("c{i}")).collect()
        };
        let mut rows: Vec<f64> = Vec::new();
        let mut nrows = 0usize;
        let push_row = |line: usize, fields: &[&str], rows: &mut Vec<f64>| {
            if fields.len() != ncols {
                return Err(CsvError::RaggedRow {
                    line,
                    found: fields.len(),
                    expected: ncols,
                });
            }
            for (col, f) in fields.iter().enumerate() {
                let v = f.parse::<f64>().map_err(|_| CsvError::BadNumber {
                    line,
                    col,
                    field: f.to_string(),
                })?;
                if !v.is_finite() {
                    return Err(CsvError::NonFinite {
                        line,
                        col,
                        field: f.to_string(),
                    });
                }
                rows.push(v);
            }
            Ok(())
        };
        if !has_header {
            push_row(first_no, &first_fields, &mut rows)?;
            nrows += 1;
        }
        for (line, l) in lines {
            let fields: Vec<&str> = l.split(',').map(str::trim).collect();
            push_row(line, &fields, &mut rows)?;
            nrows += 1;
        }
        if nrows == 0 {
            return Err(CsvError::Empty);
        }
        let data = Matrix::from_vec(nrows, ncols, rows).expect("consistent row widths");
        Ok(Table {
            columns,
            has_header,
            data,
        })
    }

    /// Index of a column by name, or by numeric string (`"3"`).
    ///
    /// # Errors
    ///
    /// Returns [`CsvError::NoSuchColumn`].
    pub fn column_index(&self, name_or_index: &str) -> Result<usize, CsvError> {
        if let Some(i) = self.columns.iter().position(|c| c == name_or_index) {
            return Ok(i);
        }
        if let Ok(i) = name_or_index.parse::<usize>() {
            if i < self.columns.len() {
                return Ok(i);
            }
        }
        Err(CsvError::NoSuchColumn(name_or_index.to_string()))
    }

    /// Splits the table into `(inputs, response)` around the response
    /// column.
    ///
    /// # Errors
    ///
    /// Returns [`CsvError::NoSuchColumn`].
    pub fn split_response(&self, response: &str) -> Result<(Matrix, Vec<f64>), CsvError> {
        let ri = self.column_index(response)?;
        let keep: Vec<usize> = (0..self.columns.len()).filter(|&c| c != ri).collect();
        Ok((self.data.select_cols(&keep), self.data.col(ri)))
    }
}

/// Serializes a samples table to CSV (used by `rsm predict` output and
/// the tests' round-trips).
pub fn write_csv(columns: &[String], data: &Matrix) -> String {
    let mut out = String::new();
    out.push_str(&columns.join(","));
    out.push('\n');
    for r in 0..data.rows() {
        let row: Vec<String> = data.row(r).iter().map(|v| format!("{v:.17e}")).collect();
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_with_header() {
        let t = Table::parse("a,b,y\n1,2,3\n4,5,6\n").unwrap();
        assert!(t.has_header);
        assert_eq!(t.columns, vec!["a", "b", "y"]);
        assert_eq!(t.data.shape(), (2, 3));
        assert_eq!(t.data[(1, 2)], 6.0);
    }

    #[test]
    fn parses_headerless() {
        let t = Table::parse("1,2\n3,4\n").unwrap();
        assert!(!t.has_header);
        assert_eq!(t.columns, vec!["c0", "c1"]);
        assert_eq!(t.data.shape(), (2, 2));
    }

    #[test]
    fn skips_comments_and_blanks() {
        let t = Table::parse("# comment\n\nx,y\n1,2\n\n# more\n3,4\n").unwrap();
        assert_eq!(t.data.shape(), (2, 2));
    }

    #[test]
    fn ragged_row_reported_with_line() {
        let err = Table::parse("a,b\n1,2\n1,2,3\n").unwrap_err();
        assert_eq!(
            err,
            CsvError::RaggedRow {
                line: 3,
                found: 3,
                expected: 2
            }
        );
    }

    #[test]
    fn bad_number_reported() {
        let err = Table::parse("a,b\n1,x\n").unwrap_err();
        match err {
            CsvError::BadNumber {
                line: 2,
                col: 1,
                field,
            } => assert_eq!(field, "x"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn non_finite_field_reported_with_line_and_column() {
        for bad in ["nan", "NaN", "inf", "-inf", "infinity", "1e999"] {
            let err = Table::parse(&format!("a,b,y\n1,2,3\n4,{bad},6\n")).unwrap_err();
            assert_eq!(
                err,
                CsvError::NonFinite {
                    line: 3,
                    col: 1,
                    field: bad.to_string()
                }
            );
            assert_eq!(
                err.to_string(),
                format!("line 3, column 1: '{bad}' is not finite")
            );
        }
        // Headerless files check their first row too.
        assert!(matches!(
            Table::parse("inf,2\n3,4\n"),
            Err(CsvError::NonFinite {
                line: 1,
                col: 0,
                ..
            })
        ));
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(Table::parse("").unwrap_err(), CsvError::Empty);
        assert_eq!(
            Table::parse("# only comments\n").unwrap_err(),
            CsvError::Empty
        );
        // Header-only also counts as empty.
        assert_eq!(Table::parse("a,b\n").unwrap_err(), CsvError::Empty);
    }

    #[test]
    fn split_response_by_name_and_index() {
        let t = Table::parse("x0,x1,y\n1,2,10\n3,4,20\n").unwrap();
        let (x, y) = t.split_response("y").unwrap();
        assert_eq!(x.shape(), (2, 2));
        assert_eq!(y, vec![10.0, 20.0]);
        let (x2, y2) = t.split_response("2").unwrap();
        assert_eq!(x2.shape(), (2, 2));
        assert_eq!(y2, vec![10.0, 20.0]);
        assert!(t.split_response("nope").is_err());
    }

    #[test]
    fn csv_roundtrip() {
        let t = Table::parse("u,v\n1.5,-2.25\n0.125,3\n").unwrap();
        let text = write_csv(&t.columns, &t.data);
        let back = Table::parse(&text).unwrap();
        assert_eq!(back.columns, t.columns);
        assert!(back.data.max_abs_diff(&t.data).unwrap() < 1e-15);
    }
}
