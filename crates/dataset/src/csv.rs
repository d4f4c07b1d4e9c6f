//! Minimal CSV persistence for data matrices.
//!
//! Deliberately small: numeric cells only, comma separated, with an
//! optional header row of column labels. This matches how the paper's
//! datasets (NBA/baseball/abalone tables) are distributed, without pulling
//! in a CSV dependency.
//!
//! Every CSV reader in the crate — [`read_csv`], [`read_csv_holed`],
//! [`crate::source::CsvFileSource`] and [`CsvText`] — goes through one
//! row parser: one line reader (`line_text`) and one field parser
//! (`parse_fields`). A line is checked for UTF-8 once and trimmed, then
//! split on commas, and each trimmed cell is written straight into the
//! caller's slice. `CsvLines` reads each line from a stream into one
//! reused byte buffer; [`CsvText`] reads the lines of a chunk of text in
//! place, so a scan can take a file's text under a lock
//! ([`crate::source::RowSource::read_text`]) and parse it on any thread,
//! with the same rows, bits and errors, absolute line numbers included.
//! Blank lines are skipped; the header, when there is one, is the first
//! non-blank line, and it fixes the row width (otherwise the first data
//! row does). One UTF-8 byte-order mark at the very start of the input
//! (as Excel's "CSV UTF-8" export writes) is dropped; anywhere else it is
//! an error like any other stray character.
//! Plain decimals of up to 19 digits take an exact fast path; every
//! other token goes through `str::parse` ([`parse_cell`]).

use crate::{DataMatrix, DatasetError, Result};
use linalg::Matrix;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Parses one already-trimmed CSV cell into a *finite* `f64`.
///
/// Three failure modes, each reported with the cell's location:
/// * empty / all-whitespace cells ([`DatasetError::EmptyCell`]);
/// * tokens that are not numbers at all ([`DatasetError::Parse`]);
/// * tokens `f64::from_str` happily accepts but that would poison every
///   covariance sum downstream — `nan`, `inf`, `-inf`, `infinity` in any
///   case ([`DatasetError::NonFinite`]).
pub(crate) fn parse_cell(tok: &str, line: usize, column: usize) -> Result<f64> {
    if tok.is_empty() {
        return Err(DatasetError::EmptyCell { line, column });
    }
    let v: f64 = tok.parse().map_err(|_| DatasetError::Parse {
        line,
        column,
        token: tok.to_string(),
    })?;
    if !v.is_finite() {
        return Err(DatasetError::NonFinite {
            line,
            column,
            token: tok.to_string(),
        });
    }
    Ok(v)
}

/// Most digits a plain decimal may have and still take the fast path:
/// any 19-digit mantissa fits a `u64`.
const FAST_MAX_DIGITS: usize = 19;

/// `10^k` for every fraction length the fast path divides by; each is an
/// exact `f64` (the powers of ten are exact up to `10^22`).
const POW10: [f64; FAST_MAX_DIGITS + 1] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19,
];

/// Clinger's exact fast path for plain decimals `[-]digits[.digits]`
/// (either digit run may be empty, not both) of at most 19 digits whose
/// mantissa is below 2^53. The mantissa and `10^fraction_digits` are then
/// both exact doubles, so the one correctly rounded division is the
/// correctly rounded value of the decimal: the same bits `str::parse`
/// returns.
///
/// Reads the token starting at `bytes[start]` and returns its value and
/// the index just past it, provided the token ends there at a comma or
/// at the end of `bytes`. `None` for every other field, which the caller
/// trims and hands to [`parse_cell`].
fn scan_plain_decimal(bytes: &[u8], start: usize) -> Option<(f64, usize)> {
    let negative = bytes.get(start) == Some(&b'-');
    let int_start = start + usize::from(negative);
    let mut mantissa = 0u64;
    let int_end = digits_end(bytes, int_start, &mut mantissa);
    let (end, fraction_digits) = if bytes.get(int_end) == Some(&b'.') {
        let end = digits_end(bytes, int_end + 1, &mut mantissa);
        (end, end - int_end - 1)
    } else {
        (int_end, 0)
    };
    let digits = int_end - int_start + fraction_digits;
    if digits == 0 || digits > FAST_MAX_DIGITS || mantissa >= 1 << 53 {
        return None;
    }
    if bytes.get(end).is_some_and(|&b| b != b',') {
        return None;
    }
    let v = mantissa as f64 / POW10[fraction_digits];
    Some((if negative { -v } else { v }, end))
}

/// Folds the decimal digits from `bytes[start]` on into `mantissa` and
/// returns the index of the first non-digit. Wrapping: a run past 19
/// digits is rejected by the caller anyway.
fn digits_end(bytes: &[u8], start: usize, mantissa: &mut u64) -> usize {
    let mut i = start;
    while let Some(&b) = bytes.get(i).filter(|b| b.is_ascii_digit()) {
        *mantissa = mantissa.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
        i += 1;
    }
    i
}

/// One cell of a holed CSV: empty and `?` are holes. A known cell must
/// still be a finite number: literal `nan`/`inf` is corruption, not a
/// hole.
fn parse_holed(tok: &str, line: usize, column: usize) -> Result<Option<f64>> {
    if tok.is_empty() || tok == "?" {
        Ok(None)
    } else {
        parse_cell(tok, line, column).map(Some)
    }
}

/// Number of comma-separated fields in a trimmed line.
fn field_count(text: &str) -> usize {
    text.split(',').count()
}

/// Parses the trimmed line `text` into `out`, one comma-separated field
/// per slot. A plain decimal is read in place by the fast path and stored
/// through `known`; any other field is trimmed and handed to `cell`. The
/// row must have exactly `out.len()` fields: a row of another width is
/// [`DatasetError::RaggedRows`], even when one of its cells is bad too.
fn parse_fields<T>(
    text: &str,
    line: usize,
    out: &mut [T],
    known: impl Fn(f64) -> T,
    cell: impl Fn(&str, usize, usize) -> Result<T>,
) -> Result<()> {
    let bytes = text.as_bytes();
    let expected = out.len();
    let ragged = |actual| DatasetError::RaggedRows {
        line,
        expected,
        actual,
    };
    // Fields from byte `at` (the start of one) to the end of the line.
    let fields_from = |at: usize| text.get(at..).map_or(0, field_count);
    // Start of the current field; past the end once the last one is read.
    let mut start = 0;
    for (column, slot) in out.iter_mut().enumerate() {
        if start > bytes.len() {
            return Err(ragged(column));
        }
        let end = match scan_plain_decimal(bytes, start) {
            Some((v, end)) => {
                *slot = known(v);
                end
            }
            None => {
                let end = bytes[start..]
                    .iter()
                    .position(|&b| b == b',')
                    .map_or(bytes.len(), |k| start + k);
                match cell(text[start..end].trim(), line, column) {
                    Ok(v) => *slot = v,
                    Err(e) => {
                        let actual = column + 1 + fields_from(end + 1);
                        return Err(if actual == expected {
                            e
                        } else {
                            ragged(actual)
                        });
                    }
                }
                end
            }
        };
        start = end + 1;
    }
    match fields_from(start) {
        0 => Ok(()),
        extra => Err(ragged(expected + extra)),
    }
}

/// U+FEFF encoded as UTF-8: the byte-order mark some editors put first.
const UTF8_BOM: &[u8] = b"\xEF\xBB\xBF";

/// The trimmed text of line number `line`, read as `bytes` (its line end
/// included), or `None` for a blank line. A line that is not UTF-8 fails
/// with the `InvalidData` I/O error `BufRead::lines` gives. Line 1 loses
/// one leading byte-order mark.
fn line_text(bytes: &[u8], line: usize) -> Result<Option<&str>> {
    let bytes = if line == 1 {
        bytes.strip_prefix(UTF8_BOM).unwrap_or(bytes)
    } else {
        bytes
    };
    let text = std::str::from_utf8(bytes)
        .map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?
        .trim();
    Ok((!text.is_empty()).then_some(text))
}

/// The crate's one CSV row reader: numbered, non-blank, trimmed lines
/// read through one reused buffer.
pub(crate) struct CsvLines<R> {
    reader: R,
    buf: Vec<u8>,
    /// 1-based number of the last line read (0 before the first).
    line: usize,
}

impl<R: BufRead> CsvLines<R> {
    pub(crate) fn new(reader: R) -> Self {
        CsvLines {
            reader,
            buf: Vec::new(),
            line: 0,
        }
    }

    /// Reads up to the next non-blank line and hands it, trimmed, to `f`
    /// with its 1-based line number. `Ok(None)` at end of input. Lines are
    /// read as [`line_text`] reads them.
    pub(crate) fn next_line<T>(
        &mut self,
        f: impl FnOnce(&str, usize) -> Result<T>,
    ) -> Result<Option<T>> {
        loop {
            self.buf.clear();
            if self.reader.read_until(b'\n', &mut self.buf)? == 0 {
                return Ok(None);
            }
            self.line += 1;
            if let Some(text) = line_text(&self.buf, self.line)? {
                return f(text, self.line).map(Some);
            }
        }
    }

    /// Moves the next whole lines into `text` unparsed, replacing what it
    /// held: at least `min_bytes` unless the input ends first, and up to a
    /// line end or the end of the input. Returns the 1-based number of the
    /// first line moved; `text` is left empty at the end of the input.
    pub(crate) fn read_text(&mut self, text: &mut Vec<u8>, min_bytes: usize) -> Result<usize> {
        text.clear();
        text.reserve(min_bytes);
        let first = self.line + 1;
        // A read as large as the reader's buffer bypasses it.
        (&mut self.reader)
            .take(min_bytes as u64)
            .read_to_end(text)?;
        if text.last().is_some_and(|&b| b != b'\n') {
            self.reader.read_until(b'\n', text)?;
        }
        // Count the lines with `skip_until`'s word-at-a-time memchr: a
        // plain `filter(..).count()` over the bytes does not vectorize
        // and took twice as long as the read.
        let mut rest = &text[..];
        while rest.skip_until(b'\n')? > 0 {
            self.line += 1;
        }
        Ok(first)
    }

    /// The next non-blank line as trimmed column labels.
    pub(crate) fn read_labels(&mut self) -> Result<Option<Vec<String>>> {
        self.next_line(|text, _| Ok(text.split(',').map(|t| t.trim().to_string()).collect()))
    }

    /// The field count of the next non-blank line; no cell is parsed.
    pub(crate) fn read_width(&mut self) -> Result<Option<usize>> {
        self.next_line(|text, _| Ok(field_count(text)))
    }

    /// Parses the next non-blank line into `out`, which fixes the width.
    /// `Ok(false)` at end of input.
    pub(crate) fn read_row(&mut self, out: &mut [f64]) -> Result<bool> {
        Ok(self
            .next_line(|text, line| parse_fields(text, line, out, |v| v, parse_cell))?
            .is_some())
    }
}

impl<R: BufRead + Seek> CsvLines<R> {
    /// Seeks back to the first line.
    pub(crate) fn rewind(&mut self) -> Result<()> {
        self.reader.seek(SeekFrom::Start(0))?;
        self.line = 0;
        Ok(())
    }
}

/// The rows of CSV text that [`crate::source::RowSource::read_text`]
/// handed out: whole lines, numbered from the first line's number in the
/// file. Each line goes through the same line and field parsing as
/// [`crate::source::CsvFileSource`]'s `next_row`, in place, so the rows,
/// their bits and the errors, with their absolute line and column
/// numbers, are exactly what that source yields row by row over the same
/// lines.
#[derive(Debug, Clone)]
pub struct CsvText<'a> {
    /// The lines not read yet.
    rest: &'a [u8],
    /// 1-based number of the last line read.
    line: usize,
}

impl<'a> CsvText<'a> {
    /// Rows of `text`, whose first line is line `first_line` (1-based) of
    /// its file.
    pub fn new(text: &'a [u8], first_line: usize) -> Self {
        CsvText {
            rest: text,
            line: first_line.saturating_sub(1),
        }
    }

    /// Parses the next non-blank line into `out`, which fixes the width;
    /// `Ok(false)` past the last line. A bad line fails with the error
    /// the file source's `next_row` gives for it and is consumed, so the
    /// next call reads the line after it.
    ///
    /// # Errors
    ///
    /// As [`crate::source::CsvFileSource`]'s `next_row`: the
    /// `InvalidData` I/O error for a line that is not UTF-8, and a ragged
    /// row or a bad cell with its line and column.
    pub fn next_row(&mut self, out: &mut [f64]) -> Result<bool> {
        while !self.rest.is_empty() {
            // `skip_until` finds the line end with std's word-at-a-time
            // memchr, copying nothing.
            let mut after = self.rest;
            let len = after.skip_until(b'\n')?;
            let (bytes, rest) = self.rest.split_at(len);
            self.rest = rest;
            self.line += 1;
            if let Some(text) = line_text(bytes, self.line)? {
                parse_fields(text, self.line, out, |v| v, parse_cell)?;
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// Reads a matrix from CSV text.
///
/// When `has_header` is true the first non-blank line supplies column
/// labels and the row width; otherwise labels are generated and the
/// first row sets the width. Empty lines are skipped. Every cell must
/// parse as a finite number; empty cells and literal `nan`/`inf` tokens
/// are rejected with their line and column (use [`read_csv_holed`] for
/// files where blanks mean missing values), and a row of another width
/// with its line. Input with no data rows is [`DatasetError::Invalid`].
pub fn read_csv<R: Read>(reader: R, has_header: bool) -> Result<DataMatrix> {
    let mut lines = CsvLines::new(BufReader::new(reader));
    let header = if has_header {
        lines.read_labels()?
    } else {
        None
    };
    let mut width = header.as_ref().map(Vec::len);
    let mut data = Vec::new();
    let mut n = 0usize;
    while lines
        .next_line(|text, line| {
            let m = *width.get_or_insert_with(|| field_count(text));
            let start = data.len();
            data.resize(start + m, 0.0);
            parse_fields(text, line, &mut data[start..], |v| v, parse_cell)
        })?
        .is_some()
    {
        n += 1;
    }

    let m = width.unwrap_or(0);
    if n == 0 || m == 0 {
        return Err(DatasetError::Invalid("empty CSV input".into()));
    }
    let matrix = Matrix::from_vec(n, m, data)?;
    let mut dm = DataMatrix::new(matrix);
    if let Some(h) = header {
        dm.set_col_labels(h)?;
    }
    Ok(dm)
}

/// Reads a matrix from a CSV file on disk.
pub fn read_csv_file(path: impl AsRef<Path>, has_header: bool) -> Result<DataMatrix> {
    let file = std::fs::File::open(path)?;
    read_csv(file, has_header)
}

/// Rows of optional cells plus the column labels, as returned by the
/// holed readers.
pub type HoledRows = (Vec<Vec<Option<f64>>>, Vec<String>);

/// Reads a CSV that may contain holes: empty cells or `?` parse to
/// `None`. Returns `(rows, column_labels)` for use with the imputation
/// API. Widths, labels and blank lines are handled as in [`read_csv`].
pub fn read_csv_holed<R: Read>(reader: R, has_header: bool) -> Result<HoledRows> {
    let mut lines = CsvLines::new(BufReader::new(reader));
    let header = if has_header {
        lines.read_labels()?
    } else {
        None
    };
    let mut width = header.as_ref().map(Vec::len);
    let mut rows: Vec<Vec<Option<f64>>> = Vec::new();
    while let Some(row) = lines.next_line(|text, line| {
        let mut row = vec![None; *width.get_or_insert_with(|| field_count(text))];
        parse_fields(text, line, &mut row, Some, parse_holed)?;
        Ok(row)
    })? {
        rows.push(row);
    }
    let m = width.unwrap_or(0);
    if rows.is_empty() || m == 0 {
        return Err(DatasetError::Invalid("empty CSV input".into()));
    }
    let labels = header.unwrap_or_else(|| (0..m).map(|j| format!("attr{j}")).collect());
    Ok((rows, labels))
}

/// Reads a holed CSV from disk (see [`read_csv_holed`]).
pub fn read_csv_holed_file(path: impl AsRef<Path>, has_header: bool) -> Result<HoledRows> {
    let file = std::fs::File::open(path)?;
    read_csv_holed(file, has_header)
}

/// Writes a matrix as CSV (header row of column labels included).
pub fn write_csv<W: Write>(dm: &DataMatrix, mut writer: W) -> Result<()> {
    writeln!(writer, "{}", dm.col_labels().join(","))?;
    for i in 0..dm.n_rows() {
        let cells: Vec<String> = dm.row(i).iter().map(|v| format!("{v}")).collect();
        writeln!(writer, "{}", cells.join(","))?;
    }
    Ok(())
}

/// Writes a matrix to a CSV file on disk.
pub fn write_csv_file(dm: &DataMatrix, path: impl AsRef<Path>) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_csv(dm, std::io::BufWriter::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_text() {
        let dm = DataMatrix::with_labels(
            Matrix::from_rows(&[&[1.5, 2.0], &[3.25, -4.0]]).unwrap(),
            vec!["r0".into(), "r1".into()],
            vec!["bread".into(), "butter".into()],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_csv(&dm, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("bread,butter\n"));

        let back = read_csv(&buf[..], true).unwrap();
        assert_eq!(back.matrix(), dm.matrix());
        assert_eq!(back.col_labels(), dm.col_labels());
    }

    #[test]
    fn headerless_input_gets_generated_labels() {
        let dm = read_csv("1,2\n3,4\n".as_bytes(), false).unwrap();
        assert_eq!(dm.n_rows(), 2);
        assert_eq!(dm.col_labels(), &["attr0", "attr1"]);
    }

    #[test]
    fn skips_blank_lines_and_trims_spaces() {
        // The header is the first non-blank line; CRLF endings trim away.
        let dm = read_csv("\r\n  \na, b\r\n 1 , 2 \r\n\n3,4\n".as_bytes(), true).unwrap();
        assert_eq!(dm.n_rows(), 2);
        assert_eq!(dm.col_labels(), &["a", "b"]);
        assert_eq!(dm.row(0), &[1.0, 2.0]);
        assert_eq!(dm.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn reports_parse_errors_with_location() {
        let err = read_csv("1,x\n".as_bytes(), false).unwrap_err();
        match err {
            DatasetError::Parse {
                line,
                column,
                token,
            } => {
                assert_eq!(line, 1);
                assert_eq!(column, 1);
                assert_eq!(token, "x");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn empty_and_whitespace_cells_located() {
        // An empty cell inside a row is reported with line and column,
        // not as a generic parse failure on "".
        let err = read_csv("1,,3\n".as_bytes(), false).unwrap_err();
        assert!(
            matches!(err, DatasetError::EmptyCell { line: 1, column: 1 }),
            "unexpected error {err}"
        );
        // Whitespace-only cells trim to empty and hit the same path.
        let err = read_csv("a,b\n1,2\n3,   \n".as_bytes(), true).unwrap_err();
        assert!(
            matches!(err, DatasetError::EmptyCell { line: 3, column: 1 }),
            "unexpected error {err}"
        );
        let msg = err.to_string();
        assert!(msg.contains("line 3") && msg.contains("column 1"), "{msg}");
    }

    #[test]
    fn a_leading_byte_order_mark_is_dropped_from_line_one_only() {
        const BOM: &str = "\u{feff}";
        // Left in, the mark would glue onto the first label...
        let dm = read_csv(format!("{BOM}a,b\n1,2\n").as_bytes(), true).unwrap();
        assert_eq!(dm.col_labels(), &["a", "b"]);
        assert_eq!(dm.row(0), &[1.0, 2.0]);
        // ...or, with no header, onto the first cell.
        let dm = read_csv(format!("{BOM}1,2\n3,4\n").as_bytes(), false).unwrap();
        assert_eq!(dm.row(0), &[1.0, 2.0]);
        let (rows, labels) = read_csv_holed(format!("{BOM}a,b\n1,?\n").as_bytes(), true).unwrap();
        assert_eq!(labels, ["a", "b"]);
        assert_eq!(rows, vec![vec![Some(1.0), None]]);
        let (rows, _) = read_csv_holed(format!("{BOM}1,\n").as_bytes(), false).unwrap();
        assert_eq!(rows, vec![vec![Some(1.0), None]]);
        // Anywhere else it is a stray character like any other, and
        // only one mark is dropped.
        for (text, at) in [
            (format!("1,2\n{BOM}3,4\n"), (2, 0)),
            (format!("1,{BOM}2\n"), (1, 1)),
            (format!("{BOM}{BOM}1,2\n"), (1, 0)),
        ] {
            match read_csv(text.as_bytes(), false) {
                Err(DatasetError::Parse { line, column, .. }) => {
                    assert_eq!((line, column), at, "{text:?}");
                }
                other => panic!("{text:?}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn literal_nan_and_inf_tokens_rejected() {
        // `f64::from_str` parses all of these; the reader must not let
        // them smuggle a poisoned cell into the matrix.
        for tok in ["nan", "NaN", "NAN", "inf", "Inf", "-inf", "infinity", "-Infinity"] {
            let text = format!("1,2\n3,{tok}\n");
            let err = read_csv(text.as_bytes(), false).unwrap_err();
            match err {
                DatasetError::NonFinite {
                    line,
                    column,
                    token,
                } => {
                    assert_eq!((line, column), (2, 1), "token {tok}");
                    assert_eq!(token, tok);
                }
                other => panic!("token {tok}: unexpected error {other}"),
            }
        }
        // Still a plain parse error for garbage, with location.
        assert!(matches!(
            read_csv("1,2\n3,infinite\n".as_bytes(), false),
            Err(DatasetError::Parse { line: 2, column: 1, .. })
        ));
    }

    #[test]
    fn holed_reader_rejects_non_finite_tokens() {
        // Blanks and '?' are holes, but literal nan/inf is corruption.
        let err = read_csv_holed("1,nan\n".as_bytes(), false).unwrap_err();
        assert!(matches!(
            err,
            DatasetError::NonFinite { line: 1, column: 1, .. }
        ));
        assert!(matches!(
            read_csv_holed("1,2\n inf ,4\n".as_bytes(), false),
            Err(DatasetError::NonFinite { line: 2, column: 0, .. })
        ));
    }

    #[test]
    fn reports_ragged_rows() {
        // A row of the wrong width is a width error, whatever its cells.
        for (text, actual) in [("1,2\n3\n", 1), ("1,2\nx\n", 1), ("1,2\nx,y,z\n", 3)] {
            let err = read_csv(text.as_bytes(), false).unwrap_err();
            assert!(
                matches!(
                    err,
                    DatasetError::RaggedRows { line: 2, expected: 2, actual: a } if a == actual
                ),
                "{text:?}: {err}"
            );
        }
    }

    #[test]
    fn header_width_mismatch_detected() {
        // The header fixes the width: its first data row is the error.
        let err = read_csv("a,b,c\n1,2\n".as_bytes(), true).unwrap_err();
        assert!(matches!(
            err,
            DatasetError::RaggedRows {
                line: 2,
                expected: 3,
                actual: 2
            }
        ));
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(
            read_csv("".as_bytes(), false),
            Err(DatasetError::Invalid(_))
        ));
        assert!(matches!(
            read_csv("\n\n".as_bytes(), true),
            Err(DatasetError::Invalid(_))
        ));
    }

    #[test]
    fn holed_reader_parses_question_marks_and_blanks() {
        let (rows, labels) = read_csv_holed("a,b,c\n1,?,3\n4,5,\n".as_bytes(), true).unwrap();
        assert_eq!(labels, vec!["a", "b", "c"]);
        assert_eq!(rows[0], vec![Some(1.0), None, Some(3.0)]);
        assert_eq!(rows[1], vec![Some(4.0), Some(5.0), None]);
    }

    #[test]
    fn holed_reader_validates() {
        assert!(read_csv_holed("".as_bytes(), false).is_err());
        assert!(read_csv_holed("1,2\n3\n".as_bytes(), false).is_err());
        assert!(read_csv_holed("1,x\n".as_bytes(), false).is_err());
        // Headerless gets generated labels.
        let (_, labels) = read_csv_holed("1,?\n".as_bytes(), false).unwrap();
        assert_eq!(labels, vec!["attr0", "attr1"]);
    }

    /// The fast path must decline a token or return exactly what
    /// `str::parse` does; returns whether it took the token.
    fn fast_path_agrees(tok: &str) -> bool {
        let Some(fast) = scan_plain_decimal(tok.as_bytes(), 0)
            .filter(|&(_, end)| end == tok.len())
            .map(|(v, _)| v)
        else {
            return false;
        };
        let want: f64 = tok
            .parse()
            .unwrap_or_else(|e| panic!("fast path took {tok:?}, which str::parse rejects: {e}"));
        assert_eq!(fast.to_bits(), want.to_bits(), "{tok:?}");
        true
    }

    /// A one-field row must parse exactly as `parse_cell` alone does:
    /// same bits, same error.
    fn same_as_parse_cell(tok: &str) {
        let mut out = [0.0];
        let got = parse_fields(tok, 7, &mut out, |v| v, parse_cell).map(|()| out[0]);
        match (got, parse_cell(tok.trim(), 7, 0)) {
            (Ok(got), Ok(want)) => assert_eq!(got.to_bits(), want.to_bits(), "{tok:?}"),
            (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string(), "{tok:?}"),
            (got, want) => panic!("{tok:?}: {got:?} vs {want:?}"),
        }
    }

    #[test]
    fn fast_path_is_bit_exact_on_edge_tokens() {
        // 2^53 - 1 is taken and 2^53, 2^53 + 1 are declined, bare and
        // with a decimal point.
        let taken = [
            "0", "-0", "0.0", "-0.0", "-0.0000", "007", "-007.50", "1.", ".5", "-.5", "-1.",
            "0.1", "0.3", "123.456", "-98.7654", "9007199254740991", "900719925474099.1",
            "0.000000000000000001", "0000000000000000001", "90071992547409.91",
        ];
        let declined = [
            "9007199254740992", "9007199254740993", "900719925474099.3",
            "1234567890123456789", "1.000000000000000001", "0.0000000000000000001",
            "12345678901234567890", "0.1234567890123456789", "12345678901234567890123",
            "1.2345678901234567890123", "", "-", ".", "-.", "+1.5", "--1", "1.2.3", "1-2",
            "1e5", "1E-3", "0x10", "inf", "-inf", "nan", "NaN", "infinity", "abc", "1 2", "١",
        ];
        for tok in taken {
            assert!(fast_path_agrees(tok), "{tok:?} should take the fast path");
            same_as_parse_cell(tok);
        }
        for tok in declined {
            assert!(!fast_path_agrees(tok), "{tok:?} should fall back");
            same_as_parse_cell(tok);
        }
        assert_eq!(
            scan_plain_decimal(b"-0.0000", 0).map(|(v, _)| v.to_bits()),
            Some((-0.0f64).to_bits())
        );
    }

    #[test]
    fn fast_path_is_bit_exact_on_seeded_random_tokens() {
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = obs::splitmix64(state);
            state
        };
        let mut taken = 0usize;
        for _ in 0..200_000 {
            let r = next();
            let int_digits = (r % 12) as usize;
            let frac_digits = ((r >> 8) % 13) as usize;
            let mut tok = String::new();
            if r & (1 << 20) != 0 {
                tok.push('-');
            }
            for _ in 0..int_digits {
                tok.push(char::from(b'0' + (next() % 10) as u8));
            }
            if r & (1 << 21) != 0 || frac_digits > 0 {
                tok.push('.');
            }
            for _ in 0..frac_digits {
                tok.push(char::from(b'0' + (next() % 10) as u8));
            }
            taken += usize::from(fast_path_agrees(&tok));
            same_as_parse_cell(&tok);
        }
        assert!(taken > 150_000, "only {taken} random plain decimals took the fast path");

        // Formatted floats: `{:.4}` (what the benchmark writes) always
        // takes the fast path; `{}` (write_csv) and `{:e}` mostly fall back.
        for _ in 0..50_000 {
            let v = (next() as f64 / u64::MAX as f64 - 0.5) * 2e4;
            let fixed = format!("{v:.4}");
            assert!(fast_path_agrees(&fixed), "{fixed:?} should take the fast path");
            for tok in [fixed, format!("{v}"), format!("{v:e}")] {
                fast_path_agrees(&tok);
                same_as_parse_cell(&tok);
            }
        }
    }

    /// The historical row semantics: split, trim, count, then parse
    /// every cell with `parse_cell`.
    fn reference_row(text: &str, line: usize, width: usize) -> Result<Vec<f64>> {
        let fields: Vec<&str> = text.split(',').map(str::trim).collect();
        if fields.len() != width {
            return Err(DatasetError::RaggedRows {
                line,
                expected: width,
                actual: fields.len(),
            });
        }
        fields
            .iter()
            .enumerate()
            .map(|(column, tok)| parse_cell(tok, line, column))
            .collect()
    }

    #[test]
    fn fused_row_parser_matches_split_trim_parse_on_seeded_rows() {
        let tokens = [
            "1.5", "-0.25", "42", "-0", "007.10", ".5", "1.", " 3.25 ", "\t-8", "1e5", "+2",
            "2.5E-3", "", " ", "?", "nan", "-inf", "x", "1.2.3", "-", ".", "9007199254740993",
            "0.12345678901234567890", "١",
        ];
        let mut state = 0xc5f_u64;
        let mut next = || {
            state = obs::splitmix64(state);
            state
        };
        for line in 1..20_000 {
            let width = 1 + (next() % 5) as usize;
            let fields = match next() % 8 {
                0 => width - 1,
                1 => width + 1,
                _ => width,
            };
            // Mostly plain decimals, so clean rows are common too.
            let row: Vec<String> = (0..fields.max(1))
                .map(|_| {
                    let r = next();
                    if r % 3 == 0 {
                        tokens[(r >> 8) as usize % tokens.len()].to_string()
                    } else {
                        format!("{:.3}", (r >> 11) as f64 / (1u64 << 40) as f64 - 4096.0)
                    }
                })
                .collect();
            let text = row.join(",");
            let text = text.trim();
            if text.is_empty() {
                continue;
            }
            let mut out = vec![0.0; width];
            let got = parse_fields(text, line, &mut out, |v| v, parse_cell).map(|()| out);
            match (got, reference_row(text, line, width)) {
                (Ok(got), Ok(want)) => {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "{text:?}");
                }
                (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string(), "{text:?}"),
                (got, want) => panic!("{text:?}: {got:?} vs {want:?}"),
            }
        }
    }

    #[test]
    fn exponent_form_parses_and_non_utf8_lines_are_invalid_data() {
        // Exponent form is accepted through str::parse.
        let dm = read_csv("1e5,-2.5E-3\n+7,0.1\n".as_bytes(), false).unwrap();
        assert_eq!(dm.row(0), &[1e5, -2.5e-3]);
        assert_eq!(dm.row(1), &[7.0, 0.1]);
        // A line that is not UTF-8 is the InvalidData I/O error
        // `BufRead::lines` reports.
        for input in [&b"1,2\n3,\xff\n"[..], &b"a,\xc3\n1,2\n"[..]] {
            match read_csv(input, true) {
                Err(DatasetError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                    assert_eq!(e.to_string(), "stream did not contain valid UTF-8");
                }
                other => panic!("expected InvalidData, got {other:?}"),
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = crate::testdir::workdir("csv");
        let path = dir.join("m.csv");
        let dm = DataMatrix::new(Matrix::from_rows(&[&[1.0, 2.0]]).unwrap());
        write_csv_file(&dm, &path).unwrap();
        let back = read_csv_file(&path, true).unwrap();
        assert_eq!(back.matrix(), dm.matrix());
    }
}
