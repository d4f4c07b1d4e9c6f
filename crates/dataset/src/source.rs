//! Streaming row access.
//!
//! The paper's headline efficiency claim is that Ratio Rules need a
//! *single pass* over the data matrix, which may be far larger than
//! memory. [`RowSource`] models that access pattern: a cursor that yields
//! rows in order and can be rewound for algorithms that genuinely need
//! another pass (the two-pass oracle, not the miner). The core crate's
//! miner consumes any `RowSource` and provably touches it once.
//!
//! A source that already holds its rows in memory can also lend them
//! ([`RowSource::lend_rows`]): the scan then reads them in place instead
//! of copying each one out. A source that reads CSV text can hand the
//! text out unparsed ([`RowSource::read_text`]): the scan then takes it
//! in chunks under a lock and parses them on two threads.

use crate::csv::CsvLines;
use crate::{DataMatrix, DatasetError, Result};
use linalg::Matrix;
use std::io::BufReader;
use std::path::{Path, PathBuf};

/// A forward-only, rewindable stream of fixed-width rows.
///
/// The core crate's `Scanner::scan` reads a source one of three ways,
/// asked once per scan: rows it lends ([`RowSource::lend_rows`]) are
/// checked and folded in place on the calling thread; CSV text it hands
/// out ([`RowSource::read_text`]) is taken in chunks under a lock and
/// parsed by two workers, the calling thread and one helper; any other
/// source is read with [`RowSource::next_row`] under that lock, up to one
/// panel of rows at a time, by either worker. Either way the scan, not
/// the source, checks each row, once, in stream order, and a stream of
/// one chunk or panel is read on the calling thread alone. A source a
/// scan reads on two threads must be `Send`.
pub trait RowSource {
    /// Number of attributes per row.
    fn n_cols(&self) -> usize;

    /// Copies the next row into `buf` (length `n_cols()`). Returns `false`
    /// at end of stream, in which case `buf` is unspecified.
    fn next_row(&mut self, buf: &mut [f64]) -> Result<bool>;

    /// Resets the cursor to the first row.
    fn rewind(&mut self) -> Result<()>;

    /// Lends up to `max_rows` unread rows, row-major in one slice of
    /// `rows * n_cols()` cells, and advances the cursor past them; the
    /// slice is empty at end of stream. Returns `None` when the source
    /// does not hold its rows in memory, which is the default: such a
    /// source is read with [`RowSource::next_row`] only. A source that
    /// lends has `n_cols() > 0` and lends on every call.
    fn lend_rows(&mut self, max_rows: usize) -> Option<&[f64]> {
        let _ = max_rows;
        None
    }

    /// Moves the next whole lines of the source's CSV text into `text`,
    /// replacing what it held, unparsed: at least `min_bytes` unless the
    /// text ends first, and up to a line end or the end of the text.
    /// Returns the 1-based number of the first line moved, with `text`
    /// left empty at end of stream, and advances the cursor past the
    /// lines. [`crate::csv::CsvText`] parses them into exactly the rows
    /// and errors [`RowSource::next_row`] would have yielded, so a caller
    /// can take the text under a lock and parse it on any thread. Returns
    /// `None` when the source does not read CSV text, which is the
    /// default: such a source is read with `next_row` only. A source that
    /// hands out text does so on every call.
    fn read_text(&mut self, text: &mut Vec<u8>, min_bytes: usize) -> Option<Result<usize>> {
        let _ = (text, min_bytes);
        None
    }

    /// Convenience: drains the stream into a dense matrix (rewinds first).
    fn collect_matrix(&mut self) -> Result<Matrix> {
        self.rewind()?;
        let m = self.n_cols();
        let mut data = Vec::new();
        let mut buf = vec![0.0; m];
        let mut n = 0usize;
        while self.next_row(&mut buf)? {
            data.extend_from_slice(&buf);
            n += 1;
        }
        Ok(Matrix::from_vec(n, m, data)?)
    }
}

// A mutable borrow of a source is a source: lets callers thread
// `&mut dyn RowSource` (or any wrapper stack) into generic consumers.
impl<S: RowSource + ?Sized> RowSource for &mut S {
    fn n_cols(&self) -> usize {
        (**self).n_cols()
    }
    fn next_row(&mut self, buf: &mut [f64]) -> Result<bool> {
        (**self).next_row(buf)
    }
    fn rewind(&mut self) -> Result<()> {
        (**self).rewind()
    }
    fn lend_rows(&mut self, max_rows: usize) -> Option<&[f64]> {
        (**self).lend_rows(max_rows)
    }
    fn read_text(&mut self, text: &mut Vec<u8>, min_bytes: usize) -> Option<Result<usize>> {
        (**self).read_text(text, min_bytes)
    }
}

// A boxed source is a source: the CLI builds `Box<dyn RowSource>` stacks
// (file -> fault injector -> retrier) chosen at runtime.
impl<S: RowSource + ?Sized> RowSource for Box<S> {
    fn n_cols(&self) -> usize {
        (**self).n_cols()
    }
    fn next_row(&mut self, buf: &mut [f64]) -> Result<bool> {
        (**self).next_row(buf)
    }
    fn rewind(&mut self) -> Result<()> {
        (**self).rewind()
    }
    fn lend_rows(&mut self, max_rows: usize) -> Option<&[f64]> {
        (**self).lend_rows(max_rows)
    }
    fn read_text(&mut self, text: &mut Vec<u8>, min_bytes: usize) -> Option<Result<usize>> {
        (**self).read_text(text, min_bytes)
    }
}

/// In-memory row source over a matrix. It lends its rows
/// ([`RowSource::lend_rows`]) straight from the matrix's storage.
#[derive(Debug, Clone)]
pub struct MatrixSource<'a> {
    matrix: &'a Matrix,
    cursor: usize,
}

impl<'a> MatrixSource<'a> {
    /// Wraps a matrix.
    pub fn new(matrix: &'a Matrix) -> Self {
        MatrixSource { matrix, cursor: 0 }
    }
}

impl<'a> From<&'a DataMatrix> for MatrixSource<'a> {
    fn from(dm: &'a DataMatrix) -> Self {
        MatrixSource::new(dm.matrix())
    }
}

impl RowSource for MatrixSource<'_> {
    fn n_cols(&self) -> usize {
        self.matrix.cols()
    }

    fn next_row(&mut self, buf: &mut [f64]) -> Result<bool> {
        if self.cursor >= self.matrix.rows() {
            return Ok(false);
        }
        buf.copy_from_slice(self.matrix.row(self.cursor));
        self.cursor += 1;
        Ok(true)
    }

    fn rewind(&mut self) -> Result<()> {
        self.cursor = 0;
        Ok(())
    }

    /// Zero-width rows cannot be counted from a slice, so a matrix with
    /// no columns lends nothing.
    fn lend_rows(&mut self, max_rows: usize) -> Option<&[f64]> {
        let m = self.matrix.cols();
        if m == 0 {
            return None;
        }
        let start = self.cursor;
        self.cursor += max_rows.min(self.matrix.rows() - start);
        Some(&self.matrix.data()[start * m..self.cursor * m])
    }
}

/// File-backed row source reading CSV-formatted rows lazily from disk —
/// the paper's "read the ith row of X from disk" setting. Rows go through
/// the same parser as [`crate::csv::read_csv`], straight into the
/// caller's buffer. It also hands out its text unparsed
/// ([`RowSource::read_text`]): `Scanner::scan` takes it ~64 KiB of whole
/// lines at a time and parses the chunks on both of its workers, a file
/// of one chunk on the calling thread alone, while `next_row` parses on
/// whichever thread calls it. The scan checks each parsed row once, in
/// file order.
pub struct CsvFileSource {
    path: PathBuf,
    lines: CsvLines<BufReader<std::fs::File>>,
    n_cols: usize,
    /// The header's labels; `Some` exactly when the file has a header.
    labels: Option<Vec<String>>,
}

impl CsvFileSource {
    /// Opens a CSV file. When `has_header` is true the first non-blank
    /// line is skipped on every pass, its tokens are kept as
    /// [`col_labels`](Self::col_labels), and its field count is the row
    /// width. Otherwise the width is the field count of the first
    /// non-blank line. No cell is parsed here, so a corrupt or ragged
    /// first row is the scan's to report (or quarantine) like any other.
    ///
    /// # Errors
    ///
    /// [`DatasetError::Io`] if the file cannot be opened, read or
    /// rewound, or is not UTF-8; [`DatasetError::Invalid`] if it has no
    /// data rows.
    pub fn open(path: impl AsRef<Path>, has_header: bool) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut lines = CsvLines::new(BufReader::new(std::fs::File::open(&path)?));
        let labels = if has_header {
            lines.read_labels()?
        } else {
            None
        };
        let Some(first_width) = lines.read_width()? else {
            return Err(DatasetError::Invalid("CSV file has no data rows".into()));
        };
        let mut src = CsvFileSource {
            path,
            lines,
            n_cols: labels.as_ref().map_or(first_width, Vec::len),
            labels,
        };
        src.rewind()?;
        Ok(src)
    }

    /// Column labels from the header line, when the file has one.
    pub fn col_labels(&self) -> Option<&[String]> {
        self.labels.as_deref()
    }
}

impl RowSource for CsvFileSource {
    fn n_cols(&self) -> usize {
        self.n_cols
    }

    fn next_row(&mut self, buf: &mut [f64]) -> Result<bool> {
        self.lines.read_row(buf)
    }

    fn rewind(&mut self) -> Result<()> {
        self.lines.rewind()?;
        if self.labels.is_some() {
            self.lines.next_line(|_, _| Ok(()))?;
        }
        Ok(())
    }

    fn read_text(&mut self, text: &mut Vec<u8>, min_bytes: usize) -> Option<Result<usize>> {
        Some(self.lines.read_text(text, min_bytes))
    }
}

impl std::fmt::Debug for CsvFileSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsvFileSource")
            .field("path", &self.path)
            .field("n_cols", &self.n_cols)
            .finish()
    }
}

/// A wrapper that counts passes and rows delivered — used by tests to
/// *prove* the miner is single-pass. It lends what its inner source
/// lends, and counts lent rows as delivered.
#[derive(Debug)]
pub struct CountingSource<S> {
    inner: S,
    /// Number of `rewind` calls (== passes started).
    pub rewinds: usize,
    /// Total rows delivered across all passes.
    pub rows_delivered: usize,
}

impl<S: RowSource> CountingSource<S> {
    /// Wraps another source.
    pub fn new(inner: S) -> Self {
        CountingSource {
            inner,
            rewinds: 0,
            rows_delivered: 0,
        }
    }
}

impl<S: RowSource> RowSource for CountingSource<S> {
    fn n_cols(&self) -> usize {
        self.inner.n_cols()
    }

    fn next_row(&mut self, buf: &mut [f64]) -> Result<bool> {
        let got = self.inner.next_row(buf)?;
        if got {
            self.rows_delivered += 1;
        }
        Ok(got)
    }

    fn rewind(&mut self) -> Result<()> {
        self.rewinds += 1;
        self.inner.rewind()
    }

    fn lend_rows(&mut self, max_rows: usize) -> Option<&[f64]> {
        let m = self.inner.n_cols();
        let rows = self.inner.lend_rows(max_rows)?;
        self.rows_delivered += rows.len() / m;
        Some(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdir::workdir;

    fn sample_matrix() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap()
    }

    #[test]
    fn matrix_source_streams_all_rows() {
        let m = sample_matrix();
        let mut src = MatrixSource::new(&m);
        let mut buf = [0.0; 2];
        let mut rows = Vec::new();
        while src.next_row(&mut buf).unwrap() {
            rows.push(buf.to_vec());
        }
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], vec![5.0, 6.0]);
        // Exhausted.
        assert!(!src.next_row(&mut buf).unwrap());
        // Rewind restarts.
        src.rewind().unwrap();
        assert!(src.next_row(&mut buf).unwrap());
        assert_eq!(buf, [1.0, 2.0]);
    }

    #[test]
    fn collect_matrix_roundtrips() {
        let m = sample_matrix();
        let mut src = MatrixSource::new(&m);
        // Consume a row first; collect_matrix must still see everything.
        let mut buf = [0.0; 2];
        src.next_row(&mut buf).unwrap();
        let collected = src.collect_matrix().unwrap();
        assert_eq!(collected, m);
    }

    #[test]
    fn csv_file_source_streams_and_rewinds() {
        let dir = workdir("source");
        let path = dir.join("rows.csv");
        std::fs::write(&path, "a,b\n1,2\n\n3,4\n").unwrap();

        let mut src = CsvFileSource::open(&path, true).unwrap();
        assert_eq!(src.n_cols(), 2);
        let collected = src.collect_matrix().unwrap();
        assert_eq!(
            collected,
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap()
        );
        // Second pass after rewind gives the same data.
        let again = src.collect_matrix().unwrap();
        assert_eq!(again, collected);
    }

    #[test]
    fn csv_file_source_drops_a_leading_byte_order_mark_on_every_pass() {
        let dir = workdir("source");
        let want = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        for (name, text, has_header) in [
            ("bom_header.csv", "\u{feff}a,b\n1,2\n3,4\n", true),
            ("bom_rows.csv", "\u{feff}1,2\n3,4\n", false),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            let mut src = CsvFileSource::open(&path, has_header).unwrap();
            if has_header {
                assert_eq!(
                    src.col_labels(),
                    Some(&["a".to_string(), "b".to_string()][..])
                );
            }
            // Each collect rewinds, so line 1 is read again every pass.
            assert_eq!(src.collect_matrix().unwrap(), want, "{name}");
            assert_eq!(src.collect_matrix().unwrap(), want, "{name}");
        }
    }

    #[test]
    fn csv_file_source_detects_ragged_rows() {
        let dir = workdir("source");
        let path = dir.join("ragged.csv");
        std::fs::write(&path, "1,2\n3\n").unwrap();
        let mut src = CsvFileSource::open(&path, false).unwrap();
        let mut buf = [0.0; 2];
        assert!(src.next_row(&mut buf).unwrap());
        assert!(matches!(
            src.next_row(&mut buf),
            Err(DatasetError::RaggedRows { .. })
        ));
    }

    #[test]
    fn csv_file_source_rejects_empty() {
        let dir = workdir("source");
        let path = dir.join("empty.csv");
        std::fs::write(&path, "header,only\n").unwrap();
        assert!(CsvFileSource::open(&path, true).is_err());
    }

    #[test]
    fn csv_file_source_exposes_header_labels() {
        let dir = workdir("source");
        let path = dir.join("labels.csv");
        std::fs::write(&path, "height, weight\n1,2\n").unwrap();
        let src = CsvFileSource::open(&path, true).unwrap();
        assert_eq!(
            src.col_labels(),
            Some(&["height".to_string(), "weight".to_string()][..])
        );

        let path = dir.join("nolabels.csv");
        std::fs::write(&path, "1,2\n").unwrap();
        let src = CsvFileSource::open(&path, false).unwrap();
        assert!(src.col_labels().is_none());
    }

    #[test]
    fn csv_file_source_rejects_bad_cells_with_location() {
        let dir = workdir("source");
        let path = dir.join("badcell.csv");
        std::fs::write(&path, "1,2\n3,nan\n5,\n").unwrap();
        let mut src = CsvFileSource::open(&path, false).unwrap();
        let mut buf = [0.0; 2];
        assert!(src.next_row(&mut buf).unwrap());
        assert!(matches!(
            src.next_row(&mut buf),
            Err(DatasetError::NonFinite { line: 2, column: 1, .. })
        ));
        // The poisoned line was consumed; the next error is the empty cell.
        assert!(matches!(
            src.next_row(&mut buf),
            Err(DatasetError::EmptyCell { line: 3, column: 1 })
        ));
    }

    fn write_tmp(dir: &std::path::Path, name: &str, text: &[u8]) -> std::path::PathBuf {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn csv_file_source_takes_width_from_header_without_parsing_a_row() {
        let dir = workdir("source");
        let mut buf = [0.0; 2];
        // A corrupt first data row does not fail `open`: the header fixes
        // the width and the bad row is the scan's to report.
        let path = write_tmp(&dir, "corrupt_first.csv", b"a,b\nx,2\n3,5\n");
        let mut src = CsvFileSource::open(&path, true).unwrap();
        assert_eq!(src.n_cols(), 2);
        assert!(matches!(
            src.next_row(&mut buf),
            Err(DatasetError::Parse { line: 2, column: 0, .. })
        ));
        assert!(src.next_row(&mut buf).unwrap());
        assert_eq!(buf, [3.0, 5.0]);

        // Nor does a ragged first row set the width of the rows after it.
        let path = write_tmp(&dir, "ragged_first.csv", b"a,b\n1\n3,5\n");
        let mut src = CsvFileSource::open(&path, true).unwrap();
        assert_eq!(src.n_cols(), 2);
        assert!(matches!(
            src.next_row(&mut buf),
            Err(DatasetError::RaggedRows { line: 2, expected: 2, actual: 1 })
        ));
        assert!(src.next_row(&mut buf).unwrap());
        assert_eq!(buf, [3.0, 5.0]);

        // A header wider than the data fails on the first data row, with
        // its line.
        let path = write_tmp(&dir, "header_mismatch.csv", b"a,b,c\n1,2\n");
        let mut src = CsvFileSource::open(&path, true).unwrap();
        assert_eq!(src.n_cols(), 3);
        let mut wide = [0.0; 3];
        assert!(matches!(
            src.next_row(&mut wide),
            Err(DatasetError::RaggedRows { line: 2, expected: 3, actual: 2 })
        ));
    }

    #[test]
    fn csv_file_source_counts_first_line_fields_without_a_header() {
        let dir = workdir("source");
        let path = write_tmp(&dir, "headerless_corrupt_first.csv", b"\n x ,2 \n3,5\n");
        let mut src = CsvFileSource::open(&path, false).unwrap();
        assert_eq!(src.n_cols(), 2);
        let mut buf = [0.0; 2];
        assert!(matches!(
            src.next_row(&mut buf),
            Err(DatasetError::Parse { line: 2, column: 0, .. })
        ));
        assert!(src.next_row(&mut buf).unwrap());
        assert_eq!(buf, [3.0, 5.0]);
        assert!(!src.next_row(&mut buf).unwrap());
    }

    #[test]
    fn csv_file_source_numbers_lines_past_a_non_utf8_line() {
        let dir = workdir("source");
        let path = write_tmp(&dir, "bad_utf8.csv", b"1,2\n\xff,2\n3,x\n");
        let mut src = CsvFileSource::open(&path, false).unwrap();
        let mut buf = [0.0; 2];
        assert!(src.next_row(&mut buf).unwrap());
        match src.next_row(&mut buf) {
            Err(DatasetError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            other => panic!("expected InvalidData, got {other:?}"),
        }
        assert!(matches!(
            src.next_row(&mut buf),
            Err(DatasetError::Parse { line: 3, column: 1, .. })
        ));
    }

    // Satellite: a source that errored mid-stream must be safely
    // rewindable — rewinding after the failure yields the full clean
    // stream from the top, not a stream starting past the bad row.
    #[test]
    fn csv_file_source_rewinds_cleanly_after_error() {
        let dir = workdir("source");
        let path = dir.join("rewind_after_error.csv");
        std::fs::write(&path, "a,b\n1,2\n3,oops\n5,6\n").unwrap();
        let mut src = CsvFileSource::open(&path, true).unwrap();
        let mut buf = [0.0; 2];
        assert!(src.next_row(&mut buf).unwrap());
        assert!(matches!(
            src.next_row(&mut buf),
            Err(DatasetError::Parse { line: 3, column: 1, .. })
        ));
        // Rewind heals the cursor: the stream restarts at row 1 and
        // re-reports the same error at the same location.
        src.rewind().unwrap();
        assert!(src.next_row(&mut buf).unwrap());
        assert_eq!(buf, [1.0, 2.0]);
        assert!(matches!(
            src.next_row(&mut buf),
            Err(DatasetError::Parse { line: 3, column: 1, .. })
        ));
        // And after fixing the file on disk, the same (re-opened) path
        // streams clean end to end.
        std::fs::write(&path, "a,b\n1,2\n3,4\n5,6\n").unwrap();
        let mut src = CsvFileSource::open(&path, true).unwrap();
        let collected = src.collect_matrix().unwrap();
        assert_eq!(
            collected,
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap()
        );
    }

    #[test]
    fn boxed_and_borrowed_sources_delegate() {
        let m = sample_matrix();
        let mut boxed: Box<dyn RowSource + '_> = Box::new(MatrixSource::new(&m));
        assert_eq!(boxed.n_cols(), 2);
        assert_eq!(boxed.collect_matrix().unwrap(), m);
        let mut inner = MatrixSource::new(&m);
        let borrowed: &mut dyn RowSource = &mut inner;
        assert_eq!(borrowed.collect_matrix().unwrap(), m);
    }

    /// In-memory rows are lent through every forwarding wrapper; wrappers
    /// that act per row, and sources that read from disk, lend nothing.
    #[test]
    fn in_memory_rows_are_lent_through_forwarding_wrappers() {
        let dir = workdir("source");
        let m = sample_matrix();
        let mut src = MatrixSource::new(&m);
        assert_eq!(src.lend_rows(2), Some(&[1.0, 2.0, 3.0, 4.0][..]));
        // The cursor moved past the lent rows.
        let mut buf = [0.0; 2];
        assert!(src.next_row(&mut buf).unwrap());
        assert_eq!(buf, [5.0, 6.0]);
        assert_eq!(src.lend_rows(4), Some(&[][..]));
        src.rewind().unwrap();
        assert_eq!(src.lend_rows(9).map(<[f64]>::len), Some(6));

        let mut boxed: Box<dyn RowSource + '_> = Box::new(MatrixSource::new(&m));
        assert_eq!(boxed.lend_rows(1), Some(&[1.0, 2.0][..]));
        let mut inner = MatrixSource::new(&m);
        let borrowed: &mut dyn RowSource = &mut inner;
        assert_eq!(borrowed.lend_rows(1), Some(&[1.0, 2.0][..]));
        let mut counting = CountingSource::new(MatrixSource::new(&m));
        assert_eq!(counting.lend_rows(2).map(<[f64]>::len), Some(4));
        assert_eq!(counting.lend_rows(2).map(<[f64]>::len), Some(2));
        assert_eq!(counting.rows_delivered, 3);

        let plan = crate::fault::FaultPlan::none(1);
        let mut faulty = crate::fault::FaultyRowSource::new(MatrixSource::new(&m), plan);
        assert!(faulty.lend_rows(1).is_none());
        let policy = crate::retry::BackoffPolicy::default();
        let mut retrying = crate::retry::RetryingSource::new(MatrixSource::new(&m), policy);
        assert!(retrying.lend_rows(1).is_none());
        let path = write_tmp(&dir, "lend.csv", b"1,2\n3,4\n");
        assert!(CsvFileSource::open(&path, false).unwrap().lend_rows(1).is_none());
        let no_cols = Matrix::zeros(3, 0);
        assert!(MatrixSource::new(&no_cols).lend_rows(1).is_none());
    }

    /// CSV text is handed out by the file source and through the
    /// forwarding wrappers; sources and wrappers that act per row hand
    /// out none.
    #[test]
    fn csv_text_is_handed_out_by_file_sources_only() {
        let dir = workdir("source");
        let path = write_tmp(&dir, "text.csv", b"a,b\n1,2\n3,4\n");
        let mut text = Vec::new();
        let mut csv = CsvFileSource::open(&path, true).unwrap();
        assert_eq!(csv.read_text(&mut text, 1).unwrap().unwrap(), 2);
        assert_eq!(text, b"1,2\n");
        let mut boxed: Box<dyn RowSource> = Box::new(CsvFileSource::open(&path, true).unwrap());
        assert_eq!(boxed.read_text(&mut text, 100).unwrap().unwrap(), 2);
        assert_eq!(text, b"1,2\n3,4\n");
        assert_eq!(boxed.read_text(&mut text, 100).unwrap().unwrap(), 4);
        assert!(text.is_empty(), "end of stream");
        let mut inner = CsvFileSource::open(&path, false).unwrap();
        let borrowed: &mut dyn RowSource = &mut inner;
        assert_eq!(borrowed.read_text(&mut text, 1).unwrap().unwrap(), 1);
        assert_eq!(text, b"a,b\n");

        let m = sample_matrix();
        assert!(MatrixSource::new(&m).read_text(&mut text, 1).is_none());
        let open = || CsvFileSource::open(&path, true).unwrap();
        let plan = crate::fault::FaultPlan::none(1);
        assert!(crate::fault::FaultyRowSource::new(open(), plan)
            .read_text(&mut text, 1)
            .is_none());
        let policy = crate::retry::BackoffPolicy::default();
        assert!(crate::retry::RetryingSource::new(open(), policy)
            .read_text(&mut text, 1)
            .is_none());
        assert!(CountingSource::new(open())
            .read_text(&mut text, 1)
            .is_none());
    }

    /// One row's outcome: its cells' bits, or its error text.
    type RowOutcome = std::result::Result<Vec<u64>, String>;

    fn outcome(row: &[f64], got: Result<bool>) -> Option<RowOutcome> {
        match got {
            Ok(true) => Some(Ok(row.iter().map(|v| v.to_bits()).collect())),
            Ok(false) => None,
            Err(e) => Some(Err(e.to_string())),
        }
    }

    /// Every row and error of `src`, read with `next_row` after `skip`
    /// rows.
    fn rows_one_by_one(src: &mut CsvFileSource, skip: usize) -> Vec<RowOutcome> {
        let mut row = vec![0.0; src.n_cols()];
        src.rewind().unwrap();
        let mut all = Vec::new();
        loop {
            let got = src.next_row(&mut row);
            let Some(o) = outcome(&row, got) else {
                return all.split_off(skip.min(all.len()));
            };
            all.push(o);
        }
    }

    /// The same, with the rows after the first `skip` taken as text
    /// `chunk` bytes at a time and parsed with `CsvText`.
    fn rows_by_text(src: &mut CsvFileSource, skip: usize, chunk: usize) -> Vec<RowOutcome> {
        let mut row = vec![0.0; src.n_cols()];
        src.rewind().unwrap();
        for _ in 0..skip {
            let _ = src.next_row(&mut row);
        }
        let mut all = Vec::new();
        let mut text = Vec::new();
        loop {
            let first_line = src.read_text(&mut text, chunk).unwrap().unwrap();
            if text.is_empty() {
                return all;
            }
            let mut lines = crate::csv::CsvText::new(&text, first_line);
            loop {
                let got = lines.next_row(&mut row);
                let Some(o) = outcome(&row, got) else { break };
                all.push(o);
            }
        }
    }

    /// Seeded CSV text with every kind of line the parser treats apart.
    fn seeded_csv(seed: u64, header: bool, bom: bool, crlf: bool, final_newline: bool) -> Vec<u8> {
        let mut rng = crate::rng::SplitMix64::seed_from_u64(seed);
        let eol: &[u8] = if crlf { b"\r\n" } else { b"\n" };
        let mut text = Vec::new();
        if bom {
            text.extend_from_slice(b"\xEF\xBB\xBF");
        }
        if header {
            text.extend_from_slice(b"a, b ,c,d");
            text.extend_from_slice(eol);
        }
        for i in 0..120 {
            // The first line is a clean row: it fixes the width when there
            // is no header.
            let kind = if i == 0 { 19 } else { rng.usize_in(0..20) };
            let line: Vec<u8> = match kind {
                0 => Vec::new(),
                1 => b" \t ".to_vec(),
                2 => b"1,2,3".to_vec(),
                3 => b"1,2,3,4,5".to_vec(),
                4 => b"1,x,3,4".to_vec(),
                5 => b"1,nan,3, ".to_vec(),
                6 => b"\xff,2,3,4".to_vec(),
                7 => format!("{},{},{},{}", " 9".repeat(40), 1, 2, 3).into_bytes(),
                _ => (0..4)
                    .map(|_| {
                        let v = (rng.next_f64() - 0.5) * 1e4;
                        if rng.usize_in(0..2) == 0 {
                            format!("{v:.4}")
                        } else {
                            format!(" {v} ")
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(",")
                    .into_bytes(),
            };
            text.extend_from_slice(&line);
            if i < 119 || final_newline {
                text.extend_from_slice(eol);
            }
        }
        text
    }

    /// The rows and errors `CsvText` parses out of `read_text`'s chunks are
    /// those `next_row` yields — bits and error text, with absolute line
    /// numbers — at every chunk size from 1 byte past the file's length,
    /// after a skipped prefix too, on files with blank and whitespace-only
    /// lines, CRLF ends, a byte-order mark with and without a header, a
    /// line that is not UTF-8, ragged rows, bad tokens, lines longer than
    /// a chunk and a last line with no line end.
    #[test]
    fn text_chunks_parse_like_rows_read_one_by_one() {
        let dir = workdir("source");
        let mut seed = 0;
        for header in [true, false] {
            for bom in [true, false] {
                for (crlf, final_newline) in [(false, true), (true, true), (false, false)] {
                    seed += 1;
                    let text = seeded_csv(seed, header, bom, crlf, final_newline);
                    let path = write_tmp(&dir, &format!("chunks_{seed}.csv"), &text);
                    let mut src = CsvFileSource::open(&path, header).unwrap();
                    let mut sizes: Vec<usize> = (1..=48).collect();
                    sizes.extend([64, 100, 255, 1000, 4096, text.len() - 1, text.len()]);
                    sizes.extend([text.len() + 1, 2 * text.len()]);
                    for skip in [0, 7] {
                        let want = rows_one_by_one(&mut src, skip);
                        assert!(want.iter().any(|o| o.is_err()) && want.len() > 80);
                        for &chunk in &sizes {
                            let got = rows_by_text(&mut src, skip, chunk);
                            let first_difference = (0..got.len().max(want.len()))
                                .find(|&i| got.get(i) != want.get(i))
                                .map(|i| (i, got.get(i), want.get(i)));
                            assert_eq!(
                                first_difference, None,
                                "seed {seed}, chunk {chunk}, skip {skip}: (row, text, one by one)"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn counting_source_tracks_traffic() {
        let m = sample_matrix();
        let mut src = CountingSource::new(MatrixSource::new(&m));
        let _ = src.collect_matrix().unwrap();
        assert_eq!(src.rewinds, 1);
        assert_eq!(src.rows_delivered, 3);
    }
}
