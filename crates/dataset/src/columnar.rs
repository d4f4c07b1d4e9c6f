//! Columnar block ingestion: a binary row-major block file and a
//! [`RowSource`] over it.
//!
//! CSV is convenient but slow to scan: every pass re-parses every cell.
//! The `RRCB` ("Ratio Rules Columnar Block") format trades one up-front
//! conversion for scans that are a straight `read` + `f64::from_le_bytes`
//! loop — no parsing and no allocation per row — through the same scan
//! loop every other source uses. The reader is plain buffered `std` I/O
//! — no mmap, no platform-specific fast paths — so it works on any
//! filesystem the CLI can open.
//!
//! # File layout (version 1, all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic "RRCB"
//! 4       4     version (u32) = 1
//! 8       8     cols (u64)
//! 16      8     rows (u64)
//! 24      ...   rows * cols f64 values, row-major, little-endian
//! ```
//!
//! The file length must be exactly `24 + rows * cols * 8` bytes; readers
//! validate this up front so a truncated copy fails at open, not
//! mid-scan. Records are fixed-width, so seeking to any row is O(1).

use crate::source::{CsvFileSource, RowSource};
use crate::{DatasetError, Result};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every columnar block file.
pub const MAGIC: [u8; 4] = *b"RRCB";
/// Format version written and accepted by this module.
pub const VERSION: u32 = 1;
/// Header size in bytes (`magic + version + cols + rows`).
pub const HEADER_LEN: u64 = 24;

/// Outcome of a CSV → columnar conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvertReport {
    /// Data rows written.
    pub rows: usize,
    /// Attributes per row.
    pub cols: usize,
}

/// Converts a CSV file into an `RRCB` block file, parsing each cell
/// exactly once. Conversion is strict: any unparseable, empty, or
/// non-finite cell aborts with its location (a block file must contain
/// only finite values, so quarantine belongs to the scan over the
/// original CSV, not to this step).
///
/// # Errors
///
/// Any CSV parse error (with line/column), or an I/O error reading the
/// source or writing `out`.
pub fn convert_csv_file(
    csv: impl AsRef<Path>,
    out: impl AsRef<Path>,
    has_header: bool,
) -> Result<ConvertReport> {
    let mut src = CsvFileSource::open(csv, has_header)?;
    let cols = src.n_cols();
    let file = std::fs::File::create(out.as_ref())?;
    let mut w = std::io::BufWriter::new(file);

    // Header with a rows placeholder, patched after the stream drains.
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(cols as u64).to_le_bytes())?;
    w.write_all(&0u64.to_le_bytes())?;

    let mut buf = vec![0.0_f64; cols];
    let mut rows = 0usize;
    while src.next_row(&mut buf)? {
        for v in &buf {
            w.write_all(&v.to_le_bytes())?;
        }
        rows += 1;
    }
    w.seek(SeekFrom::Start(16))?;
    w.write_all(&(rows as u64).to_le_bytes())?;
    w.flush()?;
    Ok(ConvertReport { rows, cols })
}

/// Writes a row-major slice of `rows * cols` values as an `RRCB` file —
/// the test/bench entry point that skips the CSV detour.
///
/// # Errors
///
/// [`DatasetError::Invalid`] if `data.len() != rows * cols`; any I/O
/// error otherwise.
pub fn write_block_file(
    out: impl AsRef<Path>,
    cols: usize,
    rows: usize,
    data: &[f64],
) -> Result<()> {
    if data.len() != rows * cols {
        return Err(DatasetError::Invalid(format!(
            "block of {} values is not {rows} rows x {cols} cols",
            data.len()
        )));
    }
    let file = std::fs::File::create(out.as_ref())?;
    let mut w = std::io::BufWriter::new(file);
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(cols as u64).to_le_bytes())?;
    w.write_all(&(rows as u64).to_le_bytes())?;
    for v in data {
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Reader over an `RRCB` block file: a [`RowSource`], so every consumer
/// (the scan loop, fault injectors, the two-pass oracle) reads it like
/// any other stream.
pub struct ColumnarBlockSource {
    path: PathBuf,
    reader: std::io::BufReader<std::fs::File>,
    cols: usize,
    rows: usize,
    /// Next row the reader will yield.
    cursor: usize,
    /// Scratch for byte → f64 decoding.
    byte_buf: Vec<u8>,
}

impl ColumnarBlockSource {
    /// Opens and validates a block file: magic, version, and exact
    /// length (`24 + rows * cols * 8`).
    ///
    /// # Errors
    ///
    /// [`DatasetError::Invalid`] for a bad magic, unsupported version,
    /// or a length that contradicts the header; I/O errors pass through.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::File::open(&path)?;
        let total_len = file.metadata()?.len();
        let mut reader = std::io::BufReader::new(file);

        let mut header = [0u8; HEADER_LEN as usize];
        reader.read_exact(&mut header).map_err(|_| {
            DatasetError::Invalid(format!("{}: too short for an RRCB header", path.display()))
        })?;
        if header[..4] != MAGIC {
            return Err(DatasetError::Invalid(format!(
                "{}: not an RRCB columnar file (bad magic)",
                path.display()
            )));
        }
        let mut u32buf = [0u8; 4];
        u32buf.copy_from_slice(&header[4..8]);
        let version = u32::from_le_bytes(u32buf);
        if version != VERSION {
            return Err(DatasetError::Invalid(format!(
                "{}: RRCB version {version} is not supported (expected {VERSION})",
                path.display()
            )));
        }
        let mut u64buf = [0u8; 8];
        u64buf.copy_from_slice(&header[8..16]);
        let cols = u64::from_le_bytes(u64buf);
        u64buf.copy_from_slice(&header[16..24]);
        let rows = u64::from_le_bytes(u64buf);
        if cols == 0 {
            return Err(DatasetError::Invalid(format!(
                "{}: RRCB file declares zero columns",
                path.display()
            )));
        }
        let want = rows
            .checked_mul(cols)
            .and_then(|c| c.checked_mul(8))
            .and_then(|b| b.checked_add(HEADER_LEN));
        if want != Some(total_len) {
            return Err(DatasetError::Invalid(format!(
                "{}: truncated or padded RRCB file: {total_len} bytes for {rows} x {cols} rows",
                path.display()
            )));
        }
        Ok(ColumnarBlockSource {
            path,
            reader,
            cols: cols as usize,
            rows: rows as usize,
            cursor: 0,
            byte_buf: Vec::new(),
        })
    }

    /// Total data rows in the file.
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Columns per row (fixed by the file header). Shadowed by the
    /// [`RowSource`] method of the same name, so callers get it without
    /// importing the trait.
    pub fn n_cols(&self) -> usize {
        self.cols
    }

    /// Seeks directly to `row` — O(1) thanks to fixed-width records.
    ///
    /// # Errors
    ///
    /// [`DatasetError::Invalid`] if `row > n_rows()`; I/O errors pass
    /// through.
    pub fn seek_row(&mut self, row: usize) -> Result<()> {
        if row > self.rows {
            return Err(DatasetError::Invalid(format!(
                "{}: cannot seek to row {row} of {}",
                self.path.display(),
                self.rows
            )));
        }
        let offset = HEADER_LEN + (row * self.cols * 8) as u64;
        self.reader.seek(SeekFrom::Start(offset))?;
        self.cursor = row;
        Ok(())
    }
}

impl RowSource for ColumnarBlockSource {
    fn n_cols(&self) -> usize {
        self.cols
    }

    fn next_row(&mut self, buf: &mut [f64]) -> Result<bool> {
        if self.cursor >= self.rows {
            return Ok(false);
        }
        let bytes = self.cols * 8;
        self.byte_buf.resize(bytes, 0);
        self.reader.read_exact(&mut self.byte_buf)?;
        let mut word = [0u8; 8];
        for (v, chunk) in buf.iter_mut().zip(self.byte_buf.chunks_exact(8)) {
            word.copy_from_slice(chunk);
            *v = f64::from_le_bytes(word);
        }
        self.cursor += 1;
        Ok(true)
    }

    fn rewind(&mut self) -> Result<()> {
        self.seek_row(0)
    }
}

impl std::fmt::Debug for ColumnarBlockSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnarBlockSource")
            .field("path", &self.path)
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("cursor", &self.cursor)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdir::workdir;
    use linalg::Matrix;

    #[test]
    fn convert_roundtrips_csv_bitwise() {
        let dir = workdir("columnar");
        let csv = dir.join("roundtrip.csv");
        std::fs::write(&csv, "a,b,c\n1.5,-2.25,3e-7\n0.1,0.2,0.3\n7,8,9\n").unwrap();
        let blk = dir.join("roundtrip.rrcb");
        let report = convert_csv_file(&csv, &blk, true).unwrap();
        assert_eq!(report, ConvertReport { rows: 3, cols: 3 });

        // The block file replays the exact f64s the CSV parser produced.
        let mut csv_src = CsvFileSource::open(&csv, true).unwrap();
        let expect = csv_src.collect_matrix().unwrap();
        let mut col_src = ColumnarBlockSource::open(&blk).unwrap();
        assert_eq!(col_src.n_rows(), 3);
        let got = col_src.collect_matrix().unwrap();
        assert_eq!(got.rows(), expect.rows());
        for (a, b) in got.data().iter().zip(expect.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn rows_stream_to_the_end_and_rewind() {
        let dir = workdir("columnar");
        let blk = dir.join("chunks.rrcb");
        let data: Vec<f64> = (0..10 * 3).map(|i| i as f64 * 0.5).collect();
        write_block_file(&blk, 3, 10, &data).unwrap();
        let mut src = ColumnarBlockSource::open(&blk).unwrap();
        let mut buf = [0.0; 3];
        assert!(src.next_row(&mut buf).unwrap());
        assert_eq!(buf[0].to_bits(), 0.0f64.to_bits());
        for _ in 1..10 {
            assert!(src.next_row(&mut buf).unwrap());
        }
        assert_eq!(buf, [13.5, 14.0, 14.5], "last row");
        assert!(!src.next_row(&mut buf).unwrap(), "exhausted");
        // Rewind and stream the whole file again.
        src.rewind().unwrap();
        let m = src.collect_matrix().unwrap();
        assert_eq!(m, Matrix::from_vec(10, 3, data).unwrap());
    }

    #[test]
    fn seek_row_is_exact() {
        let dir = workdir("columnar");
        let blk = dir.join("seek.rrcb");
        let data: Vec<f64> = (0..6 * 2).map(|i| i as f64).collect();
        write_block_file(&blk, 2, 6, &data).unwrap();
        let mut src = ColumnarBlockSource::open(&blk).unwrap();
        src.seek_row(4).unwrap();
        let mut buf = [0.0; 2];
        assert!(src.next_row(&mut buf).unwrap());
        assert_eq!(buf, [8.0, 9.0]);
        assert!(src.seek_row(7).is_err());
    }

    #[test]
    fn open_rejects_corrupt_headers() {
        let dir = workdir("columnar");
        let p = dir.join("bad_magic.rrcb");
        std::fs::write(&p, b"NOPE\x01\x00\x00\x00").unwrap();
        assert!(matches!(
            ColumnarBlockSource::open(&p),
            Err(DatasetError::Invalid(msg)) if msg.contains("too short") || msg.contains("magic")
        ));

        // Truncated payload: header promises more rows than the file holds.
        let p = dir.join("truncated.rrcb");
        let data: Vec<f64> = vec![1.0; 4];
        write_block_file(&p, 2, 2, &data).unwrap();
        let full = std::fs::read(&p).unwrap();
        std::fs::write(&p, &full[..full.len() - 8]).unwrap();
        let err = ColumnarBlockSource::open(&p).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");

        // Wrong version.
        let p = dir.join("version.rrcb");
        let mut bytes = full.clone();
        bytes[4] = 9;
        std::fs::write(&p, &bytes).unwrap();
        let err = ColumnarBlockSource::open(&p).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn write_block_file_validates_shape() {
        let dir = workdir("columnar");
        let p = dir.join("shape.rrcb");
        assert!(write_block_file(&p, 3, 2, &[0.0; 5]).is_err());
    }

    #[test]
    fn non_finite_values_survive_the_container_for_scan_policies() {
        let dir = workdir("columnar");
        // The container itself is value-agnostic: a corrupted file can
        // hold a NaN, and it is the *scan* layer's quarantine that must
        // catch it. The reader hands it through faithfully.
        let p = dir.join("nan.rrcb");
        write_block_file(&p, 2, 2, &[1.0, f64::NAN, 3.0, 4.0]).unwrap();
        let mut src = ColumnarBlockSource::open(&p).unwrap();
        let mut buf = [0.0; 2];
        assert!(src.next_row(&mut buf).unwrap());
        assert!(buf[1].is_nan());
    }
}
