//! Data layer for the Ratio Rules reproduction.
//!
//! Provides the `N x M` data matrices the paper mines (customers x
//! products, players x statistics, ...), plus everything around them:
//!
//! * [`DataMatrix`] — a [`linalg::Matrix`] with row/column labels.
//! * [`csv`] — minimal CSV persistence.
//! * [`stats`] — two-pass column statistics used as the numerical oracle
//!   for the single-pass covariance in the core crate.
//! * [`split`] — seeded 90/10 train/test splits (paper Sec. 4.3/5).
//! * [`source`] — the [`source::RowSource`] streaming abstraction: the
//!   paper's algorithm reads the matrix one row at a time from disk, and
//!   this trait models exactly that access pattern.
//! * [`columnar`] — the `RRCB` binary block format: CSV converted once,
//!   then scanned as raw row-major `f64` blocks sized for the core
//!   crate's blocked covariance kernel.
//! * [`fault`] — deterministic, seeded fault injection over any row
//!   source (transient errors, corrupt cells, arity mismatches,
//!   truncation) for chaos-testing the single-pass scan.
//! * [`retry`] — retry-with-backoff adapter absorbing transient source
//!   failures, with an injectable clock so tests run instantly.
//! * [`holes`] — hole masks and hole-set sampling for the `GE_h` metric.
//! * [`rng`] — [`rng::SplitMix64`], the seeded generator every split,
//!   hole sample and synthetic dataset draws from.
//! * [`synth`] — synthetic stand-ins for the paper's datasets (`nba`,
//!   `baseball`, `abalone`) and the Quest-style scale-up workload; see
//!   DESIGN.md for the substitution rationale.
//! * [`categorical`] — one-hot encoding of mixed tables (the paper's
//!   Sec. 7 future-work item).
//!
//! # Example
//!
//! ```
//! use dataset::{DataMatrix, split::train_test_split, holes::HoleSet};
//! use linalg::Matrix;
//!
//! let data = DataMatrix::new(Matrix::from_fn(100, 4, |i, j| (i + j) as f64));
//! // The paper's 90/10 protocol, seeded for reproducibility.
//! let split = train_test_split(&data, 0.9, 42)?;
//! assert_eq!(split.train.n_rows(), 90);
//!
//! // Punch two holes into a test row (Definition 2's h = 2 case).
//! let holes = HoleSet::new(vec![1, 3], 4)?;
//! let holed = holes.apply(split.test.row(0))?;
//! assert_eq!(holed.hole_indices(), vec![1, 3]);
//! # Ok::<(), dataset::DatasetError>(())
//! ```

#![warn(missing_docs)]

pub mod categorical;
pub mod columnar;
pub mod csv;
pub mod data_matrix;
pub mod error;
pub mod fault;
pub mod holes;
pub mod jsonrow;
pub mod retry;
pub mod rng;
pub mod source;
pub mod split;
pub mod stats;
pub mod synth;

pub use data_matrix::DataMatrix;
pub use error::DatasetError;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DatasetError>;

/// Temporary directories for the crate's file tests.
#[cfg(test)]
pub(crate) mod testdir {
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A directory of one test's own under the system temp dir, removed
    /// with everything in it when dropped, so also when the test fails.
    pub(crate) struct TempDir(PathBuf);

    impl std::ops::Deref for TempDir {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A fresh directory named after `tag`, this process and a counter.
    pub(crate) fn workdir(tag: &str) -> TempDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("rr_{tag}_{}_{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}
