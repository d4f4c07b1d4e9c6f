//! Single-pass covariance accumulation — the paper's Fig. 2(a) — with a
//! cache-blocked SYRK-style kernel.
//!
//! One scan over the rows maintains the column sums and the raw moment
//! matrix `sum_i x_ij * x_il`; finalization applies the correction
//! `C[j][l] -= N * avg_j * avg_l`. This needs `O(M^2)` memory and
//! `O(N M^2)` work, reads each row exactly once, and is the reason Ratio
//! Rules mine in a single pass where Apriori-style algorithms need many.
//!
//! # Blocked kernel
//!
//! The naive formulation walks the packed `M(M+1)/2` upper triangle once
//! *per row* — a rank-1 update that streams the whole triangle through
//! cache for every row and leaves no instruction-level parallelism (each
//! triangle entry is a serial `+=` chain). This module instead buffers
//! incoming rows into a `B x M` panel ([`DEFAULT_BLOCK_ROWS`] high) and
//! folds the whole panel at once — a rank-B update. The triangle is then
//! streamed once per *panel* instead of once per row.
//!
//! Inside a panel the fold works in register blocks: `P` pivot rows
//! `j..j + P` times 8 columns `l..l + 8`. The baseline build takes
//! `P = 2`, 16 accumulators in 8 SSE2 registers; the AVX2 build takes
//! `P = 4`, 32 accumulators in 8 ymm registers (next section). Per panel
//! row a block loads the `P` pivot values and 8 column values once and
//! does `8P` independent multiply-adds, so each loaded column value feeds
//! `P` pivots and the `8P` `+=` chains hide each other's latency. Pivots
//! go in groups of `P`; a group's strip is columns `j + P - 1..m`, which
//! every pivot of the group holds, swept in Px8 blocks with a Px4, Px2,
//! Px1 cascade for the last `(m - j - P + 1) mod 8` columns. The corner
//! left of the strip is the 1x1 block `(j, j)` for `P = 2`; for `P = 4`
//! it is `(j, j)`, the 2x2 block `(j..j + 2, j + 1..j + 3)` and
//! `(j + 2, j + 2)`. Pivots left over after the last full group go in a
//! 2-pivot group, then a 1-pivot one, whose strip starts at its own
//! diagonal.
//!
//! The kernel it replaced folded one pivot row at a time in 16-column
//! tiles and finished each row's last `(m - j) mod 16` entries one by
//! one, each a serial chain of `B` dependent adds over the panel. Near
//! the diagonal every row is short, so at `M = 20` that tail was most
//! of the work and the tiled kernel lost to the plain rank-1 walk; at
//! `M = 100` it won by under 1.2x. The 2x8 block beats both at every
//! width measured (`EXPERIMENTS.md`, "Blocked kernel").
//!
//! # Kernel instantiations
//!
//! The kernel has one source, `fold_kernel` with `fold_pivots` and
//! `fold_block`, compiled twice: once for the baseline target with 2
//! pivots per group, once inside a `#[target_feature(enable = "avx2")]`
//! wrapper with 4. `fold_panel`, which every fold in the crate calls,
//! asks `is_x86_feature_detected!("avx2")` and runs the AVX2 build where
//! the CPU has it, the baseline build on every other CPU and
//! architecture. No flag, feature or build setting picks one; the CPU
//! does. AVX2 puts four f64 in a register instead of two, so 8 of its 16
//! registers hold the 4x8 block's 32 accumulators; the baseline build's
//! 16 xmm registers cannot, and 4 pivots fold slower there than 2. The
//! AVX2 build folds 1.6-2.1x faster than the baseline build at M = 20,
//! 100 and 600, and 1.16-1.27x faster than it would with 2 pivots
//! (`EXPERIMENTS.md`, "Blocked kernel"). Only `avx2` is enabled, not
//! `fma`, so both builds run the same IEEE operations per entry (next
//! section): a model mined with and without AVX2 is byte-identical. The
//! call into the wrapper is the workspace's one `unsafe` block
//! (`docs/LINTS.md`, RR006): without a build setting, safe code cannot
//! call a `#[target_feature]` function.
//!
//! # Bit-exactness
//!
//! The blocked kernel is **bit-identical** to the historical per-row
//! triangular walk, for every block size and every mix of
//! [`CovarianceAccumulator::push_row`] / [`CovarianceAccumulator::push_block`]
//! calls: for each triangle entry the fold loads the accumulator, adds
//! exactly one product per row *in row arrival order*, and stores it
//! back. Every block — the strips' Px8, Px4, Px2 and Px1, the corners'
//! 2x2 and 1x1 — does exactly that for each of its entries, and together
//! the blocks cover every entry of the triangle exactly once per panel,
//! so the pivot count and the block shapes only decide which entries
//! share a loop. Rust does not contract
//! `a + x*y` into a fused multiply-add, and `x_j * x_l` is the same
//! product in either operand order, so the sequence of f64 operations per
//! entry is the same as the scalar walk's — only the iteration order
//! *across* (independent) entries changes. Checkpoints taken mid-panel
//! therefore round-trip exactly: [`CovarianceAccumulator::parts`] returns
//! the fully-folded state, and a scan resumed from it reproduces the
//! uninterrupted scan bit-for-bit.
//!
//! Accumulators are mergeable, which gives the parallel scan in
//! [`crate::parallel`] for free and lets distributed workers each scan a
//! shard.

use crate::{RatioRuleError, Result};
use linalg::Matrix;

/// Default panel height of the blocked kernel. 64 rows x 100 columns is
/// a 50 KiB panel — comfortably inside L2 next to the packed triangle.
pub const DEFAULT_BLOCK_ROWS: usize = 64;

/// Columns in the fold's widest register block (see [`fold_block`]):
/// `P` pivots x 8 columns is `8P` independent f64 accumulators.
const BLOCK_COLS: usize = 8;

/// Streaming accumulator for column averages and the covariance (scatter)
/// matrix.
#[derive(Debug, Clone)]
pub struct CovarianceAccumulator {
    m: usize,
    /// Rows absorbed so far, *including* rows still buffered in `panel`.
    n: usize,
    col_sums: Vec<f64>,
    /// Upper triangle (including diagonal) of the raw moment matrix,
    /// packed row-major: entry `(j, l)` with `l >= j` at
    /// `j * m - j*(j-1)/2 + (l - j)`. Buffered panel rows are *not* yet
    /// folded in; [`CovarianceAccumulator::parts`] and
    /// [`CovarianceAccumulator::finalize`] always present the folded view.
    raw_upper: Vec<f64>,
    /// Panel height `B` of the blocked kernel.
    block_rows: usize,
    /// Row-major `block_rows x m` staging panel; only the first
    /// `panel_rows` rows are live.
    panel: Vec<f64>,
    panel_rows: usize,
}

impl CovarianceAccumulator {
    /// Creates an accumulator for `m` attributes with the default panel
    /// height.
    pub fn new(m: usize) -> Self {
        Self::with_block_rows(m, DEFAULT_BLOCK_ROWS)
    }

    /// Creates an accumulator for `m` attributes whose blocked kernel
    /// folds panels of `block_rows` rows (clamped to at least 1). The
    /// result is bit-identical for every choice; the knob only moves the
    /// cache-blocking sweet spot.
    pub fn with_block_rows(m: usize, block_rows: usize) -> Self {
        let block_rows = block_rows.max(1);
        CovarianceAccumulator {
            m,
            n: 0,
            col_sums: vec![0.0; m],
            raw_upper: vec![0.0; m * (m + 1) / 2],
            block_rows,
            panel: vec![0.0; block_rows * m],
            panel_rows: 0,
        }
    }

    /// Number of attributes `M`.
    pub fn n_cols(&self) -> usize {
        self.m
    }

    /// Number of rows absorbed so far (buffered rows included).
    pub fn n_rows(&self) -> usize {
        self.n
    }

    /// Panel height `B` of the blocked kernel.
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    #[inline]
    fn upper_index(&self, j: usize, l: usize) -> usize {
        debug_assert!(j <= l && l < self.m);
        // Offset of row j in the packed upper triangle:
        // sum_{r<j} (m - r) = j*m - j*(j-1)/2, written overflow-safe.
        (j * (2 * self.m - j + 1)) / 2 + (l - j)
    }

    /// Absorbs one row (the body of the paper's single-pass loop).
    ///
    /// The row is validated, staged into the current panel, and folded
    /// together with its panel-mates once the panel fills — bit-identical
    /// to the historical immediate rank-1 update (see the module docs).
    ///
    /// Rejects non-finite cells up front: a single NaN would silently
    /// poison the whole covariance matrix and surface much later as an
    /// eigensolver convergence failure.
    ///
    /// # Errors
    ///
    /// [`RatioRuleError::WidthMismatch`] if the row is not `m` wide;
    /// [`RatioRuleError::Invalid`] if any cell is non-finite. A rejected
    /// row is not absorbed and the accumulator stays usable.
    pub fn push_row(&mut self, row: &[f64]) -> Result<()> {
        check_row(row, self.m, self.n + 1)?;
        self.panel[self.panel_rows * self.m..(self.panel_rows + 1) * self.m].copy_from_slice(row);
        self.panel_rows += 1;
        self.n += 1;
        if self.panel_rows == self.block_rows {
            self.flush();
        }
        Ok(())
    }

    /// Absorbs `rows` rows packed row-major in `block` — the columnar
    /// fast path. Full panels are folded straight from `block` without
    /// staging; leading/trailing partial panels go through the staging
    /// buffer. The result is bit-identical to pushing the same rows one
    /// at a time.
    ///
    /// # Errors
    ///
    /// [`RatioRuleError::Invalid`] if `block.len() != rows * m`, or if
    /// any cell is non-finite (reported with the same row/column
    /// attribution as [`CovarianceAccumulator::push_row`]). Validation
    /// runs before absorption: a rejected block leaves the accumulator
    /// untouched.
    pub fn push_block(&mut self, block: &[f64], rows: usize) -> Result<()> {
        let m = self.m;
        if block.len() != rows * m {
            return Err(RatioRuleError::WidthMismatch {
                expected: rows * m,
                actual: block.len(),
            });
        }
        if let Some(p) = block.iter().position(|v| !v.is_finite()) {
            return Err(RatioRuleError::Invalid(format!(
                "non-finite value {} at column {} of row {}",
                block[p],
                p % m,
                self.n + p / m + 1
            )));
        }
        self.push_checked(block, rows);
        Ok(())
    }

    /// Rows staged in the panel, waiting for it to fill: a block of
    /// `block_rows() - staged_rows()` rows tops it up, and every full
    /// panel after that folds straight from the caller's block.
    pub(crate) fn staged_rows(&self) -> usize {
        self.panel_rows
    }

    /// [`CovarianceAccumulator::push_block`] for rows the caller has
    /// already checked with [`check_row`], as the scan loop has: absorbs
    /// the `rows` rows of `block` (`rows * m` cells) without looking at
    /// their cells again.
    pub(crate) fn push_checked(&mut self, block: &[f64], rows: usize) {
        let m = self.m;
        debug_assert_eq!(block.len(), rows * m);
        debug_assert!(block.iter().all(|v| v.is_finite()));
        if rows == 0 || m == 0 {
            self.n += rows;
            return;
        }
        let mut rest = block;
        // Top up a partially-filled panel first so row order is kept.
        if self.panel_rows > 0 {
            let take = (self.block_rows - self.panel_rows).min(rest.len() / m);
            self.panel[self.panel_rows * m..(self.panel_rows + take) * m]
                .copy_from_slice(&rest[..take * m]);
            self.panel_rows += take;
            rest = &rest[take * m..];
            if self.panel_rows == self.block_rows {
                self.flush();
            }
        }
        // Fold full panels zero-copy, straight from the caller's block.
        while rest.len() >= self.block_rows * m {
            let (panel, tail) = rest.split_at(self.block_rows * m);
            fold_panel_timed(m, &mut self.col_sums, &mut self.raw_upper, panel, self.block_rows);
            rest = tail;
        }
        // Stage the tail for the next push or flush. If the top-up did
        // not fill the panel, `rest` is already empty and the buffered
        // rows stay in place.
        if !rest.is_empty() {
            debug_assert_eq!(self.panel_rows, 0);
            self.panel[..rest.len()].copy_from_slice(rest);
            self.panel_rows = rest.len() / m;
        }
        self.n += rows;
    }

    /// Folds any buffered partial panel into the moment state. Called
    /// automatically by every observer ([`CovarianceAccumulator::parts`],
    /// [`CovarianceAccumulator::finalize`], ...); public so callers with
    /// latency deadlines can pick the flush point themselves.
    pub fn flush(&mut self) {
        if self.panel_rows == 0 {
            return;
        }
        let rows = self.panel_rows;
        fold_panel_timed(
            self.m,
            &mut self.col_sums,
            &mut self.raw_upper,
            &self.panel[..rows * self.m],
            rows,
        );
        self.panel_rows = 0;
    }

    /// The fully-folded `(col_sums, raw_upper)` state: a copy of the
    /// moment arrays with any buffered panel rows folded in, without
    /// mutating `self`.
    fn folded_state(&self) -> (Vec<f64>, Vec<f64>) {
        let mut col_sums = self.col_sums.clone();
        let mut raw_upper = self.raw_upper.clone();
        if self.panel_rows > 0 {
            fold_panel(
                self.m,
                &mut col_sums,
                &mut raw_upper,
                &self.panel[..self.panel_rows * self.m],
                self.panel_rows,
            );
        }
        (col_sums, raw_upper)
    }

    /// Merges another accumulator (same width) into this one. Both sides'
    /// pending panels are folded first, so merge order only reassociates
    /// across shard boundaries, never within a shard.
    ///
    /// # Errors
    ///
    /// [`RatioRuleError::WidthMismatch`] if the widths differ.
    pub fn merge(&mut self, other: &CovarianceAccumulator) -> Result<()> {
        if other.m != self.m {
            return Err(RatioRuleError::WidthMismatch {
                expected: self.m,
                actual: other.m,
            });
        }
        linalg::sanitize::check_finite_slice("covariance merge col_sums", &other.col_sums);
        linalg::sanitize::check_finite_slice("covariance merge raw_upper", &other.raw_upper);
        self.flush();
        self.n += other.n;
        for (a, b) in self.col_sums.iter_mut().zip(&other.col_sums) {
            *a += b;
        }
        for (a, b) in self.raw_upper.iter_mut().zip(&other.raw_upper) {
            *a += b;
        }
        // Rows still buffered on the other side fold directly into the
        // merged state, preserving their arrival order.
        if other.panel_rows > 0 {
            fold_panel_timed(
                self.m,
                &mut self.col_sums,
                &mut self.raw_upper,
                &other.panel[..other.panel_rows * other.m],
                other.panel_rows,
            );
        }
        Ok(())
    }

    /// Fully-folded internals `(n, col_sums, raw_upper)` for
    /// checkpointing — any buffered panel rows are folded into the
    /// returned copies. The packed layout of `raw_upper` is documented on
    /// the field; together with [`CovarianceAccumulator::from_parts`]
    /// this round-trips the accumulator bit-for-bit, including
    /// checkpoints taken mid-panel.
    pub fn parts(&self) -> (usize, Vec<f64>, Vec<f64>) {
        let (col_sums, raw_upper) = self.folded_state();
        (self.n, col_sums, raw_upper)
    }

    /// Rebuilds an accumulator from checkpointed internals. Inverse of
    /// [`CovarianceAccumulator::parts`]; lengths are validated against
    /// `m`. The restored accumulator starts with an empty panel and the
    /// default panel height.
    ///
    /// # Errors
    ///
    /// [`RatioRuleError::Invalid`] if the array lengths are inconsistent
    /// with `m`.
    pub fn from_parts(m: usize, n: usize, col_sums: Vec<f64>, raw_upper: Vec<f64>) -> Result<Self> {
        if col_sums.len() != m {
            return Err(RatioRuleError::Invalid(format!(
                "checkpoint has {} column sums for {m} attributes",
                col_sums.len()
            )));
        }
        let want = m * (m + 1) / 2;
        if raw_upper.len() != want {
            return Err(RatioRuleError::Invalid(format!(
                "checkpoint has {} moment entries, expected {want}",
                raw_upper.len()
            )));
        }
        // A checkpoint bypasses push_row's input validation, so this is
        // where a corrupted snapshot can smuggle a NaN into the scan.
        linalg::sanitize::check_finite_slice("covariance checkpoint col_sums", &col_sums);
        linalg::sanitize::check_finite_slice("covariance checkpoint raw_upper", &raw_upper);
        Ok(CovarianceAccumulator {
            m,
            n,
            col_sums,
            raw_upper,
            block_rows: DEFAULT_BLOCK_ROWS,
            panel: vec![0.0; DEFAULT_BLOCK_ROWS * m],
            panel_rows: 0,
        })
    }

    /// Column averages seen so far (buffered rows included).
    pub fn column_means(&self) -> Vec<f64> {
        if self.n == 0 {
            return vec![0.0; self.m];
        }
        let mut sums = self.col_sums.clone();
        for r in 0..self.panel_rows {
            let row = &self.panel[r * self.m..(r + 1) * self.m];
            for (s, x) in sums.iter_mut().zip(row) {
                *s += x;
            }
        }
        sums.iter().map(|s| s / self.n as f64).collect()
    }

    /// Finalizes into `(C, means, n)` where `C = Xc^t Xc` is the scatter
    /// matrix of the centered data (paper Eq. 2; the paper does not divide
    /// by `N`, and the eigenvectors are identical either way).
    ///
    /// # Errors
    ///
    /// [`RatioRuleError::EmptyInput`] if no rows have been absorbed.
    pub fn finalize(&self) -> Result<(Matrix, Vec<f64>, usize)> {
        if self.n == 0 {
            return Err(RatioRuleError::EmptyInput);
        }
        let (col_sums, raw_upper) = self.folded_state();
        let means: Vec<f64> = col_sums.iter().map(|s| s / self.n as f64).collect();
        let mut c = Matrix::zeros(self.m, self.m);
        for j in 0..self.m {
            for l in j..self.m {
                let raw = raw_upper[self.upper_index(j, l)];
                let v = raw - self.n as f64 * means[j] * means[l];
                c[(j, l)] = v;
                c[(l, j)] = v;
            }
        }
        linalg::sanitize::check_finite_slice("finalized scatter matrix", c.data());
        linalg::sanitize::check_symmetric("finalized scatter matrix", c.data(), self.m, self.m, 0.0);
        Ok((c, means, self.n))
    }
}

/// The row check of [`CovarianceAccumulator::push_row`], shared with the
/// scan loop in [`crate::resilience`] so both reject the same rows with
/// the same text: `row` must be `m` wide and every cell finite.
/// `row_number` is the 1-based position the row would take among the
/// accumulator's rows.
pub(crate) fn check_row(row: &[f64], m: usize, row_number: usize) -> Result<()> {
    if row.len() != m {
        return Err(RatioRuleError::WidthMismatch {
            expected: m,
            actual: row.len(),
        });
    }
    if let Some(j) = row.iter().position(|v| !v.is_finite()) {
        return Err(RatioRuleError::Invalid(format!(
            "non-finite value {} at column {j} of row {row_number}",
            row[j]
        )));
    }
    Ok(())
}

/// The rank-B panel fold: adds `rows` rows (row-major in `panel`) to the
/// column sums and the packed upper triangle. Every fold in the crate
/// goes through here, and this is where the instantiation of
/// [`fold_kernel`] is picked: [`fold_panel_avx2`] on an x86-64 CPU with
/// AVX2, the baseline-target build everywhere else, with the same bits
/// either way (module docs, "Kernel instantiations").
fn fold_panel(m: usize, col_sums: &mut [f64], raw_upper: &mut [f64], panel: &[f64], rows: usize) {
    // The macro caches its answer: after the first call this is one
    // atomic load per panel.
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `fold_panel_avx2` needs only AVX2, and the
        // `is_x86_feature_detected!("avx2")` check above found it on
        // this CPU.
        // rrlint-allow: RR006 the one call into the AVX2 build of the fold kernel: no safe code reaches a target_feature fn without a build setting, and it folds 1.6-2.1x faster, bit for bit
        unsafe { fold_panel_avx2(m, col_sums, raw_upper, panel, rows) };
        return;
    }
    fold_kernel::<2>(m, col_sums, raw_upper, panel, rows);
}

/// [`fold_kernel`] compiled with AVX2 enabled and 4 pivots per group:
/// the same source, so the same f64 operation sequence per entry, with
/// the 4x8 block's 32 accumulators in 8 ymm registers. Only `avx2` is
/// enabled, not `fma`, and Rust never contracts `a + x * y` either way.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fold_panel_avx2(
    m: usize,
    col_sums: &mut [f64],
    raw_upper: &mut [f64],
    panel: &[f64],
    rows: usize,
) {
    fold_kernel::<4>(m, col_sums, raw_upper, panel, rows);
}

/// The kernel of [`fold_panel`], inlined into each instantiation; a direct
/// call runs the baseline-target build. `P` is the pivot rows per group:
/// 2 or 4.
///
/// Per triangle entry the accumulator is loaded once, receives exactly
/// one `+= x_j * x_l` per row in row order, and is stored once — the same
/// f64 operation sequence as the historical per-row walk (no FMA
/// contraction in Rust), so the fold is bit-exact regardless of how rows
/// were grouped into panels or pivots into groups. Speed comes from
/// streaming the triangle once per panel and from the [`fold_pivots`]
/// blocks the module docs describe.
#[inline(always)]
fn fold_kernel<const P: usize>(
    m: usize,
    col_sums: &mut [f64],
    raw_upper: &mut [f64],
    panel: &[f64],
    rows: usize,
) {
    debug_assert!(P == 2 || P == 4);
    debug_assert_eq!(panel.len(), rows * m);
    if m == 0 {
        return;
    }
    // Column sums: row-major sweep, vectorizes across columns, keeps the
    // per-column addition order identical to per-row pushes.
    for row in panel.chunks_exact(m) {
        for (s, x) in col_sums.iter_mut().zip(row) {
            *s += x;
        }
    }
    // `base` is the packed offset of (j, j). Groups of P pivots, then a
    // 2-pivot group and a 1-pivot one for the pivots left over.
    let mut j = 0usize;
    let mut base = 0usize;
    while j + P <= m {
        base = fold_pivots::<P>(raw_upper, panel, m, j, base);
        j += P;
    }
    if P > 2 && j + 2 <= m {
        base = fold_pivots::<2>(raw_upper, panel, m, j, base);
        j += 2;
    }
    if j < m {
        fold_pivots::<1>(raw_upper, panel, m, j, base);
    }
}

/// Folds pivot rows `j..j + P` of the triangle, whose `(j, j)` entry sits
/// at `base`, and returns the offset of `(j + P, j + P)`. The strip —
/// columns `j + P - 1..m`, which every pivot of the group holds — goes in
/// Px8 blocks with a Px4, Px2, Px1 cascade for the last
/// `(m - j - P + 1) mod 8` columns. The corner left of it is folded first:
/// `(j, j)` for `P = 2`; `(j, j)`, the 2x2 block `(j..j + 2, j + 1..j + 3)`
/// and `(j + 2, j + 2)` for `P = 4`.
#[inline(always)]
fn fold_pivots<const P: usize>(
    raw_upper: &mut [f64],
    panel: &[f64],
    m: usize,
    j: usize,
    base: usize,
) -> usize {
    // Pivot row j + p starts `m - j - p` entries after row j + p - 1, so
    // its entry for column l sits at `row_at[p] + l`.
    let mut row_at = [0usize; P];
    let mut diag = base;
    for (p, at) in row_at.iter_mut().enumerate() {
        *at = diag - (j + p);
        diag += m - j - p;
    }
    if P >= 2 {
        fold_block::<1, 1>(raw_upper, [base], panel, m, j, j);
    }
    if P == 4 {
        let next = base + (m - j);
        fold_block::<2, 2>(raw_upper, [base + 1, next], panel, m, j, j + 1);
        fold_block::<1, 1>(raw_upper, [next + (m - j - 1)], panel, m, j + 2, j + 2);
    }
    let at = |l: usize| row_at.map(|r| r + l);
    let mut l = j + P - 1;
    while l + BLOCK_COLS <= m {
        fold_block::<P, BLOCK_COLS>(raw_upper, at(l), panel, m, j, l);
        l += BLOCK_COLS;
    }
    if l + 4 <= m {
        fold_block::<P, 4>(raw_upper, at(l), panel, m, j, l);
        l += 4;
    }
    if l + 2 <= m {
        fold_block::<P, 2>(raw_upper, at(l), panel, m, j, l);
        l += 2;
    }
    if l < m {
        fold_block::<P, 1>(raw_upper, at(l), panel, m, j, l);
    }
    diag
}

/// One register block of the panel fold: triangle entries
/// `(j + p, l + c)` for `p < P`, `c < W`, where pivot row `j + p`'s entry
/// for column `l` sits at `raw_upper[at[p]]`. The `P x W` accumulators
/// are loaded once, take one `x_{j+p} * x_{l+c}` per panel row in row
/// order, and are stored once. With constant `P` and `W` the loops
/// unroll, so the block lives in registers: 2x8 is 16 f64 in 8 SSE2
/// registers in the baseline x86-64 build, 4x8 is 32 f64 in 8 AVX2
/// ones in [`fold_panel_avx2`].
#[inline(always)]
fn fold_block<const P: usize, const W: usize>(
    raw_upper: &mut [f64],
    at: [usize; P],
    panel: &[f64],
    m: usize,
    j: usize,
    l: usize,
) {
    let mut acc = [[0.0f64; W]; P];
    for (a, &at) in acc.iter_mut().zip(&at) {
        a.copy_from_slice(&raw_upper[at..at + W]);
    }
    for row in panel.chunks_exact(m) {
        let xl = &row[l..l + W];
        for (p, a) in acc.iter_mut().enumerate() {
            let xj = row[j + p];
            for (a, &x) in a.iter_mut().zip(xl) {
                *a += xj * x;
            }
        }
    }
    for (a, &at) in acc.iter().zip(&at) {
        raw_upper[at..at + W].copy_from_slice(a);
    }
}

/// State-advancing fold: the kernel plus block telemetry. The read-only
/// view folds in [`CovarianceAccumulator::parts`]/`finalize` bypass this
/// so observers do not inflate the block counters.
fn fold_panel_timed(
    m: usize,
    col_sums: &mut [f64],
    raw_upper: &mut [f64],
    panel: &[f64],
    rows: usize,
) {
    // rrlint-allow: RR003 panel-fold timing feeds the scan_flush_ns histogram; an obs span cannot wrap a split mutable borrow
    let t0 = obs::enabled().then(std::time::Instant::now);
    fold_panel(m, col_sums, raw_upper, panel, rows);
    obs::counter_add(obs::names::SCAN_BLOCKS_TOTAL, 1);
    if let Some(t0) = t0 {
        // Log-bucketed quantile: serve dashboards read p99 flush time
        // without committing to fixed bounds up front.
        obs::observe_quantile(obs::names::SCAN_FLUSH_NS, t0.elapsed().as_nanos() as f64);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dataset::rng::SplitMix64;
    use dataset::stats;

    fn x() -> Matrix {
        Matrix::from_rows(&[
            &[1.0, 5.0, -2.0],
            &[2.0, 3.0, 0.0],
            &[4.0, -1.0, 1.0],
            &[0.5, 2.0, 7.0],
            &[3.0, 3.0, 3.0],
        ])
        .unwrap()
    }

    fn accumulate(m: &Matrix) -> CovarianceAccumulator {
        let mut acc = CovarianceAccumulator::new(m.cols());
        for row in m.row_iter() {
            acc.push_row(row).unwrap();
        }
        acc
    }

    /// The historical per-row rank-1 triangular walk, kept verbatim as
    /// the bit-exactness oracle for the blocked kernel and the scan.
    pub(crate) struct ScalarReference {
        m: usize,
        pub(crate) n: usize,
        pub(crate) col_sums: Vec<f64>,
        pub(crate) raw_upper: Vec<f64>,
    }

    impl ScalarReference {
        pub(crate) fn new(m: usize) -> Self {
            ScalarReference {
                m,
                n: 0,
                col_sums: vec![0.0; m],
                raw_upper: vec![0.0; m * (m + 1) / 2],
            }
        }

        pub(crate) fn push_row(&mut self, row: &[f64]) {
            assert_eq!(row.len(), self.m);
            self.n += 1;
            let mut idx = 0usize;
            for j in 0..self.m {
                let xj = row[j];
                self.col_sums[j] += xj;
                for &xl in &row[j..] {
                    self.raw_upper[idx] += xj * xl;
                    idx += 1;
                }
            }
        }
    }

    pub(crate) fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: entry {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matches_two_pass_reference() {
        let m = x();
        let acc = accumulate(&m);
        let (c, means, n) = acc.finalize().unwrap();
        assert_eq!(n, 5);

        let reference = stats::covariance_two_pass(&m).unwrap();
        assert!(
            c.max_abs_diff(&reference).unwrap() < 1e-10,
            "single-pass covariance deviates from two-pass oracle"
        );
        let ref_stats = stats::column_stats(&m);
        for (a, b) in means.iter().zip(&ref_stats.means) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn finalize_is_symmetric() {
        let (c, _, _) = accumulate(&x()).finalize().unwrap();
        assert!(c.is_symmetric(0.0));
    }

    #[test]
    fn rejects_wrong_width_row() {
        let mut acc = CovarianceAccumulator::new(3);
        assert!(matches!(
            acc.push_row(&[1.0, 2.0]),
            Err(RatioRuleError::WidthMismatch {
                expected: 3,
                actual: 2
            })
        ));
    }

    #[test]
    fn rejects_non_finite_cells() {
        let mut acc = CovarianceAccumulator::new(2);
        acc.push_row(&[1.0, 2.0]).unwrap();
        let err = acc.push_row(&[f64::NAN, 1.0]).unwrap_err();
        assert!(err.to_string().contains("column 0"));
        assert!(acc.push_row(&[1.0, f64::INFINITY]).is_err());
        assert!(acc.push_row(&[1.0, f64::NEG_INFINITY]).is_err());
        // The accumulator stays usable: the poisoned rows were not
        // absorbed.
        acc.push_row(&[3.0, 4.0]).unwrap();
        assert_eq!(acc.n_rows(), 2);
        let (c, _, _) = acc.finalize().unwrap();
        assert!(c.is_finite());
    }

    #[test]
    fn empty_accumulator_cannot_finalize() {
        let acc = CovarianceAccumulator::new(3);
        assert!(matches!(acc.finalize(), Err(RatioRuleError::EmptyInput)));
        assert_eq!(acc.column_means(), vec![0.0; 3]);
    }

    #[test]
    fn merge_equals_single_scan() {
        let m = x();
        let whole = accumulate(&m);

        // Split rows 0..2 and 2..5 into two accumulators and merge.
        let mut a = CovarianceAccumulator::new(3);
        let mut b = CovarianceAccumulator::new(3);
        for (i, row) in m.row_iter().enumerate() {
            if i < 2 {
                a.push_row(row).unwrap();
            } else {
                b.push_row(row).unwrap();
            }
        }
        a.merge(&b).unwrap();

        let (c1, m1, n1) = whole.finalize().unwrap();
        let (c2, m2, n2) = a.finalize().unwrap();
        assert_eq!(n1, n2);
        assert!(c1.max_abs_diff(&c2).unwrap() < 1e-10);
        for (x, y) in m1.iter().zip(&m2) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn merge_rejects_mismatched_width() {
        let mut a = CovarianceAccumulator::new(3);
        let b = CovarianceAccumulator::new(2);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn single_row_gives_zero_covariance() {
        let mut acc = CovarianceAccumulator::new(2);
        acc.push_row(&[3.0, 4.0]).unwrap();
        let (c, means, n) = acc.finalize().unwrap();
        assert_eq!(n, 1);
        assert_eq!(means, vec![3.0, 4.0]);
        assert!(c.max_abs() < 1e-12);
    }

    #[test]
    fn upper_triangle_indexing_is_bijective() {
        let acc = CovarianceAccumulator::new(6);
        let mut seen = std::collections::HashSet::new();
        for j in 0..6 {
            for l in j..6 {
                assert!(seen.insert(acc.upper_index(j, l)));
            }
        }
        assert_eq!(seen.len(), 21);
        assert_eq!(*seen.iter().max().unwrap(), 20);
    }

    #[test]
    fn cancellation_error_is_bounded_for_shifted_data() {
        // The raw-moment formula loses precision when means are huge
        // relative to the variance. Document that the error stays small
        // for a moderate shift (1e6) — the regime the paper assumes.
        let shift = 1e6;
        let m = Matrix::from_fn(50, 2, |i, j| {
            shift + (i as f64) * 0.1 + (j as f64) * 0.01 * (i as f64 % 7.0)
        });
        let (c, _, _) = accumulate(&m).finalize().unwrap();
        let reference = stats::covariance_two_pass(&m).unwrap();
        let rel = c.max_abs_diff(&reference).unwrap() / reference.max_abs().max(1e-30);
        assert!(rel < 1e-3, "relative cancellation error {rel}");
    }

    /// Property: the blocked kernel equals the scalar per-row walk
    /// bit-for-bit across shapes, at both pivot counts and in both
    /// builds: every width through 19 (each Px8 / Px4 / Px2 / Px1 column
    /// tail, and every 2- and 1-pivot tail after the 4-pivot groups) plus
    /// M = 100, at N below, at, and just past one and two default panels;
    /// M = 600 at one row and one panel plus one; and random shapes with
    /// other panel heights, including N < B, N not divisible by B, and a
    /// final partial panel. The accumulator folds through `fold_panel`,
    /// which picks the AVX2 build on a CPU that has it; each shape's
    /// panels also fold through the baseline build directly at 2 and at
    /// 4 pivots, so an AVX2 host tests every combination it can run.
    #[test]
    fn blocked_equals_scalar_bitwise_across_shapes() {
        let mut rng = SplitMix64::seed_from_u64(0xB10C);
        let mut shapes = Vec::new();
        for m in (1usize..=19).chain([100]) {
            for n in [1usize, 63, 64, 65, 130] {
                shapes.push((n, m, DEFAULT_BLOCK_ROWS));
            }
        }
        for n in [1usize, 65] {
            shapes.push((n, 600, DEFAULT_BLOCK_ROWS));
        }
        shapes.extend_from_slice(&[
            (1usize, 1usize, 1usize),
            (5, 3, 2),      // N odd multiple of B + 1
            (130, 33, 32),  // several panels + partial tail
            (200, 5, 7),    // B not a divisor of N, tiny M
            (97, 40, 128),  // B > N with wide rows
        ]);
        for (n, m, b) in shapes {
            let data: Vec<f64> = (0..n * m).map(|_| rng.next_f64() * 2.0 - 1.0).collect();
            let mut scalar = ScalarReference::new(m);
            let mut blocked = CovarianceAccumulator::with_block_rows(m, b);
            for r in 0..n {
                scalar.push_row(&data[r * m..(r + 1) * m]);
                blocked.push_row(&data[r * m..(r + 1) * m]).unwrap();
            }
            let (bn, bcs, bru) = blocked.parts();
            assert_eq!(bn, scalar.n, "shape ({n},{m},{b})");
            assert_bits_eq(&bcs, &scalar.col_sums, &format!("col_sums ({n},{m},{b})"));
            assert_bits_eq(&bru, &scalar.raw_upper, &format!("raw_upper ({n},{m},{b})"));
            let kernels: [(usize, KernelFn); 2] = [(2, fold_kernel::<2>), (4, fold_kernel::<4>)];
            for (pivots, kernel) in kernels {
                let mut col_sums = vec![0.0; m];
                let mut raw_upper = vec![0.0; m * (m + 1) / 2];
                for panel in data.chunks(b * m) {
                    kernel(m, &mut col_sums, &mut raw_upper, panel, panel.len() / m);
                }
                let what = format!("baseline, {pivots} pivots ({n},{m},{b})");
                assert_bits_eq(&col_sums, &scalar.col_sums, &format!("col_sums {what}"));
                assert_bits_eq(&raw_upper, &scalar.raw_upper, &format!("raw_upper {what}"));
            }
        }
    }

    type KernelFn = fn(usize, &mut [f64], &mut [f64], &[f64], usize);

    /// Property: push_block equals push_row bit-for-bit for arbitrary
    /// block segmentations of the same row stream.
    #[test]
    fn push_block_equals_push_row_bitwise() {
        let mut rng = SplitMix64::seed_from_u64(0x5EED);
        let (n, m) = (151usize, 9usize);
        let data: Vec<f64> = (0..n * m).map(|_| rng.next_f64() * 4.0 - 2.0).collect();
        let mut by_row = CovarianceAccumulator::with_block_rows(m, 16);
        for r in 0..n {
            by_row.push_row(&data[r * m..(r + 1) * m]).unwrap();
        }
        for trial in 0..8 {
            let mut by_block = CovarianceAccumulator::with_block_rows(m, 16);
            let mut r = 0usize;
            while r < n {
                let take = 1 + rng.usize_in(0..(n - r).min(40 + trial));
                by_block
                    .push_block(&data[r * m..(r + take) * m], take)
                    .unwrap();
                r += take;
            }
            let (n1, c1, u1) = by_row.parts();
            let (n2, c2, u2) = by_block.parts();
            assert_eq!(n1, n2);
            assert_bits_eq(&c1, &c2, "col_sums");
            assert_bits_eq(&u1, &u2, "raw_upper");
        }
    }

    /// A checkpoint taken mid-panel round-trips exactly: resuming from
    /// parts()/from_parts and finishing the stream is bit-identical to
    /// the uninterrupted scan.
    #[test]
    fn checkpoint_mid_panel_roundtrips_bitwise() {
        let mut rng = SplitMix64::seed_from_u64(0xC4EC);
        let (n, m, b) = (100usize, 6usize, 32usize);
        let data: Vec<f64> = (0..n * m).map(|_| rng.next_f64()).collect();
        for cut in [1usize, 31, 32, 33, 50, 99] {
            let mut whole = CovarianceAccumulator::with_block_rows(m, b);
            let mut first = CovarianceAccumulator::with_block_rows(m, b);
            for r in 0..n {
                whole.push_row(&data[r * m..(r + 1) * m]).unwrap();
                if r < cut {
                    first.push_row(&data[r * m..(r + 1) * m]).unwrap();
                }
            }
            let (cn, ccs, cru) = first.parts();
            assert_eq!(cn, cut);
            let mut resumed = CovarianceAccumulator::from_parts(m, cn, ccs, cru).unwrap();
            for r in cut..n {
                resumed.push_row(&data[r * m..(r + 1) * m]).unwrap();
            }
            let (n1, c1, u1) = whole.parts();
            let (n2, c2, u2) = resumed.parts();
            assert_eq!(n1, n2, "cut {cut}");
            assert_bits_eq(&c1, &c2, "col_sums");
            assert_bits_eq(&u1, &u2, "raw_upper");
        }
    }

    #[test]
    fn flush_is_idempotent_and_explicit() {
        let mut acc = CovarianceAccumulator::with_block_rows(2, 8);
        acc.push_row(&[1.0, 2.0]).unwrap();
        acc.flush();
        acc.flush();
        let (n, cs, _) = acc.parts();
        assert_eq!(n, 1);
        assert_eq!(cs[0].to_bits(), 1.0f64.to_bits());
        // Observers see buffered rows without an explicit flush too.
        let mut buffered = CovarianceAccumulator::with_block_rows(2, 8);
        buffered.push_row(&[1.0, 2.0]).unwrap();
        assert_eq!(buffered.column_means(), vec![1.0, 2.0]);
        let (c, _, _) = buffered.finalize().unwrap();
        assert!(c.max_abs() < 1e-12);
    }

    #[test]
    fn push_block_validates_before_absorbing() {
        let mut acc = CovarianceAccumulator::with_block_rows(3, 4);
        // Length mismatch.
        assert!(matches!(
            acc.push_block(&[1.0; 7], 2),
            Err(RatioRuleError::WidthMismatch {
                expected: 6,
                actual: 7
            })
        ));
        // Non-finite cell in the middle of the second row: attribution
        // names the absolute row (1-based) and column; nothing absorbed.
        acc.push_row(&[0.5; 3]).unwrap();
        let mut block = vec![1.0f64; 9];
        block[4] = f64::NAN;
        let msg = acc.push_block(&block, 3).unwrap_err().to_string();
        assert!(msg.contains("column 1"), "{msg}");
        assert!(msg.contains("row 3"), "{msg}");
        assert_eq!(acc.n_rows(), 1);
        // A clean block still lands.
        acc.push_block(&vec![2.0f64; 9], 3).unwrap();
        assert_eq!(acc.n_rows(), 4);
    }

    #[test]
    fn merge_folds_both_pending_panels() {
        let mut rng = SplitMix64::seed_from_u64(0x3E11);
        let m = 4usize;
        let rows: Vec<Vec<f64>> = (0..21)
            .map(|_| (0..m).map(|_| rng.next_f64()).collect())
            .collect();
        // Serial scan of all rows.
        let mut serial = CovarianceAccumulator::with_block_rows(m, 8);
        for r in &rows {
            serial.push_row(r).unwrap();
        }
        // Two halves with mid-panel leftovers on both sides, merged.
        let mut left = CovarianceAccumulator::with_block_rows(m, 8);
        let mut right = CovarianceAccumulator::with_block_rows(m, 8);
        for (i, r) in rows.iter().enumerate() {
            if i < 11 {
                left.push_row(r).unwrap();
            } else {
                right.push_row(r).unwrap();
            }
        }
        left.merge(&right).unwrap();
        assert_eq!(left.n_rows(), serial.n_rows());
        let (c1, _, _) = serial.finalize().unwrap();
        let (c2, _, _) = left.finalize().unwrap();
        assert!(c1.max_abs_diff(&c2).unwrap() < 1e-12);
    }

    /// Seeded NaN injection: `push_row` rejects non-finite input, so the
    /// realistic smuggling route is a corrupted checkpoint restored via
    /// `from_parts`. With the sanitizer active that must trap at the
    /// restore boundary, not thirty QL sweeps later.
    #[cfg(all(feature = "numeric-sanitizer", debug_assertions))]
    #[test]
    fn sanitizer_traps_nan_smuggled_through_checkpoint() {
        let acc = accumulate(&x());
        let (n, col_sums, raw_upper) = acc.parts();
        let mut poisoned = raw_upper.clone();
        poisoned[2] = f64::NAN;
        let trapped = std::panic::catch_unwind(|| {
            CovarianceAccumulator::from_parts(3, n, col_sums.clone(), poisoned)
        })
        .is_err();
        assert!(trapped, "sanitizer must trap the poisoned checkpoint");

        // An intact checkpoint still restores and finalizes cleanly.
        let ok =
            CovarianceAccumulator::from_parts(3, n, col_sums.clone(), raw_upper.clone()).unwrap();
        ok.finalize().unwrap();
    }

    /// The merge boundary is the other sanitized entry point: a worker
    /// shard whose accumulator went non-finite (overflow) must be caught
    /// when merged, before it contaminates the scatter matrix.
    #[cfg(all(feature = "numeric-sanitizer", debug_assertions))]
    #[test]
    fn sanitizer_traps_nonfinite_merge() {
        let m = x();
        let mut left = accumulate(&m);
        let right = accumulate(&m);
        let mut poisoned = right.clone();
        poisoned.flush();
        poisoned.col_sums[0] = f64::INFINITY;
        let trapped = std::panic::catch_unwind(move || left.merge(&poisoned)).is_err();
        assert!(trapped, "sanitizer must trap the overflowed shard at merge");

        // A healthy merge still works.
        let mut left = accumulate(&m);
        left.merge(&right).unwrap();
        left.finalize().unwrap();
    }
}
