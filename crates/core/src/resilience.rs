//! Fault tolerance for the mining pipeline (extension beyond the paper).
//!
//! The paper's single-pass scan targets data "far larger than memory" —
//! the regime where real deployments meet corrupt cells, ragged rows,
//! torn reads, and mid-scan crashes. This module keeps the pipeline
//! serving through all of them, degrading *quantifiably* instead of
//! failing:
//!
//! * [`ScanPolicy`] — `Strict` (any bad row aborts, today's behaviour)
//!   vs `Quarantine` (skip bad rows, log why, abort only when an error
//!   *budget* is exhausted). Because the accumulator is a plain sum,
//!   quarantining a bad row yields **bit-identical** rules to scanning
//!   only the good rows — the property the proptests pin.
//! * [`Scanner`] — the scan loop itself (the only loop that feeds a
//!   [`RowSource`] into the accumulator, for CSV, RRCB, in-memory and
//!   shard sources alike), with quarantine accounting, obs counters,
//!   and [`ScanCheckpoint`] save/resume: the accumulator
//!   `(n, column sums, moment matrix)` serializes exactly through the
//!   obs JSON machinery (integers and shortest-round-trip floats), so a
//!   resumed scan equals an uninterrupted one to the last bit.
//! * [`ResilientMiner`] — a graceful-degradation ladder for the
//!   eigensolve: Jacobi → tridiagonal QL → Lanczos, each attempt
//!   validated by the residual `‖Cv - λv‖`, falling back to fewer rules
//!   than the cutoff wanted and ultimately to the paper's own `k = 0`
//!   baseline (column averages, Sec. 5). A [`DegradationReport`] records
//!   which level served and why.

use crate::covariance::{check_row, CovarianceAccumulator};
use crate::cutoff::Cutoff;
use crate::miner::{build_rules, pad_spectrum};
use crate::predictor::{ColAvgs, Predictor};
use crate::rules::RuleSet;
use crate::{RatioRuleError, Result};
use dataset::csv::CsvText;
use dataset::source::RowSource;
use dataset::DatasetError;
use linalg::Matrix;
use obs::json::JsonValue;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// How many consecutive `next_row` errors a quarantine scan tolerates
/// before concluding the source is wedged (a persistent error that never
/// consumes a row would otherwise spin forever under an unlimited
/// budget).
const MAX_CONSECUTIVE_SOURCE_ERRORS: usize = 1024;

/// How many per-row quarantine records a [`ScanReport`] keeps verbatim
/// (counts are always exact; only the detailed log is capped).
const MAX_QUARANTINE_DETAILS: usize = 64;

/// Bytes of CSV text a scan worker takes from the source at a time, rounded
/// up to a line end. Each worker holds one such buffer and each of the
/// scan's [`SCAN_BATCHES`] batches the rows parsed from one, so the size
/// trades peak memory for fewer hand-offs: on a 45 MB CSV, 64 KiB peaked
/// ~0.3 MB lower than 128 KiB and scanned ~4% slower (`EXPERIMENTS.md`,
/// "Parsing a CSV on both CPUs").
const TEXT_CHUNK_BYTES: usize = 64 * 1024;

/// Batches a row-by-row scan holds at once: one being taken or parsed by
/// each of its two workers, and up to two parsed ones waiting for their
/// turn, so a worker on the faster CPU parses ahead instead of waiting
/// for the other.
const SCAN_BATCHES: usize = 4;

/// Error-handling policy for the covariance scan.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ScanPolicy {
    /// Any bad row or source error aborts the scan with the original
    /// error — the paper's implicit policy and this crate's historical
    /// behaviour.
    #[default]
    Strict,
    /// Skip bad rows, recording each with a reason, and abort only when
    /// the error budget is exhausted. `None` limits are unlimited.
    Quarantine {
        /// Abort (with [`RatioRuleError::BudgetExhausted`]) as soon as
        /// more than this many rows have been quarantined.
        max_bad_rows: Option<usize>,
        /// Abort at end of scan if the quarantined fraction of all
        /// consumed rows exceeds this (checked at the end because the
        /// denominator is only known then).
        max_bad_fraction: Option<f64>,
    },
}

impl ScanPolicy {
    /// Quarantine policy with unlimited budget (never aborts on bad
    /// rows, only counts them).
    pub fn quarantine_unlimited() -> Self {
        ScanPolicy::Quarantine {
            max_bad_rows: None,
            max_bad_fraction: None,
        }
    }
}

/// Checks a user-supplied fraction — a quarantine budget's
/// `max_bad_fraction`, a fault-injection rate — and returns it. `what`
/// names the flag or wire field in the error.
///
/// # Errors
///
/// [`RatioRuleError::Invalid`] naming `what` when `value` is NaN or lies
/// outside `[0, 1]`.
pub fn check_fraction(what: &str, value: f64) -> Result<f64> {
    if (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(RatioRuleError::Invalid(format!(
            "{what} must be a fraction in [0, 1], got {value}"
        )))
    }
}

/// Why a row was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// A cell was non-finite, unparseable, or empty.
    CorruptCell,
    /// The row had the wrong number of fields.
    ArityMismatch,
    /// The source failed in a row-consuming, non-transient way.
    SourceError,
}

impl QuarantineReason {
    /// Stable lowercase name (used in logs and metric names).
    pub fn name(&self) -> &'static str {
        match self {
            QuarantineReason::CorruptCell => "corrupt_cell",
            QuarantineReason::ArityMismatch => "arity_mismatch",
            QuarantineReason::SourceError => "source_error",
        }
    }
}

/// One quarantined row: where, why, and the original error text.
#[derive(Debug, Clone)]
pub struct QuarantinedRow {
    /// 0-based position in the stream (over consumed rows).
    pub position: usize,
    /// Classification of the failure.
    pub reason: QuarantineReason,
    /// Original error message.
    pub detail: String,
}

/// Outcome of a scan: how many rows went where.
#[derive(Debug, Clone, Default)]
pub struct ScanReport {
    /// Rows absorbed into the accumulator.
    pub rows_absorbed: usize,
    /// Rows quarantined (all reasons).
    pub rows_quarantined: usize,
    /// Quarantined rows by reason: `(corrupt, arity, source_error)`.
    pub by_reason: (usize, usize, usize),
    /// Transient source errors ridden out in-loop (row re-read, not
    /// lost).
    pub transient_retries: usize,
    /// First [`MAX_QUARANTINE_DETAILS`] quarantined rows, verbatim.
    pub details: Vec<QuarantinedRow>,
    /// Stream position this scan resumed from (0 = fresh scan).
    pub resumed_from: usize,
}

impl ScanReport {
    fn record(&mut self, position: usize, reason: QuarantineReason, detail: String) {
        self.rows_quarantined += 1;
        match reason {
            QuarantineReason::CorruptCell => self.by_reason.0 += 1,
            QuarantineReason::ArityMismatch => self.by_reason.1 += 1,
            QuarantineReason::SourceError => self.by_reason.2 += 1,
        }
        obs::counter_add("scan_rows_quarantined_total", 1);
        obs::counter_add(
            &format!("scan_rows_quarantined_{}_total", reason.name()),
            1,
        );
        obs::flight_event(
            obs::names::EVENT_SCAN_ROW_QUARANTINED,
            position as u64,
            reason as u64,
            0.0,
        );
        if self.details.len() < MAX_QUARANTINE_DETAILS {
            self.details.push(QuarantinedRow {
                position,
                reason,
                detail,
            });
        }
    }
}

/// Classifies a dataset error for quarantine purposes. Transient errors
/// are handled separately (the row was *not* consumed).
fn classify(err: &DatasetError) -> QuarantineReason {
    match err {
        DatasetError::RaggedRows { .. } => QuarantineReason::ArityMismatch,
        DatasetError::Parse { .. }
        | DatasetError::EmptyCell { .. }
        | DatasetError::NonFinite { .. } => QuarantineReason::CorruptCell,
        _ => QuarantineReason::SourceError,
    }
}

/// A short read: the source ended mid-row because it shrank underneath
/// the scan (an RRCB file truncated after `open` validated its length).
/// No row was consumed and none after it can be read, so the scan stops
/// under every policy, leaving the checkpoint cursor at the short row.
fn is_short_read(err: &DatasetError) -> bool {
    matches!(err, DatasetError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof)
}

/// The single-pass covariance scan with a [`ScanPolicy`], quarantine
/// accounting, and checkpoint/resume. [`crate::miner::RatioRuleMiner`]
/// drives one of these internally, as do the CLI's `mine` (CSV and RRCB
/// input alike) and the distributed shard workers; use it directly when
/// you need checkpoints or the [`ScanReport`].
#[derive(Debug, Clone)]
pub struct Scanner {
    acc: CovarianceAccumulator,
    policy: ScanPolicy,
    /// Rows consumed from the stream (absorbed + quarantined). This is
    /// the resume cursor: a fresh source skips this many consumed rows.
    rows_consumed: usize,
    /// Absolute consumption cap (exclusive): the scan stops once this
    /// many rows have been consumed, leaving the rest of the stream
    /// untouched. `None` scans to the end.
    limit: Option<usize>,
    report: ScanReport,
}

impl Scanner {
    /// Fresh scanner over `m` attributes.
    pub fn new(m: usize, policy: ScanPolicy) -> Self {
        Scanner {
            acc: CovarianceAccumulator::new(m),
            policy,
            rows_consumed: 0,
            limit: None,
            report: ScanReport::default(),
        }
    }

    /// Starts the consumption cursor at absolute stream row `start`
    /// with no accumulated state — the entry point for shard workers
    /// that own a row range. The prefix is skipped exactly like a
    /// checkpoint resume (data-error rows count as consumed), so a
    /// shard scan over `[start, limit)` is bit-identical to the same
    /// rows' contribution in a whole-stream scan. Only meaningful
    /// before the first scan call.
    #[must_use]
    pub fn with_start_row(mut self, start: usize) -> Self {
        self.rows_consumed = start;
        self
    }

    /// Caps consumption at absolute stream row `limit` (exclusive).
    /// Combined with [`Scanner::with_start_row`] this scans exactly
    /// the shard range `[start, limit)`.
    #[must_use]
    pub fn with_consumed_limit(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Rebuilds a scanner from a checkpoint; the next
    /// [`Scanner::scan`] skips the already-consumed prefix and picks up
    /// exactly where the checkpointed scan stopped.
    ///
    /// # Errors
    ///
    /// As [`ScanCheckpoint::accumulator`]: [`RatioRuleError::Invalid`]
    /// if the checkpoint's moment arrays do not fit its width.
    pub fn resume(checkpoint: &ScanCheckpoint, policy: ScanPolicy) -> Result<Self> {
        let acc = checkpoint.accumulator()?;
        let mut report = ScanReport {
            rows_absorbed: acc.n_rows(),
            rows_quarantined: checkpoint.rows_quarantined,
            by_reason: checkpoint.by_reason,
            resumed_from: checkpoint.rows_consumed,
            ..ScanReport::default()
        };
        report.details.clear();
        Ok(Scanner {
            acc,
            policy,
            rows_consumed: checkpoint.rows_consumed,
            limit: None,
            report,
        })
    }

    /// The accumulator filled so far.
    pub fn accumulator(&self) -> &CovarianceAccumulator {
        &self.acc
    }

    /// Consumes the scanner, returning the accumulator and report.
    pub fn into_parts(self) -> (CovarianceAccumulator, ScanReport) {
        (self.acc, self.report)
    }

    /// The scan outcome so far.
    pub fn report(&self) -> &ScanReport {
        &self.report
    }

    /// Snapshot for [`Scanner::resume`]. Serialize with
    /// [`ScanCheckpoint::to_json`].
    pub fn checkpoint(&self) -> ScanCheckpoint {
        ScanCheckpoint::capture(&self.acc, self.rows_consumed, &self.report)
    }

    /// Scans `source` to completion under the policy, absorbing good
    /// rows — the paper's Fig. 2(a) loop: read a row, add it to the
    /// column sums and the moment matrix. Rewinds first; when resuming,
    /// the consumed prefix is re-read and skipped before absorption
    /// restarts. Returns the report (also available via
    /// [`Scanner::report`]).
    ///
    /// Every row is checked once (width and finiteness, with
    /// [`CovarianceAccumulator::push_row`]'s check and error text), then
    /// accounted in stream order (quarantine, budgets, the consumed
    /// limit), and every clean run of accepted rows folds with the
    /// accumulator's panel kernel without a second check. Each
    /// accumulator entry takes one add per row, in row order, so the bits
    /// are those of one `push_row` per accepted row whichever way the
    /// rows arrive.
    ///
    /// A source that lends its rows ([`RowSource::lend_rows`], an
    /// in-memory matrix) is read in place on the calling thread, one
    /// panel's worth of rows at a time: the consumed prefix is skipped
    /// through lent slices, and clean runs fold straight from the slice.
    /// There is no parse to overlap, so there is no staging copy and no
    /// second thread.
    ///
    /// Any other source is scanned by two symmetric workers, the calling
    /// thread and one scoped helper. Each takes the next batch of the
    /// stream under one lock, prepares it outside the lock and hands it
    /// in; batches are absorbed (the per-row work and the fold) one at a
    /// time in stream order, by whichever worker finds the next one ready.
    /// A source that hands out CSV text ([`RowSource::read_text`], a
    /// [`dataset::source::CsvFileSource`]) gives ~64 KiB of whole lines
    /// per batch, which the worker parses into rows outside the lock, so
    /// parsing runs on both CPUs; any other source gives up to one panel
    /// of rows read with [`RowSource::next_row`] under the lock, so one
    /// worker reads while the other folds. A scan holds at most four
    /// batches, so a worker on a faster CPU parses ahead of the other by
    /// up to two. A stream of one batch (a CSV under 64 KiB, fewer rows
    /// than a panel) starts no helper, and a failed spawn scans on the
    /// calling thread alone. A scan runs at most these two threads.
    ///
    /// Every exit — the end of the stream, the consumed limit, a strict
    /// abort, an exhausted budget, a short read (see `is_short_read`) —
    /// is decided by the first row or error in stream order that causes
    /// it, the same one a row-by-row scan stops at: no batch after it is
    /// accounted or folded, both workers have returned, and the
    /// accumulator holds exactly the accepted rows, so
    /// [`Scanner::checkpoint`] after a failed scan resumes where it
    /// stopped. Batches are read ahead of that point, though: a source
    /// read row by row may have been read up to three batches past it
    /// (never past the consumed limit, nor past an error under
    /// [`ScanPolicy::Strict`]). A panic on the helper comes back as
    /// [`RatioRuleError::Invalid`] and loses the accumulator: the scanner
    /// is left with an empty zero-width one, whose checkpoint cannot
    /// resume the source.
    ///
    /// # Errors
    ///
    /// A source of another width than the accumulator, a rewind or
    /// resume-skip failure, a bad row or source error under
    /// [`ScanPolicy::Strict`], an exhausted quarantine budget
    /// ([`RatioRuleError::BudgetExhausted`]), a short read, a source that
    /// keeps failing without yielding a row, or a panic on the helper.
    pub fn scan<S: RowSource + Send>(&mut self, source: &mut S) -> Result<&ScanReport> {
        self.scan_in_chunks(source, TEXT_CHUNK_BYTES)
    }

    /// [`Scanner::scan`], taking CSV text `chunk_bytes` at a time.
    fn scan_in_chunks<S: RowSource + Send>(
        &mut self,
        source: &mut S,
        chunk_bytes: usize,
    ) -> Result<&ScanReport> {
        // A resumed scan must read rows as wide as its checkpoint's.
        if source.n_cols() != self.acc.n_cols() {
            return Err(RatioRuleError::WidthMismatch {
                expected: self.acc.n_cols(),
                actual: source.n_cols(),
            });
        }
        let _span = obs::Span::enter("covariance_scan");
        // rrlint-allow: RR003 wall clock feeds obs throughput gauges only, never results
        let start = obs::enabled().then(std::time::Instant::now);
        // Register the resilience counters at zero so a clean scan still
        // shows them in metric dumps (a silent absence reads as "not
        // instrumented", not "no faults").
        obs::counter_add("scan_rows_quarantined_total", 0);
        obs::counter_add("scan_transient_retries_total", 0);
        obs::gauge_set(obs::names::COVARIANCE_BLOCK_ROWS, self.acc.block_rows() as f64);
        source.rewind()?;
        let absorbed_before = self.report.rows_absorbed;
        // Asked once per scan: a source lends on every call or on none.
        if source.lend_rows(0).is_some() {
            self.skip_lent_prefix(source)?;
            self.fold_lent_rows(source)?;
        } else {
            self.skip_consumed_prefix(source)?;
            self.scan_batches(source, chunk_bytes)?;
        }
        self.check_fraction_budget()?;
        if let Some(start) = start {
            let rows = (self.report.rows_absorbed - absorbed_before) as u64;
            obs::counter_add("covariance_rows_scanned_total", rows);
            let secs = start.elapsed().as_secs_f64();
            if secs > 0.0 {
                obs::gauge_set("covariance_rows_per_s", rows as f64 / secs);
                obs::gauge_set(obs::names::SCAN_SHARD_0_ROWS_PER_S, rows as f64 / secs);
            }
        }
        Ok(&self.report)
    }

    /// [`Scanner::scan`] over a source read row by row or as CSV text: the
    /// calling thread works the batches with one scoped helper, started
    /// once the first batch shows the stream goes on (see [`Workers`]).
    fn scan_batches<S: RowSource + Send>(
        &mut self,
        source: &mut S,
        chunk_bytes: usize,
    ) -> Result<()> {
        let plan = BatchPlan {
            m: self.acc.n_cols(),
            panel_rows: self.acc.block_rows(),
            chunk_bytes: chunk_bytes.max(1),
            policy: self.policy,
            limit: self.limit,
        };
        let feed = Feed {
            source,
            text: None,
            taken: 0,
            consumed: self.rows_consumed,
            done: false,
        };
        let workers = Workers {
            feed: Mutex::new(feed),
            turn: Mutex::new(Turn {
                absorber: Some(Absorber {
                    scanner: self,
                    consecutive_errors: 0,
                    stopped: None,
                }),
                next: 0,
                ready: Vec::new(),
                spare: Vec::new(),
                made: 0,
                failed: false,
            }),
            absorbed: Condvar::new(),
            stop: AtomicBool::new(false),
            plan,
        };
        let helper = thread::scope(|scope| {
            let mut helper = None;
            let mut asked = false;
            workers.work(|| {
                if !std::mem::replace(&mut asked, true) && !workers.drained() {
                    helper = thread::Builder::new()
                        .name("scan-worker".into())
                        .spawn_scoped(scope, || workers.work(|| {}))
                        .ok();
                }
            });
            helper.map(|h| h.join())
        });
        let absorber = lock(&workers.turn).absorber.take();
        let stopped = absorber.and_then(|a| a.stopped);
        drop(workers);
        if let Some(Err(payload)) = helper {
            self.acc = CovarianceAccumulator::new(0);
            return Err(RatioRuleError::Invalid(format!(
                "scan worker thread panicked: {}",
                panic_message(payload.as_ref())
            )));
        }
        stopped.unwrap_or(Ok(()))
    }

    /// The per-row work of a row-by-row scan over one batch, in stream
    /// order: the consumed limit, the row check (width and finiteness,
    /// with [`CovarianceAccumulator::push_row`]'s check and error text),
    /// quarantine and budget accounting, and the source's errors; then the
    /// fold of the batch's clean runs. Returns whether the scan goes on
    /// past the batch: `false` once the consumed limit is reached. On every
    /// exit the accumulator holds exactly the rows accepted so far.
    fn absorb(&mut self, batch: &mut Batch, consecutive_errors: &mut usize) -> Result<bool> {
        let m = self.acc.n_cols();
        let Batch {
            cells,
            rows,
            errors,
            ..
        } = batch;
        let mut errors = errors.drain(..).peekable();
        // `cells[run * m..row * m]` is the clean run not folded yet.
        let (mut run, mut row) = (0usize, 0usize);
        let outcome = loop {
            if self.limit.is_some_and(|l| self.rows_consumed >= l) {
                break Ok(false);
            }
            if let Some((_, e)) = errors.next_if(|(before, _)| *before == row) {
                match self.source_error(e, consecutive_errors) {
                    Ok(()) => continue,
                    Err(e) => break Err(e),
                }
            }
            if row == *rows {
                break Ok(true);
            }
            *consecutive_errors = 0;
            let position = self.rows_consumed;
            self.rows_consumed += 1;
            row += 1;
            let cells_of_row = &cells[(row - 1) * m..row * m];
            let Err(e) = check_row(cells_of_row, m, self.acc.n_rows() + (row - run)) else {
                self.report.rows_absorbed += 1;
                continue;
            };
            self.acc
                .push_checked(&cells[run * m..(row - 1) * m], row - 1 - run);
            run = row;
            match self.policy {
                ScanPolicy::Strict => break Err(e),
                ScanPolicy::Quarantine { .. } => {
                    self.report
                        .record(position, QuarantineReason::CorruptCell, e.to_string());
                    if let Err(e) = self.check_row_budget() {
                        break Err(e);
                    }
                }
            }
        };
        self.acc.push_checked(&cells[run * m..row * m], row - run);
        outcome
    }

    /// The policy's answer to a source error met at the scan's cursor: a
    /// strict abort, or, under quarantine, a transient retry (the row was
    /// not consumed and is read again) or a consumed, quarantined row;
    /// a short read and a source that keeps failing abort under both.
    fn source_error(&mut self, e: DatasetError, consecutive_errors: &mut usize) -> Result<()> {
        match self.policy {
            ScanPolicy::Strict => Err(e.into()),
            ScanPolicy::Quarantine { .. } if is_short_read(&e) => Err(e.into()),
            ScanPolicy::Quarantine { .. } => {
                *consecutive_errors += 1;
                if *consecutive_errors > MAX_CONSECUTIVE_SOURCE_ERRORS {
                    return Err(RatioRuleError::Invalid(format!(
                        "source failed {MAX_CONSECUTIVE_SOURCE_ERRORS} times in a row \
                         without yielding a row; last error: {e}"
                    )));
                }
                if e.is_transient() {
                    // The row was not consumed: it is read again. (A
                    // RetryingSource underneath makes this invisible;
                    // this is the last line of defence.)
                    self.report.transient_retries += 1;
                    obs::counter_add("scan_transient_retries_total", 1);
                    Ok(())
                } else {
                    // Row-consuming data error (bad cell, ragged row):
                    // quarantine and move on.
                    let position = self.rows_consumed;
                    self.rows_consumed += 1;
                    self.report.record(position, classify(&e), e.to_string());
                    self.check_row_budget()
                }
            }
        }
    }

    /// [`Scanner::scan`] over a source that lends its rows: asks for the
    /// rows that fill the accumulator's panel (one panel's worth while it
    /// is empty), checks each lent row as [`Scanner::absorb`] checks a
    /// read one, and folds every clean run inline, straight from the
    /// slice, before a bad row is reported, so the accumulator holds
    /// exactly the accepted rows on every exit. After a bad row splits a
    /// run, the next ask tops the staged panel up, so the runs after it
    /// fold zero-copy again.
    fn fold_lent_rows<S: RowSource>(&mut self, source: &mut S) -> Result<()> {
        let m = self.acc.n_cols();
        let panel_rows = self.acc.block_rows();
        loop {
            let want = panel_rows - self.acc.staged_rows();
            let want = self
                .limit
                .map_or(want, |l| l.saturating_sub(self.rows_consumed).min(want));
            let rows = match source.lend_rows(want) {
                Some(rows) if !rows.is_empty() => rows,
                _ => return Ok(()),
            };
            // `rows[run * m..]` is the clean run not yet folded.
            let mut run = 0usize;
            for (i, row) in rows.chunks_exact(m).enumerate() {
                let position = self.rows_consumed;
                self.rows_consumed += 1;
                let Err(e) = check_row(row, m, self.acc.n_rows() + (i - run) + 1) else {
                    self.report.rows_absorbed += 1;
                    continue;
                };
                self.acc.push_checked(&rows[run * m..i * m], i - run);
                run = i + 1;
                match self.policy {
                    ScanPolicy::Strict => return Err(e),
                    ScanPolicy::Quarantine { .. } => {
                        self.report
                            .record(position, QuarantineReason::CorruptCell, e.to_string());
                        self.check_row_budget()?;
                    }
                }
            }
            let lent = rows.len() / m;
            self.acc.push_checked(&rows[run * m..], lent - run);
        }
    }

    /// Skips the consumed prefix of a source that lends its rows, without
    /// copying them. Lent rows are never errors, so each one is a
    /// consumed row.
    fn skip_lent_prefix<S: RowSource>(&mut self, source: &mut S) -> Result<()> {
        let m = self.acc.n_cols();
        let mut skipped = 0usize;
        while skipped < self.rows_consumed {
            let lent = source
                .lend_rows(self.rows_consumed - skipped)
                .map_or(0, |rows| rows.len() / m);
            if lent == 0 {
                return Err(self.resume_gap(skipped));
            }
            skipped += lent;
        }
        Ok(())
    }

    /// The error of a resume whose stream ended after `skipped` rows,
    /// before the checkpoint's cursor.
    fn resume_gap(&self, skipped: usize) -> RatioRuleError {
        RatioRuleError::Invalid(format!(
            "cannot resume: stream ended after {skipped} rows but the \
             checkpoint consumed {}",
            self.rows_consumed
        ))
    }

    /// Skips the rows a previous (checkpointed) scan already consumed.
    /// Quarantined rows were consumed too, so errors during the skip are
    /// counted against the cursor, not re-quarantined; transient errors
    /// leave the cursor alone (the row was never consumed).
    fn skip_consumed_prefix<S: RowSource>(&mut self, source: &mut S) -> Result<()> {
        let mut skipped = 0usize;
        let mut buf = vec![0.0_f64; self.acc.n_cols()];
        let mut consecutive_errors = 0usize;
        while skipped < self.rows_consumed {
            match source.next_row(&mut buf) {
                Ok(true) => {
                    skipped += 1;
                    consecutive_errors = 0;
                }
                Ok(false) => return Err(self.resume_gap(skipped)),
                Err(e) if e.is_transient() => {
                    consecutive_errors += 1;
                    if consecutive_errors > MAX_CONSECUTIVE_SOURCE_ERRORS {
                        return Err(e.into());
                    }
                }
                Err(e) if is_short_read(&e) => return Err(e.into()),
                Err(e) => {
                    // A consumed (and previously quarantined) bad row.
                    match self.policy {
                        ScanPolicy::Strict => return Err(e.into()),
                        ScanPolicy::Quarantine { .. } => {
                            skipped += 1;
                            consecutive_errors = 0;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn check_row_budget(&self) -> Result<()> {
        if let ScanPolicy::Quarantine {
            max_bad_rows: Some(limit),
            ..
        } = self.policy
        {
            if self.report.rows_quarantined > limit {
                obs::counter_add("scan_budget_exhausted_total", 1);
                obs::flight_event(
                    obs::names::EVENT_SCAN_BUDGET_EXHAUSTED,
                    self.report.rows_quarantined as u64,
                    self.rows_consumed as u64,
                    0.0,
                );
                return Err(RatioRuleError::BudgetExhausted {
                    quarantined: self.report.rows_quarantined,
                    scanned: self.rows_consumed,
                    limit: format!("max_bad_rows = {limit}"),
                });
            }
        }
        Ok(())
    }

    fn check_fraction_budget(&self) -> Result<()> {
        if let ScanPolicy::Quarantine {
            max_bad_fraction: Some(limit),
            ..
        } = self.policy
        {
            let consumed = self.rows_consumed.max(1);
            let fraction = self.report.rows_quarantined as f64 / consumed as f64;
            if fraction > limit {
                obs::counter_add("scan_budget_exhausted_total", 1);
                obs::flight_event(
                    obs::names::EVENT_SCAN_BUDGET_EXHAUSTED,
                    self.report.rows_quarantined as u64,
                    self.rows_consumed as u64,
                    fraction,
                );
                return Err(RatioRuleError::BudgetExhausted {
                    quarantined: self.report.rows_quarantined,
                    scanned: self.rows_consumed,
                    limit: format!("max_bad_fraction = {limit} (observed {fraction:.4})"),
                });
            }
        }
        Ok(())
    }
}

/// What a scan worker takes from the source in one go, in stream order:
/// `rows` rows of `m` cells in `cells`, with the source's errors between
/// them. A source that reads CSV text hands out whole lines, which the
/// worker parses into a batch outside any lock ([`Batch::parse`]); any
/// other source is read row by row straight into one. A scan holds at
/// most [`SCAN_BATCHES`] batches and reuses their buffers.
#[derive(Debug, Default)]
struct Batch {
    /// Position in stream order: the batch is absorbed on this turn.
    ticket: usize,
    /// Row-major rows: the first `rows * m` cells are live.
    cells: Vec<f64>,
    rows: usize,
    /// Source errors in stream order, each with the number of `rows`
    /// before it.
    errors: Vec<(usize, DatasetError)>,
}

impl Batch {
    /// Parses CSV `text`, whose first line is `first_line`, into rows and
    /// errors.
    fn parse(&mut self, text: &[u8], first_line: usize, m: usize) {
        let mut lines = CsvText::new(text, first_line);
        loop {
            let end = (self.rows + 1) * m;
            if self.cells.len() < end {
                self.cells.resize(end, 0.0);
            }
            match lines.next_row(&mut self.cells[end - m..end]) {
                Ok(true) => self.rows += 1,
                Ok(false) => break,
                Err(e) => self.errors.push((self.rows, e)),
            }
        }
    }
}

/// A worker's CSV text: whole lines taken from the source, the first of
/// them line `first_line`, not parsed yet. Each worker owns one.
#[derive(Debug, Default)]
struct Text {
    bytes: Vec<u8>,
    first_line: usize,
}

/// The source end of a row-by-row scan, behind one lock: batches are
/// taken from it in stream order and numbered in that order.
struct Feed<'s, S> {
    source: &'s mut S,
    /// Whether the source hands out CSV text; `None` until it is asked.
    text: Option<bool>,
    /// Batches taken so far.
    taken: usize,
    /// Rows consumed by the batches taken so far, as far as the feed can
    /// tell (it stops reading rows at the consumed limit).
    consumed: usize,
    /// The stream ended, or the rest of it cannot be absorbed.
    done: bool,
}

/// The fixed settings of a row-by-row scan.
#[derive(Debug, Clone, Copy)]
struct BatchPlan {
    m: usize,
    panel_rows: usize,
    chunk_bytes: usize,
    policy: ScanPolicy,
    limit: Option<usize>,
}

impl<S: RowSource> Feed<'_, S> {
    /// Takes the next stretch of the stream into `text` (CSV lines) or
    /// straight into `batch` (rows and errors), and numbers the batch;
    /// `false` once there is none.
    fn take(&mut self, text: &mut Text, batch: &mut Batch, plan: BatchPlan) -> bool {
        if self.done {
            return false;
        }
        batch.rows = 0;
        batch.errors.clear();
        text.bytes.clear();
        if self.text != Some(false) {
            let read = self.source.read_text(&mut text.bytes, plan.chunk_bytes);
            self.text = Some(read.is_some());
            match read {
                Some(Ok(first_line)) => {
                    text.first_line = first_line;
                    // Text shorter than asked for ends the stream.
                    self.done = text.bytes.len() < plan.chunk_bytes;
                    if text.bytes.is_empty() {
                        return false;
                    }
                }
                Some(Err(e)) => {
                    text.bytes.clear();
                    self.done = plan.policy == ScanPolicy::Strict || is_short_read(&e);
                    batch.errors.push((0, e));
                }
                None => self.read_rows(batch, plan),
            }
        } else {
            self.read_rows(batch, plan);
        }
        batch.ticket = self.taken;
        self.taken += 1;
        true
    }

    /// Reads up to one panel's worth of rows and errors with
    /// [`RowSource::next_row`], stopping where the stream ends, at the
    /// consumed limit, and after an error that stops the scan whatever
    /// comes next (any error under [`ScanPolicy::Strict`], a short read).
    fn read_rows(&mut self, batch: &mut Batch, plan: BatchPlan) {
        let m = plan.m;
        batch.cells.resize(plan.panel_rows * m, 0.0);
        for _ in 0..plan.panel_rows {
            if plan.limit.is_some_and(|l| self.consumed >= l) {
                self.done = true;
                return;
            }
            let slot = &mut batch.cells[batch.rows * m..(batch.rows + 1) * m];
            match self.source.next_row(slot) {
                Ok(true) => {
                    batch.rows += 1;
                    self.consumed += 1;
                }
                Ok(false) => {
                    self.done = true;
                    return;
                }
                Err(e) => {
                    self.consumed += usize::from(!e.is_transient());
                    self.done = plan.policy == ScanPolicy::Strict || is_short_read(&e);
                    batch.errors.push((batch.rows, e));
                    if self.done {
                        return;
                    }
                }
            }
        }
    }
}

/// The scanner's end of a row-by-row scan: it absorbs batches one at a
/// time, in stream order, on whichever worker holds it.
struct Absorber<'a> {
    scanner: &'a mut Scanner,
    /// Source errors since the last row read (see
    /// [`MAX_CONSECUTIVE_SOURCE_ERRORS`]).
    consecutive_errors: usize,
    /// How the scan stopped before the end of the stream: at the consumed
    /// limit, or on an abort. The batches after it are passed over.
    stopped: Option<Result<()>>,
}

impl Absorber<'_> {
    /// Absorbs `batch` unless the scan has stopped; returns whether it
    /// has stopped now.
    fn absorb(&mut self, batch: &mut Batch) -> bool {
        if self.stopped.is_none() {
            match self.scanner.absorb(batch, &mut self.consecutive_errors) {
                Ok(true) => {}
                Ok(false) => self.stopped = Some(Ok(())),
                Err(e) => self.stopped = Some(Err(e)),
            }
        }
        self.stopped.is_some()
    }
}

/// The batches of a row-by-row scan between the workers, behind one lock.
struct Turn<'a> {
    /// `None` while a worker absorbs outside the lock.
    absorber: Option<Absorber<'a>>,
    /// The ticket of the batch absorbed next.
    next: usize,
    /// Parsed batches waiting for their turn.
    ready: Vec<Batch>,
    /// Absorbed batches, free for the next take.
    spare: Vec<Batch>,
    /// Batches the scan has made so far, at most [`SCAN_BATCHES`].
    made: usize,
    /// A worker panicked: nothing more is absorbed.
    failed: bool,
}

/// What the two workers of a row-by-row scan share.
struct Workers<'a, 's, S> {
    feed: Mutex<Feed<'s, S>>,
    turn: Mutex<Turn<'a>>,
    /// Signalled whenever batches are absorbed.
    absorbed: Condvar,
    /// Set once no more batches need taking: the scan stopped or failed.
    /// It publishes no data (the outcome goes through `turn`), so its
    /// loads and stores are `Relaxed`.
    stop: AtomicBool,
    plan: BatchPlan,
}

impl<S: RowSource> Workers<'_, '_, S> {
    /// Takes the next batch from the feed, unless the scan has stopped.
    fn take(&self, text: &mut Text, batch: &mut Batch) -> bool {
        let mut feed = lock(&self.feed);
        !self.stop.load(Ordering::Relaxed) && feed.take(text, batch, self.plan)
    }

    /// Whether the stream is known to have ended.
    fn drained(&self) -> bool {
        lock(&self.feed).done
    }

    /// Hands a parsed batch in (none before a worker's first take),
    /// absorbs every batch whose turn has come unless another worker is
    /// absorbing, and returns a free batch for the next take, waiting for
    /// one while all [`SCAN_BATCHES`] are in use.
    fn hand_in(&self, batch: Option<Batch>) -> Batch {
        let mut turn = lock(&self.turn);
        turn.ready.extend(batch);
        loop {
            let absorber = if turn.failed { None } else { turn.absorber.take() };
            if let Some(mut absorber) = absorber {
                while let Some(i) = turn.ready.iter().position(|b| b.ticket == turn.next) {
                    let mut batch = turn.ready.swap_remove(i);
                    drop(turn);
                    if absorber.absorb(&mut batch) {
                        self.stop.store(true, Ordering::Relaxed);
                    }
                    turn = lock(&self.turn);
                    turn.next += 1;
                    turn.spare.push(batch);
                }
                turn.absorber = Some(absorber);
                self.absorbed.notify_all();
            }
            if let Some(free) = turn.spare.pop() {
                return free;
            }
            if turn.made < SCAN_BATCHES || turn.failed {
                turn.made += 1;
                return Batch::default();
            }
            turn = self
                .absorbed
                .wait(turn)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// One worker's loop: take a batch, parse it, hand it in. `took` runs
    /// after each take.
    fn work(&self, mut took: impl FnMut()) {
        let _pass = PassOnPanic(self);
        let mut text = Text::default();
        let mut batch = self.hand_in(None);
        while self.take(&mut text, &mut batch) {
            took();
            if !text.bytes.is_empty() {
                batch.parse(&text.bytes, text.first_line, self.plan.m);
            }
            batch = self.hand_in(Some(batch));
        }
    }
}

/// Stops the scan when its worker unwinds, so the other worker, which
/// may be waiting for a batch this one holds, returns instead of waiting
/// for ever.
struct PassOnPanic<'w, 'a, 's, S>(&'w Workers<'a, 's, S>);

impl<S> Drop for PassOnPanic<'_, '_, '_, S> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.stop.store(true, Ordering::Relaxed);
            lock(&self.0.turn).failed = true;
            self.0.absorbed.notify_all();
        }
    }
}

/// Locks `m`, also after a worker panicked holding it. What the panic
/// left half done cannot reach a result: the panicking worker marks the
/// scan failed, the other one takes and absorbs nothing more, and the
/// scan ends in that panic or, for the helper's, in
/// [`RatioRuleError::Invalid`] with the accumulator dropped.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The message of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic".into())
}

/// Serializable snapshot of a [`Scanner`] mid-scan: the accumulator
/// internals plus the stream cursor and quarantine counts. JSON numbers
/// round-trip exactly (integral values as integers, everything else in
/// shortest-representation form), so `resume(checkpoint)` equals the
/// uninterrupted scan bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanCheckpoint {
    /// Number of attributes `M`.
    pub m: usize,
    /// Rows absorbed into the accumulator.
    pub n: usize,
    /// Rows consumed from the stream (absorbed + quarantined).
    pub rows_consumed: usize,
    /// Rows quarantined so far.
    pub rows_quarantined: usize,
    /// Quarantined rows by reason `(corrupt, arity, source_error)`.
    pub by_reason: (usize, usize, usize),
    /// Column sums.
    pub col_sums: Vec<f64>,
    /// Packed upper triangle of the raw moment matrix.
    pub raw_upper: Vec<f64>,
}

impl ScanCheckpoint {
    /// Checkpoints a bare accumulator (no quarantine history) — the
    /// entry point for [`crate::incremental::IncrementalMiner`], whose
    /// ingest has no stream cursor beyond the rows absorbed.
    pub fn from_accumulator(acc: &CovarianceAccumulator) -> Self {
        Self::capture(acc, acc.n_rows(), &ScanReport::default())
    }

    fn capture(acc: &CovarianceAccumulator, rows_consumed: usize, report: &ScanReport) -> Self {
        // parts() folds any buffered panel rows into the returned copies,
        // so a checkpoint taken mid-panel is complete.
        let (n, col_sums, raw_upper) = acc.parts();
        ScanCheckpoint {
            m: acc.n_cols(),
            n,
            rows_consumed,
            rows_quarantined: report.rows_quarantined,
            by_reason: report.by_reason,
            col_sums,
            raw_upper,
        }
    }

    /// Rebuilds the accumulator held in this checkpoint.
    ///
    /// # Errors
    ///
    /// [`RatioRuleError::Invalid`] if `col_sums` or `raw_upper` does not
    /// have the length the checkpoint's width `m` calls for (see
    /// [`CovarianceAccumulator::from_parts`]).
    pub fn accumulator(&self) -> Result<CovarianceAccumulator> {
        CovarianceAccumulator::from_parts(
            self.m,
            self.n,
            self.col_sums.clone(),
            self.raw_upper.clone(),
        )
    }

    /// Serializes to JSON (via the obs machinery — no serde needed).
    pub fn to_json(&self) -> String {
        self.to_json_value().write(true)
    }

    /// The checkpoint as a [`JsonValue`] tree, for embedding inside a
    /// larger wire message (the shard protocol carries checkpoints in
    /// its request/response bodies). Numbers round-trip f64-exactly.
    pub fn to_json_value(&self) -> JsonValue {
        let nums = |v: &[f64]| JsonValue::Arr(v.iter().map(|&x| JsonValue::Num(x)).collect());
        JsonValue::Obj(vec![
            ("version".into(), JsonValue::Num(1.0)),
            ("m".into(), JsonValue::Num(self.m as f64)),
            ("n".into(), JsonValue::Num(self.n as f64)),
            (
                "rows_consumed".into(),
                JsonValue::Num(self.rows_consumed as f64),
            ),
            (
                "rows_quarantined".into(),
                JsonValue::Num(self.rows_quarantined as f64),
            ),
            (
                "quarantined_corrupt".into(),
                JsonValue::Num(self.by_reason.0 as f64),
            ),
            (
                "quarantined_arity".into(),
                JsonValue::Num(self.by_reason.1 as f64),
            ),
            (
                "quarantined_source".into(),
                JsonValue::Num(self.by_reason.2 as f64),
            ),
            ("col_sums".into(), nums(&self.col_sums)),
            ("raw_upper".into(), nums(&self.raw_upper)),
        ])
    }

    /// Parses a checkpoint previously written by
    /// [`ScanCheckpoint::to_json`].
    ///
    /// # Errors
    ///
    /// Malformed JSON, a missing/mistyped field, an unsupported
    /// version, or parts that fail accumulator validation.
    pub fn from_json(text: &str) -> Result<Self> {
        let doc = obs::json::parse(text)
            .map_err(|e| RatioRuleError::Invalid(format!("checkpoint: {e}")))?;
        Self::from_json_value(&doc)
    }

    /// Parses a checkpoint from an already-parsed [`JsonValue`] tree
    /// (e.g. one field of a shard protocol message).
    ///
    /// # Errors
    ///
    /// Missing/mistyped fields, an unsupported version, or parts that
    /// fail accumulator validation.
    pub fn from_json_value(doc: &JsonValue) -> Result<Self> {
        let bad = |what: &str| RatioRuleError::Invalid(format!("checkpoint: {what}"));
        let int = |key: &str| -> Result<usize> {
            doc.get(key)
                .and_then(JsonValue::as_count)
                .ok_or_else(|| bad(&format!("field {key:?} is not a non-negative integer")))
        };
        let floats = |key: &str| -> Result<Vec<f64>> {
            doc.get(key)
                .and_then(JsonValue::as_arr)
                .ok_or_else(|| bad(&format!("missing array field {key:?}")))?
                .iter()
                .map(|v| v.as_f64().ok_or_else(|| bad("non-numeric array entry")))
                .collect()
        };
        if int("version")? != 1 {
            return Err(bad("unsupported version"));
        }
        let cp = ScanCheckpoint {
            m: int("m")?,
            n: int("n")?,
            rows_consumed: int("rows_consumed")?,
            rows_quarantined: int("rows_quarantined")?,
            by_reason: (
                int("quarantined_corrupt")?,
                int("quarantined_arity")?,
                int("quarantined_source")?,
            ),
            col_sums: floats("col_sums")?,
            raw_upper: floats("raw_upper")?,
        };
        // Validate shape eagerly so corrupt checkpoints fail at load.
        cp.accumulator()?;
        Ok(cp)
    }
}

// ---------------------------------------------------------------------
// Graceful-degradation ladder for the eigensolve
// ---------------------------------------------------------------------

/// One rung of the eigensolve ladder: produces `(eigenvalues,
/// eigenvectors-as-columns)` in descending order, or a failure message.
/// Implementations must not panic. Partial solvers (Lanczos) may return
/// fewer than `M` pairs; the caller pads the spectrum via the trace.
pub trait EigenStage {
    /// Stable name for reports and metrics.
    fn name(&self) -> &'static str;

    /// Attempts the decomposition.
    fn solve(&self, c: &Matrix) -> std::result::Result<(Vec<f64>, Vec<Vec<f64>>), String>;
}

/// Cyclic Jacobi (the default first rung: slowest but most robust to
/// mild asymmetry and clustered eigenvalues).
#[derive(Debug, Clone, Copy, Default)]
pub struct JacobiStage;

impl EigenStage for JacobiStage {
    fn name(&self) -> &'static str {
        "jacobi"
    }

    fn solve(&self, c: &Matrix) -> std::result::Result<(Vec<f64>, Vec<Vec<f64>>), String> {
        let eig =
            linalg::jacobi::jacobi_eigen(c, linalg::eigen::DEFAULT_SYMMETRY_TOL)
                .map_err(|e| e.to_string())?;
        let vecs = (0..eig.eigenvalues.len())
            .map(|j| eig.eigenvectors.col(j))
            .collect();
        Ok((eig.eigenvalues, vecs))
    }
}

/// Householder tridiagonalization + implicit QL (the fast dense path).
#[derive(Debug, Clone, Copy, Default)]
pub struct QlStage;

impl EigenStage for QlStage {
    fn name(&self) -> &'static str {
        "tridiagonal_ql"
    }

    fn solve(&self, c: &Matrix) -> std::result::Result<(Vec<f64>, Vec<Vec<f64>>), String> {
        let eig = linalg::eigen::SymmetricEigen::new(c).map_err(|e| e.to_string())?;
        let vecs = (0..eig.dim()).map(|j| eig.eigenvector(j)).collect();
        Ok((eig.eigenvalues, vecs))
    }
}

/// Lanczos top-`k` (last resort: partial spectrum, cheapest per rule).
#[derive(Debug, Clone, Copy, Default)]
pub struct LanczosStage {
    /// Ritz pairs to extract; `None` picks `min(M, 8)`.
    pub max_k: Option<usize>,
}

impl EigenStage for LanczosStage {
    fn name(&self) -> &'static str {
        "lanczos"
    }

    fn solve(&self, c: &Matrix) -> std::result::Result<(Vec<f64>, Vec<Vec<f64>>), String> {
        let m = c.rows();
        let k = self.max_k.unwrap_or_else(|| m.min(8)).clamp(1, m);
        let lz = linalg::lanczos::lanczos_top_k(c, k, None).map_err(|e| e.to_string())?;
        let vecs = (0..k).map(|j| lz.eigenvectors.col(j)).collect();
        Ok((lz.eigenvalues, vecs))
    }
}

/// Which level of the ladder ended up serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradationLevel {
    /// A stage delivered everything the cutoff asked for.
    FullRules,
    /// Every stage fell short of the cutoff, but some rules validated.
    FewerRules {
        /// Rules actually served.
        served: usize,
        /// Rules the cutoff wanted.
        wanted: usize,
    },
    /// No stage produced a single validated eigenpair; the paper's
    /// `k = 0` column-averages baseline serves.
    ColAvgs,
}

impl DegradationLevel {
    /// Numeric severity for the `degradation_level` gauge
    /// (0 full, 1 fewer rules, 2 col-avgs).
    pub fn severity(&self) -> u8 {
        match self {
            DegradationLevel::FullRules => 0,
            DegradationLevel::FewerRules { .. } => 1,
            DegradationLevel::ColAvgs => 2,
        }
    }
}

/// One ladder attempt: which stage, and how it fared.
#[derive(Debug, Clone)]
pub struct StageAttempt {
    /// Stage name.
    pub stage: &'static str,
    /// Eigenpairs that passed residual validation (of those wanted).
    pub validated: usize,
    /// Why the stage was insufficient (`None` when it served).
    pub failure: Option<String>,
}

/// What the degradation ladder did and why.
#[derive(Debug, Clone)]
pub struct DegradationReport {
    /// Level that ended up serving.
    pub level: DegradationLevel,
    /// Stage that served (`None` for the col-avgs floor).
    pub served_by: Option<&'static str>,
    /// Rules the cutoff wanted.
    pub wanted: usize,
    /// Every attempt, in ladder order.
    pub attempts: Vec<StageAttempt>,
}

impl DegradationReport {
    /// True when anything short of a full solve happened.
    pub fn degraded(&self) -> bool {
        self.level != DegradationLevel::FullRules
    }

    /// One-line human summary for CLI output.
    pub fn summary(&self) -> String {
        let tried: Vec<String> = self
            .attempts
            .iter()
            .map(|a| match &a.failure {
                Some(why) => format!("{} failed ({why})", a.stage),
                None => format!("{} served", a.stage),
            })
            .collect();
        let level = match &self.level {
            DegradationLevel::FullRules => "full rules".to_string(),
            DegradationLevel::FewerRules { served, wanted } => {
                format!("degraded: {served}/{wanted} rules")
            }
            DegradationLevel::ColAvgs => "degraded to col-avgs baseline".to_string(),
        };
        if tried.is_empty() {
            format!("{level} [no eigensolve stages in the ladder]")
        } else {
            format!("{level} [{}]", tried.join("; "))
        }
    }
}

/// What a [`ResilientMiner`] serves: the mined rules when any stage
/// validated, or the paper's `k = 0` column-averages baseline when the
/// whole ladder failed.
#[derive(Debug, Clone)]
pub enum ServedModel {
    /// Ratio Rules (possibly fewer than the cutoff wanted).
    Rules(RuleSet),
    /// The `k = 0` floor: per-column training means.
    ColAvgs(ColAvgs),
}

impl ServedModel {
    /// Rules served (0 for the col-avgs floor).
    pub fn k(&self) -> usize {
        match self {
            ServedModel::Rules(rs) => rs.k(),
            ServedModel::ColAvgs(_) => 0,
        }
    }

    /// The rule set, when one was served.
    pub fn rules(&self) -> Option<&RuleSet> {
        match self {
            ServedModel::Rules(rs) => Some(rs),
            ServedModel::ColAvgs(_) => None,
        }
    }

    /// A hole-filling predictor for whatever was served.
    pub fn into_predictor(self) -> Box<dyn Predictor> {
        match self {
            ServedModel::Rules(rs) => Box::new(crate::predictor::RuleSetPredictor::new(rs)),
            ServedModel::ColAvgs(ca) => Box::new(ca),
        }
    }
}

/// The best partial solve seen so far while walking the ladder: a stage
/// whose leading `validated` eigenpairs passed, though fewer than the
/// cutoff wanted.
struct PartialSolve {
    validated: usize,
    values: Vec<f64>,
    vectors: Vec<Vec<f64>>,
    spectrum: Vec<f64>,
    stage: &'static str,
}

/// Relative residual tolerance for accepting an eigenpair:
/// `‖Cv - λv‖_inf <= RESIDUAL_TOL * max(‖C‖_max, 1)`.
const RESIDUAL_TOL: f64 = 1e-6;

/// Miner that never aborts on eigensolve failure: it walks the
/// [`EigenStage`] ladder, validates every candidate pair by residual,
/// and degrades to fewer rules or the col-avgs baseline instead of
/// erroring. Scan-side resilience lives in [`Scanner`]; this type owns
/// the solve side.
pub struct ResilientMiner {
    cutoff: Cutoff,
    labels: Option<Vec<String>>,
    ladder: Vec<Box<dyn EigenStage>>,
}

impl std::fmt::Debug for ResilientMiner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientMiner")
            .field("cutoff", &self.cutoff)
            .field(
                "ladder",
                &self.ladder.iter().map(|s| s.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl ResilientMiner {
    /// Default ladder: Jacobi → tridiagonal QL → Lanczos.
    pub fn new(cutoff: Cutoff) -> Self {
        ResilientMiner {
            cutoff,
            labels: None,
            ladder: vec![
                Box::new(JacobiStage),
                Box::new(QlStage),
                Box::new(LanczosStage::default()),
            ],
        }
    }

    /// Replaces the ladder (tests inject failing stages here).
    pub fn with_ladder(mut self, ladder: Vec<Box<dyn EigenStage>>) -> Self {
        self.ladder = ladder;
        self
    }

    /// Attaches attribute labels.
    pub fn with_labels(mut self, labels: Vec<String>) -> Self {
        self.labels = Some(labels);
        self
    }

    /// Validated prefix length: how many leading `(λ, v)` pairs satisfy
    /// `‖Cv - λv‖_inf <= RESIDUAL_TOL * max(‖C‖_max, 1)` with finite values and
    /// nonzero `v`. Stops at the first failure — rules are a top-`k`
    /// prefix, so a gap invalidates everything after it.
    fn validated_prefix(
        &self,
        c: &Matrix,
        values: &[f64],
        vectors: &[Vec<f64>],
        want: usize,
    ) -> usize {
        let m = c.rows();
        let scale = c.max_abs().max(1.0) * RESIDUAL_TOL;
        let mut ok = 0usize;
        for (lambda, v) in values.iter().zip(vectors).take(want) {
            if !lambda.is_finite() || v.len() != m {
                break;
            }
            let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if !norm.is_finite() || norm < 1e-12 {
                break;
            }
            // ‖Cv - λv‖_inf, computed row by row.
            let mut worst = 0.0_f64;
            for i in 0..m {
                let mut cv = 0.0;
                for (j, vj) in v.iter().enumerate() {
                    cv += c[(i, j)] * vj;
                }
                worst = worst.max((cv - lambda * v[i]).abs());
            }
            if !worst.is_finite() || worst > scale * norm.max(1.0) {
                break;
            }
            ok += 1;
        }
        ok
    }

    /// Runs the ladder over a filled accumulator. Only truly unrecoverable
    /// conditions (an empty accumulator) return `Err`; everything else
    /// degrades and reports.
    ///
    /// # Errors
    ///
    /// [`RatioRuleError::EmptyInput`] if `acc` absorbed no rows;
    /// [`RatioRuleError::Invalid`] if the attribute labels are not
    /// `acc.n_cols()` long, once a stage's rules are assembled. A failing
    /// stage is reported in the [`DegradationReport`], not returned.
    pub fn finish(
        &self,
        acc: &CovarianceAccumulator,
    ) -> Result<(ServedModel, DegradationReport)> {
        let _span = obs::Span::enter("eigensolve_ladder");
        let (c, means, n) = acc.finalize()?;
        let labels = self
            .labels
            .clone()
            .unwrap_or_else(|| (0..acc.n_cols()).map(|j| format!("attr{j}")).collect());

        let mut attempts: Vec<StageAttempt> = Vec::new();
        let mut best: Option<PartialSolve> = None;
        let mut wanted_overall = 0usize;

        for stage in &self.ladder {
            let solved = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                stage.solve(&c)
            }))
            .unwrap_or_else(|p| Err(format!("stage panicked: {}", panic_message(p.as_ref()))));
            match solved {
                Err(why) => {
                    obs::counter_add("eigen_stage_failures_total", 1);
                    let panicked = u64::from(why.starts_with("stage panicked"));
                    obs::flight_event(
                        obs::names::EVENT_EIGEN_STAGE_FAILED,
                        attempts.len() as u64,
                        panicked,
                        0.0,
                    );
                    attempts.push(StageAttempt {
                        stage: stage.name(),
                        validated: 0,
                        failure: Some(why),
                    });
                }
                Ok((values, vectors)) => {
                    let spectrum = pad_spectrum(&c, &values);
                    let wanted = match self.cutoff.select(&spectrum) {
                        Ok(k) => k,
                        Err(e) => {
                            obs::counter_add("eigen_stage_failures_total", 1);
                            obs::flight_event(
                                obs::names::EVENT_EIGEN_STAGE_FAILED,
                                attempts.len() as u64,
                                0,
                                0.0,
                            );
                            attempts.push(StageAttempt {
                                stage: stage.name(),
                                validated: 0,
                                failure: Some(format!("cutoff rejected spectrum: {e}")),
                            });
                            continue;
                        }
                    };
                    wanted_overall = wanted_overall.max(wanted);
                    let usable = wanted.min(values.len()).min(vectors.len());
                    let validated = self.validated_prefix(&c, &values, &vectors, usable);
                    if validated >= wanted {
                        attempts.push(StageAttempt {
                            stage: stage.name(),
                            validated,
                            failure: None,
                        });
                        let rules =
                            build_rules(&values, &vectors, wanted, spectrum, means, labels, n)?;
                        let report = DegradationReport {
                            level: DegradationLevel::FullRules,
                            served_by: Some(stage.name()),
                            wanted,
                            attempts,
                        };
                        Self::publish(&report);
                        return Ok((ServedModel::Rules(rules), report));
                    }
                    obs::counter_add("eigen_stage_failures_total", 1);
                    obs::flight_event(
                        obs::names::EVENT_EIGEN_STAGE_FAILED,
                        attempts.len() as u64,
                        0,
                        0.0,
                    );
                    attempts.push(StageAttempt {
                        stage: stage.name(),
                        validated,
                        failure: Some(format!(
                            "only {validated} of {wanted} eigenpairs passed residual validation"
                        )),
                    });
                    let better = best.as_ref().is_none_or(|b| validated > b.validated);
                    if validated > 0 && better {
                        best = Some(PartialSolve {
                            validated,
                            values,
                            vectors,
                            spectrum,
                            stage: stage.name(),
                        });
                    }
                }
            }
        }

        // No stage satisfied the cutoff: serve the best partial, else
        // the col-avgs floor.
        if let Some(PartialSolve {
            validated: served,
            values,
            vectors,
            spectrum,
            stage,
        }) = best
        {
            let rules = build_rules(&values, &vectors, served, spectrum, means, labels, n)?;
            let report = DegradationReport {
                level: DegradationLevel::FewerRules {
                    served,
                    wanted: wanted_overall.max(served),
                },
                served_by: Some(stage),
                wanted: wanted_overall.max(served),
                attempts,
            };
            Self::publish(&report);
            return Ok((ServedModel::Rules(rules), report));
        }
        let report = DegradationReport {
            level: DegradationLevel::ColAvgs,
            served_by: None,
            wanted: wanted_overall,
            attempts,
        };
        Self::publish(&report);
        Ok((ServedModel::ColAvgs(ColAvgs::new(means)?), report))
    }

    fn publish(report: &DegradationReport) {
        obs::gauge_set("degradation_level", report.level.severity() as f64);
        let served = match report.level {
            DegradationLevel::FullRules => report.wanted,
            DegradationLevel::FewerRules { served, .. } => served,
            DegradationLevel::ColAvgs => 0,
        };
        obs::flight_event(
            obs::names::EVENT_DEGRADATION_SERVED,
            u64::from(report.level.severity()),
            0,
            served as f64,
        );
        if report.degraded() {
            obs::counter_add("degraded_results_total", 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covariance::tests::{assert_bits_eq, ScalarReference};
    use crate::miner::RatioRuleMiner;
    use dataset::columnar::ColumnarBlockSource;
    use dataset::fault::{FaultPlan, FaultyRowSource};
    use dataset::source::{CountingSource, CsvFileSource, MatrixSource};

    fn data(n: usize, m: usize) -> Matrix {
        Matrix::from_fn(n, m, |i, j| {
            let t = i as f64;
            t * (j as f64 + 1.0) + ((i * 7 + j * 3) % 11) as f64 * 0.01
        })
    }

    fn scan_matrix(x: &Matrix, policy: ScanPolicy) -> (CovarianceAccumulator, ScanReport) {
        let mut scanner = Scanner::new(x.cols(), policy);
        let mut src = MatrixSource::new(x);
        scanner.scan(&mut src).unwrap();
        scanner.into_parts()
    }

    #[test]
    fn strict_scan_matches_plain_accumulation() {
        let x = data(40, 3);
        let (acc, report) = scan_matrix(&x, ScanPolicy::Strict);
        assert_eq!(report.rows_absorbed, 40);
        assert_eq!(report.rows_quarantined, 0);
        let mut plain = CovarianceAccumulator::new(3);
        for row in x.row_iter() {
            plain.push_row(row).unwrap();
        }
        let (c1, m1, _) = acc.finalize().unwrap();
        let (c2, m2, _) = plain.finalize().unwrap();
        assert_eq!(m1, m2, "bit-identical means");
        assert_eq!(c1.max_abs_diff(&c2).unwrap(), 0.0, "bit-identical scatter");
    }

    #[test]
    fn strict_scan_fails_fast_on_faults() {
        let x = data(100, 3);
        let plan = FaultPlan {
            seed: 9,
            transient_rate: 0.0,
            corrupt_rate: 0.1,
            arity_rate: 0.0,
            truncate_after: None,
        };
        let mut src = FaultyRowSource::new(MatrixSource::new(&x), plan);
        let mut scanner = Scanner::new(3, ScanPolicy::Strict);
        let err = scanner.scan(&mut src).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    /// The tentpole equivalence: a quarantine scan over a faulty stream
    /// produces the exact accumulator of a clean scan over only the
    /// good rows.
    #[test]
    fn quarantine_equals_clean_subset_bitwise() {
        let x = data(250, 4);
        for (seed, rate) in [(1u64, 0.01), (2, 0.1), (3, 0.25)] {
            let plan = FaultPlan {
                seed,
                transient_rate: rate,
                corrupt_rate: rate,
                arity_rate: rate,
                truncate_after: None,
            };
            let mut faulty = FaultyRowSource::new(MatrixSource::new(&x), plan);
            let mut scanner = Scanner::new(4, ScanPolicy::quarantine_unlimited());
            scanner.scan(&mut faulty).unwrap();
            let (acc, report) = scanner.into_parts();

            // Reference: push exactly the plan's clean rows.
            let mut reference = CovarianceAccumulator::new(4);
            let mut clean = 0usize;
            for pos in 0..250 {
                if plan.row_is_clean(pos, 4) {
                    reference.push_row(x.row(pos)).unwrap();
                    clean += 1;
                }
            }
            assert_eq!(acc.n_rows(), clean, "seed {seed} rate {rate}");
            assert_eq!(report.rows_absorbed, clean);
            assert_eq!(report.rows_quarantined, 250 - clean);
            let (n1, s1, r1) = acc.parts();
            let (n2, s2, r2) = reference.parts();
            assert_eq!(n1, n2);
            assert_eq!(s1, s2, "column sums must be bit-identical");
            assert_eq!(r1, r2, "moment matrix must be bit-identical");
            // Transients were ridden out, not quarantined.
            let injected = faulty.log();
            assert_eq!(report.transient_retries, injected.transient);
            assert_eq!(report.by_reason.0, injected.corrupt);
            assert_eq!(report.by_reason.1, injected.arity);
        }
    }

    #[test]
    fn max_bad_rows_budget_aborts_with_distinct_error() {
        let x = data(200, 3);
        let plan = FaultPlan {
            seed: 4,
            transient_rate: 0.0,
            corrupt_rate: 0.2,
            arity_rate: 0.0,
            truncate_after: None,
        };
        let mut src = FaultyRowSource::new(MatrixSource::new(&x), plan);
        let mut scanner = Scanner::new(
            3,
            ScanPolicy::Quarantine {
                max_bad_rows: Some(3),
                max_bad_fraction: None,
            },
        );
        let err = scanner.scan(&mut src).unwrap_err();
        match err {
            RatioRuleError::BudgetExhausted {
                quarantined, limit, ..
            } => {
                assert_eq!(quarantined, 4, "aborts on the first row over budget");
                assert!(limit.contains("max_bad_rows"));
            }
            other => panic!("expected BudgetExhausted, got {other}"),
        }
    }

    #[test]
    fn max_bad_fraction_budget_checked_at_end() {
        let x = data(100, 3);
        let plan = FaultPlan {
            seed: 4,
            transient_rate: 0.0,
            corrupt_rate: 0.2,
            arity_rate: 0.0,
            truncate_after: None,
        };
        // Generous fraction: passes.
        let mut src = FaultyRowSource::new(MatrixSource::new(&x), plan);
        let mut scanner = Scanner::new(
            3,
            ScanPolicy::Quarantine {
                max_bad_rows: None,
                max_bad_fraction: Some(0.9),
            },
        );
        scanner.scan(&mut src).unwrap();
        let quarantined = scanner.report().rows_quarantined;
        assert!(quarantined > 0);
        // Tight fraction: the same stream trips the budget.
        let mut src = FaultyRowSource::new(MatrixSource::new(&x), plan);
        let mut scanner = Scanner::new(
            3,
            ScanPolicy::Quarantine {
                max_bad_rows: None,
                max_bad_fraction: Some(0.01),
            },
        );
        let err = scanner.scan(&mut src).unwrap_err();
        assert!(matches!(err, RatioRuleError::BudgetExhausted { .. }));
    }

    #[test]
    fn checkpoint_json_roundtrips_exactly() {
        let x = data(37, 5);
        let (acc, _) = scan_matrix(&x, ScanPolicy::Strict);
        let report = ScanReport {
            rows_quarantined: 3,
            by_reason: (2, 1, 0),
            ..ScanReport::default()
        };
        let cp = ScanCheckpoint::capture(&acc, 40, &report);
        let text = cp.to_json();
        let back = ScanCheckpoint::from_json(&text).unwrap();
        assert_eq!(cp, back, "exact f64 round-trip through JSON");
        let acc2 = back.accumulator().unwrap();
        let (n1, s1, r1) = acc.parts();
        let (n2, s2, r2) = acc2.parts();
        assert_eq!(n1, n2);
        assert_eq!(s1, s2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn checkpoint_rejects_corrupt_documents() {
        assert!(ScanCheckpoint::from_json("not json").is_err());
        assert!(ScanCheckpoint::from_json("{}").is_err());
        // Wrong moment-vector length.
        let bad = r#"{"version":1,"m":3,"n":2,"rows_consumed":2,
            "rows_quarantined":0,"quarantined_corrupt":0,
            "quarantined_arity":0,"quarantined_source":0,
            "col_sums":[1,2,3],"raw_upper":[1,2]}"#;
        assert!(ScanCheckpoint::from_json(bad).is_err());
    }

    /// Counts must be exact non-negative integers: `as usize` used to
    /// resume a `"rows_consumed": 2.5` checkpoint at row 2.
    #[test]
    fn checkpoint_rejects_inexact_counts() {
        let x = data(4, 3);
        let (acc, _) = scan_matrix(&x, ScanPolicy::Strict);
        let good = ScanCheckpoint::capture(&acc, 4, &ScanReport::default()).to_json();
        assert!(ScanCheckpoint::from_json(&good).is_ok());
        for (field, bad) in [
            ("rows_consumed", "2.5"),
            ("rows_consumed", "-4"),
            ("n", "-1"),
            ("version", "1.9"),
            ("m", "3.000001"),
            ("quarantined_arity", "1e300"),
        ] {
            let doc = obs::json::parse(&good).unwrap();
            let JsonValue::Obj(mut members) = doc else {
                panic!("checkpoint is an object");
            };
            for (k, v) in &mut members {
                if k == field {
                    *v = obs::json::parse(bad).unwrap();
                }
            }
            let text = JsonValue::Obj(members).write(false);
            let err = ScanCheckpoint::from_json(&text).unwrap_err();
            assert!(err.to_string().contains(field), "{field} = {bad}: {err}");
        }
    }

    /// The tentpole resume property: checkpoint at any row + resume over
    /// the same stream == one uninterrupted scan, bit for bit.
    #[test]
    fn checkpoint_resume_equals_uninterrupted() {
        let x = data(120, 4);
        let plan = FaultPlan {
            seed: 21,
            transient_rate: 0.05,
            corrupt_rate: 0.05,
            arity_rate: 0.05,
            truncate_after: None,
        };
        // Uninterrupted quarantine scan.
        let mut whole = Scanner::new(4, ScanPolicy::quarantine_unlimited());
        whole
            .scan(&mut FaultyRowSource::new(MatrixSource::new(&x), plan))
            .unwrap();
        let (acc_whole, rep_whole) = whole.into_parts();

        for stop_after in [1usize, 13, 57, 119] {
            // First scan, truncated by an injected crash.
            let crash_plan = FaultPlan {
                truncate_after: Some(stop_after),
                ..plan
            };
            let mut first = Scanner::new(4, ScanPolicy::quarantine_unlimited());
            first
                .scan(&mut FaultyRowSource::new(MatrixSource::new(&x), crash_plan))
                .unwrap();
            let cp = ScanCheckpoint::from_json(&first.checkpoint().to_json()).unwrap();
            assert!(cp.rows_consumed <= stop_after + 1);

            // Resume over a fresh faulty stream (transients re-armed:
            // a new process would see them again; they must not shift
            // the cursor).
            let mut resumed = Scanner::resume(&cp, ScanPolicy::quarantine_unlimited()).unwrap();
            resumed
                .scan(&mut FaultyRowSource::new(MatrixSource::new(&x), plan))
                .unwrap();
            let (acc_res, rep_res) = resumed.into_parts();

            let (n1, s1, r1) = acc_whole.parts();
            let (n2, s2, r2) = acc_res.parts();
            assert_eq!(n1, n2, "stop_after {stop_after}");
            assert_eq!(s1, s2, "stop_after {stop_after}: column sums");
            assert_eq!(r1, r2, "stop_after {stop_after}: moments");
            assert_eq!(rep_whole.rows_quarantined, rep_res.rows_quarantined);
            assert_eq!(rep_res.resumed_from, cp.rows_consumed);
        }
    }

    #[test]
    fn resume_past_end_of_stream_is_an_error() {
        let x = data(10, 3);
        let (acc, _) = scan_matrix(&x, ScanPolicy::Strict);
        let cp = ScanCheckpoint::capture(&acc, 99, &ScanReport::default());
        let mut scanner = Scanner::resume(&cp, ScanPolicy::Strict).unwrap();
        let err = scanner.scan(&mut MatrixSource::new(&x)).unwrap_err();
        assert!(err.to_string().contains("cannot resume"), "{err}");
    }

    /// Seeded rows in [-1, 1): sums of their products depend on the
    /// order they are added in, so any reordering changes the bits.
    fn random_rows(n: usize, m: usize, seed: u64) -> Matrix {
        let mut s = seed;
        Matrix::from_fn(n, m, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        })
    }

    /// `push_row` over the given rows of `x`, one at a time.
    fn pushed(x: &Matrix, rows: impl IntoIterator<Item = usize>) -> CovarianceAccumulator {
        let mut acc = CovarianceAccumulator::new(x.cols());
        for r in rows {
            acc.push_row(x.row(r)).unwrap();
        }
        acc
    }

    fn assert_same_acc(a: &CovarianceAccumulator, b: &CovarianceAccumulator, what: &str) {
        let (n1, s1, r1) = a.parts();
        let (n2, s2, r2) = b.parts();
        assert_eq!(n1, n2, "{what}: rows");
        assert_bits_eq(&s1, &s2, &format!("{what}: column sums"));
        assert_bits_eq(&r1, &r2, &format!("{what}: moments"));
    }

    /// Reads its inner source row by row only: `lend_rows` keeps its
    /// default, so a scan over it stages rows into panels for the fold
    /// thread even when the inner source could lend them.
    struct RowByRow<S>(S);

    impl<S: RowSource> RowSource for RowByRow<S> {
        fn n_cols(&self) -> usize {
            self.0.n_cols()
        }
        fn next_row(&mut self, buf: &mut [f64]) -> dataset::Result<bool> {
            self.0.next_row(buf)
        }
        fn rewind(&mut self) -> dataset::Result<()> {
            self.0.rewind()
        }
    }

    /// The pipelined scan — inline below one panel, on the fold thread
    /// from the first full panel — and the lent scan, which folds in
    /// place, each equal the scalar per-row walk bit for bit, at N on
    /// both sides of the panel boundaries.
    #[test]
    fn scan_equals_scalar_walk_bitwise_across_panel_boundaries() {
        let m = 11;
        for n in [0usize, 1, 63, 64, 65, 129, 1000] {
            let x = random_rows(n, m, n as u64 + 1);
            let mut scalar = ScalarReference::new(m);
            for row in x.row_iter() {
                scalar.push_row(row);
            }
            for policy in [ScanPolicy::Strict, ScanPolicy::quarantine_unlimited()] {
                for lent in [true, false] {
                    let mut scanner = Scanner::new(m, policy);
                    if lent {
                        scanner.scan(&mut MatrixSource::new(&x)).unwrap();
                    } else {
                        scanner.scan(&mut RowByRow(MatrixSource::new(&x))).unwrap();
                    }
                    let (acc, report) = scanner.into_parts();
                    let what = format!("N = {n}, lent {lent}");
                    assert_eq!(report.rows_absorbed, n, "{what}");
                    let (an, sums, upper) = acc.parts();
                    assert_eq!(an, scalar.n, "{what}");
                    assert_bits_eq(&sums, &scalar.col_sums, &format!("{what}: column sums"));
                    assert_bits_eq(&upper, &scalar.raw_upper, &format!("{what}: moments"));
                }
            }
        }
    }

    /// Scans `x` from two clones of `scanner`: through `MatrixSource`,
    /// which lends its rows, and row by row. The outcome or its error
    /// text, the accumulator's bits, the report (quarantine details and
    /// their error texts included) and the checkpoint must all be
    /// identical. Returns the lent scanner.
    fn assert_lent_scans_like_row_by_row(scanner: &Scanner, x: &Matrix, what: &str) -> Scanner {
        let outcome = |r: Result<&ScanReport>| r.map(|r| format!("{r:?}")).map_err(|e| e.to_string());
        let mut lent = scanner.clone();
        let mut rows = scanner.clone();
        let a = outcome(lent.scan(&mut MatrixSource::new(x)));
        let b = outcome(rows.scan(&mut RowByRow(MatrixSource::new(x))));
        assert_eq!(a, b, "{what}: outcome");
        assert_same_acc(lent.accumulator(), rows.accumulator(), what);
        let report = |s: &Scanner| format!("{:?}", s.report());
        assert_eq!(report(&lent), report(&rows), "{what}: report");
        let checkpoint = |s: &Scanner| s.checkpoint().to_json();
        assert_eq!(checkpoint(&lent), checkpoint(&rows), "{what}: checkpoint");
        lent
    }

    /// A scan over a source that lends its rows (folded in place, no
    /// fold thread) is indistinguishable from one that reads the same
    /// rows one by one: clean and with NaN rows at and around panel
    /// boundaries, under every policy, from a start row, up to consumed
    /// limits that fall inside a 64-row run, past the end of the stream,
    /// and resumed from each scan's checkpoint.
    #[test]
    fn lent_rows_scan_like_rows_read_one_by_one() {
        let (n, m) = (300usize, 7usize);
        let clean = random_rows(n, m, 11);
        let mut faulty = random_rows(n, m, 12);
        for r in [0usize, 5, 63, 64, 65, 127, 128, 200, 299] {
            faulty.data_mut()[r * m + r % m] = f64::NAN;
        }
        let policies = [
            ScanPolicy::Strict,
            ScanPolicy::quarantine_unlimited(),
            ScanPolicy::Quarantine {
                max_bad_rows: Some(3),
                max_bad_fraction: None,
            },
            ScanPolicy::Quarantine {
                max_bad_rows: None,
                max_bad_fraction: Some(0.01),
            },
        ];
        for (x, data) in [(&clean, "clean"), (&faulty, "NaN rows")] {
            for policy in policies {
                let fresh = || Scanner::new(m, policy);
                let scanners = [
                    ("whole stream", fresh()),
                    ("from row 10", fresh().with_start_row(10)),
                    ("rows 10..100", fresh().with_start_row(10).with_consumed_limit(100)),
                    ("rows 66..130", fresh().with_start_row(66).with_consumed_limit(130)),
                    ("up to row 64", fresh().with_consumed_limit(64)),
                    ("up to row 1", fresh().with_consumed_limit(1)),
                    ("from past the end", fresh().with_start_row(n + 1)),
                ];
                for (range, scanner) in scanners {
                    let what = format!("{data}, {policy:?}, {range}");
                    let done = assert_lent_scans_like_row_by_row(&scanner, x, &what);
                    let resumed = Scanner::resume(&done.checkpoint(), policy).unwrap();
                    assert_lent_scans_like_row_by_row(&resumed, x, &format!("{what}, resumed"));
                }
            }
        }
    }

    /// Seeded CSV text of `n` data lines of width `m` under a header, in
    /// `{:.4}` cells. With `faulty`, about one line in four is bad or
    /// blank: a NaN token, a short or a long row, a bad token, a line that
    /// is not UTF-8, or a whitespace-only line.
    fn seeded_csv(n: usize, m: usize, seed: u64, faulty: bool) -> Vec<u8> {
        let mut rng = dataset::rng::SplitMix64::seed_from_u64(seed);
        let header: Vec<String> = (0..m).map(|j| format!("c{j}")).collect();
        let mut text = header.join(",").into_bytes();
        for _ in 0..n {
            let mut cells: Vec<String> = (0..m)
                .map(|_| format!("{:.4}", (rng.next_f64() - 0.5) * 200.0))
                .collect();
            let kind = if faulty { rng.usize_in(0..24) } else { 99 };
            match kind {
                0 => cells[m / 2] = "nan".into(),
                1 => drop(cells.pop()),
                2 => cells.push("1".into()),
                3 => cells[0] = "x".into(),
                4 => cells.clear(),
                _ => {}
            }
            text.push(b'\n');
            match kind {
                4 => text.extend_from_slice(b" \t "),
                5 => text.push(0xff),
                _ => {}
            }
            text.extend_from_slice(cells.join(",").as_bytes());
        }
        text.push(b'\n');
        text
    }

    /// What a scan leaves behind: its outcome or error text, its report,
    /// and its checkpoint, which holds the accumulator's bits exactly.
    fn left_behind(
        scanner: &mut Scanner,
        scan: impl FnOnce(&mut Scanner) -> Result<&ScanReport>,
    ) -> [String; 3] {
        let outcome = match scan(scanner) {
            Ok(report) => format!("ok {report:?}"),
            Err(e) => format!("error {e}"),
        };
        let report = format!("{:?}", scanner.report());
        [outcome, report, scanner.checkpoint().to_json()]
    }

    /// A CSV scanned as text — taken in chunks, parsed by both workers and
    /// absorbed in stream order — leaves exactly what a scan of the same
    /// file read row by row leaves: the same outcome and error text, with
    /// absolute line numbers, accumulator bits, report and checkpoint.
    /// Clean and with bad and blank lines, under every policy, from a
    /// start row and up to consumed limits inside a chunk, at chunk sizes
    /// from one line per chunk to one chunk per file, and resumed from
    /// each scan's checkpoint. Each multi-chunk scan runs 20 times, so the
    /// workers take their turns in both orders.
    #[test]
    fn csv_text_scan_like_rows_read_one_by_one() {
        let dir = workdir();
        let (n, m) = (300usize, 5usize);
        let policies = [
            ScanPolicy::Strict,
            ScanPolicy::quarantine_unlimited(),
            ScanPolicy::Quarantine {
                max_bad_rows: Some(3),
                max_bad_fraction: None,
            },
            ScanPolicy::Quarantine {
                max_bad_rows: None,
                max_bad_fraction: Some(0.01),
            },
        ];
        for (name, faulty) in [("clean.csv", false), ("faulty.csv", true)] {
            let path = dir.join(name);
            std::fs::write(&path, seeded_csv(n, m, 31, faulty)).unwrap();
            let open = || CsvFileSource::open(&path, true).unwrap();
            for policy in policies {
                let fresh = || Scanner::new(m, policy);
                let scanners = [
                    ("whole stream", fresh()),
                    (
                        "rows 10..100",
                        fresh().with_start_row(10).with_consumed_limit(100),
                    ),
                    (
                        "rows 66..130",
                        fresh().with_start_row(66).with_consumed_limit(130),
                    ),
                    ("up to row 64", fresh().with_consumed_limit(64)),
                    ("from row 150", fresh().with_start_row(150)),
                ];
                for (range, scanner) in scanners {
                    let what = format!("{name}, {policy:?}, {range}");
                    let mut rows = scanner.clone();
                    let want = left_behind(&mut rows, |s| s.scan(&mut RowByRow(open())));
                    let resumed = Scanner::resume(&rows.checkpoint(), policy).unwrap();
                    let mut rows = resumed.clone();
                    let want_resumed = left_behind(&mut rows, |s| s.scan(&mut RowByRow(open())));
                    for (chunk, reps) in [(1usize, 20), (200, 20), (4096, 20), (1 << 20, 1)] {
                        for rep in 0..reps {
                            let what = format!("{what}, {chunk}-byte chunks, run {rep}");
                            let mut text = scanner.clone();
                            let got =
                                left_behind(&mut text, |s| s.scan_in_chunks(&mut open(), chunk));
                            assert_eq!(got, want, "{what}");
                            let mut text = Scanner::resume(&text.checkpoint(), policy).unwrap();
                            let got =
                                left_behind(&mut text, |s| s.scan_in_chunks(&mut open(), chunk));
                            assert_eq!(got, want_resumed, "{what}, resumed");
                        }
                    }
                }
            }
        }
    }

    /// A source read row by row is read up to the consumed limit and up to
    /// the error that aborts a strict scan, not past them.
    #[test]
    fn row_sources_are_not_read_past_the_limit_or_a_strict_abort() {
        let x = random_rows(300, 4, 3);
        let mut src = CountingSource::new(RowByRow(MatrixSource::new(&x)));
        let mut shard = Scanner::new(4, ScanPolicy::Strict)
            .with_start_row(10)
            .with_consumed_limit(100);
        assert_eq!(shard.scan(&mut src).unwrap().rows_absorbed, 90);
        assert_eq!(src.rows_delivered, 100);

        let plan = FaultPlan {
            seed: 5,
            transient_rate: 0.0,
            corrupt_rate: 0.0,
            arity_rate: 0.02,
            truncate_after: None,
        };
        let first_bad = (0..300).find(|&p| plan.arity_at(p)).unwrap();
        let faulty = FaultyRowSource::new(MatrixSource::new(&x), plan);
        let mut src = CountingSource::new(faulty);
        let err = Scanner::new(4, ScanPolicy::Strict)
            .scan(&mut src)
            .unwrap_err();
        assert!(err.to_string().contains("expected 4 fields"), "{err}");
        assert_eq!(src.rows_delivered, first_bad);
    }

    /// Hands out its inner source's CSV text, recording which threads take
    /// it. With `panic_off_caller`, a thread other than the one that built
    /// it panics instead, and the first text goes out with a million
    /// blank lines after it, so the calling thread is still parsing them
    /// when the helper takes the next batch.
    struct Takers<S> {
        inner: S,
        caller: thread::ThreadId,
        threads: Vec<thread::ThreadId>,
        panic_off_caller: bool,
    }

    impl<S: RowSource> Takers<S> {
        fn new(inner: S, panic_off_caller: bool) -> Self {
            Takers {
                inner,
                caller: thread::current().id(),
                threads: Vec::new(),
                panic_off_caller,
            }
        }
    }

    impl<S: RowSource> RowSource for Takers<S> {
        fn n_cols(&self) -> usize {
            self.inner.n_cols()
        }
        fn next_row(&mut self, buf: &mut [f64]) -> dataset::Result<bool> {
            self.inner.next_row(buf)
        }
        fn rewind(&mut self) -> dataset::Result<()> {
            self.inner.rewind()
        }
        fn read_text(
            &mut self,
            text: &mut Vec<u8>,
            min_bytes: usize,
        ) -> Option<dataset::Result<usize>> {
            let me = thread::current().id();
            assert!(
                !self.panic_off_caller || me == self.caller,
                "injected helper failure"
            );
            self.threads.push(me);
            let first_line = self.inner.read_text(text, min_bytes);
            if self.panic_off_caller && self.threads.len() == 1 {
                text.resize(text.len() + 1_000_000, b'\n');
            }
            first_line
        }
    }

    /// A CSV shorter than one chunk is scanned by the calling thread
    /// alone, in one take: no helper is started.
    #[test]
    fn a_file_of_one_chunk_starts_no_helper() {
        let dir = workdir();
        let path = dir.join("small.csv");
        std::fs::write(&path, seeded_csv(50, 4, 5, false)).unwrap();
        let mut src = Takers::new(CsvFileSource::open(&path, true).unwrap(), false);
        let mut scanner = Scanner::new(4, ScanPolicy::Strict);
        assert_eq!(scanner.scan(&mut src).unwrap().rows_absorbed, 50);
        assert_eq!(src.threads, [thread::current().id()]);
    }

    /// A panic on the helper ends the scan with `Invalid` naming it, not a
    /// hang or a panic on the calling thread, and loses the accumulator.
    #[test]
    fn a_helper_panic_comes_back_as_invalid() {
        let dir = workdir();
        let path = dir.join("many_chunks.csv");
        std::fs::write(&path, seeded_csv(2000, 4, 6, false)).unwrap();
        let mut src = Takers::new(CsvFileSource::open(&path, true).unwrap(), true);
        let mut scanner = Scanner::new(4, ScanPolicy::Strict);
        let err = scanner.scan_in_chunks(&mut src, 16).unwrap_err();
        assert!(
            matches!(&err, RatioRuleError::Invalid(msg)
                if msg.contains("scan worker thread panicked: injected helper failure")),
            "{err}"
        );
        assert_eq!(scanner.accumulator().n_cols(), 0);
    }

    /// After a quarantined row splits a lent run, the scan asks for just
    /// the rows that complete the accumulator's staged panel, so the runs
    /// after it are lent panel-aligned and fold straight from the slice.
    #[test]
    fn lent_runs_realign_with_the_panel_after_a_quarantined_row() {
        /// Records every `lend_rows` ask.
        struct Asks<'a> {
            inner: MatrixSource<'a>,
            asked: Vec<usize>,
        }
        impl RowSource for Asks<'_> {
            fn n_cols(&self) -> usize {
                self.inner.n_cols()
            }
            fn next_row(&mut self, buf: &mut [f64]) -> dataset::Result<bool> {
                self.inner.next_row(buf)
            }
            fn rewind(&mut self) -> dataset::Result<()> {
                self.inner.rewind()
            }
            fn lend_rows(&mut self, max_rows: usize) -> Option<&[f64]> {
                self.asked.push(max_rows);
                self.inner.lend_rows(max_rows)
            }
        }
        let mut x = random_rows(200, 3, 9);
        x.data_mut()[5 * 3] = f64::NAN;
        let mut src = Asks {
            inner: MatrixSource::new(&x),
            asked: Vec::new(),
        };
        let mut scanner = Scanner::new(3, ScanPolicy::quarantine_unlimited());
        scanner.scan(&mut src).unwrap();
        // The probe, rows 0..64 (row 5 quarantined, 63 rows staged), the one
        // row that fills the panel, two aligned panels, the last 7 rows,
        // and the end of the stream.
        assert_eq!(src.asked, [0, 64, 1, 64, 64, 64, 57]);
        assert_same_acc(
            scanner.accumulator(),
            &pushed(&x, (0..200).filter(|&r| r != 5)),
            "realigned lent scan",
        );
    }

    /// A scan that stops on a bad row — a strict abort, or the row that
    /// exhausts a `max_bad_rows` budget — at the last row of a panel, the
    /// first of the next, or further in, leaves exactly the absorbed rows
    /// in the accumulator (the fold thread is drained and the staged
    /// partial panel absorbed), and its checkpoint resumes to the
    /// uninterrupted scan.
    #[test]
    fn aborted_scan_holds_exactly_the_absorbed_rows_and_resumes() {
        let (n, m) = (200usize, 6usize);
        let budget = ScanPolicy::Quarantine {
            max_bad_rows: Some(1),
            max_bad_fraction: None,
        };
        for stop in [63usize, 64, 65, 130] {
            // Strict stops at the only bad row; the budget of one bad
            // row stops at the second.
            for (policy, bad) in [(ScanPolicy::Strict, vec![stop]), (budget, vec![10, stop])] {
                let what = format!("stop {stop}, {policy:?}");
                let mut x = random_rows(n, m, stop as u64);
                for &r in &bad {
                    x.data_mut()[r * m + r % m] = f64::NAN;
                }
                let mut first = Scanner::new(m, policy);
                let err = first.scan(&mut RowByRow(MatrixSource::new(&x))).unwrap_err();
                if policy == ScanPolicy::Strict {
                    assert!(err.to_string().contains("non-finite"), "{what}: {err}");
                } else {
                    assert!(
                        matches!(err, RatioRuleError::BudgetExhausted { .. }),
                        "{what}: {err}"
                    );
                }
                let absorbed = (0..stop).filter(|r| !bad.contains(r));
                assert_same_acc(first.accumulator(), &pushed(&x, absorbed), &what);
                let cp = ScanCheckpoint::from_json(&first.checkpoint().to_json()).unwrap();
                assert_eq!(cp.rows_consumed, stop + 1, "{what}");
                let mut resumed = Scanner::resume(&cp, ScanPolicy::quarantine_unlimited()).unwrap();
                resumed.scan(&mut MatrixSource::new(&x)).unwrap();
                let mut whole = Scanner::new(m, ScanPolicy::quarantine_unlimited());
                whole.scan(&mut MatrixSource::new(&x)).unwrap();
                assert_same_acc(resumed.accumulator(), whole.accumulator(), &what);
                assert_same_acc(
                    whole.accumulator(),
                    &pushed(&x, (0..n).filter(|r| !bad.contains(r))),
                    &what,
                );
            }
        }
    }

    /// `with_consumed_limit` stops mid-panel with the staged rows
    /// absorbed, and the shard's checkpoint resumes to the end.
    #[test]
    fn consumed_limit_stops_mid_panel() {
        let (n, m) = (200usize, 5usize);
        let x = random_rows(n, m, 7);
        for limit in [30usize, 100, 138] {
            let mut shard = Scanner::new(m, ScanPolicy::Strict)
                .with_start_row(10)
                .with_consumed_limit(limit);
            let report = shard.scan(&mut MatrixSource::new(&x)).unwrap().clone();
            assert_eq!(report.rows_absorbed, limit - 10);
            assert_same_acc(
                shard.accumulator(),
                &pushed(&x, 10..limit),
                &format!("limit {limit}"),
            );
            let cp = shard.checkpoint();
            assert_eq!(cp.rows_consumed, limit);
            let mut rest = Scanner::resume(&cp, ScanPolicy::Strict).unwrap();
            rest.scan(&mut MatrixSource::new(&x)).unwrap();
            assert_same_acc(
                rest.accumulator(),
                &pushed(&x, 10..n),
                &format!("limit {limit} resumed"),
            );
        }
    }

    #[test]
    fn wedged_source_is_cut_off() {
        /// Fails transiently forever without ever yielding a row — the
        /// pathological case the consecutive-error cap exists for.
        struct WedgedSrc;
        impl dataset::source::RowSource for WedgedSrc {
            fn n_cols(&self) -> usize {
                2
            }
            fn next_row(&mut self, _buf: &mut [f64]) -> dataset::Result<bool> {
                Err(dataset::DatasetError::Transient("stuck".into()))
            }
            fn rewind(&mut self) -> dataset::Result<()> {
                Ok(())
            }
        }
        let mut scanner = Scanner::new(2, ScanPolicy::quarantine_unlimited());
        let err = scanner.scan(&mut WedgedSrc).unwrap_err();
        assert!(err.to_string().contains("without yielding a row"), "{err}");
    }

    // ------------------------------------------------------------------
    // Ladder tests
    // ------------------------------------------------------------------

    /// A stage that always fails (for ladder tests).
    struct FailStage;
    impl EigenStage for FailStage {
        fn name(&self) -> &'static str {
            "always_fail"
        }
        fn solve(&self, _c: &Matrix) -> std::result::Result<(Vec<f64>, Vec<Vec<f64>>), String> {
            Err("injected failure".into())
        }
    }

    /// A stage that panics (proving panic isolation in the ladder).
    struct PanicStage;
    impl EigenStage for PanicStage {
        fn name(&self) -> &'static str {
            "panics"
        }
        fn solve(&self, _c: &Matrix) -> std::result::Result<(Vec<f64>, Vec<Vec<f64>>), String> {
            panic!("solver exploded");
        }
    }

    /// A stage returning garbage eigenpairs that cannot pass validation.
    struct GarbageStage;
    impl EigenStage for GarbageStage {
        fn name(&self) -> &'static str {
            "garbage"
        }
        fn solve(&self, c: &Matrix) -> std::result::Result<(Vec<f64>, Vec<Vec<f64>>), String> {
            let m = c.rows();
            Ok((vec![1.0; m], vec![vec![1.0; m]; m]))
        }
    }

    fn filled_acc(x: &Matrix) -> CovarianceAccumulator {
        let mut acc = CovarianceAccumulator::new(x.cols());
        for row in x.row_iter() {
            acc.push_row(row).unwrap();
        }
        acc
    }

    #[test]
    fn healthy_ladder_matches_plain_miner() {
        let x = data(80, 4);
        let acc = filled_acc(&x);
        let (model, report) = ResilientMiner::new(Cutoff::FixedK(2))
            .finish(&acc)
            .unwrap();
        assert_eq!(report.level, DegradationLevel::FullRules);
        assert_eq!(report.served_by, Some("jacobi"));
        assert!(!report.degraded());
        let rules = model.rules().unwrap();
        let plain = RatioRuleMiner::new(Cutoff::FixedK(2)).finish(&acc).unwrap();
        assert_eq!(rules.k(), plain.k());
        for (a, b) in rules.rules().iter().zip(plain.rules()) {
            assert!((a.eigenvalue - b.eigenvalue).abs() < 1e-8 * a.eigenvalue.max(1.0));
            for (p, q) in a.loadings.iter().zip(&b.loadings) {
                assert!((p - q).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn ladder_falls_through_failing_and_panicking_stages() {
        let x = data(60, 3);
        let acc = filled_acc(&x);
        let (model, report) = ResilientMiner::new(Cutoff::FixedK(1))
            .with_ladder(vec![
                Box::new(FailStage),
                Box::new(PanicStage),
                Box::new(QlStage),
            ])
            .finish(&acc)
            .unwrap();
        assert_eq!(report.level, DegradationLevel::FullRules);
        assert_eq!(report.served_by, Some("tridiagonal_ql"));
        assert_eq!(report.attempts.len(), 3);
        assert!(report.attempts[0].failure.as_deref() == Some("injected failure"));
        assert!(report.attempts[1]
            .failure
            .as_deref()
            .unwrap()
            .contains("solver exploded"));
        assert!(model.rules().is_some());
    }

    #[test]
    fn total_ladder_failure_degrades_to_col_avgs() {
        let x = data(60, 3);
        let acc = filled_acc(&x);
        let (model, report) = ResilientMiner::new(Cutoff::FixedK(2))
            .with_ladder(vec![Box::new(FailStage), Box::new(GarbageStage)])
            .finish(&acc)
            .unwrap();
        assert_eq!(report.level, DegradationLevel::ColAvgs);
        assert_eq!(report.level.severity(), 2);
        assert!(report.served_by.is_none());
        assert!(report.degraded());
        assert_eq!(model.k(), 0);
        // The floor serves the exact training means — the paper's k = 0
        // baseline.
        let means = acc.column_means();
        match &model {
            ServedModel::ColAvgs(ca) => assert_eq!(ca.means(), &means[..]),
            other => panic!("expected col-avgs, got {other:?}"),
        }
        // And it still predicts.
        let p = model.into_predictor();
        let filled = p
            .fill(&dataset::holes::HoledRow::new(vec![None, Some(1.0), None]))
            .unwrap();
        assert_eq!(filled[0], means[0]);
        assert_eq!(filled[2], means[2]);
        // Every attempt is on record.
        assert!(report.summary().contains("col-avgs"));
        assert!(report.summary().contains("always_fail"));
    }

    #[test]
    fn partial_validation_serves_fewer_rules() {
        // A stage that returns the true top-1 pair plus garbage for the
        // rest: validation keeps the good prefix only.
        struct Top1Stage;
        impl EigenStage for Top1Stage {
            fn name(&self) -> &'static str {
                "top1"
            }
            fn solve(
                &self,
                c: &Matrix,
            ) -> std::result::Result<(Vec<f64>, Vec<Vec<f64>>), String> {
                let eig = linalg::eigen::SymmetricEigen::new(c).map_err(|e| e.to_string())?;
                let m = c.rows();
                let mut values = vec![eig.eigenvalues[0]];
                let mut vectors = vec![eig.eigenvector(0)];
                for _ in 1..m {
                    values.push(f64::NAN);
                    vectors.push(vec![0.0; m]);
                }
                Ok((values, vectors))
            }
        }
        let x = data(60, 3);
        let acc = filled_acc(&x);
        let (model, report) = ResilientMiner::new(Cutoff::FixedK(3))
            .with_ladder(vec![Box::new(Top1Stage)])
            .finish(&acc)
            .unwrap();
        match report.level {
            DegradationLevel::FewerRules { served, wanted } => {
                assert_eq!(served, 1);
                assert_eq!(wanted, 3);
            }
            ref other => panic!("expected FewerRules, got {other:?}"),
        }
        assert_eq!(model.k(), 1);
        assert!(report.summary().contains("1/3"));
    }

    #[test]
    fn empty_accumulator_is_still_an_error() {
        let acc = CovarianceAccumulator::new(3);
        assert!(ResilientMiner::new(Cutoff::default()).finish(&acc).is_err());
    }

    /// Quarantine scan, then the degradation ladder: the resilient
    /// pipeline `mine --max-bad-rows --degrade` runs.
    fn quarantine_then_ladder<S: RowSource + Send>(
        source: &mut S,
        labels: Vec<String>,
    ) -> (ServedModel, ScanReport, DegradationReport) {
        let mut scanner = Scanner::new(source.n_cols(), ScanPolicy::quarantine_unlimited());
        scanner.scan(source).unwrap();
        let (acc, scan_report) = scanner.into_parts();
        let (model, degradation) = ResilientMiner::new(Cutoff::default())
            .with_labels(labels)
            .finish(&acc)
            .unwrap();
        (model, scan_report, degradation)
    }

    #[test]
    fn resilient_pipeline_end_to_end_over_faulty_stream() {
        let x = data(150, 3);
        let plan = FaultPlan {
            seed: 77,
            transient_rate: 0.02,
            corrupt_rate: 0.05,
            arity_rate: 0.02,
            truncate_after: None,
        };
        let mut src = FaultyRowSource::new(MatrixSource::new(&x), plan);
        let (model, scan, degradation) =
            quarantine_then_ladder(&mut src, vec!["a".into(), "b".into(), "c".into()]);
        assert!(scan.rows_quarantined > 0);
        assert!(scan.rows_absorbed + scan.rows_quarantined == 150);
        assert_eq!(degradation.level, DegradationLevel::FullRules);
        let rules = model.rules().unwrap();
        assert_eq!(rules.attribute_labels(), &["a", "b", "c"]);
        // Matches mining the clean subset directly.
        let mut reference = CovarianceAccumulator::new(3);
        for pos in 0..150 {
            if plan.row_is_clean(pos, 3) {
                reference.push_row(x.row(pos)).unwrap();
            }
        }
        let ref_rules = RatioRuleMiner::new(Cutoff::default())
            .finish(&reference)
            .unwrap();
        assert_eq!(rules.k(), ref_rules.k());
        for (a, b) in rules.rules().iter().zip(ref_rules.rules()) {
            assert!((a.eigenvalue - b.eigenvalue).abs() < 1e-7 * a.eigenvalue.max(1.0));
        }
    }

    #[test]
    fn scan_publishes_resilience_metrics() {
        // One non-transient I/O error mid-stream, so the source_error
        // quarantine reason fires alongside corrupt cells and ragged
        // rows. The error consumes a row position but no inner row.
        struct OneIoError<S> {
            inner: S,
            fired: bool,
        }
        impl<S: RowSource> RowSource for OneIoError<S> {
            fn n_cols(&self) -> usize {
                self.inner.n_cols()
            }
            fn next_row(&mut self, buf: &mut [f64]) -> dataset::Result<bool> {
                if !self.fired {
                    self.fired = true;
                    return Err(dataset::DatasetError::Io(std::io::Error::other(
                        "disk hiccup",
                    )));
                }
                self.inner.next_row(buf)
            }
            fn rewind(&mut self) -> dataset::Result<()> {
                self.inner.rewind()
            }
        }
        let _obs = crate::lock_obs_state();
        obs::set_enabled(true);
        let x = data(100, 3);
        let plan = FaultPlan {
            seed: 8,
            transient_rate: 0.05,
            corrupt_rate: 0.1,
            arity_rate: 0.1,
            truncate_after: None,
        };
        let mut src = OneIoError {
            inner: FaultyRowSource::new(MatrixSource::new(&x), plan),
            fired: false,
        };
        let mut scanner = Scanner::new(3, ScanPolicy::quarantine_unlimited());
        scanner.scan(&mut src).unwrap();
        let snap = obs::global().snapshot();
        assert!(snap.counter("scan_rows_quarantined_total").unwrap() >= 3);
        // Every per-reason counter the registry declares is actually
        // produced (rrlint's dead-name check keys off these constants).
        assert!(
            snap.counter(obs::names::SCAN_ROWS_QUARANTINED_CORRUPT_CELL_TOTAL)
                .unwrap()
                >= 1
        );
        assert!(
            snap.counter(obs::names::SCAN_ROWS_QUARANTINED_ARITY_MISMATCH_TOTAL)
                .unwrap()
                >= 1
        );
        assert!(
            snap.counter(obs::names::SCAN_ROWS_QUARANTINED_SOURCE_ERROR_TOTAL)
                .unwrap()
                >= 1
        );
        assert!(snap.counter("faults_injected_corrupt_total").unwrap() >= 1);
    }

    /// A directory of one test's own under the system temp dir, removed
    /// with everything in it when dropped, so also when the test fails.
    struct TempDir(std::path::PathBuf);

    impl std::ops::Deref for TempDir {
        type Target = std::path::Path;
        fn deref(&self) -> &std::path::Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn workdir() -> TempDir {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let name = format!("rr_resilience_{}_{n}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn block_file(dir: &std::path::Path, name: &str, x: &Matrix) -> std::path::PathBuf {
        let path = dir.join(name);
        dataset::columnar::write_block_file(&path, x.cols(), x.rows(), x.data()).unwrap();
        path
    }

    #[test]
    fn columnar_scan_matches_row_scan_bitwise() {
        let dir = workdir();
        let x = data(137, 5);
        let path = block_file(&dir, "clean.rrcb", &x);
        let (row_acc, _) = scan_matrix(&x, ScanPolicy::Strict);
        for policy in [ScanPolicy::Strict, ScanPolicy::quarantine_unlimited()] {
            let mut src = ColumnarBlockSource::open(&path).unwrap();
            let mut scanner = Scanner::new(5, policy);
            scanner.scan(&mut src).unwrap();
            let (acc, report) = scanner.into_parts();
            assert_eq!(report.rows_absorbed, 137);
            assert_eq!(report.rows_quarantined, 0);
            let (n1, s1, r1) = acc.parts();
            let (n2, s2, r2) = row_acc.parts();
            assert_eq!(n1, n2);
            assert_eq!(s1, s2, "column sums must be bit-identical");
            assert_eq!(r1, r2, "moment matrix must be bit-identical");
        }
    }

    #[test]
    fn columnar_quarantine_attributes_exact_rows() {
        let dir = workdir();
        // Poison two rows in different panels; the block file stores
        // them verbatim (the container is format-agnostic), so the scan
        // policy is what catches them.
        let mut x = data(150, 4);
        let bad = [5usize, 67, 149];
        for &r in &bad {
            x.data_mut()[r * 4 + 2] = f64::NAN;
        }
        let path = block_file(&dir, "poisoned.rrcb", &x);
        let mut src = ColumnarBlockSource::open(&path).unwrap();
        let mut scanner = Scanner::new(4, ScanPolicy::quarantine_unlimited());
        let report = scanner.scan(&mut src).unwrap().clone();
        assert_eq!(report.rows_absorbed, 147);
        assert_eq!(report.rows_quarantined, 3);
        assert_eq!(report.by_reason, (3, 0, 0));
        let positions: Vec<usize> = report.details.iter().map(|d| d.position).collect();
        assert_eq!(positions, bad, "per-row attribution inside rejected blocks");
        for d in &report.details {
            assert!(d.detail.contains("non-finite"), "{}", d.detail);
        }
        // Bit-identical to pushing only the clean rows.
        let (acc, _) = scanner.into_parts();
        let mut reference = CovarianceAccumulator::new(4);
        for r in 0..150 {
            if !bad.contains(&r) {
                reference.push_row(x.row(r)).unwrap();
            }
        }
        let (n1, s1, r1) = acc.parts();
        let (n2, s2, r2) = reference.parts();
        assert_eq!(n1, n2);
        assert_eq!(s1, s2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn columnar_strict_aborts_on_corrupt_block() {
        let dir = workdir();
        let mut x = data(40, 3);
        x.data_mut()[10 * 3 + 1] = f64::INFINITY;
        let path = block_file(&dir, "strict.rrcb", &x);
        let mut src = ColumnarBlockSource::open(&path).unwrap();
        let mut scanner = Scanner::new(3, ScanPolicy::Strict);
        let err = scanner.scan(&mut src).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn columnar_checkpoint_resume_equals_uninterrupted() {
        let dir = workdir();
        let x = data(200, 4);
        let full = block_file(&dir, "resume_full.rrcb", &x);
        // First half as its own file: the "process died here" prefix.
        let k = 83; // mid-panel on purpose
        let head = Matrix::from_fn(k, 4, |i, j| x.row(i)[j]);
        let head_path = block_file(&dir, "resume_head.rrcb", &head);

        let mut first = Scanner::new(4, ScanPolicy::quarantine_unlimited());
        let mut head_src = ColumnarBlockSource::open(&head_path).unwrap();
        first.scan(&mut head_src).unwrap();
        let ckpt = first.checkpoint();
        assert_eq!(ckpt.rows_consumed, k);

        let mut resumed = Scanner::resume(&ckpt, ScanPolicy::quarantine_unlimited()).unwrap();
        let mut full_src = ColumnarBlockSource::open(&full).unwrap();
        let report = resumed.scan(&mut full_src).unwrap();
        assert_eq!(report.resumed_from, k);
        assert_eq!(report.rows_absorbed, 200);
        let (acc, _) = resumed.into_parts();

        let mut uninterrupted = Scanner::new(4, ScanPolicy::quarantine_unlimited());
        let mut src = ColumnarBlockSource::open(&full).unwrap();
        uninterrupted.scan(&mut src).unwrap();
        let (ref_acc, _) = uninterrupted.into_parts();

        let (n1, s1, r1) = acc.parts();
        let (n2, s2, r2) = ref_acc.parts();
        assert_eq!(n1, n2);
        assert_eq!(s1, s2, "resumed column sums must be bit-identical");
        assert_eq!(r1, r2, "resumed moment matrix must be bit-identical");
    }

    #[test]
    fn columnar_resume_rejects_shrunk_file() {
        let dir = workdir();
        let x = data(60, 3);
        let path = block_file(&dir, "shrunk.rrcb", &x);
        let mut scanner = Scanner::new(3, ScanPolicy::Strict);
        let mut src = ColumnarBlockSource::open(&path).unwrap();
        scanner.scan(&mut src).unwrap();
        let ckpt = scanner.checkpoint();

        let small = Matrix::from_fn(10, 3, |i, j| x.row(i)[j]);
        let small_path = block_file(&dir, "shrunk_small.rrcb", &small);
        let mut resumed = Scanner::resume(&ckpt, ScanPolicy::Strict).unwrap();
        let mut small_src = ColumnarBlockSource::open(&small_path).unwrap();
        let err = resumed.scan(&mut small_src).unwrap_err();
        assert!(err.to_string().contains("cannot resume"), "{err}");
    }

    #[test]
    fn resume_over_a_source_of_another_width_is_an_error() {
        let dir = workdir();
        let x = data(30, 3);
        let (acc, _) = scan_matrix(&x, ScanPolicy::Strict);
        let cp = ScanCheckpoint::capture(&acc, 30, &ScanReport::default());
        let wider = block_file(&dir, "wider.rrcb", &data(30, 4));
        let mut scanner = Scanner::resume(&cp, ScanPolicy::quarantine_unlimited()).unwrap();
        let err = scanner
            .scan(&mut ColumnarBlockSource::open(&wider).unwrap())
            .unwrap_err();
        assert!(
            matches!(
                err,
                RatioRuleError::WidthMismatch {
                    expected: 3,
                    actual: 4
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn columnar_file_truncated_after_open_fails_a_quarantine_scan() {
        let dir = workdir();
        let x = data(150, 4);
        let path = block_file(&dir, "truncated_after_open.rrcb", &x);
        let mut src = ColumnarBlockSource::open(&path).unwrap();
        // The file shrinks mid-row 70 after open validated its length.
        let cut = dataset::columnar::HEADER_LEN + (70 * 4 * 8 + 5) as u64;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(cut)
            .unwrap();
        let mut scanner = Scanner::new(4, ScanPolicy::quarantine_unlimited());
        let err = scanner.scan(&mut src).unwrap_err();
        assert!(
            matches!(&err, RatioRuleError::Dataset(e) if is_short_read(e)),
            "{err}"
        );
        assert_eq!(scanner.report().rows_absorbed, 70);
        assert_eq!(scanner.report().rows_quarantined, 0);
        // The cursor stops at the short row, so a resume over the
        // repaired file picks up exactly there.
        assert_eq!(scanner.checkpoint().rows_consumed, 70);
    }

    #[test]
    fn resilient_columnar_mine_equals_row_mining_bitwise() {
        let dir = workdir();
        let x = data(120, 4);
        let path = block_file(&dir, "mine.rrcb", &x);
        let labels: Vec<String> = ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect();
        let mut src = ColumnarBlockSource::open(&path).unwrap();
        let (model, scan, _) = quarantine_then_ladder(&mut src, labels.clone());
        assert_eq!(scan.rows_absorbed, 120);
        let mut rows = MatrixSource::new(&x);
        let (ref_model, ..) = quarantine_then_ladder(&mut rows, labels);
        let (rules, ref_rules) = (model.rules().unwrap(), ref_model.rules().unwrap());
        assert_eq!(rules.k(), ref_rules.k());
        for (a, b) in rules.rules().iter().zip(ref_rules.rules()) {
            assert_eq!(a.eigenvalue.to_bits(), b.eigenvalue.to_bits());
            for (u, v) in a.loadings.iter().zip(&b.loadings) {
                assert_eq!(u.to_bits(), v.to_bits(), "loadings must be bit-identical");
            }
        }
    }
}
