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
use dataset::source::RowSource;
use dataset::DatasetError;
use linalg::Matrix;
use obs::json::JsonValue;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread;

/// How many consecutive `next_row` errors a quarantine scan tolerates
/// before concluding the source is wedged (a persistent error that never
/// consumes a row would otherwise spin forever under an unlimited
/// budget).
const MAX_CONSECUTIVE_SOURCE_ERRORS: usize = 1024;

/// How many per-row quarantine records a [`ScanReport`] keeps verbatim
/// (counts are always exact; only the detailed log is capped).
const MAX_QUARANTINE_DETAILS: usize = 64;

/// Full panels queued between the scan loop and the fold thread: enough
/// to ride out a slow stretch of parsing or folding, while a scan holds
/// at most four panel buffers (one filling, two queued, one folding).
const FOLD_QUEUE_PANELS: usize = 2;

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
    /// Every row is checked (width and finiteness, with
    /// [`CovarianceAccumulator::push_row`]'s check and error text) on the
    /// calling thread, which also does the quarantine and budget
    /// accounting and honours the consumed limit.
    ///
    /// A source that lends its rows ([`RowSource::lend_rows`], an
    /// in-memory matrix) is read in place, one panel's worth of rows at a
    /// time: the consumed prefix is skipped through lent slices, and each
    /// clean run of lent rows folds inline with
    /// [`CovarianceAccumulator::push_block`], straight from the slice.
    /// There is no parse to overlap, so there is no staging panel and no
    /// fold thread.
    ///
    /// Any other source is read row by row, and the two halves of the
    /// loop run on two threads. The calling thread reads each row
    /// straight into a staging panel and checks it there. The first full
    /// panel starts a scoped
    /// fold thread that owns the accumulator for the rest of the scan
    /// and absorbs each full panel with
    /// [`CovarianceAccumulator::push_block`], in arrival order, while the
    /// next one is read; panels are handed over through a queue two
    /// panels deep and their buffers reused. A scan shorter than one
    /// panel starts no thread, and a failed spawn folds inline. The
    /// result is bit-identical either way: the accumulator sees the same
    /// rows in the same order as one `push_row` per accepted row.
    ///
    /// Every exit — the end of the stream, a strict abort, an exhausted
    /// budget, a short read (see `is_short_read`), a fold error — stops
    /// the fold thread and joins it before returning, and the accumulator
    /// then holds exactly the accepted rows, so [`Scanner::checkpoint`]
    /// after a failed scan resumes where it stopped. A panic on the fold
    /// thread comes back as [`RatioRuleError::Invalid`] and loses the
    /// accumulator: the scanner is left with an empty zero-width one,
    /// whose checkpoint cannot resume the source.
    ///
    /// # Errors
    ///
    /// A source of another width than the accumulator, a rewind or
    /// resume-skip failure, a bad row or source error under
    /// [`ScanPolicy::Strict`], an exhausted quarantine budget
    /// ([`RatioRuleError::BudgetExhausted`]), a short read, a source that
    /// keeps failing without yielding a row, or a fold-thread failure.
    pub fn scan<S: RowSource>(&mut self, source: &mut S) -> Result<&ScanReport> {
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
            let acc = std::mem::replace(&mut self.acc, CovarianceAccumulator::new(0));
            let (acc, outcome) = thread::scope(|scope| {
                let mut fold = FoldStage::new(scope, acc);
                let outcome = self.read_rows(source, &mut fold);
                fold.finish(outcome)
            });
            if let Some(acc) = acc {
                self.acc = acc;
            }
            outcome?;
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

    /// The calling thread's half of [`Scanner::scan`]: reads rows into
    /// `fold`'s staging panel until the stream ends, the consumed limit
    /// is reached, or the policy aborts.
    fn read_rows<S: RowSource>(
        &mut self,
        source: &mut S,
        fold: &mut FoldStage<'_, '_>,
    ) -> Result<()> {
        let mut consecutive_errors = 0usize;
        loop {
            if self.limit.is_some_and(|l| self.rows_consumed >= l) {
                return Ok(());
            }
            match source.next_row(fold.slot()) {
                Ok(true) => {
                    consecutive_errors = 0;
                    let position = self.rows_consumed;
                    self.rows_consumed += 1;
                    match fold.check_slot() {
                        Ok(()) => {
                            self.report.rows_absorbed += 1;
                            fold.accept()?;
                        }
                        Err(e) => match self.policy {
                            ScanPolicy::Strict => return Err(e),
                            ScanPolicy::Quarantine { .. } => {
                                self.report.record(
                                    position,
                                    QuarantineReason::CorruptCell,
                                    e.to_string(),
                                );
                                self.check_row_budget()?;
                            }
                        },
                    }
                }
                Ok(false) => return Ok(()),
                Err(e) => match self.policy {
                    ScanPolicy::Strict => return Err(e.into()),
                    ScanPolicy::Quarantine { .. } if is_short_read(&e) => return Err(e.into()),
                    ScanPolicy::Quarantine { .. } => {
                        consecutive_errors += 1;
                        if consecutive_errors > MAX_CONSECUTIVE_SOURCE_ERRORS {
                            return Err(RatioRuleError::Invalid(format!(
                                "source failed {MAX_CONSECUTIVE_SOURCE_ERRORS} times in a row \
                                 without yielding a row; last error: {e}"
                            )));
                        }
                        if e.is_transient() {
                            // The row was not consumed: loop back and
                            // re-read it. (A RetryingSource underneath
                            // makes this invisible; this is the last
                            // line of defence.)
                            self.report.transient_retries += 1;
                            obs::counter_add("scan_transient_retries_total", 1);
                        } else {
                            // Row-consuming data error (bad cell, ragged
                            // row): quarantine and move on.
                            let position = self.rows_consumed;
                            self.rows_consumed += 1;
                            self.report.record(position, classify(&e), e.to_string());
                            self.check_row_budget()?;
                        }
                    }
                },
            }
        }
    }

    /// [`Scanner::scan`] over a source that lends its rows: asks for up
    /// to one panel of rows at a time, checks each lent row as
    /// `read_rows` checks a staged one, and folds every clean run inline
    /// with [`CovarianceAccumulator::push_block`] before a bad row is
    /// reported, so the accumulator holds exactly the accepted rows on
    /// every exit.
    fn fold_lent_rows<S: RowSource>(&mut self, source: &mut S) -> Result<()> {
        let m = self.acc.n_cols();
        let panel_rows = self.acc.block_rows();
        loop {
            let want = self
                .limit
                .map_or(panel_rows, |l| l.saturating_sub(self.rows_consumed).min(panel_rows));
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
                self.acc.push_block(&rows[run * m..i * m], i - run)?;
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
            self.acc.push_block(&rows[run * m..], lent - run)?;
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

/// The fold half of [`Scanner::scan`]. Accepted rows are staged into
/// panels of the accumulator's height; each full panel is absorbed with
/// [`CovarianceAccumulator::push_block`] in arrival order — inline until
/// the first panel fills, then on a scoped fold thread that owns the
/// accumulator until [`FoldStage::finish`].
struct FoldStage<'scope, 'env> {
    scope: &'scope thread::Scope<'scope, 'env>,
    /// The accumulator while folding inline; `None` while the fold
    /// thread owns it.
    acc: Option<CovarianceAccumulator>,
    worker: Option<FoldWorker<'scope>>,
    /// Set when the fold thread could not be started: fold inline.
    inline: bool,
    m: usize,
    panel_rows: usize,
    /// The panel being filled: `staged` rows of `m` cells are live.
    panel: Vec<f64>,
    staged: usize,
    /// Rows in the accumulator plus rows staged or queued: the next
    /// accepted row's 1-based number in `push_row`'s error text.
    rows: usize,
}

/// The scan loop's ends of a running fold thread.
struct FoldWorker<'scope> {
    full: SyncSender<Vec<f64>>,
    empty: Receiver<Vec<f64>>,
    handle: thread::ScopedJoinHandle<'scope, FoldResult>,
}

/// What the fold thread hands back: the accumulator and the first fold
/// error, or `None` if it never received the accumulator.
type FoldResult = Option<(CovarianceAccumulator, Result<()>)>;

impl<'scope, 'env> FoldStage<'scope, 'env> {
    fn new(scope: &'scope thread::Scope<'scope, 'env>, acc: CovarianceAccumulator) -> Self {
        let (m, panel_rows, rows) = (acc.n_cols(), acc.block_rows(), acc.n_rows());
        FoldStage {
            scope,
            acc: Some(acc),
            worker: None,
            inline: false,
            m,
            panel_rows,
            panel: vec![0.0; panel_rows * m],
            staged: 0,
            rows,
        }
    }

    /// Where the next row is read to.
    fn slot(&mut self) -> &mut [f64] {
        &mut self.panel[self.staged * self.m..(self.staged + 1) * self.m]
    }

    /// `push_row`'s check of the row just read into [`FoldStage::slot`].
    fn check_slot(&self) -> Result<()> {
        let row = &self.panel[self.staged * self.m..(self.staged + 1) * self.m];
        check_row(row, self.m, self.rows + 1)
    }

    /// Keeps the row in the slot, handing the panel over once it is full.
    fn accept(&mut self) -> Result<()> {
        self.staged += 1;
        self.rows += 1;
        if self.staged < self.panel_rows {
            return Ok(());
        }
        self.staged = 0;
        if self.worker.is_none() && !self.inline {
            self.spawn();
        }
        if let Some(w) = &self.worker {
            let fresh = w
                .empty
                .try_recv()
                .unwrap_or_else(|_| vec![0.0; self.panel.len()]);
            let full = std::mem::replace(&mut self.panel, fresh);
            // A closed queue means the fold thread stopped on an error;
            // `finish` reports it.
            return w
                .full
                .send(full)
                .map_err(|_| RatioRuleError::Invalid("covariance fold thread stopped".into()));
        }
        self.acc
            .as_mut()
            .map_or(Ok(()), |acc| acc.push_block(&self.panel, self.panel_rows))
    }

    /// Starts the fold thread and hands it the accumulator; on failure
    /// the stage keeps folding inline.
    fn spawn(&mut self) {
        let Some(acc) = self.acc.take() else {
            return;
        };
        let (acc_tx, acc_rx) = mpsc::sync_channel::<CovarianceAccumulator>(1);
        let (full_tx, full_rx) = mpsc::sync_channel::<Vec<f64>>(FOLD_QUEUE_PANELS);
        // Room for every panel buffer of the scan, so the fold thread
        // never blocks handing one back.
        let (empty_tx, empty_rx) = mpsc::sync_channel::<Vec<f64>>(FOLD_QUEUE_PANELS + 2);
        let panel_rows = self.panel_rows;
        let spawned = thread::Builder::new()
            .name("covariance-fold".into())
            .spawn_scoped(self.scope, move || -> FoldResult {
                let mut acc = acc_rx.recv().ok()?;
                for panel in full_rx {
                    if let Err(e) = acc.push_block(&panel, panel_rows) {
                        return Some((acc, Err(e)));
                    }
                    let _ = empty_tx.try_send(panel);
                }
                Some((acc, Ok(())))
            });
        let handle = match spawned {
            Ok(handle) => handle,
            Err(_) => {
                self.acc = Some(acc);
                self.inline = true;
                return;
            }
        };
        match acc_tx.send(acc) {
            Ok(()) => {
                self.worker = Some(FoldWorker {
                    full: full_tx,
                    empty: empty_rx,
                    handle,
                });
            }
            Err(mpsc::SendError(acc)) => {
                // The thread is already gone; it took nothing with it.
                let _ = handle.join();
                self.acc = Some(acc);
                self.inline = true;
            }
        }
    }

    /// Ends the fold whatever `outcome` the scan loop reached: drops the
    /// sender so the fold thread drains the queue, joins it, then absorbs
    /// the rows still staged here. The accumulator comes back holding
    /// exactly the accepted rows, or `None` if the fold thread panicked.
    /// A fold error or panic outranks `outcome`.
    fn finish(self, outcome: Result<()>) -> (Option<CovarianceAccumulator>, Result<()>) {
        let FoldStage {
            acc,
            worker,
            panel,
            staged,
            ..
        } = self;
        let (acc, folded) = match worker {
            None => (acc, Ok(())),
            Some(FoldWorker { full, handle, .. }) => {
                drop(full);
                let joined = handle
                    .join()
                    .map_err(|p| format!("panicked: {}", panic_message(p.as_ref())))
                    .and_then(|r| r.ok_or_else(|| "never got the accumulator".to_string()));
                match joined {
                    Ok((acc, folded)) => (Some(acc), folded),
                    Err(why) => {
                        let e = RatioRuleError::Invalid(format!("covariance fold thread {why}"));
                        return (None, Err(e));
                    }
                }
            }
        };
        match acc {
            Some(mut acc) if folded.is_ok() && staged > 0 => {
                let drained = acc.push_block(&panel[..staged * acc.n_cols()], staged);
                (Some(acc), drained.and(outcome))
            }
            acc => (acc, folded.and(outcome)),
        }
    }
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
    use dataset::source::MatrixSource;

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
    fn quarantine_then_ladder<S: RowSource>(
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

    fn block_file(name: &str, x: &Matrix) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rr_resilience_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        dataset::columnar::write_block_file(&path, x.cols(), x.rows(), x.data()).unwrap();
        path
    }

    #[test]
    fn columnar_scan_matches_row_scan_bitwise() {
        let x = data(137, 5);
        let path = block_file("clean.rrcb", &x);
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
        // Poison two rows in different panels; the block file stores
        // them verbatim (the container is format-agnostic), so the scan
        // policy is what catches them.
        let mut x = data(150, 4);
        let bad = [5usize, 67, 149];
        for &r in &bad {
            x.data_mut()[r * 4 + 2] = f64::NAN;
        }
        let path = block_file("poisoned.rrcb", &x);
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
        let mut x = data(40, 3);
        x.data_mut()[10 * 3 + 1] = f64::INFINITY;
        let path = block_file("strict.rrcb", &x);
        let mut src = ColumnarBlockSource::open(&path).unwrap();
        let mut scanner = Scanner::new(3, ScanPolicy::Strict);
        let err = scanner.scan(&mut src).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn columnar_checkpoint_resume_equals_uninterrupted() {
        let x = data(200, 4);
        let full = block_file("resume_full.rrcb", &x);
        // First half as its own file: the "process died here" prefix.
        let k = 83; // mid-panel on purpose
        let head = Matrix::from_fn(k, 4, |i, j| x.row(i)[j]);
        let head_path = block_file("resume_head.rrcb", &head);

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
        let x = data(60, 3);
        let path = block_file("shrunk.rrcb", &x);
        let mut scanner = Scanner::new(3, ScanPolicy::Strict);
        let mut src = ColumnarBlockSource::open(&path).unwrap();
        scanner.scan(&mut src).unwrap();
        let ckpt = scanner.checkpoint();

        let small = Matrix::from_fn(10, 3, |i, j| x.row(i)[j]);
        let small_path = block_file("shrunk_small.rrcb", &small);
        let mut resumed = Scanner::resume(&ckpt, ScanPolicy::Strict).unwrap();
        let mut small_src = ColumnarBlockSource::open(&small_path).unwrap();
        let err = resumed.scan(&mut small_src).unwrap_err();
        assert!(err.to_string().contains("cannot resume"), "{err}");
    }

    #[test]
    fn resume_over_a_source_of_another_width_is_an_error() {
        let x = data(30, 3);
        let (acc, _) = scan_matrix(&x, ScanPolicy::Strict);
        let cp = ScanCheckpoint::capture(&acc, 30, &ScanReport::default());
        let wider = block_file("wider.rrcb", &data(30, 4));
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
        let x = data(150, 4);
        let path = block_file("truncated_after_open.rrcb", &x);
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
        let x = data(120, 4);
        let path = block_file("mine.rrcb", &x);
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
