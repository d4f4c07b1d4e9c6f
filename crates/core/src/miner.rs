//! End-to-end Ratio Rule mining — the paper's Fig. 2 pipeline.
//!
//! `fit` makes exactly one pass over a [`dataset::source::RowSource`]
//! (one `rewind`, then each row once), builds the covariance via
//! [`crate::covariance`], solves the eigensystem with the
//! [`linalg::eigen`] substrate, and keeps the top rules per the
//! [`crate::cutoff`] policy. The integration tests use
//! [`dataset::source::CountingSource`] to prove the single-pass claim.

use crate::covariance::CovarianceAccumulator;
use crate::cutoff::Cutoff;
use crate::resilience::{ScanPolicy, ScanReport, Scanner};
use crate::rules::{RatioRule, RuleSet};
use crate::{RatioRuleError, Result};
use dataset::source::{MatrixSource, RowSource};
use dataset::DataMatrix;
use linalg::eigen::SymmetricEigen;
use linalg::lanczos::lanczos_top_k;
use linalg::Matrix;

/// Eigensolver backend for the Fig. 2(b) step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EigenSolver {
    /// Full dense decomposition (Householder + implicit QL). The right
    /// choice for the paper's regime (`M` up to ~1000).
    #[default]
    Dense,
    /// Lanczos top-`max_k` solve — the paper's footnote-1 alternative for
    /// very wide matrices. The Eq. 1 energy denominator uses
    /// `trace(C) = sum of all eigenvalues`, which the accumulator knows
    /// exactly, so the energy cutoff still works without the full
    /// spectrum.
    Lanczos {
        /// Upper bound on rules to extract (the Krylov solve computes
        /// this many Ritz pairs).
        max_k: usize,
    },
}

/// Mines rules by SVD of the centered data matrix instead of
/// eigendecomposing the covariance — numerically the superior route
/// (singular values of `X_c` are computed without ever squaring the
/// condition number), at the cost of a second pass and `O(N M)` memory.
///
/// This is *not* the paper's algorithm (which insists on one pass and
/// `O(M^2)` memory); it exists as the numerical-accuracy ablation:
/// `bench/src/bin/ablation_numerics.rs` measures where the paper's
/// raw-moment formula starts losing digits and this path does not.
///
/// # Errors
///
/// [`RatioRuleError::EmptyInput`] if `x` has no rows or no columns;
/// [`RatioRuleError::Linalg`] if the SVD fails; [`RatioRuleError::Invalid`]
/// for an invalid `cutoff` or a `labels` list not `x.cols()` long.
pub fn fit_svd(x: &Matrix, cutoff: Cutoff, labels: Option<Vec<String>>) -> Result<RuleSet> {
    let (n, m) = x.shape();
    if n == 0 || m == 0 {
        return Err(RatioRuleError::EmptyInput);
    }
    let (xc, means) = dataset::stats::center_columns(x);
    let svd = linalg::svd::Svd::new(&xc)?;
    // Eigenvalues of the scatter matrix are squared singular values.
    let spectrum: Vec<f64> = svd.singular_values.iter().map(|s| s * s).collect();
    let k = cutoff.select(&spectrum)?;
    let rules: Vec<RatioRule> = (0..k)
        .map(|j| {
            let mut loadings = svd.v.col(j);
            linalg::vector::canonicalize_sign(&mut loadings);
            RatioRule {
                loadings,
                eigenvalue: spectrum[j],
            }
        })
        .collect();
    let labels = labels.unwrap_or_else(|| (0..m).map(|j| format!("attr{j}")).collect());
    RuleSet::new(rules, means, spectrum, labels, n)
}

/// Publishes eigensolver convergence to the global metrics registry
/// (no-op while observability is disabled).
fn record_eigen_convergence(iterations: usize, residual: f64, asymmetry: f64) {
    if !obs::enabled() {
        return;
    }
    obs::gauge_set("eigen_iterations", iterations as f64);
    obs::gauge_set("eigen_residual", residual);
    obs::gauge_set("eigen_asymmetry", asymmetry);
    if asymmetry > 0.0 {
        // The solver tolerated (rather than rejected) a nonzero asymmetry.
        obs::counter_add("eigen_symmetry_tolerance_hits_total", 1);
    }
}

/// Configurable miner for Ratio Rules.
#[derive(Debug, Clone, Default)]
pub struct RatioRuleMiner {
    cutoff: Cutoff,
    solver: EigenSolver,
    attribute_labels: Option<Vec<String>>,
    policy: ScanPolicy,
}

impl RatioRuleMiner {
    /// Creates a miner with the given cutoff policy.
    pub fn new(cutoff: Cutoff) -> Self {
        RatioRuleMiner {
            cutoff,
            solver: EigenSolver::Dense,
            attribute_labels: None,
            policy: ScanPolicy::Strict,
        }
    }

    /// Miner with the paper's defaults (85% energy cutoff).
    pub fn paper_defaults() -> Self {
        Self::new(Cutoff::default())
    }

    /// Selects the eigensolver backend.
    pub fn with_solver(mut self, solver: EigenSolver) -> Self {
        self.solver = solver;
        self
    }

    /// Attaches attribute labels to mined rule sets.
    pub fn with_labels(mut self, labels: Vec<String>) -> Self {
        self.attribute_labels = Some(labels);
        self
    }

    /// Selects the scan error policy (default [`ScanPolicy::Strict`]).
    pub fn with_scan_policy(mut self, policy: ScanPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Mines rules from a row stream in a single pass, applying the
    /// configured [`ScanPolicy`].
    ///
    /// # Errors
    ///
    /// Whatever [`Scanner::scan`] returns (under [`ScanPolicy::Strict`]
    /// the first bad row or source error, under a quarantine policy
    /// [`RatioRuleError::BudgetExhausted`]), then whatever
    /// [`RatioRuleMiner::finish`] returns for the scanned rows.
    pub fn fit<S: RowSource + Send>(&self, source: &mut S) -> Result<RuleSet> {
        Ok(self.fit_with_report(source)?.0)
    }

    /// Like [`RatioRuleMiner::fit`] but also returns the [`ScanReport`]
    /// (rows absorbed / quarantined, reasons, retries).
    ///
    /// # Errors
    ///
    /// As [`RatioRuleMiner::fit`]; no report comes back on failure.
    pub fn fit_with_report<S: RowSource + Send>(
        &self,
        source: &mut S,
    ) -> Result<(RuleSet, ScanReport)> {
        let mut scanner = Scanner::new(source.n_cols(), self.policy);
        scanner.scan(source)?;
        let (acc, report) = scanner.into_parts();
        Ok((self.finish(&acc)?, report))
    }

    /// Mines rules from an in-memory matrix.
    ///
    /// # Errors
    ///
    /// As [`RatioRuleMiner::fit`]: [`RatioRuleError::EmptyInput`] for a
    /// matrix with no rows, [`RatioRuleError::Invalid`] for a non-finite
    /// cell (under [`ScanPolicy::Strict`]), and the eigensolve and
    /// cutoff errors of [`RatioRuleMiner::finish`].
    pub fn fit_matrix(&self, x: &Matrix) -> Result<RuleSet> {
        let mut src = MatrixSource::new(x);
        self.fit(&mut src)
    }

    /// Mines rules from a labeled data matrix (labels are carried onto the
    /// rule set unless explicitly overridden).
    ///
    /// # Errors
    ///
    /// As [`RatioRuleMiner::fit_matrix`].
    pub fn fit_data(&self, data: &DataMatrix) -> Result<RuleSet> {
        let mut src = MatrixSource::new(data.matrix());
        let labels = self
            .attribute_labels
            .clone()
            .unwrap_or_else(|| data.col_labels().to_vec());
        let miner = RatioRuleMiner {
            cutoff: self.cutoff,
            solver: self.solver,
            attribute_labels: Some(labels),
            policy: self.policy,
        };
        miner.fit(&mut src)
    }

    /// Turns a filled accumulator into a rule set: eigensolve + cutoff
    /// (the paper's Fig. 2b). Public so parallel / distributed scans can
    /// merge accumulators and finish here.
    ///
    /// # Errors
    ///
    /// [`RatioRuleError::EmptyInput`] if `acc` absorbed no rows;
    /// [`RatioRuleError::Linalg`] if the eigensolver fails;
    /// [`RatioRuleError::Invalid`] for an invalid cutoff, a cutoff that
    /// wants more rules than a Lanczos solve extracted, or attribute
    /// labels of the wrong count.
    pub fn finish(&self, acc: &CovarianceAccumulator) -> Result<RuleSet> {
        let (c, means, n) = acc.finalize()?;
        let (eigenvalues, vectors, spectrum) = {
            let _span = obs::Span::enter("eigensolve");
            match self.solver {
                EigenSolver::Dense => {
                    let eig = SymmetricEigen::new(&c)?;
                    record_eigen_convergence(
                        eig.convergence.iterations,
                        eig.convergence.residual,
                        eig.convergence.asymmetry,
                    );
                    let vecs: Vec<Vec<f64>> = (0..eig.dim()).map(|j| eig.eigenvector(j)).collect();
                    (eig.eigenvalues.clone(), vecs, eig.eigenvalues)
                }
                EigenSolver::Lanczos { max_k } => {
                    let m = c.rows();
                    let k_req = max_k.clamp(1, m);
                    let lz = lanczos_top_k(&c, k_req, None)?;
                    let asymmetry = if obs::enabled() { c.max_asymmetry() } else { 0.0 };
                    record_eigen_convergence(lz.steps, lz.residual, asymmetry);
                    let vecs: Vec<Vec<f64>> = (0..k_req).map(|j| lz.eigenvectors.col(j)).collect();
                    let spectrum = pad_spectrum(&c, &lz.eigenvalues);
                    (lz.eigenvalues, vecs, spectrum)
                }
            }
        };
        let k = self.cutoff.select(&spectrum)?;
        if k > eigenvalues.len() {
            return Err(RatioRuleError::Invalid(format!(
                "cutoff wants {k} rules but the Lanczos solver only extracted {}; \
                 raise EigenSolver::Lanczos max_k",
                eigenvalues.len()
            )));
        }

        let labels = self
            .attribute_labels
            .clone()
            .unwrap_or_else(|| (0..acc.n_cols()).map(|j| format!("attr{j}")).collect());
        build_rules(&eigenvalues, &vectors, k, spectrum, means, labels, n)
    }
}

/// Pads a (possibly partial) spectrum to length `M` so the Eq. 1 energy
/// denominator is exact: `trace(C)` is the sum of *all* eigenvalues, so
/// the unseen tail collectively holds `trace - sum(top)`. Spreading it
/// over the remaining slots keeps the list descending "enough" for
/// reporting; the cutoff only needs the total. A full spectrum comes back
/// unchanged.
pub(crate) fn pad_spectrum(c: &Matrix, values: &[f64]) -> Vec<f64> {
    let m = c.rows();
    let mut spectrum = values.to_vec();
    if spectrum.len() < m {
        let top_sum: f64 = spectrum.iter().sum();
        let tail = (c.trace() - top_sum).max(0.0);
        let remaining = m - spectrum.len();
        spectrum.extend(std::iter::repeat_n(tail / remaining as f64, remaining));
    }
    spectrum
}

/// Assembles the top-`k` eigenpairs `(values[j], vectors[j])` into a
/// [`RuleSet`] carrying the full `spectrum` for the Eq. 1 report.
pub(crate) fn build_rules(
    values: &[f64],
    vectors: &[Vec<f64>],
    k: usize,
    spectrum: Vec<f64>,
    means: Vec<f64>,
    labels: Vec<String>,
    n: usize,
) -> Result<RuleSet> {
    let rules: Vec<RatioRule> = (0..k)
        .map(|j| RatioRule {
            loadings: vectors[j].clone(),
            eigenvalue: values[j],
        })
        .collect();
    RuleSet::new(rules, means, spectrum, labels, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::source::CountingSource;

    /// The paper's Figure 1 data matrix: five customers, (bread, butter)
    /// dollar amounts. The paper reports the first eigenvector as
    /// (0.866, 0.5) — a 30-degree direction.
    fn figure1_matrix() -> Matrix {
        Matrix::from_rows(&[
            &[0.89, 0.49],
            &[3.34, 1.85],
            &[5.00, 3.09],
            &[1.78, 0.99],
            &[4.02, 2.61],
        ])
        .unwrap()
    }

    #[test]
    fn figure1_first_rule_direction() {
        let rules = RatioRuleMiner::new(Cutoff::FixedK(1))
            .fit_matrix(&figure1_matrix())
            .unwrap();
        assert_eq!(rules.k(), 1);
        let v = &rules.rule(0).loadings;
        // The paper reports (0.866, 0.5); the actual numbers in their table
        // give a direction within a couple degrees of that.
        assert!((v[0] - 0.866).abs() < 0.03, "bread loading {}", v[0]);
        assert!((v[1] - 0.5).abs() < 0.05, "butter loading {}", v[1]);
        // Unit norm.
        assert!((linalg::vector::norm(v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mining_is_single_pass() {
        let m = figure1_matrix();
        let mut src = CountingSource::new(MatrixSource::new(&m));
        let _ = RatioRuleMiner::paper_defaults().fit(&mut src).unwrap();
        assert_eq!(src.rewinds, 1, "miner must rewind exactly once");
        assert_eq!(
            src.rows_delivered, 5,
            "miner must read each row exactly once"
        );
    }

    #[test]
    fn energy_cutoff_on_planted_low_rank_data() {
        // Rank-1 data plus tiny noise: 85% cutoff must keep exactly 1 rule.
        let x = Matrix::from_fn(200, 4, |i, j| {
            let t = i as f64 / 10.0;
            let dir = [2.0, 1.0, 0.5, 0.25][j];
            t * dir + ((i * 7 + j * 3) % 11) as f64 * 1e-3
        });
        let rules = RatioRuleMiner::paper_defaults().fit_matrix(&x).unwrap();
        assert_eq!(rules.k(), 1);
        assert!(rules.retained_energy() > 0.99);
    }

    #[test]
    fn spectrum_is_complete_and_descending() {
        let rules = RatioRuleMiner::new(Cutoff::FixedK(2))
            .fit_matrix(&figure1_matrix())
            .unwrap();
        assert_eq!(rules.spectrum().len(), 2);
        assert!(rules.spectrum()[0] >= rules.spectrum()[1]);
    }

    #[test]
    fn labels_flow_from_data_matrix() {
        let dm = DataMatrix::with_labels(
            figure1_matrix(),
            (0..5).map(|i| format!("cust{i}")).collect(),
            vec!["bread".into(), "butter".into()],
        )
        .unwrap();
        let rules = RatioRuleMiner::paper_defaults().fit_data(&dm).unwrap();
        assert_eq!(rules.attribute_labels(), &["bread", "butter"]);

        let rules = RatioRuleMiner::paper_defaults()
            .with_labels(vec!["x".into(), "y".into()])
            .fit_data(&dm)
            .unwrap();
        assert_eq!(rules.attribute_labels(), &["x", "y"]);
    }

    #[test]
    fn empty_stream_is_an_error() {
        let m = Matrix::zeros(0, 3);
        let err = RatioRuleMiner::paper_defaults().fit_matrix(&m).unwrap_err();
        assert!(matches!(err, crate::RatioRuleError::EmptyInput));
    }

    #[test]
    fn rules_match_covariance_eigenvectors() {
        let x = figure1_matrix();
        let rules = RatioRuleMiner::new(Cutoff::All).fit_matrix(&x).unwrap();
        let c = dataset::stats::covariance_two_pass(&x).unwrap();
        let eig = SymmetricEigen::new(&c).unwrap();
        for (j, rule) in rules.rules().iter().enumerate() {
            assert!((rule.eigenvalue - eig.eigenvalues[j]).abs() < 1e-9);
            let v = eig.eigenvector(j);
            for (a, b) in rule.loadings.iter().zip(&v) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn lanczos_solver_matches_dense_on_top_rules() {
        let x = figure1_matrix();
        let dense = RatioRuleMiner::new(Cutoff::FixedK(1))
            .fit_matrix(&x)
            .unwrap();
        let lanczos = RatioRuleMiner::new(Cutoff::FixedK(1))
            .with_solver(EigenSolver::Lanczos { max_k: 2 })
            .fit_matrix(&x)
            .unwrap();
        assert!((dense.rule(0).eigenvalue - lanczos.rule(0).eigenvalue).abs() < 1e-8);
        for (a, b) in dense.rule(0).loadings.iter().zip(&lanczos.rule(0).loadings) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn lanczos_energy_cutoff_uses_trace() {
        // Rank-1-ish data: the 85% cutoff must pick k = 1 even though the
        // Lanczos solver never saw the tail eigenvalues (trace covers it).
        let x = Matrix::from_fn(60, 6, |i, j| {
            let t = i as f64 / 7.0;
            t * (j as f64 + 1.0) + ((i * 5 + j * 3) % 7) as f64 * 1e-3
        });
        let rules = RatioRuleMiner::paper_defaults()
            .with_solver(EigenSolver::Lanczos { max_k: 3 })
            .fit_matrix(&x)
            .unwrap();
        assert_eq!(rules.k(), 1);
        assert!(rules.retained_energy() > 0.85);
    }

    #[test]
    fn svd_mining_matches_covariance_mining() {
        let x = figure1_matrix();
        let cov_rules = RatioRuleMiner::new(Cutoff::FixedK(2))
            .fit_matrix(&x)
            .unwrap();
        let svd_rules = fit_svd(&x, Cutoff::FixedK(2), None).unwrap();
        assert_eq!(svd_rules.k(), 2);
        assert_eq!(svd_rules.n_train(), 5);
        for (a, b) in cov_rules.rules().iter().zip(svd_rules.rules()) {
            assert!(
                (a.eigenvalue - b.eigenvalue).abs() < 1e-9 * a.eigenvalue.max(1.0),
                "{} vs {}",
                a.eigenvalue,
                b.eigenvalue
            );
            for (p, q) in a.loadings.iter().zip(&b.loadings) {
                assert!((p - q).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn svd_mining_survives_large_offsets_better() {
        // Shift the data by 1e8: the raw-moment covariance loses ~16
        // digits to cancellation while the SVD path centers first.
        let shift = 1e8;
        let x = Matrix::from_fn(100, 2, |i, j| {
            let t = i as f64 * 0.01;
            shift + t * [2.0, 1.0][j]
        });
        let svd_rules = fit_svd(&x, Cutoff::FixedK(1), None).unwrap();
        let v = &svd_rules.rule(0).loadings;
        let expected = [2.0 / 5.0_f64.sqrt(), 1.0 / 5.0_f64.sqrt()];
        assert!((v[0] - expected[0]).abs() < 1e-9, "{v:?}");
        assert!((v[1] - expected[1]).abs() < 1e-9, "{v:?}");
    }

    #[test]
    fn svd_mining_validates() {
        assert!(fit_svd(&Matrix::zeros(0, 2), Cutoff::default(), None).is_err());
        let x = figure1_matrix();
        let labeled = fit_svd(
            &x,
            Cutoff::FixedK(1),
            Some(vec!["bread".into(), "butter".into()]),
        )
        .unwrap();
        assert_eq!(labeled.attribute_labels(), &["bread", "butter"]);
    }

    #[test]
    fn lanczos_with_insufficient_max_k_errors() {
        // Full-rank data with a flat spectrum and a high energy cutoff:
        // 1 extracted rule cannot cover 99.9% energy.
        let x = Matrix::from_fn(40, 5, |i, j| (((i * 31 + j * 17) % 23) as f64).sin() * 10.0);
        let result = RatioRuleMiner::new(Cutoff::EnergyFraction(0.999))
            .with_solver(EigenSolver::Lanczos { max_k: 1 })
            .fit_matrix(&x);
        assert!(matches!(result, Err(crate::RatioRuleError::Invalid(_))));
    }

    #[test]
    fn column_means_recorded() {
        let rules = RatioRuleMiner::paper_defaults()
            .fit_matrix(&figure1_matrix())
            .unwrap();
        let means = rules.column_means();
        assert!((means[0] - 3.006).abs() < 1e-12);
        assert!((means[1] - 1.806).abs() < 1e-12);
    }

    #[test]
    fn quarantine_policy_rides_out_injected_faults() {
        use dataset::fault::{FaultPlan, FaultyRowSource};
        let x = Matrix::from_fn(120, 3, |i, j| {
            let t = i as f64 / 10.0;
            t * (j as f64 + 1.0) + ((i * 7 + j * 3) % 11) as f64 * 1e-3
        });
        let plan = FaultPlan {
            seed: 5,
            transient_rate: 0.05,
            corrupt_rate: 0.05,
            arity_rate: 0.0,
            truncate_after: None,
        };
        let miner = RatioRuleMiner::paper_defaults()
            .with_scan_policy(crate::resilience::ScanPolicy::quarantine_unlimited());
        let mut src = FaultyRowSource::new(MatrixSource::new(&x), plan);
        let (rules, report) = miner.fit_with_report(&mut src).unwrap();
        assert!(report.rows_quarantined > 0);
        assert_eq!(report.rows_absorbed + report.rows_quarantined, 120);
        // Identical to mining the plan's clean rows strictly.
        let clean: Vec<&[f64]> = (0..120)
            .filter(|&p| plan.row_is_clean(p, 3))
            .map(|p| x.row(p))
            .collect();
        let clean_x = Matrix::from_rows(&clean).unwrap();
        let reference = RatioRuleMiner::paper_defaults().fit_matrix(&clean_x).unwrap();
        assert_eq!(rules.k(), reference.k());
        for (a, b) in rules.rules().iter().zip(reference.rules()) {
            assert_eq!(a.eigenvalue.to_bits(), b.eigenvalue.to_bits());
            for (p, q) in a.loadings.iter().zip(&b.loadings) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
        }
        // Strict mode over the same faulty stream fails fast.
        let mut src = FaultyRowSource::new(MatrixSource::new(&x), plan);
        assert!(RatioRuleMiner::paper_defaults().fit(&mut src).is_err());
    }

    #[test]
    fn mining_publishes_observability_metrics() {
        // Enable-only (never disable): other tests in this binary may be
        // recording concurrently, so assertions are tolerant (>=, exists).
        let _obs = crate::lock_obs_state();
        obs::set_enabled(true);
        // Mined inside an outer span, so this test's scan and solve are
        // the depth-1 spans of the trace: mines of tests running
        // alongside record at depth 0.
        let outer = obs::Span::enter(obs::names::SPAN_MINE);
        let _ = RatioRuleMiner::paper_defaults()
            .fit_matrix(&figure1_matrix())
            .unwrap();
        drop(outer);
        let snap = obs::global().snapshot();
        assert!(snap.counter("covariance_rows_scanned_total").unwrap() >= 5);
        assert!(snap.gauge("covariance_rows_per_s").unwrap() > 0.0);
        assert!(snap.gauge("eigen_iterations").is_some());
        let residual = snap.gauge("eigen_residual").unwrap();
        assert!(residual.is_finite() && residual >= 0.0);
        assert!(snap.gauge("eigen_asymmetry").unwrap() >= 0.0);
        // The spans landed in the trace with the scan preceding the solve.
        let trace = obs::take_trace();
        let names: Vec<&str> = trace
            .iter()
            .filter(|r| r.depth == 1)
            .map(|r| r.name.as_str())
            .collect();
        let scan = names.iter().position(|n| *n == "covariance_scan");
        let solve = names.iter().position(|n| *n == "eigensolve");
        assert!(scan.is_some() && solve.is_some());
        assert!(scan.unwrap() < solve.unwrap());
    }
}
