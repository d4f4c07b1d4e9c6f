//! Cross-crate property-based tests: invariants of the mining +
//! reconstruction pipeline on randomized low-rank datasets.

use dataset::holes::{HoleSet, HoledRow};
use linalg::Matrix;
use proptest::prelude::*;
use ratio_rules::cutoff::Cutoff;
use ratio_rules::miner::RatioRuleMiner;
use ratio_rules::reconstruct::fill_holes;
use ratio_rules::rules::RuleSet;

/// A directory of one test's own under the system temp dir, removed with
/// everything in it when dropped, so also when the test fails.
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

/// The directory of the one test in this file that writes files.
fn workdir() -> TempDir {
    let dir = std::env::temp_dir().join(format!("rr_proptest_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    TempDir(dir)
}

/// Strategy: a random rank-`r` matrix `n x m` built from `r` random
/// direction/coefficient pairs, plus optional noise.
fn low_rank(n: usize, m: usize, r: usize, noise: f64) -> impl Strategy<Value = Matrix> {
    let dirs = proptest::collection::vec(0.2..1.0f64, r * m);
    let coeffs = proptest::collection::vec(-5.0..5.0f64, r * n);
    let noise_cells = proptest::collection::vec(-1.0..1.0f64, n * m);
    (dirs, coeffs, noise_cells).prop_map(move |(d, c, eps)| {
        Matrix::from_fn(n, m, |i, j| {
            let mut v = 0.0;
            for f in 0..r {
                // Alternate direction signs per factor so they differ.
                let sign = if (f + j) % 2 == 0 { 1.0 } else { -1.0 };
                v += c[f * n + i] * d[f * m + j] * sign;
            }
            v + noise * eps[i * m + j]
        })
    })
}

fn mine(x: &Matrix, k: usize) -> RuleSet {
    RatioRuleMiner::new(Cutoff::FixedK(k))
        .fit_matrix(x)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Known values always pass through hole filling unchanged.
    #[test]
    fn known_values_pass_through(
        x in low_rank(30, 5, 2, 0.1),
        hole in 0usize..5,
        row_idx in 0usize..30,
    ) {
        let rules = mine(&x, 2);
        let row = x.row(row_idx);
        let hs = HoleSet::new(vec![hole], 5).unwrap();
        let filled = fill_holes(&rules, &hs.apply(row).unwrap()).unwrap();
        for (j, (filled_j, row_j)) in filled.values.iter().zip(row).enumerate() {
            if j != hole {
                prop_assert_eq!(filled_j, row_j);
            }
        }
        prop_assert!(filled.values.iter().all(|v| v.is_finite()));
    }

    /// On exactly rank-k data, filling any single hole with k rules
    /// recovers the original value (up to numerical error).
    #[test]
    fn exact_recovery_on_noiseless_low_rank(
        x in low_rank(40, 6, 2, 0.0),
        hole in 0usize..6,
        row_idx in 0usize..40,
    ) {
        let rules = mine(&x, 2);
        let row = x.row(row_idx);
        let hs = HoleSet::new(vec![hole], 6).unwrap();
        let filled = fill_holes(&rules, &hs.apply(row).unwrap()).unwrap();
        let scale = x.max_abs().max(1.0);
        prop_assert!(
            (filled.values[hole] - row[hole]).abs() < 1e-6 * scale,
            "hole {}: {} vs {}", hole, filled.values[hole], row[hole]
        );
    }

    /// Mined eigenvalues are nonnegative and descending, loadings are
    /// unit-norm, and retained energy is in [0, 1].
    #[test]
    fn ruleset_structural_invariants(x in low_rank(25, 5, 3, 0.5)) {
        let rules = RatioRuleMiner::paper_defaults().fit_matrix(&x).unwrap();
        let mut prev = f64::INFINITY;
        for r in rules.rules() {
            prop_assert!(r.eigenvalue <= prev);
            prop_assert!(r.eigenvalue > -1e-6);
            prev = r.eigenvalue;
            let norm = linalg::vector::norm(&r.loadings);
            prop_assert!((norm - 1.0).abs() < 1e-9, "loading norm {norm}");
        }
        let e = rules.retained_energy();
        prop_assert!((0.0..=1.0 + 1e-12).contains(&e));
        // 85% cutoff must actually reach 85% (or keep everything).
        prop_assert!(e >= 0.85 - 1e-9 || rules.k() == 5);
    }

    /// Projection then reconstruction is a contraction towards the rule
    /// subspace: reconstructing twice changes nothing.
    #[test]
    fn reconstruction_is_idempotent(x in low_rank(20, 5, 2, 1.0), row_idx in 0usize..20) {
        let rules = mine(&x, 2);
        let row = x.row(row_idx);
        let c1 = rules.project_row(row).unwrap();
        let r1 = rules.reconstruct_row(&c1).unwrap();
        let c2 = rules.project_row(&r1).unwrap();
        let r2 = rules.reconstruct_row(&c2).unwrap();
        for (a, b) in r1.iter().zip(&r2) {
            prop_assert!((a - b).abs() < 1e-8);
        }
    }

    /// GE_1 of any predictor is nonnegative and zero only for perfect
    /// reconstruction; col-avgs GE_1 equals the RMS column deviation.
    #[test]
    fn guessing_error_properties(x in low_rank(20, 4, 2, 0.3)) {
        use ratio_rules::guessing::GuessingErrorEvaluator;
        use ratio_rules::predictor::ColAvgs;
        let ev = GuessingErrorEvaluator::default();
        let ca = ColAvgs::fit(&x).unwrap();
        let ge = ev.ge1(&ca, &x).unwrap();
        prop_assert!(ge >= 0.0);
        let stats = dataset::stats::column_stats(&x);
        let expected = (stats.variances.iter().sum::<f64>() / 4.0).sqrt();
        prop_assert!((ge - expected).abs() < 1e-9 * expected.max(1.0));
    }

    /// Hole sets sampled for GE_h are valid: distinct, sorted, in range.
    #[test]
    fn sampled_hole_sets_are_valid(m in 3usize..12, h in 1usize..4, seed in 0u64..1000) {
        prop_assume!(h < m);
        let sets = dataset::holes::sample_hole_sets(m, h, 10, seed).unwrap();
        prop_assert!(!sets.is_empty());
        for s in &sets {
            prop_assert_eq!(s.len(), h);
            prop_assert!(s.holes().windows(2).all(|w| w[0] < w[1]));
            prop_assert!(s.holes().iter().all(|&j| j < m));
        }
    }

    /// Filling a row whose known values sit exactly at the training means
    /// yields the means everywhere (the centered problem is homogeneous).
    #[test]
    fn mean_row_fills_to_means(x in low_rank(25, 5, 2, 0.2), hole in 0usize..5) {
        let rules = mine(&x, 2);
        let means = rules.column_means().to_vec();
        let mut vals: Vec<Option<f64>> = means.iter().copied().map(Some).collect();
        vals[hole] = None;
        let filled = fill_holes(&rules, &HoledRow::new(vals)).unwrap();
        prop_assert!(
            (filled.values[hole] - means[hole]).abs() < 1e-7 * means[hole].abs().max(1.0)
        );
    }

    /// Cached hole filling is bit-for-bit identical to the one-shot path
    /// across random rule sets and hole patterns, hitting all three solve
    /// cases (k vs M - h decides the case; h in 1..M and k in 1..=4 on
    /// M = 5 covers exactly-, over-, and under-specified systems).
    #[test]
    fn solver_cache_is_bit_identical_to_one_shot(
        x in low_rank(30, 5, 2, 0.4),
        k in 1usize..=4,
        hole_bits in 1u32..31, // nonzero, not all 5 bits: 0 < h < M
        row_idx in 0usize..30,
    ) {
        use ratio_rules::predictor::{Predictor, RuleSetPredictor};
        use ratio_rules::reconstruct::SolverCache;

        let rules = mine(&x, k);
        let holes: Vec<usize> = (0..5).filter(|j| hole_bits & (1 << j) != 0).collect();
        let hs = HoleSet::new(holes, 5).unwrap();
        let holed = hs.apply(x.row(row_idx)).unwrap();

        let one_shot = fill_holes(&rules, &holed).unwrap();

        // SolverCache path: solve twice so the second fill is a cache hit.
        let cache = SolverCache::new(&rules);
        let cold = cache.fill(&holed).unwrap();
        let warm = cache.fill(&holed).unwrap();
        prop_assert_eq!(&cold, &one_shot);
        prop_assert_eq!(&warm, &one_shot);
        prop_assert_eq!(cache.len(), 1);

        // Predictor path: cached and uncached wrappers agree exactly.
        let cached_p = RuleSetPredictor::new(rules.clone());
        let uncached_p = RuleSetPredictor::uncached(rules);
        prop_assert_eq!(cached_p.fill(&holed).unwrap(), uncached_p.fill(&holed).unwrap());
        prop_assert_eq!(cached_p.fill(&holed).unwrap(), one_shot.values);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Quarantining faulty rows is *bit-identical* to never having seen
    /// them: for any fault seed and rates, a quarantine scan over the
    /// faulty stream produces the same accumulator (same f64 additions in
    /// the same order) as a clean scan over the plan's clean subset.
    #[test]
    fn quarantine_scan_equals_clean_subset(
        x in low_rank(80, 4, 2, 0.3),
        seed in 0u64..1_000_000,
        corrupt_rate in 0.0..0.4f64,
        arity_rate in 0.0..0.3f64,
        transient_rate in 0.0..0.3f64,
    ) {
        use dataset::fault::{FaultPlan, FaultyRowSource};
        use dataset::source::MatrixSource;
        use ratio_rules::covariance::CovarianceAccumulator;
        use ratio_rules::resilience::{ScanPolicy, Scanner};

        let plan = FaultPlan {
            seed,
            transient_rate,
            corrupt_rate,
            arity_rate,
            truncate_after: None,
        };
        let mut faulty = FaultyRowSource::new(MatrixSource::new(&x), plan);
        let mut scanner = Scanner::new(4, ScanPolicy::quarantine_unlimited());
        scanner.scan(&mut faulty).unwrap();
        let (acc, report) = scanner.into_parts();

        let mut reference = CovarianceAccumulator::new(4);
        let mut clean = 0usize;
        for pos in 0..80 {
            if plan.row_is_clean(pos, 4) {
                reference.push_row(x.row(pos)).unwrap();
                clean += 1;
            }
        }
        prop_assert_eq!(acc.n_rows(), clean);
        prop_assert_eq!(report.rows_absorbed, clean);
        prop_assert_eq!(report.rows_quarantined, 80 - clean);
        let (n1, s1, r1) = acc.parts();
        let (n2, s2, r2) = reference.parts();
        prop_assert_eq!(n1, n2);
        prop_assert_eq!(s1, s2, "column sums must be bit-identical");
        prop_assert_eq!(r1, r2, "moment matrix must be bit-identical");
    }

    /// A scan interrupted at any point, checkpointed through its JSON
    /// serialization, and resumed over a fresh stream is bit-identical to
    /// the uninterrupted scan.
    #[test]
    fn checkpointed_scan_equals_uninterrupted(
        x in low_rank(60, 4, 2, 0.3),
        seed in 0u64..1_000_000,
        rate in 0.0..0.25f64,
        stop_after in 1usize..59,
    ) {
        use dataset::fault::{FaultPlan, FaultyRowSource};
        use dataset::source::MatrixSource;
        use ratio_rules::resilience::{ScanCheckpoint, ScanPolicy, Scanner};

        let plan = FaultPlan {
            seed,
            transient_rate: rate,
            corrupt_rate: rate,
            arity_rate: rate,
            truncate_after: None,
        };
        let mut whole = Scanner::new(4, ScanPolicy::quarantine_unlimited());
        whole
            .scan(&mut FaultyRowSource::new(MatrixSource::new(&x), plan))
            .unwrap();
        let (acc_whole, rep_whole) = whole.into_parts();

        // Crash mid-scan, checkpoint through JSON, resume a fresh stream.
        let crash_plan = FaultPlan { truncate_after: Some(stop_after), ..plan };
        let mut first = Scanner::new(4, ScanPolicy::quarantine_unlimited());
        first
            .scan(&mut FaultyRowSource::new(MatrixSource::new(&x), crash_plan))
            .unwrap();
        let cp = ScanCheckpoint::from_json(&first.checkpoint().to_json()).unwrap();

        let mut resumed = Scanner::resume(&cp, ScanPolicy::quarantine_unlimited()).unwrap();
        resumed
            .scan(&mut FaultyRowSource::new(MatrixSource::new(&x), plan))
            .unwrap();
        let (acc_res, rep_res) = resumed.into_parts();

        let (n1, s1, r1) = acc_whole.parts();
        let (n2, s2, r2) = acc_res.parts();
        prop_assert_eq!(n1, n2);
        prop_assert_eq!(s1, s2, "column sums must survive the round-trip");
        prop_assert_eq!(r1, r2, "moments must survive the round-trip");
        prop_assert_eq!(rep_whole.rows_quarantined, rep_res.rows_quarantined);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The blocked panel kernel is bit-identical to the row-at-a-time
    /// scan for any block size and any `push_block` segmentation —
    /// including final partial panels and segments that straddle panel
    /// boundaries.
    #[test]
    fn blocked_scan_equals_rowwise_for_any_segmentation(
        x in low_rank(70, 5, 2, 0.4),
        block_rows in 1usize..100,
        cuts in proptest::collection::vec(0usize..70, 0..6),
    ) {
        use ratio_rules::covariance::CovarianceAccumulator;

        let mut rowwise = CovarianceAccumulator::new(5);
        for row in x.row_iter() {
            rowwise.push_row(row).unwrap();
        }

        let mut bounds: Vec<usize> = cuts;
        bounds.push(0);
        bounds.push(70);
        bounds.sort_unstable();
        bounds.dedup();
        let mut blocked = CovarianceAccumulator::with_block_rows(5, block_rows);
        for w in bounds.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            blocked.push_block(&x.data()[lo * 5..hi * 5], hi - lo).unwrap();
        }

        let (n1, s1, r1) = rowwise.parts();
        let (n2, s2, r2) = blocked.parts();
        prop_assert_eq!(n1, n2);
        prop_assert_eq!(s1, s2, "column sums must be bit-identical");
        prop_assert_eq!(r1, r2, "moment matrix must be bit-identical");
    }

    /// An `RRCB` round-trip is lossless, and a columnar scan over it is
    /// bit-identical to scanning the matrix row by row — for any shape
    /// and any read-block size.
    #[test]
    fn columnar_scan_equals_rowwise(
        x in low_rank(50, 4, 2, 0.5),
        read_rows in 1usize..80,
    ) {
        use dataset::columnar::{write_block_file, ColumnarBlockSource};
        use dataset::source::RowSource;
        use ratio_rules::covariance::CovarianceAccumulator;

        let dir = workdir();
        let path = dir.join(format!("case_{read_rows}.rrcb"));
        write_block_file(&path, 4, 50, x.data()).unwrap();

        let mut rowwise = CovarianceAccumulator::new(4);
        for row in x.row_iter() {
            rowwise.push_row(row).unwrap();
        }

        // Rows come off the file one at a time and fold in blocks of
        // `read_rows`.
        let mut src = ColumnarBlockSource::open(&path).unwrap();
        let mut columnar = CovarianceAccumulator::new(4);
        let mut row = [0.0; 4];
        let mut block = Vec::new();
        loop {
            block.clear();
            while block.len() < read_rows * 4 && src.next_row(&mut row).unwrap() {
                block.extend_from_slice(&row);
            }
            if block.is_empty() {
                break;
            }
            columnar.push_block(&block, block.len() / 4).unwrap();
        }

        let (n1, s1, r1) = rowwise.parts();
        let (n2, s2, r2) = columnar.parts();
        prop_assert_eq!(n1, n2);
        prop_assert_eq!(s1, s2, "column sums must survive the RRCB round-trip");
        prop_assert_eq!(r1, r2, "moments must survive the RRCB round-trip");
    }

    /// A checkpoint taken after any prefix of rows — including mid-panel,
    /// with rows still buffered — restores to an accumulator that finishes
    /// bit-identically to the uninterrupted scan.
    #[test]
    fn mid_panel_checkpoint_restores_bitwise(
        x in low_rank(40, 4, 2, 0.3),
        block_rows in 1usize..50,
        cut in 1usize..39,
    ) {
        use ratio_rules::covariance::CovarianceAccumulator;

        let mut whole = CovarianceAccumulator::with_block_rows(4, block_rows);
        for row in x.row_iter() {
            whole.push_row(row).unwrap();
        }

        let mut first = CovarianceAccumulator::with_block_rows(4, block_rows);
        for i in 0..cut {
            first.push_row(x.row(i)).unwrap();
        }
        let (n, sums, upper) = first.parts();
        let mut resumed = CovarianceAccumulator::from_parts(4, n, sums, upper).unwrap();
        for i in cut..40 {
            resumed.push_row(x.row(i)).unwrap();
        }

        let (n1, s1, r1) = whole.parts();
        let (n2, s2, r2) = resumed.parts();
        prop_assert_eq!(n1, n2);
        prop_assert_eq!(s1, s2, "column sums must survive the checkpoint");
        prop_assert_eq!(r1, r2, "moments must survive the checkpoint");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On integer-grid data every sum the accumulator forms is exactly
    /// representable (values in [-100, 100], well under 2^53 of mass),
    /// so fp addition is genuinely associative and bit-identity must
    /// survive ANY partition arity and ANY merge order — not just the
    /// fixed tree. The shards also round-trip the wire checkpoint JSON,
    /// making this the property the distributed coordinator leans on
    /// when workers deliver out of order.
    #[test]
    fn tree_merge_any_partition_and_order_equals_serial_on_integer_grid(
        rows in proptest::collection::vec(
            proptest::collection::vec(-100i32..=100, 4), 1..60),
        cuts in proptest::collection::vec(0usize..60, 0..6),
        order_seed in 0u64..1_000_000,
    ) {
        use ratio_rules::covariance::CovarianceAccumulator;
        use ratio_rules::parallel::tree_merge;
        use ratio_rules::resilience::ScanCheckpoint;

        let data: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| r.iter().map(|&v| f64::from(v)).collect())
            .collect();
        let n = data.len();
        let mut serial = CovarianceAccumulator::new(4);
        for r in &data {
            serial.push_row(r).unwrap();
        }

        // Partition bounds from the cuts, then a deterministic shuffle
        // of the shard order from the seed (LCG-driven Fisher-Yates).
        let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c % (n + 1)).collect();
        bounds.push(0);
        bounds.push(n);
        bounds.sort_unstable();
        bounds.dedup();
        let ranges: Vec<(usize, usize)> = bounds
            .windows(2)
            .filter(|w| w[0] < w[1])
            .map(|w| (w[0], w[1]))
            .collect();
        let mut order: Vec<usize> = (0..ranges.len()).collect();
        let mut s = order_seed;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }

        let shards: Vec<CovarianceAccumulator> = order
            .iter()
            .map(|&t| {
                let (lo, hi) = ranges[t];
                let mut acc = CovarianceAccumulator::new(4);
                for r in &data[lo..hi] {
                    acc.push_row(r).unwrap();
                }
                // Wire round-trip, as a real shard delivery would.
                ScanCheckpoint::from_json(&ScanCheckpoint::from_accumulator(&acc).to_json())
                    .unwrap()
                    .accumulator()
                    .unwrap()
            })
            .collect();
        let merged = tree_merge(shards).unwrap();

        let (n1, s1, r1) = serial.parts();
        let (n2, s2, r2) = merged.parts();
        prop_assert_eq!(n1, n2);
        prop_assert_eq!(s1, s2, "column sums must be bit-identical in any order");
        prop_assert_eq!(r1, r2, "moments must be bit-identical in any order");
    }
}

/// Strategy: a nonnegative spectrum sorted in descending order, as
/// produced by the eigensolver.
fn spectrum(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0..10.0f64, 1..max_len).prop_map(|mut v| {
        v.sort_by(|a, b| b.partial_cmp(a).unwrap());
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eq. 1 minimality: the selected k reaches the energy threshold and
    /// k - 1 does not. The reference prefix sums below repeat select()'s
    /// accumulation order, so the comparison is bit-exact.
    #[test]
    fn cutoff_k_is_minimal(evs in spectrum(12), f in 0.01..=1.0f64) {
        let k = Cutoff::EnergyFraction(f).select(&evs).unwrap();
        prop_assert!((1..=evs.len()).contains(&k), "k={k} out of range");
        let total: f64 = evs.iter().map(|l| l.max(0.0)).sum();
        if total <= 0.0 {
            // Degenerate all-zero spectrum: one rule by convention.
            prop_assert_eq!(k, 1);
        } else {
            let mass = |n: usize| evs[..n].iter().map(|l| l.max(0.0)).sum::<f64>();
            prop_assert!(mass(k) / total >= f, "k={k} misses the threshold");
            if k > 1 {
                prop_assert!(mass(k - 1) / total < f, "k={k} is not minimal");
            }
        }
    }

    /// Raising the energy threshold never keeps fewer rules.
    #[test]
    fn cutoff_k_monotone_in_threshold(
        evs in spectrum(12),
        f1 in 0.01..=1.0f64,
        f2 in 0.01..=1.0f64,
    ) {
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        let k_lo = Cutoff::EnergyFraction(lo).select(&evs).unwrap();
        let k_hi = Cutoff::EnergyFraction(hi).select(&evs).unwrap();
        prop_assert!(k_lo <= k_hi, "k({lo})={k_lo} > k({hi})={k_hi}");
    }

    /// "k = 0 iff the threshold is 0": a zero (or negative) threshold is
    /// rejected outright, so a successfully selected k is never 0.
    #[test]
    fn cutoff_never_selects_zero_rules(evs in spectrum(12), f in 0.01..=1.0f64) {
        prop_assert!(Cutoff::EnergyFraction(f).select(&evs).unwrap() >= 1);
        prop_assert!(Cutoff::EnergyFraction(0.0).select(&evs).is_err());
        prop_assert!(Cutoff::EnergyFraction(-f).select(&evs).is_err());
    }
}

/// Strategy: a latency-like sample spanning several decades (the range
/// serve quantiles actually see: sub-microsecond to tens of seconds).
fn latencies(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((0.0..6.0f64).prop_map(|e| 10f64.powf(e - 1.0)), 1..max_len)
}

fn feed_quantile(values: &[f64]) -> obs::QuantileSnapshot {
    let q = obs::Quantile::standalone();
    for &v in values {
        q.observe(v);
    }
    q.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Quantile estimates are monotone in q and never exceed the exact
    /// max; in particular p50 <= p99 <= max for any sample.
    #[test]
    fn quantile_estimates_are_monotone_and_capped(values in latencies(400)) {
        let s = feed_quantile(&values);
        let mut prev = 0.0;
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let est = s.quantile(q);
            prop_assert!(est >= prev, "quantile({q}) = {est} < {prev}");
            prop_assert!(est <= s.max, "quantile({q}) = {est} > max {}", s.max);
            prev = est;
        }
        prop_assert!(s.quantile(0.5) <= s.quantile(0.99));
        prop_assert_eq!(s.quantile(1.0), s.max);
    }

    /// Merging two snapshots is bucket-exact: counts, buckets, and max
    /// are identical to feeding the concatenated sample into one
    /// histogram. `sum` is one fp add of two partial sums versus an
    /// element-wise chain, so it only agrees to rounding.
    #[test]
    fn quantile_merge_equals_concatenated_feed(
        a in latencies(200),
        b in latencies(200),
    ) {
        let merged = feed_quantile(&a).merge(&feed_quantile(&b));
        let combined: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let fed = feed_quantile(&combined);
        prop_assert_eq!(&merged.buckets, &fed.buckets);
        prop_assert_eq!(merged.count, fed.count);
        prop_assert_eq!(merged.max.to_bits(), fed.max.to_bits());
        prop_assert!(
            (merged.sum - fed.sum).abs() <= 1e-9 * fed.sum.abs().max(1.0),
            "merged sum {} vs fed sum {}", merged.sum, fed.sum
        );
    }

    /// Every reported quantile lands within one log bucket of the true
    /// order statistic: relative error below 2^(1/8) - 1 (with
    /// float-boundary slack), and never an undershoot.
    #[test]
    fn quantile_relative_error_is_bounded(values in latencies(500)) {
        let s = feed_quantile(&values);
        let mut sorted = values.clone();
        sorted.sort_by(|x, y| x.partial_cmp(y).expect("finite sample"));
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            let est = s.quantile(q);
            prop_assert!(
                (est - truth).abs() / truth < 0.092,
                "q={}: est {} vs truth {}", q, est, truth
            );
            prop_assert!(est >= truth * (1.0 - 1e-12), "q={}: undershoot", q);
        }
    }

    /// count and sum aggregate exactly, and the windowed delta of a
    /// snapshot against an earlier baseline recovers just the window.
    #[test]
    fn quantile_delta_recovers_the_window(
        before in latencies(150),
        after in latencies(150),
    ) {
        let q = obs::Quantile::standalone();
        for &v in &before {
            q.observe(v);
        }
        let baseline = q.snapshot();
        prop_assert_eq!(baseline.count, before.len() as u64);
        for &v in &after {
            q.observe(v);
        }
        let window = q.snapshot().delta_since(&baseline);
        prop_assert_eq!(window.count, after.len() as u64);
        let window_buckets = feed_quantile(&after).buckets;
        prop_assert_eq!(&window.buckets, &window_buckets);
    }
}

/// Golden regression: pins k across thresholds on a fixed geometric
/// spectrum (energy halves per rule; cumulative fractions 0.508, 0.762,
/// 0.889, 0.952, 0.984, 1.0). A change in Eq. 1's accounting — clamping,
/// tie-breaking, or comparison direction — shifts at least one of these.
#[test]
fn cutoff_golden_geometric_spectrum() {
    let evs = [50.0, 25.0, 12.5, 6.25, 3.125, 1.5625];
    for (f, expected) in [
        (0.50, 1),
        (0.76, 2),
        (0.85, 3),
        (0.90, 4),
        (0.97, 5),
        (0.99, 6),
        (1.00, 6),
    ] {
        let k = Cutoff::EnergyFraction(f).select(&evs).unwrap();
        assert_eq!(k, expected, "threshold {f}");
    }
}

/// A `Read` impl that hands the stream back in pre-chosen segments, one
/// segment per `read` call, to exercise every byte boundary a socket
/// could produce (TCP may fragment anywhere, including inside
/// `"\r\n\r\n"` or a `content-length` digit).
struct Segmented {
    data: Vec<u8>,
    cuts: Vec<usize>,
    pos: usize,
}

impl Segmented {
    /// `raw_cuts` are arbitrary; they are folded into `0..=len` bounds.
    fn new(data: Vec<u8>, raw_cuts: &[usize]) -> Segmented {
        let mut cuts: Vec<usize> = raw_cuts.iter().map(|&c| c % (data.len() + 1)).collect();
        cuts.sort_unstable();
        cuts.dedup();
        Segmented { data, cuts, pos: 0 }
    }
}

impl std::io::Read for Segmented {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        let cut_end = self
            .cuts
            .iter()
            .copied()
            .find(|&c| c > self.pos)
            .unwrap_or(self.data.len());
        let n = (cut_end - self.pos).min(out.len());
        out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

const METHODS: [&str; 3] = ["GET", "POST", "PUT"];
const PATHS: [&str; 3] = ["/predict", "/healthz", "/models"];

/// Strategy: a pipelined stream of 1..`max` requests, each with a
/// random method/path pair and a random (possibly binary) body.
fn pipeline_requests(
    max: usize,
) -> impl Strategy<Value = Vec<(usize, usize, Vec<u8>)>> {
    proptest::collection::vec(
        (0usize..3, 0usize..3, proptest::collection::vec(0u8..=255u8, 0..160)),
        1..max,
    )
}

/// Serializes the generated requests back-to-back, as a pipelining
/// client would put them on the wire.
fn raw_stream(reqs: &[(usize, usize, Vec<u8>)]) -> Vec<u8> {
    let mut stream = Vec::new();
    for (i, (m, p, body)) in reqs.iter().enumerate() {
        stream.extend_from_slice(
            format!(
                "{} {} HTTP/1.1\r\nx-seq: {}\r\ncontent-length: {}\r\n\r\n",
                METHODS[*m],
                PATHS[*p],
                i,
                body.len()
            )
            .as_bytes(),
        );
        stream.extend_from_slice(body);
    }
    stream
}

/// Reference parse: drive the pure `try_parse` over the whole buffer in
/// one shot, draining each complete request from the front.
fn parse_all(mut rest: &[u8]) -> Vec<serve::protocol::Request> {
    use serve::protocol::{try_parse, Parsed};
    let mut out = Vec::new();
    while let Parsed::Complete(req, consumed) = try_parse(rest).unwrap() {
        out.push(req);
        rest = &rest[consumed..];
    }
    assert!(rest.is_empty(), "reference parse left {} bytes", rest.len());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any byte-boundary segmentation of a pipelined request stream
    /// parses to exactly the same requests — method, path, header
    /// order, and body bytes — as the one-shot parse of the full
    /// buffer, and the reader ends exactly at a request boundary.
    #[test]
    fn segmented_parse_equals_one_shot(
        reqs in pipeline_requests(6),
        cuts in proptest::collection::vec(0usize..4096, 0..16),
    ) {
        use serve::protocol::RequestReader;

        let stream = raw_stream(&reqs);
        let reference = parse_all(&stream);
        prop_assert_eq!(reference.len(), reqs.len());

        let mut seg = Segmented::new(stream, &cuts);
        let mut reader = RequestReader::new();
        let mut got = Vec::new();
        while let Some(req) = reader.next_request(&mut seg).unwrap() {
            got.push(req);
        }
        prop_assert_eq!(got.len(), reference.len());
        for (a, b) in got.iter().zip(&reference) {
            prop_assert_eq!(&a.method, &b.method);
            prop_assert_eq!(&a.path, &b.path);
            prop_assert_eq!(&a.headers, &b.headers);
            prop_assert_eq!(&a.body, &b.body);
        }
        // EOF landed exactly on a request boundary: clean close, no
        // leftover read-ahead.
        prop_assert!(reader.next_request(&mut seg).unwrap().is_none());
        prop_assert!(!reader.has_buffered());
    }

    /// A request declaring a body over `MAX_BODY_BYTES` is rejected as
    /// `TooLarge` the moment its head completes — before any body byte
    /// arrives — for every segmentation, and every pipelined request
    /// ahead of it still parses identically to the one-shot reference
    /// (no desync from the poison request).
    #[test]
    fn oversized_body_rejected_mid_stream_without_desync(
        lead in pipeline_requests(4),
        cuts in proptest::collection::vec(0usize..4096, 0..16),
        excess in 1usize..1_000_000,
    ) {
        use serve::protocol::{HttpError, RequestReader, MAX_BODY_BYTES};

        let mut stream = raw_stream(&lead);
        // The poison head declares an oversized body and sends none of
        // it: the declared length alone must trigger the error.
        stream.extend_from_slice(
            format!(
                "POST /predict HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                MAX_BODY_BYTES + excess
            )
            .as_bytes(),
        );

        let reference = parse_all(&raw_stream(&lead));
        let mut seg = Segmented::new(stream, &cuts);
        let mut reader = RequestReader::new();
        for expected in &reference {
            let got = reader.next_request(&mut seg).unwrap().unwrap();
            prop_assert_eq!(&got.method, &expected.method);
            prop_assert_eq!(&got.path, &expected.path);
            prop_assert_eq!(&got.headers, &expected.headers);
            prop_assert_eq!(&got.body, &expected.body);
        }
        match reader.next_request(&mut seg) {
            Err(HttpError::TooLarge(msg)) => prop_assert!(msg.contains("body")),
            other => prop_assert!(false, "expected TooLarge, got {:?}", other),
        }
    }

    /// A header block that outgrows `MAX_HEAD_BYTES` is rejected as
    /// `TooLarge` for every segmentation — both incrementally (no
    /// terminator in sight yet) and when the late terminator finally
    /// proves the overrun.
    #[test]
    fn oversized_head_rejected_for_any_segmentation(
        pad in 0usize..2048,
        cuts in proptest::collection::vec(0usize..32_768, 0..12),
    ) {
        use serve::protocol::{HttpError, RequestReader, MAX_HEAD_BYTES};

        let mut head = b"GET /predict HTTP/1.1\r\nx-filler: ".to_vec();
        head.resize(MAX_HEAD_BYTES + 4 + pad, b'a');

        // Unterminated head: the overrun is flagged from the buffered
        // length alone, before "\r\n\r\n" ever shows up.
        let mut seg = Segmented::new(head.clone(), &cuts);
        match RequestReader::new().next_request(&mut seg) {
            Err(HttpError::TooLarge(msg)) => prop_assert!(msg.contains("headers")),
            other => prop_assert!(false, "unterminated: expected TooLarge, got {:?}", other),
        }

        // Terminated head: same verdict once the terminator lands past
        // the limit.
        head.extend_from_slice(b"\r\n\r\n");
        let mut seg = Segmented::new(head, &cuts);
        match RequestReader::new().next_request(&mut seg) {
            Err(HttpError::TooLarge(msg)) => prop_assert!(msg.contains("headers")),
            other => prop_assert!(false, "terminated: expected TooLarge, got {:?}", other),
        }
    }
}
