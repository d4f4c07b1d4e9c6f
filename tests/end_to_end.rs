//! Cross-crate integration tests: the full pipeline from raw data on
//! disk to predictions, exercising every crate together.

use dataset::csv;
use dataset::holes::HoledRow;
use dataset::source::{CountingSource, CsvFileSource};
use dataset::split::train_test_split;
use linalg::Matrix;
use ratio_rules::cutoff::Cutoff;
use ratio_rules::guessing::GuessingErrorEvaluator;
use ratio_rules::miner::RatioRuleMiner;
use ratio_rules::predictor::{ColAvgs, Predictor, RuleSetPredictor};
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

fn tmpdir() -> TempDir {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("rr_e2e_{}_{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    TempDir(dir)
}

/// Mine rules from a CSV file on disk — the paper's actual deployment
/// scenario — and verify the single-pass property on the file source.
#[test]
fn mine_from_disk_in_a_single_pass() {
    let dir = tmpdir();
    let path = dir.join("sales.csv");

    // Write a 200 x 3 linearly-correlated sales table.
    let x = Matrix::from_fn(200, 3, |i, j| {
        let t = 1.0 + i as f64;
        t * [3.0, 2.0, 1.0][j] + ((i * 13 + j * 5) % 7) as f64 * 0.01
    });
    let dm = dataset::DataMatrix::new(x.clone());
    csv::write_csv_file(&dm, &path).unwrap();

    // Stream it from disk with pass counting.
    let src = CsvFileSource::open(&path, true).unwrap();
    let mut counted = CountingSource::new(src);
    let rules = RatioRuleMiner::paper_defaults().fit(&mut counted).unwrap();

    assert_eq!(counted.rewinds, 1, "mining must be single-pass");
    assert_eq!(counted.rows_delivered, 200);
    assert_eq!(rules.n_train(), 200);
    assert_eq!(rules.k(), 1, "rank-1 data keeps one rule at 85% energy");

    // The mined rule matches mining from memory.
    let in_memory = RatioRuleMiner::paper_defaults().fit_matrix(&x).unwrap();
    for (a, b) in rules
        .rule(0)
        .loadings
        .iter()
        .zip(&in_memory.rule(0).loadings)
    {
        assert!((a - b).abs() < 1e-12);
    }
}

/// Train on 90%, evaluate GE_1 on 10%, compare against col-avgs, fill a
/// fresh record — the complete paper protocol on synthetic abalone.
#[test]
fn full_protocol_on_abalone_like_data() {
    let data = dataset::synth::abalone::abalone_like_sized(800, 17).unwrap();
    let split = train_test_split(&data, 0.9, 17).unwrap();

    let rules = RatioRuleMiner::paper_defaults()
        .fit_data(&split.train)
        .unwrap();
    let rr = RuleSetPredictor::new(rules.clone());
    let baseline = ColAvgs::fit(split.train.matrix()).unwrap();

    let ev = GuessingErrorEvaluator::default();
    let ge_rr = ev.ge1(&rr, split.test.matrix()).unwrap();
    let ge_ca = ev.ge1(&baseline, split.test.matrix()).unwrap();
    assert!(
        ge_rr < 0.5 * ge_ca,
        "RR must decisively beat col-avgs on near-rank-1 data: {ge_rr} vs {ge_ca}"
    );

    // Fill holes in a fresh record: hide the weights, keep the lengths.
    let record = split.test.row(0);
    let holed = HoledRow::new(vec![
        Some(record[0]),
        Some(record[1]),
        Some(record[2]),
        None,
        None,
        None,
        None,
    ]);
    let filled = rr.fill(&holed).unwrap();
    for j in 3..7 {
        let rel = (filled[j] - record[j]).abs() / record[j].max(1e-9);
        assert!(
            rel < 0.6,
            "hole {j}: predicted {} vs actual {}",
            filled[j],
            record[j]
        );
    }
}

/// A trained model survives JSON persistence and keeps predicting
/// identically.
#[test]
fn model_persistence_roundtrip() {
    let (data, _) = dataset::synth::sports::nba_like(5).unwrap();
    let rules = RatioRuleMiner::paper_defaults().fit_data(&data).unwrap();

    let json = ratio_rules::model_json::rules_to_string(&rules);
    let restored: RuleSet = ratio_rules::model_json::rules_from_str(&json).unwrap();
    assert_eq!(restored, rules);

    let row = {
        let mut v: Vec<Option<f64>> = data.row(10).iter().copied().map(Some).collect();
        v[7] = None;
        v[3] = None;
        HoledRow::new(v)
    };
    let a = ratio_rules::reconstruct::fill_holes(&rules, &row).unwrap();
    let b = ratio_rules::reconstruct::fill_holes(&restored, &row).unwrap();
    assert_eq!(a.values, b.values);
    assert_eq!(a.case, b.case);
}

/// Parallel mining produces the same model as the serial single pass.
#[test]
fn parallel_and_serial_mining_agree_end_to_end() {
    let data = dataset::synth::abalone::abalone_like_sized(500, 23).unwrap();
    let serial = RatioRuleMiner::new(Cutoff::FixedK(2))
        .fit_matrix(data.matrix())
        .unwrap();
    let parallel =
        ratio_rules::parallel::fit_parallel(data.matrix(), Cutoff::FixedK(2), 4).unwrap();
    for (rs, rp) in serial.rules().iter().zip(parallel.rules()) {
        assert!((rs.eigenvalue - rp.eigenvalue).abs() / rs.eigenvalue < 1e-9);
        for (a, b) in rs.loadings.iter().zip(&rp.loadings) {
            assert!((a - b).abs() < 1e-8);
        }
    }
}

/// Multi-file mining: scanning per-day CSV shards and merging their
/// accumulators is equivalent to mining the concatenated table, still in
/// one pass per shard.
#[test]
fn per_day_shards_merge_to_concatenated_mining() {
    use dataset::source::RowSource;
    use ratio_rules::resilience::{ScanPolicy, Scanner};

    let dir = tmpdir();
    let day1 = dir.join("day1.csv");
    let day2 = dir.join("day2.csv");
    let x = Matrix::from_fn(120, 3, |i, j| {
        let t = 1.0 + i as f64;
        t * [3.0, 2.0, 1.0][j] + ((i * 7 + j) % 9) as f64 * 0.02
    });
    let first = dataset::DataMatrix::new(x.select_rows(&(0..70).collect::<Vec<_>>()));
    let second = dataset::DataMatrix::new(x.select_rows(&(70..120).collect::<Vec<_>>()));
    csv::write_csv_file(&first, &day1).unwrap();
    csv::write_csv_file(&second, &day2).unwrap();

    let shards: Vec<_> = [&day1, &day2]
        .iter()
        .map(|path| {
            let mut src = CsvFileSource::open(path, true).unwrap();
            let mut scanner = Scanner::new(src.n_cols(), ScanPolicy::Strict);
            scanner.scan(&mut src).unwrap();
            scanner.into_parts().0
        })
        .collect();
    let merged = ratio_rules::parallel::tree_merge(shards).unwrap();
    let chained = RatioRuleMiner::new(Cutoff::FixedK(1))
        .finish(&merged)
        .unwrap();
    let whole = RatioRuleMiner::new(Cutoff::FixedK(1))
        .fit_matrix(&x)
        .unwrap();

    assert_eq!(chained.n_train(), 120);
    for (a, b) in chained.rule(0).loadings.iter().zip(&whole.rule(0).loadings) {
        assert!((a - b).abs() < 1e-12);
    }
}

/// Rule mining is invariant to row order (the covariance is a sum).
#[test]
fn mining_is_row_order_invariant() {
    let data = dataset::synth::abalone::abalone_like_sized(300, 31).unwrap();
    let x = data.matrix();
    let forward = RatioRuleMiner::new(Cutoff::FixedK(2))
        .fit_matrix(x)
        .unwrap();

    let reversed_idx: Vec<usize> = (0..x.rows()).rev().collect();
    let reversed = x.select_rows(&reversed_idx);
    let backward = RatioRuleMiner::new(Cutoff::FixedK(2))
        .fit_matrix(&reversed)
        .unwrap();

    for (rf, rb) in forward.rules().iter().zip(backward.rules()) {
        assert!((rf.eigenvalue - rb.eigenvalue).abs() / rf.eigenvalue.max(1e-12) < 1e-9);
        for (a, b) in rf.loadings.iter().zip(&rb.loadings) {
            assert!((a - b).abs() < 1e-8);
        }
    }
}

/// The umbrella crate's prelude exposes the advertised API.
#[test]
fn prelude_compiles_and_works() {
    use ratio_rules_repro::prelude::*;

    let x = Matrix::from_rows(&[&[2.0, 1.0], &[4.0, 2.0], &[6.0, 3.0], &[8.0, 4.1]]).unwrap();
    let data = DataMatrix::new(x);
    let split = train_test_split(&data, 0.5, 1).unwrap();
    let rules: RuleSet = RatioRuleMiner::new(Cutoff::EnergyFraction(0.85))
        .fit_data(&split.train)
        .unwrap();
    let p = ratio_rules::predictor::RuleSetPredictor::new(rules);
    let ev = GuessingErrorEvaluator::default();
    let ge = ev.ge1(&p, split.test.matrix()).unwrap();
    assert!(ge.is_finite());
    // Predictor trait is in scope via the prelude.
    let _ = p.name();
}
